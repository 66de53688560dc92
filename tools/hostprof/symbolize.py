#!/usr/bin/env python3
"""Turn a hostprof .raw file into self-time and inclusive-time tables.

    python3 symbolize.py run.raw <binary> [--top N]

Addresses inside <binary> have its load base (the start of its first
mapping in the recorded /proc/self/maps) subtracted and are resolved with one
`addr2line -f -C -i` call (the binary needs line tables: the benchmark's
release profile keeps `debug = "line-tables-only"`). Everything else is
attributed to the mapped object's file name (libc, the allocator, [vdso]).

Self time is the first frame below the signal machinery; with `-i` that is
the innermost *inlined* function at the sampled address. Inclusive time
counts a function once per sample, inlined frames included.
"""

import collections
import os
import subprocess
import sys

# Frames 0 and 1 of every sample are the handler and the signal trampoline.
SKIP = 2


def read_raw(path):
    maps, samples = [], []
    with open(path) as raw:
        lines = iter(raw)
        for line in lines:
            if line.strip() == "--":
                break
            fields = line.split()
            lo, hi = (int(x, 16) for x in fields[0].split("-"))
            maps.append((lo, hi, fields[5] if len(fields) > 5 else "[anon]"))
        for line in lines:
            frames = [int(x, 16) for x in line.split()][SKIP:]
            if frames:
                samples.append(frames)
    return maps, samples


def resolve(addresses, binary):
    """address -> [innermost function, ..., outermost] via addr2line -i."""
    ordered = sorted(addresses)
    out = subprocess.run(
        ["addr2line", "-f", "-C", "-i", "-a", "-e", binary, *[hex(a) for a in ordered]],
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    chains, current = {}, None
    # `-a` prints the address on a line of its own, then (function, file:line)
    # pairs, one per inlining level.
    i = 0
    while i < len(out):
        if out[i].startswith("0x"):
            current = int(out[i], 16)
            chains[current] = []
            i += 1
        else:
            chains[current].append(out[i])
            i += 2
    return chains


def main():
    args = sys.argv[1:]
    top = 30
    if "--top" in args:
        at = args.index("--top")
        top = int(args[at + 1])
        del args[at:at + 2]
    if len(args) != 2:
        sys.exit(__doc__)
    raw, binary = args
    maps, samples = read_raw(raw)
    real = os.path.realpath(binary)
    # A position-independent executable's first segment sits at virtual
    # address 0, so its lowest mapping is the load base.
    base = min((lo for lo, _, name in maps if os.path.realpath(name) == real), default=None)
    if base is None:
        sys.exit(f"{binary} is not mapped in {raw}")

    def locate(addr):
        for lo, hi, name in maps:
            if lo <= addr < hi:
                if os.path.realpath(name) == real:
                    return addr - base
                return os.path.basename(name)
        return "[unmapped]"

    # A return address points after the call; step back one byte so a call
    # that ends a line is attributed to it. The sampled pc (frame 0 after
    # SKIP) is exact.
    located = [
        [locate(a if depth == 0 else a - 1) for depth, a in enumerate(frames)]
        for frames in samples
    ]
    in_binary = {a for frames in located for a in frames if isinstance(a, int)}
    chains = resolve(in_binary, binary) if in_binary else {}

    def names(place):
        return chains[place] if isinstance(place, int) else [place]

    self_time, inclusive = collections.Counter(), collections.Counter()
    for frames in located:
        self_time[names(frames[0])[0]] += 1
        inclusive.update({n for place in frames for n in names(place)})

    total = len(located)
    print(f"{total} samples from {raw}")
    for title, table in (("self", self_time), ("inclusive", inclusive)):
        print(f"\n{title:>9}  %      samples  function")
        for name, count in table.most_common(top):
            print(f"{'':>9}  {100 * count / total:5.1f}  {count:7}  {name}")


if __name__ == "__main__":
    main()
