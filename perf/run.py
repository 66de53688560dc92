#!/usr/bin/env python3
"""Stage, build and run the benchmark: `python3 perf/run.py [flags]`.

The benchmark is the Rust package in this directory; its flags are listed in
README.md. This launcher exists because the package cannot depend on
`../crates/*` in place:

* the root workspace needs registry crates, and a checkout has no network,
  so the package builds against the stand-ins under `stubs/`;
* three places in `crates/sparklite` do not compile (with the published
  crates either); `FIXES` below patches them in a staged copy.

So every run (1) copies the root manifest and each crate's manifest and
`src/` to `stage/`, applying `FIXES`, and rewrites a staged file only when
its text changed, so an unchanged tree costs no rebuild; (2) runs
`cargo build --release --offline`; (3) executes the binary with the flags
it was given. `--build-only` stops after (2).
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
STAGE = HERE / "stage"

# (file, [(text that does not compile, replacement), ...]). A fix applies
# only while its first text is still in the file: once the repository has
# fixed the place itself, the fix is skipped.
FIXES = [
    # `skip_serializing_if` passes `&SimTime`; `SimTime::is_zero` takes `self`.
    (
        "crates/sparklite/src/profile.rs",
        [
            ('skip_serializing_if = "SimTime::is_zero"', 'skip_serializing_if = "time_is_zero"'),
            (
                "\nuse serde::{Deserialize, Serialize};\n",
                "\nuse serde::{Deserialize, Serialize};\n\n"
                "fn time_is_zero(t: &SimTime) -> bool {\n    t.is_zero()\n}\n",
            ),
        ],
    ),
    # A closure cannot return a borrow of its argument unless its signature
    # ties the two lifetimes; a nested fn elides them correctly.
    (
        "crates/sparklite/src/explain.rs",
        [
            (
                "let obj_map = |d: &RunDigest| -> BTreeMap<ObjectId, &ObjectDigest> {\n"
                "        d.objects.iter().map(|o| (o.object, o)).collect()\n    };",
                "fn obj_map(d: &RunDigest) -> BTreeMap<ObjectId, &ObjectDigest> {\n"
                "        d.objects.iter().map(|o| (o.object, o)).collect()\n    }",
            ),
        ],
    ),
]


def stage():
    """Mirror the crates' sources into STAGE with FIXES applied."""
    crates = REPO / "crates"
    if not (REPO / "Cargo.toml").is_file() or not crates.is_dir():
        sys.exit(f"perf/run.py: no workspace at {REPO}: nothing to benchmark")
    sources = [REPO / "Cargo.toml"]
    for crate in sorted(crates.iterdir()):
        if (crate / "Cargo.toml").is_file():
            sources.append(crate / "Cargo.toml")
            sources.extend(sorted((crate / "src").rglob("*.rs")))
    wanted = set()
    for source in sources:
        rel = source.relative_to(REPO)
        text = source.read_text()
        for path, edits in FIXES:
            if rel.as_posix() == path and edits[0][0] in text:
                for old, new in edits:
                    text = text.replace(old, new)
        target = STAGE / rel
        wanted.add(target)
        if not target.is_file() or target.read_text() != text:
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(text)
    for stale in STAGE.rglob("*"):
        if stale.is_file() and stale not in wanted:
            stale.unlink()


def main():
    args = sys.argv[1:]
    stage()
    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", str(HERE / "target")))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(HERE / "Cargo.toml")],
        env=env,
    )
    if build.returncode != 0:
        sys.exit(f"perf/run.py: build failed ({build.returncode})")
    if "--build-only" in args:
        return
    if "--out" not in args:
        args += ["--out", str(HERE / "out")]
    done = subprocess.run([str(target / "release" / "memtier-perf"), *args], env=env)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
