//! The repository's benchmark. README.md has the workloads, the metrics,
//! what each layer metric should move and how to read a traced run;
//! `python3 perf/run.py` stages the sources, builds this and runs it.
//!
//! One process runs one workload: set-up (operation list, reference runs,
//! a warm-up pass), timed passes for `--seconds`, then — unless
//! `--trace 0` — a traced pass and the layer drives. Without `--workload`
//! the process runs each workload in a fresh child of itself, in turn.

mod alloc;
mod drives;
mod host;
mod job;
mod metrics;
mod spans;
mod workloads;

use job::{run_stepwise, run_timed, Counts, Job, Outcome};
use spans::{layer_of, Tracer};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workloads::{Verdict, Workload};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: memtier-perf [--workload <name>] [--seed <n>] [--seconds <s>] \
                     [--trace <0|1>] [--smoke] [--out <dir>]";

/// The traced section's span self times must re-sum to its wall time,
/// measured independently, within this share.
const RESUM_SLACK: f64 = 0.01;

/// Set-up is repeated at least `MIN_SETUPS` times, and until the rounds add
/// up to `SETUP_FLOOR_S` seconds or there are `MAX_SETUPS` of them.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 15;
const SETUP_FLOOR_S: f64 = 1.5;

struct Args {
    workload: Option<String>,
    seed: u64,
    /// How long the timed section measures.
    seconds: f64,
    /// `Some(false)`: end-to-end metrics only. `Some(true)`: per-layer
    /// metrics only. `None`: both.
    trace: Option<bool>,
    /// One set-up, one timed pass, tiny inputs: for tests.
    smoke: bool,
    out: PathBuf,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: 20.0,
        trace: None,
        smoke: false,
        out: PathBuf::from("perf/out"),
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !workloads::NAMES.contains(&name.as_str()) {
                    return Err(format!(
                        "unknown workload {name:?}; one of {:?}",
                        workloads::NAMES
                    ));
                }
                args.workload = Some(name.clone());
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out = PathBuf::from(value()?),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    alloc::keep_heap();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("memtier-perf: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match &args.workload {
        Some(name) => run_workload(name, &args, process_start),
        None => run_each_in_a_child(&raw),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("memtier-perf: {message}");
            ExitCode::from(1)
        }
    }
}

/// Runs every workload in a fresh child process, one after another, so
/// that none inherits another's heap or page cache state; relays their
/// output and ends with one JSON line holding each child's result line.
fn run_each_in_a_child(raw: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut lines = Vec::new();
    let mut all_correct = true;
    for name in workloads::NAMES {
        let mut child = Command::new(&exe)
            .args(raw)
            .args(["--workload", name])
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {name}: {e}"))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut last = String::new();
        for line in BufReader::new(stdout).lines() {
            let line = line.map_err(|e| format!("read {name}: {e}"))?;
            if !line.starts_with('{') {
                println!("{line}");
            }
            last = line;
        }
        let status = child.wait().map_err(|e| format!("wait {name}: {e}"))?;
        all_correct &= status.success();
        if last.starts_with('{') {
            lines.push(format!("\"{name}\":{last}"));
        }
    }
    println!(
        "{{\"correct\":{all_correct},\"workloads\":{{{}}}}}",
        lines.join(",")
    );
    Ok(all_correct)
}

/// One pass: each operation's outcome, `None` where it failed, and why.
struct Pass {
    outcomes: Vec<Option<Outcome>>,
    errors: Vec<String>,
}

/// Runs the operations in order; `run` gets the outcomes so far, which a
/// report operation reads.
fn run_pass(
    jobs: &[Job],
    mut run: impl FnMut(usize, &Job, &[Option<Outcome>]) -> Result<Outcome, String>,
) -> Pass {
    let mut pass = Pass {
        outcomes: Vec::with_capacity(jobs.len()),
        errors: Vec::new(),
    };
    for (op, job) in jobs.iter().enumerate() {
        let outcome = run(op, job, &pass.outcomes);
        let outcome = outcome.map_err(|e| pass.errors.push(format!("operation {op}: {e}")));
        pass.outcomes.push(outcome.ok());
    }
    pass
}

fn stepwise_pass(jobs: &[Job], tracer: &mut Tracer, counts: &mut Counts) -> Pass {
    run_pass(jobs, |op, job, done| {
        run_stepwise(job, op, done, tracer, counts)
    })
}

/// What one pass amounted to, once audited.
struct PassSummary {
    /// Per operation: identity hash and conservation, `None` if it failed.
    audits: Vec<Option<(u64, bool)>>,
    virtual_s: f64,
    verdicts: Vec<Verdict>,
    errors: Vec<String>,
}

/// Audits a pass's outcomes and evaluates the shape predicates on them.
fn summarize(workload: &Workload, pass: Pass, tracer: &mut Tracer) -> PassSummary {
    let audits: Vec<Option<(u64, bool)>> = tracer.leaf("perf.audit", 0, || {
        pass.outcomes
            .iter()
            .map(|o| o.as_ref().map(Outcome::audit))
            .collect()
    });
    let virtual_s = pass.outcomes.iter().flatten().map(Outcome::virtual_s).sum();
    let verdicts = workload.shape(pass.outcomes, &audits, tracer);
    PassSummary {
        audits,
        virtual_s,
        verdicts,
        errors: pass.errors,
    }
}

/// Tallies operations across passes against the first pass recorded.
#[derive(Default)]
struct Ledger {
    reference: Option<PassSummary>,
    attempted: u64,
    failed: u64,
    /// Why operations failed, and how later passes differed from the first.
    complaints: Vec<String>,
    /// Whether `virtual_s` or the shape verdicts differed between passes.
    drifted: bool,
}

impl Ledger {
    fn record(&mut self, what: &str, pass: PassSummary) {
        self.attempted += pass.audits.len() as u64;
        self.complaints
            .extend(pass.errors.iter().map(|e| format!("{what}: {e}")));
        let Some(reference) = &self.reference else {
            let sound = pass
                .audits
                .iter()
                .filter(|a| matches!(a, Some((_, true))))
                .count();
            self.failed += (pass.audits.len() - sound) as u64;
            self.reference = Some(pass);
            return;
        };
        for (op, (audit, expected)) in pass.audits.iter().zip(&reference.audits).enumerate() {
            if !matches!((audit, expected), (Some((id, true)), Some((want, _))) if id == want) {
                self.failed += 1;
                self.complaints.push(format!(
                    "{what}: operation {op} is {audit:x?}, the first pass had {expected:x?}"
                ));
            }
        }
        if pass.virtual_s.to_bits() != reference.virtual_s.to_bits() {
            self.drifted = true;
            let (now, first) = (pass.virtual_s, reference.virtual_s);
            self.complaints
                .push(format!("{what}: virtual_s {now} != {first}"));
        }
        if pass.verdicts != reference.verdicts {
            self.drifted = true;
            self.complaints
                .push(format!("{what}: shape verdicts differ from the first pass"));
        }
    }
}

fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (sorted.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
    };
    (at(0.25), at(0.5), at(0.75))
}

type Metrics = BTreeMap<&'static str, f64>;

fn run_workload(name: &str, args: &Args, process_start: Instant) -> Result<bool, String> {
    let with_end_to_end = args.trace != Some(true);
    let with_layers = args.trace != Some(false);
    let mut ledger = Ledger::default();
    let mut metrics = Metrics::new();

    // Set-up, several times over so that its median is steady: the
    // operation list with its reference runs, and a warm-up pass that
    // fills allocator arenas and lazy statics. The warm-up goes through
    // the stepwise path with the engine's counters on, which makes it the
    // reference the timed passes are audited against and the source of
    // the event count behind `events_per_s`. Three rounds, and for a
    // short set-up as many more as fit in `SETUP_FLOOR_S`.
    let (least, most) = if with_end_to_end && !args.smoke {
        (MIN_SETUPS, MAX_SETUPS)
    } else {
        (1, 1)
    };
    let mut setup_s: Vec<f64> = Vec::new();
    let (workload, warm_up, events) = loop {
        let start = if setup_s.is_empty() {
            process_start
        } else {
            Instant::now()
        };
        let workload = Workload::build(name, args.seed, args.smoke)?;
        let mut counts = Counts::default();
        let warm_up = stepwise_pass(&workload.jobs, &mut Tracer::new(false), &mut counts);
        setup_s.push(start.elapsed().as_secs_f64());
        let long_enough = setup_s.iter().sum::<f64>() >= SETUP_FLOOR_S;
        if setup_s.len() >= most || (setup_s.len() >= least && long_enough) {
            break (workload, warm_up, counts.events);
        }
    };
    let setups = setup_s.len();
    ledger.record(
        "warm-up",
        summarize(&workload, warm_up, &mut Tracer::new(false)),
    );

    // The timed section: passes through the public entry points, closed
    // loop, one client. Audits run between passes with the clock stopped.
    let section = Instant::now();
    let (mut pass_s, mut cpu_s) = (Vec::new(), 0.0);
    loop {
        let (cpu, start) = (host::cpu_seconds(), Instant::now());
        let pass = run_pass(&workload.jobs, |_, job, done| run_timed(job, done));
        pass_s.push(start.elapsed().as_secs_f64());
        cpu_s += host::cpu_seconds()
            .zip(cpu)
            .map_or(0.0, |(after, before)| after - before);
        let what = format!("timed pass {}", pass_s.len());
        ledger.record(&what, summarize(&workload, pass, &mut Tracer::new(false)));
        if args.smoke || section.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let peak_rss_mib = host::peak_rss_mib().ok_or("cannot read VmHWM from /proc/self/status")?;
    let (pass_q1, pass_median, pass_q3) = quartiles(&pass_s);
    let (_, setup_median, _) = quartiles(&setup_s);

    println!(
        "workload {name}  seed {}  host: {}",
        args.seed,
        host::describe()
    );
    println!(
        "  {} operations per pass; {} timed passes: median {pass_median:.4} s \
         (q1 {pass_q1:.4}, q3 {pass_q3:.4}); {setups} set-ups: median {setup_median:.4} s",
        workload.jobs.len(),
        pass_s.len(),
    );
    let reference = ledger.reference.as_ref().expect("the warm-up was recorded");
    let held = reference.verdicts.iter().filter(|(_, held)| *held).count();
    println!("  shape_ok {held}/{}", reference.verdicts.len());
    for (predicate, _) in reference.verdicts.iter().filter(|(_, held)| !held) {
        println!("    does not hold: {predicate}");
    }
    if with_end_to_end {
        metrics.insert("pass_s", pass_median);
        metrics.insert("events_per_s", events as f64 / pass_median);
        metrics.insert("virtual_s", reference.virtual_s);
        metrics.insert("shape_ok", held as f64 / reference.verdicts.len() as f64);
        metrics.insert("peak_rss_mb", peak_rss_mib);
        metrics.insert("setup_s", setup_median);
    }

    let mut resums = true;
    if with_layers {
        resums = traced_section(&workload, args, pass_median, &mut ledger, &mut metrics)?;
        metrics.insert("host.cpu_s", cpu_s);
    }

    // Every metric the mode declares must be there, under its unit.
    let tables = [
        (with_end_to_end, metrics::END_TO_END),
        (with_layers, metrics::PER_LAYER),
    ];
    let declared = tables
        .into_iter()
        .filter(|(wanted, _)| *wanted)
        .flat_map(|(_, table)| table);
    let (mut json, mut missing) = (Vec::new(), Vec::new());
    for (metric, unit) in declared {
        match metrics.get(metric) {
            Some(value) if value.is_finite() => {
                println!("  {metric:<30} {value:>20.6} {unit}");
                json.push(format!(
                    "\"{metric}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}"
                ));
            }
            _ => missing.push(*metric),
        }
    }

    for complaint in ledger.complaints.iter().take(20) {
        println!("  FAILED {complaint}");
    }
    if !missing.is_empty() {
        println!("  FAILED metrics missing from the output: {missing:?}");
    }
    let (failed, attempted) = (ledger.failed, ledger.attempted);
    println!("  fail_ratio {failed}/{attempted} operations");
    let correct = failed == 0 && !ledger.drifted && missing.is_empty() && resums;
    let json = json.join(",");
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\
         \"metrics\":{{{json}}}}}"
    );
    Ok(correct)
}

/// The traced section: the same operations stepwise with spans and
/// allocation counting on, then the audit and shape checks, then the
/// layer drives. Fills in the per-layer metrics, prints the self-time
/// table, writes the span trace, and returns whether the table re-sums to
/// the section's wall time within [`RESUM_SLACK`].
fn traced_section(
    workload: &Workload,
    args: &Args,
    pass_median: f64,
    ledger: &mut Ledger,
    metrics: &mut Metrics,
) -> Result<bool, String> {
    let mut tracer = Tracer::new(true);
    let mut counts = Counts::default();
    let wall = Instant::now();
    let (summary, allocs) = tracer.span("perf.traced", 0, |tracer| {
        alloc::start();
        let pass = tracer.span("perf.pass", 0, |t| {
            stepwise_pass(&workload.jobs, t, &mut counts)
        });
        let allocs = alloc::stop();
        (
            tracer.span("perf.check", 0, |t| summarize(workload, pass, t)),
            allocs,
        )
    });
    let wall_ns = wall.elapsed().as_nanos() as f64;
    let differs = |(audit, plain): &(&Option<(u64, bool)>, &Option<u64>)| matches!((audit, plain), (Some((id, _)), Some(plain)) if id != plain);
    let drift = summary
        .audits
        .iter()
        .zip(&workload.plain_identity)
        .filter(differs)
        .count();
    ledger.record("traced pass", summary);

    // Self time by layer; the containers' own self time is what no layer
    // span covers.
    let self_ns = tracer.self_ns_by_name();
    let containers = ["perf.traced", "perf.pass", "perf.check"];
    let untraced_ns: u64 = containers.iter().filter_map(|c| self_ns.get(c)).sum();
    let mut by_layer: BTreeMap<&str, u64> = BTreeMap::new();
    for (name, ns) in self_ns
        .iter()
        .filter(|(name, _)| !containers.contains(name))
    {
        *by_layer.entry(layer_of(name)).or_insert(0) += ns;
    }
    let resummed = by_layer.values().sum::<u64>() + untraced_ns;
    let gap = (wall_ns - resummed as f64).abs() / wall_ns;
    println!(
        "  traced section {:.1} ms; self time by layer:",
        wall_ns / 1e6
    );
    for (layer, ns) in by_layer.into_iter().chain([("untraced", untraced_ns)]) {
        let (ms, share) = (ns as f64 / 1e6, ns as f64 / wall_ns * 100.0);
        println!("    {layer:<12} {ms:>10.2} ms {share:>6.1} %");
    }
    println!(
        "    re-sums to {:.2} ms, {:.3} % from the wall time (slack {} %){}",
        resummed as f64 / 1e6,
        gap * 100.0,
        RESUM_SLACK * 100.0,
        if gap <= RESUM_SLACK {
            ""
        } else {
            ": OUT OF SLACK"
        }
    );

    let pass_ns = tracer.total_ns("perf.pass") as f64;
    let ms = |span: &str| tracer.total_ns(span) as f64 / 1e6;
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let c = &counts;
    metrics.extend([
        ("des.events", c.events as f64),
        ("des.schedules", c.schedules as f64),
        ("des.pops", c.pops as f64),
        ("des.reshares", c.reshares as f64),
        ("des.peak_depth", c.peak_depth as f64),
        ("des.peak_active_flows", c.peak_active_flows as f64),
        (
            "des.reshares_per_event",
            ratio(c.reshares as f64, c.events as f64),
        ),
        ("memsim.accesses", c.accesses as f64),
        ("memsim.bytes", c.bytes as f64),
        ("memsim.objects", c.objects as f64),
        ("memsim.cancelled_bytes", c.cancelled_bytes as f64),
        ("memsim.migrated_bytes", c.migrated_bytes as f64),
        ("netsim.transfers", c.net_transfers as f64),
        ("netsim.bytes", c.net_bytes as f64),
        ("netsim.cross_rack_bytes", c.net_cross_rack_bytes as f64),
        (
            "netsim.cross_rack_blind_bytes",
            c.net_cross_rack_blind_bytes as f64,
        ),
        (
            "netsim.cross_rack_delay_bytes",
            c.net_cross_rack_delay_bytes as f64,
        ),
        ("sparklite.context_new_ms", ms("sparklite.context_new")),
        ("sparklite.cascade_ms", ms("sparklite.cascade")),
        ("sparklite.finish_ms", ms("sparklite.finish")),
        ("sparklite.trace_json_ms", ms("sparklite.trace_json")),
        ("sparklite.explain_ms", ms("sparklite.explain")),
        ("sparklite.jobs", c.jobs as f64),
        ("sparklite.stages", c.stages as f64),
        ("sparklite.tasks", c.tasks as f64),
        ("sparklite.retries", c.retries as f64),
        ("sparklite.resubmits", c.resubmits as f64),
        ("sparklite.spec_launched", c.spec_launched as f64),
        ("sparklite.profile_gaps", c.profile_gaps as f64),
        ("sparklite.migrations", c.migrations as f64),
        ("sparklite.trace_json_bytes", c.trace_json_bytes as f64),
        (
            "sparklite.useful_ratio",
            ratio(c.useful_ps as f64, (c.useful_ps + c.wasted_ps) as f64),
        ),
        ("workloads.run_ms", ms("workloads.run")),
        (
            "workloads.run_share",
            ratio(tracer.total_ns("workloads.run") as f64, pass_ns),
        ),
        ("workloads.output_records", c.output_records as f64),
        ("core.scenarios", c.scenarios as f64),
        ("core.instrumented_drift", drift as f64),
        ("core.guidelines_ms", ms("core.guidelines")),
        ("core.result_json_ms", ms("core.result_json")),
        ("core.result_json_bytes", c.result_json_bytes as f64),
        ("bench.project_ms", ms("bench.project")),
        ("bench.json_ms", ms("bench.json")),
        ("bench.json_bytes", c.bench_json_bytes as f64),
        ("host.allocs", allocs.allocs as f64),
        ("host.alloc_bytes", allocs.bytes as f64),
        ("host.peak_live_bytes", allocs.peak_live_bytes as f64),
        (
            "host.allocs_per_event",
            ratio(allocs.allocs as f64, c.events as f64),
        ),
        ("host.trace_overhead", pass_ns / 1e9 / pass_median - 1.0),
        ("host.untraced_ms", untraced_ns as f64 / 1e6),
    ]);
    metrics.extend(drives::run_all(if args.smoke { 100 } else { 1 }));

    let out = &args.out;
    std::fs::create_dir_all(out).map_err(|e| format!("create {}: {e}", out.display()))?;
    let path = out.join(format!("trace-{}.json", workload.name));
    let written = std::fs::write(&path, tracer.chrome_json());
    written.map_err(|e| format!("write {}: {e}", path.display()))?;
    println!(
        "  {} spans written to {}",
        tracer.spans().len(),
        path.display()
    );
    Ok(gap <= RESUM_SLACK)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate() {
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), (2.0, 3.0, 4.0));
        assert_eq!(quartiles(&[2.0, 1.0]), (1.25, 1.5, 1.75));
    }

    #[test]
    fn flags_are_checked_where_they_enter() {
        let parse =
            |flags: &[&str]| parse_args(&flags.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        let args = parse(&[
            "--workload",
            "net-faults",
            "--seed",
            "7",
            "--seconds",
            "2.5",
        ])
        .unwrap();
        assert_eq!(args.workload.as_deref(), Some("net-faults"));
        assert_eq!((args.seed, args.seconds, args.trace), (7, 2.5, None));
        assert_eq!(parse(&["--trace", "1"]).unwrap().trace, Some(true));
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--trace", "2"]).is_err());
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--jobs", "4"]).is_err());
    }
}
