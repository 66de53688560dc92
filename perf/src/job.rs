//! The operations a pass is made of, run two ways.
//!
//! [`run_timed`] goes through the entry points a user calls
//! (`memtier_core::run_scenario` and friends) with profiling off; it is
//! what the end-to-end metrics time. [`run_stepwise`] makes the same run
//! call by call — `conf_for` → `SparkContext::new` → `Workload::run` →
//! `SparkContext::finish` — with the engine's own counters on and a span
//! around every call; it feeds the per-layer metrics. The two must agree
//! on every virtual result, which [`Outcome::audit`] lets the caller check.

use crate::spans::Tracer;
use memtier_bench::{bench_doctor_entries, bench_hotness_entries, bench_profile_entries};
use memtier_core::{
    conf_for, run_scenario, run_scenario_instrumented, Scenario, ScenarioResult, TelemetryOptions,
};
use memtier_memsim::{CpuBindPolicy, TierId};
use memtier_workloads::{workload_by_name, WorkloadOutput};
use sparklite::context::RunReport;
use sparklite::{explain, EngineStats, LocalityMode, NetworkMode, OpCost, SparkConf, SparkContext};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One operation of a pass.
#[derive(Debug, Clone)]
pub enum Job {
    /// A scenario run, as `run_scenario` makes it.
    Plain(Scenario),
    /// A scenario run with counter sampling, event log and Chrome trace
    /// on, followed by serializing its result (`report-serde`).
    Instrumented(Scenario),
    /// The shuffle cascade on sparklite's public API (`kernel-stress`).
    Cascade(Cascade),
    /// `explain` between two earlier operations' digests, then the bench
    /// projections of both results, all serialized (`report-serde`).
    Report { baseline: usize, candidate: usize },
}

/// generate → map → reduce_by_key → partition_by → join → sort_by_key →
/// count, the `simspeed` bin's `dag-stress` rebuilt here so that its keys
/// can take the seed and its width the executor grid.
#[derive(Debug, Clone)]
pub struct Cascade {
    pub tier: TierId,
    pub mba_percent: Option<u8>,
    pub records: usize,
    pub partitions: usize,
    pub salt: u64,
}

/// The cascade's executor grid: up to 80 flows at once on a tier.
const CASCADE_EXECUTORS: usize = 8;
const CASCADE_CORES: usize = 10;

/// What one operation produced.
#[derive(Debug)]
pub enum Outcome {
    /// A scenario run's result.
    Scenario(Box<ScenarioResult>),
    /// An operation without a `ScenarioResult` (the cascade, a report):
    /// its identity hash and conservation verdict, computed on the spot.
    Bare {
        virtual_s: f64,
        identity: u64,
        conserved: bool,
    },
}

impl Outcome {
    pub fn virtual_s(&self) -> f64 {
        match self {
            Outcome::Scenario(r) => r.elapsed_s,
            Outcome::Bare { virtual_s, .. } => *virtual_s,
        }
    }

    pub fn result(&self) -> Option<&ScenarioResult> {
        match self {
            Outcome::Scenario(r) => Some(r),
            Outcome::Bare { .. } => None,
        }
    }

    pub fn into_result(self) -> Option<ScenarioResult> {
        match self {
            Outcome::Scenario(r) => Some(*r),
            Outcome::Bare { .. } => None,
        }
    }

    /// `(identity, conserved)`: a hash that two runs of the same operation
    /// must share, and whether the run's conservation predicates hold.
    /// Serializes the whole result, so call it with the clock stopped.
    pub fn audit(&self) -> (u64, bool) {
        match self {
            Outcome::Scenario(r) => {
                // Under a fault plan the critical-path attribution does not
                // always re-sum to the runtime at this baseline (README.md,
                // "Predicates that do not hold"); `sparklite.profile_gaps`
                // counts those runs instead of failing them.
                let conserved = (r.scenario.faults.is_some() || r.profile.conserves())
                    && r.hotness.conserves(&r.counters)
                    && net_partitions(r);
                (fnv1a(r.virtual_identity_json().as_bytes()), conserved)
            }
            Outcome::Bare {
                identity,
                conserved,
                ..
            } => (*identity, *conserved),
        }
    }
}

/// Counts read from what the layers return, summed over a stepwise pass.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    pub scenarios: u64,
    pub events: u64,
    pub schedules: u64,
    pub pops: u64,
    pub reshares: u64,
    pub peak_depth: u64,
    pub peak_active_flows: u64,
    pub accesses: u64,
    pub bytes: u64,
    pub objects: u64,
    pub cancelled_bytes: u64,
    pub migrated_bytes: u64,
    pub net_transfers: u64,
    pub net_bytes: u64,
    pub net_cross_rack_bytes: u64,
    /// Cross-rack bytes of the fault-free runs under blind placement and
    /// under delay scheduling.
    pub net_cross_rack_blind_bytes: u64,
    pub net_cross_rack_delay_bytes: u64,
    pub jobs: u64,
    pub stages: u64,
    pub tasks: u64,
    pub retries: u64,
    pub resubmits: u64,
    pub spec_launched: u64,
    /// Runs whose critical-path attribution does not re-sum to `elapsed`.
    pub profile_gaps: u64,
    pub migrations: u64,
    pub trace_json_bytes: u64,
    pub result_json_bytes: u64,
    pub bench_json_bytes: u64,
    pub output_records: u64,
    pub useful_ps: u128,
    pub wasted_ps: u128,
}

impl Counts {
    fn add_report(&mut self, report: &RunReport, engine: Option<&EngineStats>) {
        self.scenarios += 1;
        if let Some(e) = engine {
            self.events += e.events_total;
            self.schedules += e.queue.schedules;
            self.pops += e.queue.pops;
            self.reshares += e.resource.reshares;
            self.peak_depth = self.peak_depth.max(e.queue.peak_depth);
            self.peak_active_flows = self.peak_active_flows.max(e.resource.peak_active_flows);
        }
        let counters = &report.telemetry.counters;
        self.accesses += counters.total();
        self.bytes += counters
            .tiers
            .iter()
            .map(|t| t.bytes_read + t.bytes_written)
            .sum::<u64>();
        self.objects += report.hotness.objects.len() as u64;
        self.cancelled_bytes += report.recovery.cancelled_bytes;
        self.migrated_bytes += report.migrations.bytes_moved;
        self.net_transfers += report.network.transfers;
        self.net_bytes += report.network.total_bytes;
        self.net_cross_rack_bytes += report.network.cross_rack_bytes;
        self.jobs += report.metrics.jobs;
        self.stages += report.metrics.stages;
        self.tasks += report.metrics.tasks;
        self.retries += report.recovery.retries;
        self.resubmits += report.recovery.stage_resubmissions;
        self.spec_launched += report.recovery.speculative_launched;
        self.profile_gaps += u64::from(!report.profile.conserves());
        self.migrations += report.migrations.migrations;
        self.useful_ps += u128::from(report.recovery.useful_time.0);
        self.wasted_ps += u128::from(report.recovery.wasted_time.0);
    }
}

/// Runs `body`, turning an `Err` or a panic into a message.
fn attempt<T>(body: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    match catch_unwind(AssertUnwindSafe(body)) {
        Ok(result) => result,
        Err(panic) => Err(panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .map_or_else(|| "panicked".into(), |m| format!("panicked: {m}"))),
    }
}

fn result_of(prior: &[Option<Outcome>], op: usize) -> Result<&ScenarioResult, String> {
    prior
        .get(op)
        .and_then(|o| o.as_ref())
        .and_then(Outcome::result)
        .ok_or_else(|| format!("operation {op} left no result to report on"))
}

/// Runs one operation through the public entry points, profiling off.
/// `prior` holds the outcomes of the pass's earlier operations.
pub fn run_timed(job: &Job, prior: &[Option<Outcome>]) -> Result<Outcome, String> {
    attempt(|| match job {
        Job::Plain(s) => {
            let result = run_scenario(s).map_err(|e| e.to_string())?;
            Ok(Outcome::Scenario(Box::new(result)))
        }
        Job::Instrumented(s) => {
            let (result, telemetry) = run_scenario_instrumented(s, &TelemetryOptions::default())
                .map_err(|e| e.to_string())?;
            black_box(&telemetry);
            black_box(serde_json::to_vec(&result).map_err(|e| e.to_string())?);
            Ok(Outcome::Scenario(Box::new(result)))
        }
        Job::Cascade(c) => run_cascade(c, 0, &mut Tracer::new(false), None),
        Job::Report {
            baseline,
            candidate,
        } => {
            let (b, c) = (result_of(prior, *baseline)?, result_of(prior, *candidate)?);
            report_on(b, c, 0, &mut Tracer::new(false), None)
        }
    })
}

/// Runs one operation call by call, with the engine's self-profiler on
/// (for its deterministic counters), recording a span around every call
/// into a layer and adding what the layers return to `counts`.
pub fn run_stepwise(
    job: &Job,
    op: usize,
    prior: &[Option<Outcome>],
    tracer: &mut Tracer,
    counts: &mut Counts,
) -> Result<Outcome, String> {
    attempt(|| match job {
        Job::Plain(s) => run_scenario_stepwise(s, None, op, tracer, counts),
        Job::Instrumented(s) => {
            run_scenario_stepwise(s, Some(&TelemetryOptions::default()), op, tracer, counts)
        }
        Job::Cascade(c) => run_cascade(c, op, tracer, Some(counts)),
        Job::Report {
            baseline,
            candidate,
        } => {
            let (b, c) = (result_of(prior, *baseline)?, result_of(prior, *candidate)?);
            report_on(b, c, op, tracer, Some(counts))
        }
    })
}

fn run_scenario_stepwise(
    s: &Scenario,
    telemetry: Option<&TelemetryOptions>,
    op: usize,
    tracer: &mut Tracer,
    counts: &mut Counts,
) -> Result<Outcome, String> {
    let conf = tracer.leaf("core.conf_for", op, || conf_for(s).with_engine_profiling());
    let sc = tracer
        .leaf("sparklite.context_new", op, || SparkContext::new(conf))
        .map_err(|e| e.to_string())?;
    if let Some(options) = telemetry {
        sc.enable_counter_sampling(options.sample_interval);
        if options.collect_events {
            sc.enable_event_log();
        }
        if options.trace {
            sc.enable_tracing();
        }
    }
    if let Some(percent) = s.mba_percent {
        sc.set_mba_all(percent);
    }
    let workload = workload_by_name(&s.workload)
        .ok_or_else(|| format!("unknown workload {:?}", s.workload))?;
    let output = tracer
        .leaf("workloads.run", op, || workload.run(&sc, s.size, s.seed))
        .map_err(|e| e.to_string())?;
    let mut report = tracer.leaf("sparklite.finish", op, || sc.finish());
    let engine = report.engine.take();
    counts.add_report(&report, engine.as_ref());
    counts.output_records += output.output_records;
    if let (Some(NetworkMode::Topology { locality, .. }), None) = (&s.network, &s.faults) {
        match locality {
            LocalityMode::Blind => {
                counts.net_cross_rack_blind_bytes += report.network.cross_rack_bytes
            }
            LocalityMode::DelayScheduling { .. } => {
                counts.net_cross_rack_delay_bytes += report.network.cross_rack_bytes
            }
        }
    }
    if telemetry.is_some() {
        // What `run_scenario_instrumented` exports after `finish()`.
        let trace = tracer.leaf("sparklite.trace_json", op, || {
            black_box(sc.logged_events());
            sc.chrome_trace()
        });
        counts.trace_json_bytes += trace.map_or(0, |t| t.len() as u64);
    }
    tracer.leaf("sparklite.teardown", op, || drop(sc));
    let result = assemble(s, report, output);
    if telemetry.is_some() {
        let json = tracer
            .leaf("core.result_json", op, || serde_json::to_vec(&result))
            .map_err(|e| e.to_string())?;
        counts.result_json_bytes += black_box(json).len() as u64;
    }
    Ok(Outcome::Scenario(Box::new(result)))
}

/// `memtier_core`'s private result assembly, repeated here because the
/// stepwise run holds the `RunReport` itself. The audit compares every
/// stepwise result with the one `run_scenario` built, so a drift between
/// the two copies fails the benchmark instead of skewing it.
fn assemble(s: &Scenario, report: RunReport, output: WorkloadOutput) -> ScenarioResult {
    let energy = &report.telemetry.energy;
    ScenarioResult {
        scenario: s.clone(),
        elapsed_s: report.elapsed.as_secs_f64(),
        counters: report.telemetry.counters,
        energy_j: TierId::all().map(|t| energy.tier(t).total_j()),
        energy_per_dimm_j: TierId::all().map(|t| energy.tier(t).per_dimm_j()),
        events: report.events.events,
        jobs: report.metrics.jobs,
        stages: report.metrics.stages,
        tasks: report.metrics.tasks,
        output_records: output.output_records,
        checksum: output.checksum,
        quality: output.quality,
        stage_rollups: report.stage_rollups,
        profile: report.profile,
        hotness: report.hotness,
        migrations: report.migrations,
        recovery: report.recovery,
        digest: report.digest,
        doctor: report.doctor,
        network: report.network,
        engine: None,
    }
}

/// SplitMix64's finalizer: record contents are a pure function of the
/// index and the salt, so the cascade needs no generator state.
pub fn mix(x: u64) -> u64 {
    let x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^ (x >> 27)
}

/// Runs the cascade; with `counts`, the engine's counters are on and what
/// the run returns is added to them.
fn run_cascade(
    c: &Cascade,
    op: usize,
    tracer: &mut Tracer,
    counts: Option<&mut Counts>,
) -> Result<Outcome, String> {
    let mut conf = SparkConf::bound_to_tier(c.tier)
        .with_executors(CASCADE_EXECUTORS, CASCADE_CORES)
        .with_parallelism(c.partitions);
    // As `core::conf_for` does for more than one executor.
    conf.placement.cpu = CpuBindPolicy::RoundRobin;
    if counts.is_some() {
        conf = conf.with_engine_profiling();
    }
    let sc = tracer
        .leaf("sparklite.context_new", op, || SparkContext::new(conf))
        .map_err(|e| e.to_string())?;
    if let Some(percent) = c.mba_percent {
        sc.set_mba_all(percent);
    }
    let (partitions, per_part, salt) = (c.partitions, c.records / c.partitions, c.salt);
    let records = tracer
        .leaf("sparklite.cascade", op, || {
            let input = sc.generate(
                partitions,
                move |part| {
                    (0..per_part)
                        .map(|i| {
                            let x = mix((part * per_part + i) as u64 ^ salt);
                            (x % 4096, x)
                        })
                        .collect::<Vec<(u64, u64)>>()
                },
                OpCost::cpu(40.0),
            );
            let left = input
                .map(|&(k, v)| (k % 1024, v))
                .reduce_by_key(u64::wrapping_add);
            let right = input
                .map(|&(k, v)| (k % 1024, v.rotate_left(7)))
                .partition_by(partitions);
            let sorted = left
                .join(&right, partitions)
                .map(|&(k, (a, b))| (a ^ b ^ k, k))
                .sort_by_key(partitions)?;
            sorted.count()
        })
        .map_err(|e| e.to_string())?;
    let mut report = tracer.leaf("sparklite.finish", op, || sc.finish());
    tracer.leaf("sparklite.teardown", op, || drop(sc));
    let engine = report.engine.take();
    let conserved =
        report.profile.conserves() && report.hotness.conserves(&report.telemetry.counters);
    let identity = serde_json::to_string(&(
        report.elapsed,
        report.telemetry.counters,
        report.metrics,
        records,
    ))
    .map_err(|e| e.to_string())?;
    if let Some(counts) = counts {
        counts.add_report(&report, engine.as_ref());
        counts.output_records += records;
    }
    Ok(Outcome::Bare {
        virtual_s: report.elapsed.as_secs_f64(),
        identity: fnv1a(identity.as_bytes()),
        conserved,
    })
}

/// `explain(baseline, candidate)`, the profile, hotness and doctor
/// projections of both results, and all of it as JSON.
fn report_on(
    baseline: &ScenarioResult,
    candidate: &ScenarioResult,
    op: usize,
    tracer: &mut Tracer,
    counts: Option<&mut Counts>,
) -> Result<Outcome, String> {
    let diff = tracer.leaf("sparklite.explain", op, || {
        explain(&baseline.digest, &candidate.digest)
    });
    let both = [baseline, candidate].map(std::slice::from_ref);
    let (profile, hotness, doctor) = tracer.leaf("bench.project", op, || {
        (
            both.map(bench_profile_entries),
            both.map(bench_hotness_entries),
            both.map(bench_doctor_entries),
        )
    });
    let json = tracer
        .leaf("bench.json", op, || -> serde_json::Result<Vec<Vec<u8>>> {
            Ok(vec![
                serde_json::to_vec(&profile)?,
                serde_json::to_vec(&hotness)?,
                serde_json::to_vec(&doctor)?,
                serde_json::to_vec(&diff)?,
            ])
        })
        .map_err(|e| e.to_string())?;
    if let Some(counts) = counts {
        counts.bench_json_bytes += json.iter().map(|j| j.len() as u64).sum::<u64>();
    }
    Ok(Outcome::Bare {
        virtual_s: 0.0,
        identity: json.iter().fold(FNV_OFFSET, |hash, j| fnv1a_from(hash, j)),
        conserved: diff.conserves(),
    })
}

/// The `netsweep` bin's partition checks: a wired run's bytes split
/// exactly by locality, by charge kind and over the uplinks; a loopback
/// run reports nothing.
fn net_partitions(r: &ScenarioResult) -> bool {
    let net = &r.network;
    if !matches!(r.scenario.network, Some(NetworkMode::Topology { .. })) {
        return net.is_empty();
    }
    let link_sum = |prefix: &str| -> u64 {
        net.links
            .iter()
            .filter(|l| l.label.starts_with(prefix) && l.label.ends_with(":up"))
            .map(|l| l.bytes)
            .sum()
    };
    let kinds = net.shuffle_bytes
        + net.broadcast_bytes
        + net.dfs_read_bytes
        + net.dfs_write_bytes
        + net.rereplicate_bytes;
    net.total_bytes == net.rack_local_bytes + net.cross_rack_bytes
        && net.total_bytes == kinds
        && net.total_bytes == link_sum("node")
        && net.cross_rack_bytes == link_sum("rack")
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a_from(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_from(FNV_OFFSET, bytes)
}
