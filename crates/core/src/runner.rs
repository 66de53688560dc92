//! Scenario execution.

use crate::scenario::{Scenario, ScenarioResult};
use memtier_des::SimTime;
use memtier_memsim::{CounterSample, TierId};
use memtier_workloads::workload_by_name;
use sparklite::error::{Result, SparkError};
use sparklite::{SparkConf, SparkContext, TimedEvent};

/// Build the engine configuration for a scenario. Multi-executor
/// deployments round-robin across the two sockets, like the paper's
/// per-executor `numactl --cpunodebind` launches.
pub fn conf_for(scenario: &Scenario) -> SparkConf {
    let mut conf =
        SparkConf::bound_to_tier(scenario.tier).with_executors(scenario.executors, scenario.cores);
    if scenario.executors > 1 {
        conf.placement.cpu = memtier_memsim::CpuBindPolicy::RoundRobin;
    }
    if let Some(spec) = &scenario.placement {
        conf = conf.with_placement(spec.clone());
    }
    if let Some(plan) = &scenario.faults {
        conf = conf.with_faults(plan.clone());
    }
    if let Some(mode) = &scenario.network {
        conf = conf.with_network(mode.clone());
    }
    conf
}

/// Run one scenario end to end: a fresh context, the workload, and the full
/// telemetry teardown. Deterministic in the scenario.
///
/// # Examples
///
/// ```
/// use memtier_core::{run_scenario, Scenario};
/// use memtier_memsim::TierId;
/// use memtier_workloads::DataSize;
///
/// let s = Scenario::default_conf("repartition", DataSize::Tiny, TierId::NVM_NEAR);
/// let r = run_scenario(&s).unwrap();
/// assert!(r.elapsed_s > 0.0);
/// assert!(r.bound_tier_accesses() > 0);
/// ```
pub fn run_scenario(scenario: &Scenario) -> Result<ScenarioResult> {
    run_scenario_with_conf(scenario, conf_for(scenario))
}

/// Like [`run_scenario`] but with the wall-clock engine self-profiler on:
/// the result carries an `engine` sidecar ([`EngineStats`]) with events/sec,
/// queue and re-share statistics, and phase hotspots. Virtual results are
/// byte-identical to an unprofiled run — profiling is observation only, and
/// the sidecar lives outside the byte-identity domain.
///
/// [`EngineStats`]: sparklite::EngineStats
pub fn run_scenario_profiled(scenario: &Scenario) -> Result<ScenarioResult> {
    run_scenario_with_conf(scenario, conf_for(scenario).with_engine_profiling())
}

/// Like [`run_scenario`] but with an explicit engine configuration — the
/// ablation benches use this to switch model features on and off.
pub fn run_scenario_with_conf(scenario: &Scenario, conf: SparkConf) -> Result<ScenarioResult> {
    run_on_context(scenario, SparkContext::new(conf)?).map(|(result, _)| result)
}

/// What to record during an instrumented run.
#[derive(Debug, Clone)]
pub struct TelemetryOptions {
    /// Counter-sampling interval of virtual time.
    pub sample_interval: SimTime,
    /// Record lifecycle events into an in-memory log.
    pub collect_events: bool,
    /// Record task spans for Chrome-trace export.
    pub trace: bool,
}

impl Default for TelemetryOptions {
    fn default() -> Self {
        TelemetryOptions {
            sample_interval: SimTime::from_us(500),
            collect_events: true,
            trace: true,
        }
    }
}

/// The telemetry streams an instrumented run produces alongside its
/// [`ScenarioResult`].
#[derive(Debug, Clone, Default)]
pub struct ScenarioTelemetry {
    /// The sampled counter time series (last sample equals the run totals).
    pub counter_series: Vec<CounterSample>,
    /// The lifecycle event log, in emission order.
    pub events: Vec<TimedEvent>,
    /// Enriched Chrome-tracing JSON (`None` unless tracing was requested).
    pub trace_json: Option<String>,
}

/// Run one scenario with the full telemetry subsystem on: counter sampling,
/// the structured event log, and (optionally) Chrome-trace capture.
/// Deterministic in (scenario, options) like every other run.
pub fn run_scenario_instrumented(
    scenario: &Scenario,
    options: &TelemetryOptions,
) -> Result<(ScenarioResult, ScenarioTelemetry)> {
    let sc = SparkContext::new(conf_for(scenario))?;
    sc.enable_counter_sampling(options.sample_interval);
    if options.collect_events {
        sc.enable_event_log();
    }
    if options.trace {
        sc.enable_tracing();
    }
    run_on_context(scenario, sc)
}

/// Shared body of the plain and instrumented runners: workload execution,
/// teardown and result assembly on an already-configured context.
fn run_on_context(
    scenario: &Scenario,
    sc: SparkContext,
) -> Result<(ScenarioResult, ScenarioTelemetry)> {
    let workload = workload_by_name(&scenario.workload).ok_or_else(|| {
        SparkError::InvalidConfig(format!("unknown workload {:?}", scenario.workload))
    })?;
    if let Some(pct) = scenario.mba_percent {
        sc.set_mba_all(pct);
    }
    let output = workload.run(&sc, scenario.size, scenario.seed)?;
    let report = sc.finish();
    // The trace must be rendered *after* finish(): teardown takes the final
    // conservation sample the counter tracks end on.
    let telemetry = ScenarioTelemetry {
        counter_series: report.telemetry.counter_series.clone(),
        events: sc.logged_events(),
        trace_json: sc.chrome_trace(),
    };

    let energy_j = TierId::all().map(|t| report.telemetry.energy.tier(t).total_j());
    let energy_per_dimm_j = TierId::all().map(|t| report.telemetry.energy.tier(t).per_dimm_j());
    let result = ScenarioResult {
        scenario: scenario.clone(),
        elapsed_s: report.elapsed.as_secs_f64(),
        counters: report.telemetry.counters,
        energy_j,
        energy_per_dimm_j,
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
        engine: report.engine,
    };
    Ok((result, telemetry))
}

/// Run `f` over `items` on up to `jobs` worker threads, returning results
/// in **input order** regardless of completion order — the one worker pool
/// behind [`run_scenarios`] and the bench harnesses' `--jobs` flag.
///
/// This is the determinism contract of every sweep (DESIGN.md §16): each
/// item is an independent, internally deterministic computation (a
/// scenario simulation), workers pull items off a shared atomic cursor,
/// and every result lands in the slot of its input index — so the output
/// vector is byte-identical for any worker count. `jobs <= 1` runs inline
/// on the caller thread, which *is* the sequential loop.
///
/// A panicking item panics the sweep (std `thread::scope` propagates it),
/// matching the sequential behavior of `f` panicking mid-loop.
pub fn parallel_sweep<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let jobs = jobs.clamp(1, items.len().max(1));
    if jobs == 1 {
        return items.iter().map(&f).collect();
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    {
        let locked: Vec<std::sync::Mutex<&mut Option<R>>> =
            slots.iter_mut().map(std::sync::Mutex::new).collect();
        std::thread::scope(|scope| {
            for _ in 0..jobs {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    let r = f(&items[i]);
                    **locked[i].lock().expect("sweep slot poisoned") = Some(r);
                });
            }
        });
    }
    slots
        .into_iter()
        .map(|r| r.expect("sweep worker left a hole"))
        .collect()
}

/// Run many scenarios, `threads`-wide in parallel. Results come back in the
/// input order; each scenario is an isolated deterministic simulation, so
/// parallelism does not affect any measurement.
pub fn run_scenarios(scenarios: &[Scenario], threads: usize) -> Result<Vec<ScenarioResult>> {
    parallel_sweep(scenarios, threads, run_scenario)
        .into_iter()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use memtier_workloads::DataSize;

    #[test]
    fn runs_a_scenario_and_reports_everything() {
        let s = Scenario::default_conf("repartition", DataSize::Tiny, TierId::NVM_NEAR);
        let r = run_scenario(&s).unwrap();
        assert!(r.elapsed_s > 0.0);
        assert!(r.output_records > 0);
        assert!(r.bound_tier_accesses() > 0);
        assert_eq!(r.counters.tier(TierId::LOCAL_DRAM).total(), 0);
        assert!(r.energy_j[TierId::NVM_NEAR.index()] > 0.0);
        assert!(r.jobs > 0 && r.tasks > 0);
        assert!(r.event("cpu_ns").unwrap() > 0.0);
    }

    #[test]
    fn instrumented_run_is_consistent_and_conserves() {
        let s = Scenario::default_conf("repartition", DataSize::Tiny, TierId::NVM_NEAR);
        let (r, t) = run_scenario_instrumented(&s, &TelemetryOptions::default()).unwrap();
        // The critical-path profile conserves the end-to-end runtime.
        assert!(r.profile.conserves());
        assert!((r.profile.elapsed.as_secs_f64() - r.elapsed_s).abs() < 1e-12);
        // Rollups cover every stage, and their task counts sum to the total.
        assert_eq!(r.stage_rollups.len() as u64, r.stages);
        let rollup_tasks: u64 = r.stage_rollups.iter().map(|x| x.tasks).sum();
        assert_eq!(rollup_tasks, r.tasks);
        // The counter series ends exactly on the run's cumulative totals.
        let last = t.counter_series.last().expect("series must be non-empty");
        assert_eq!(last.counters, r.counters);
        // The per-object attribution conserves against the same counters.
        assert!(r.hotness.conserves(&r.counters));
        assert!(!r.hotness.objects.is_empty());
        // And the trace is valid JSON with task spans and counter tracks.
        let trace: serde_json::Value =
            serde_json::from_str(t.trace_json.as_deref().unwrap()).unwrap();
        let events = trace["traceEvents"].as_array().unwrap();
        assert!(events.iter().any(|e| e["ph"] == "X"));
        assert!(events.iter().any(|e| e["ph"] == "C"));
        assert!(!t.events.is_empty());
    }

    #[test]
    fn instrumented_run_matches_plain_result() {
        // Telemetry must observe, not perturb: the measured result of an
        // instrumented run equals the plain run bit-for-bit (rollups are
        // collected either way, so compare the full structs directly).
        let s = Scenario::default_conf("sort", DataSize::Tiny, TierId::NVM_FAR);
        let plain = run_scenario(&s).unwrap();
        let (instr, _) = run_scenario_instrumented(&s, &TelemetryOptions::default()).unwrap();
        assert_eq!(plain, instr);
        // Many seeds of an iterative app: a sample instant that lands
        // between two events must not split the flows' drain into two
        // float steps (seed 9 on Tier 0 drifted when sampling advanced the
        // resources).
        let mut scenarios = Vec::new();
        for tier in [TierId::LOCAL_DRAM, TierId::NVM_NEAR] {
            for seed in 1..=30 {
                scenarios
                    .push(Scenario::default_conf("pagerank", DataSize::Tiny, tier).with_seed(seed));
            }
        }
        let drifted: Vec<String> = parallel_sweep(&scenarios, 8, |s| {
            let plain = run_scenario(s).unwrap();
            let (instr, _) = run_scenario_instrumented(s, &TelemetryOptions::default()).unwrap();
            (plain != instr).then(|| format!("{} seed {}", s.label(), s.seed))
        })
        .into_iter()
        .flatten()
        .collect();
        assert!(drifted.is_empty(), "instrumented != plain for {drifted:?}");
    }

    #[test]
    fn unknown_workload_errors() {
        let s = Scenario::default_conf("nope", DataSize::Tiny, TierId::LOCAL_DRAM);
        assert!(run_scenario(&s).is_err());
    }

    /// The `parallel_sweep` determinism contract: results land in input
    /// order for any worker count, including widths past the item count.
    #[test]
    fn parallel_sweep_merges_in_input_order() {
        let items: Vec<u64> = (0..23).collect();
        let f = |&x: &u64| x * x + 1;
        let seq = parallel_sweep(&items, 1, f);
        for jobs in [2, 4, 64] {
            assert_eq!(parallel_sweep(&items, jobs, f), seq, "jobs={jobs}");
        }
        assert!(parallel_sweep(&Vec::<u64>::new(), 4, f).is_empty());
    }

    #[test]
    fn parallel_matches_sequential() {
        let scenarios: Vec<Scenario> = [TierId::LOCAL_DRAM, TierId::NVM_FAR]
            .into_iter()
            .map(|t| Scenario::default_conf("repartition", DataSize::Tiny, t))
            .collect();
        let seq: Vec<ScenarioResult> = scenarios.iter().map(|s| run_scenario(s).unwrap()).collect();
        let par = run_scenarios(&scenarios, 4).unwrap();
        assert_eq!(seq, par, "parallelism must not change measurements");
    }
}
