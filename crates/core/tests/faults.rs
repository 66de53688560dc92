//! Workspace acceptance tests for the fault-injection and recovery
//! subsystem: a zero-fault plan is byte-identical to no plan, faulty runs
//! are deterministic, recovery traffic conserves against the machine
//! counters in exact integers, and speculation actually beats stragglers.

use memtier_core::{run_scenario, Scenario, ScenarioResult};
use memtier_des::SimTime;
use memtier_memsim::{ObjectId, PlacementSpec, TierId};
use memtier_workloads::{all_workloads, DataSize};
use sparklite::{FaultPlan, LocalityMode, NetTopology, NetworkMode, SparkError, SpeculationConf};

/// Serialize a result with the scenario descriptor blanked out: a fault-free
/// run and a zero-fault-plan run of the same workload differ *only* in
/// their scenario (the `faults` field and its label suffix), so everything
/// measured must match byte-for-byte.
fn measured_json(r: &ScenarioResult, desc: &Scenario) -> String {
    let mut r = r.clone();
    r.scenario = desc.clone();
    serde_json::to_string(&r).unwrap()
}

/// The engine's ground rule: carrying a plan that can never fire — zero
/// probabilities, no crashes, no speculation — reproduces the no-plan run
/// byte-identically (virtual runtime, counters, energy, events, profile,
/// hotness, recovery rollup) for every suite workload.
#[test]
fn zero_fault_plan_matches_no_plan_byte_identically() {
    for w in all_workloads() {
        let s = Scenario::default_conf(w.name(), DataSize::Tiny, TierId::NVM_NEAR);
        let zero = s.clone().with_faults(FaultPlan::seeded(7));
        let a = run_scenario(&s).unwrap();
        let b = run_scenario(&zero).unwrap();
        assert_eq!(
            measured_json(&a, &s),
            measured_json(&b, &s),
            "{}: a zero-fault plan must be bit-for-bit no-plan",
            s.label()
        );
        assert!(
            b.recovery.is_quiet(),
            "{}: zero-fault recovery stats must stay quiet: {:?}",
            s.label(),
            b.recovery
        );
    }
}

/// Determinism: the same faulty plan twice serializes byte-identically —
/// failures, retries, crashes, speculation and all.
#[test]
fn faulty_runs_are_deterministic() {
    let plan = FaultPlan::seeded(3)
        .with_task_failures(0.10)
        .with_fetch_failures(0.05)
        .with_stragglers(0.10, 4.0)
        .with_crash(SimTime::from_ms(1), 1)
        .with_speculation(SpeculationConf::default());
    let s = Scenario::default_conf("pagerank", DataSize::Tiny, TierId::NVM_NEAR)
        .with_grid(2, 20)
        .with_faults(plan);
    let a = run_scenario(&s).unwrap();
    let b = run_scenario(&s).unwrap();
    assert_eq!(
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&b).unwrap(),
        "fault injection must not introduce nondeterminism"
    );
    assert!(
        a.recovery.task_failures > 0,
        "a 10% task-failure plan on pagerank must inject failures: {:?}",
        a.recovery
    );
    assert!(a.recovery.retries > 0);
}

/// Failures are a time-plane fiction: re-run tasks recompute identical
/// bytes, so a faulty run's *answer* (records, checksum, quality) matches
/// the clean run exactly, while its recovery traffic still partitions the
/// machine counters in exact integers — including the `recovery` object,
/// whose bytes equal the killed tasks' partially-drained flows.
#[test]
fn recovery_traffic_conserves_and_results_survive_faults() {
    let clean =
        Scenario::default_conf("pagerank", DataSize::Tiny, TierId::NVM_NEAR).with_grid(2, 20);
    let plan = FaultPlan::seeded(11)
        .with_task_failures(0.15)
        .with_crash(SimTime::from_ms(1), 1);
    let faulty = clean.clone().with_faults(plan);
    let c = run_scenario(&clean).unwrap();
    let f = run_scenario(&faulty).unwrap();

    // Same answer.
    assert_eq!(c.output_records, f.output_records);
    assert_eq!(c.checksum, f.checksum, "recovery must not change results");
    assert_eq!(c.quality, f.quality);

    // Faults actually fired.
    assert!(f.recovery.task_failures > 0, "{:?}", f.recovery);
    assert_eq!(f.recovery.executor_crashes, 1);
    assert!(!f.recovery.wasted_time.is_zero());

    // Ledger partitions the counters in exact integers, recovery included.
    assert!(
        f.hotness.conserves(&f.counters),
        "attribution under faults must partition the counters"
    );
    let recovery_bytes: u64 = f
        .hotness
        .objects
        .iter()
        .filter(|o| o.object == ObjectId::Recovery)
        .map(|o| o.total_bytes)
        .sum();
    assert_eq!(
        recovery_bytes, f.recovery.cancelled_bytes,
        "the recovery object's ledger bytes must equal the cancelled flows'"
    );

    // Retries re-ran real work: recompute traffic landed on the bound tier.
    let recompute: u64 = f.recovery.recompute_bytes.iter().sum();
    assert!(recompute > 0, "retries must be priced as memory traffic");
    assert!(f.recovery.recompute_bytes[TierId::NVM_NEAR.index()] > 0);
}

/// Output commit is first-committer-wins: `sort` is the one suite workload
/// that saves to the DFS, and under a plan that fails, speculates and
/// crashes, a second attempt of an output task meets the part file its
/// first attempt already committed. These are the benchmark's `net-faults`
/// scenarios, plan seeded like the data, at the seeds where that used to
/// end the run with `dfs error: file already exists: /out/sort-…/part-…`.
#[test]
fn retried_output_tasks_recommit_their_part_files() {
    for (size, seed) in [
        (DataSize::Tiny, 2),
        (DataSize::Tiny, 11),
        (DataSize::Small, 42),
    ] {
        let clean = Scenario::default_conf("sort", size, TierId::NVM_NEAR)
            .with_grid(3, 12)
            .with_seed(seed)
            .with_network(NetworkMode::Topology {
                topology: NetTopology::new(4, 2).with_oversubscription(4.0),
                locality: LocalityMode::DelayScheduling {
                    wait: SimTime::from_us(500),
                },
            });
        let c = run_scenario(&clean).unwrap();
        let plan = FaultPlan::seeded(seed)
            .with_task_failures(0.05)
            .with_fetch_failures(0.02)
            .with_stragglers(0.1, 4.0)
            .with_speculation(SpeculationConf::default())
            .with_crash(SimTime::from_secs_f64(c.elapsed_s / 2.0), 1);
        let faulty = clean.clone().with_faults(plan);
        let f = run_scenario(&faulty).unwrap_or_else(|e| panic!("{}: {e}", faulty.label()));
        assert!(
            !f.recovery.is_quiet(),
            "{}: the plan must fire",
            faulty.label()
        );
        assert_eq!(c.checksum, f.checksum, "{}", faulty.label());
        assert_eq!(c.output_records, f.output_records, "{}", faulty.label());
    }
}

/// Speculation earns its keep: under a heavy straggler plan, turning
/// speculative execution on strictly beats the same plan with it off, and
/// the winning copies are accounted.
#[test]
fn speculation_beats_stragglers() {
    let stragglers = FaultPlan::seeded(5).with_stragglers(0.35, 8.0);
    let base = Scenario::default_conf("sort", DataSize::Tiny, TierId::NVM_NEAR);
    let off = base.clone().with_faults(stragglers.clone());
    let on = base
        .clone()
        .with_faults(stragglers.with_speculation(SpeculationConf::default()));
    let r_off = run_scenario(&off).unwrap();
    let r_on = run_scenario(&on).unwrap();
    assert!(
        r_on.recovery.speculative_launched > 0,
        "a 35% straggler plan must trigger speculation: {:?}",
        r_on.recovery
    );
    assert!(r_on.recovery.speculative_won > 0);
    assert!(
        r_on.elapsed_s < r_off.elapsed_s,
        "speculation on ({}s) must beat speculation off ({}s)",
        r_on.elapsed_s,
        r_off.elapsed_s
    );
    // Same answer either way.
    assert_eq!(r_on.checksum, r_off.checksum);
}

/// Unrecoverable failures surface as structured errors, never panics: a
/// plan that always fails exhausts its retry budget with the failing
/// coordinates attached, and crashing the only executor reports the
/// cluster as lost.
#[test]
fn unrecoverable_failures_are_structured_errors() {
    let s = Scenario::default_conf("repartition", DataSize::Tiny, TierId::NVM_NEAR).with_faults(
        FaultPlan::seeded(1)
            .with_task_failures(1.0)
            .with_retries(2, SimTime::from_us(10)),
    );
    match run_scenario(&s) {
        Err(SparkError::TaskRetriesExhausted { attempts, .. }) => {
            assert_eq!(attempts, 3, "first run + 2 retries");
        }
        other => panic!("expected TaskRetriesExhausted, got {other:?}"),
    }

    let s = Scenario::default_conf("repartition", DataSize::Tiny, TierId::NVM_NEAR)
        .with_faults(FaultPlan::seeded(1).with_crash(SimTime::ZERO, 0));
    match run_scenario(&s) {
        Err(SparkError::AllExecutorsLost { stages_pending, .. }) => {
            assert!(stages_pending > 0);
        }
        other => panic!("expected AllExecutorsLost, got {other:?}"),
    }
}

/// A finished job is finished: timers of killed or superseded attempts
/// (`CpuDone`, `Retry`, `SpecCheck`, `LocalityRelax`) still queued when the
/// last stage completes must not let a crash or a placement epoch walk the
/// clock past the last task's end. When they did, the critical-path walk
/// could not tile the job (`JobRecord.completed` lay after every
/// `TaskRecord`) and `profile.conserves()` failed — on the benchmark's
/// `net-faults` (c) and (d) scenarios, which these are: delay scheduling on
/// a 4-node/2-rack 4:1 fabric, the seed-42 plan with executor 1 crashing at
/// half of the fault-free runtime, then the same under hot/cold placement.
/// (`sort` is left out as the benchmark leaves it out: its output write
/// fails under the plan on some seeds.)
#[test]
fn plan_runs_conserve_their_profile_and_digest() {
    for w in all_workloads().into_iter().filter(|w| w.name() != "sort") {
        let delay = Scenario::default_conf(w.name(), DataSize::Tiny, TierId::NVM_NEAR)
            .with_grid(3, 12)
            .with_network(NetworkMode::Topology {
                topology: NetTopology::new(4, 2).with_oversubscription(4.0),
                locality: LocalityMode::DelayScheduling {
                    wait: SimTime::from_us(500),
                },
            });
        let reference = run_scenario(&delay).unwrap();
        let plan = FaultPlan::seeded(42)
            .with_task_failures(0.05)
            .with_fetch_failures(0.02)
            .with_stragglers(0.1, 4.0)
            .with_speculation(SpeculationConf::default())
            .with_crash(SimTime::from_secs_f64(reference.elapsed_s / 2.0), 1);
        let faulty = delay.with_faults(plan);
        let tiered = faulty
            .clone()
            .with_placement(PlacementSpec::hot_cold(16 << 20, SimTime::from_ms(1)));
        for s in [faulty, tiered] {
            let r = run_scenario(&s).unwrap();
            assert!(r.profile.conserves(), "{}: profile", s.label());
            assert!(r.digest.conserves(), "{}: digest", s.label());
            assert!(r.hotness.conserves(&r.counters), "{}: hotness", s.label());
        }
    }
}
