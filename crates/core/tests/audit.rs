//! `ScenarioResult::audit()`: every conservation identity holds for every
//! configuration — no placement mode, fault plan or wiring is exempt — and
//! each identity, broken on purpose, is the one the error names.

use memtier_core::{parallel_sweep, run_scenario, Scenario, ScenarioResult};
use memtier_des::SimTime;
use memtier_memsim::{PlacementSpec, TierId};
use memtier_workloads::{all_workloads, DataSize};
use sparklite::{FaultPlan, LocalityMode, NetTopology, NetworkMode, SpeculationConf};

fn tiny(app: &str, tier: TierId) -> Scenario {
    Scenario::default_conf(app, DataSize::Tiny, tier)
}

/// `app` on Tier 2 over the `net-faults` fabric (perf/src/workloads.rs): a
/// 3×12 grid on 4 nodes / 2 racks at 4:1 oversubscription.
fn wired(app: &str, locality: LocalityMode) -> Scenario {
    tiny(app, TierId::NVM_NEAR)
        .with_grid(3, 12)
        .with_network(NetworkMode::Topology {
            topology: NetTopology::new(4, 2).with_oversubscription(4.0),
            locality,
        })
}

const DELAY: LocalityMode = LocalityMode::DelayScheduling {
    wait: SimTime::from_us(500),
};

/// `delay` under the `net-faults` plan — task and fetch failures,
/// stragglers with speculation, executor 1 crashing at half of `delay`'s
/// own runtime — and hot/cold placement with a 16 MiB DRAM budget.
fn faulty_and_tiered(delay: &ScenarioResult) -> Scenario {
    let plan = FaultPlan::seeded(42)
        .with_task_failures(0.05)
        .with_fetch_failures(0.02)
        .with_stragglers(0.1, 4.0)
        .with_speculation(SpeculationConf::default())
        .with_crash(SimTime::from_secs_f64(delay.elapsed_s / 2.0), 1);
    delay
        .scenario
        .clone()
        .with_faults(plan)
        .with_placement(PlacementSpec::hot_cold(16 << 20, SimTime::from_ms(1)))
}

fn run_all(scenarios: &[Scenario]) -> Vec<ScenarioResult> {
    parallel_sweep(scenarios, 8, |s| {
        run_scenario(s).unwrap_or_else(|e| panic!("{}: {e}", s.label()))
    })
}

#[test]
fn every_configuration_audits() {
    let mut scenarios = Vec::new();
    for app in all_workloads() {
        let app = app.name();
        scenarios.extend(TierId::all().map(|t| tiny(app, t)));
        // A job outlives its last task here while migration copies drain:
        // the tail must be on the path.
        scenarios.push(
            tiny(app, TierId::NVM_NEAR)
                .with_placement(PlacementSpec::hot_cold(1 << 20, SimTime::from_ms(1))),
        );
        scenarios.push(wired(app, LocalityMode::Blind));
        scenarios.push(wired(app, DELAY));
    }
    let mut results = run_all(&scenarios);
    let tiered: Vec<Scenario> = results
        .iter()
        .filter(|r| r.scenario == wired(&r.scenario.workload, DELAY))
        .map(faulty_and_tiered)
        .collect();
    results.extend(run_all(&tiered));
    assert_eq!(results.len(), 7 * 8);
    let broken: Vec<String> = results
        .iter()
        .filter_map(|r| {
            r.audit()
                .err()
                .map(|e| format!("{}: {e}", r.scenario.label()))
        })
        .collect();
    assert!(broken.is_empty(), "{broken:#?}");
}

/// One identity broken on purpose: what was done to the result, and the
/// identity `audit()` must name.
type Mutation = (&'static str, &'static str, fn(&mut ScenarioResult));

const MUTATIONS: [Mutation; 11] = [
    ("change elapsed_s", "elapsed", |r| r.elapsed_s *= 2.0),
    ("bump one counter", "ledger", |r| {
        r.counters.tiers[TierId::NVM_NEAR.index()].reads += 1
    }),
    ("change cancelled_bytes", "recovery.cancelled_bytes", |r| {
        r.recovery.cancelled_bytes += 1
    }),
    ("change bytes_moved", "migration.bytes_moved", |r| {
        r.migrations.bytes_moved += 1
    }),
    ("drop one window's bytes", "doctor.tier_bytes", |r| {
        let t = TierId::NVM_NEAR.index();
        let w = r.doctor.series.tier_bytes.iter_mut().find(|w| w[t] > 0);
        w.expect("a window with Tier 2 traffic")[t] = 0;
    }),
    ("stretch one busy window", "doctor.busy", |r| {
        r.doctor.series.busy[0] += SimTime::from_ps(1)
    }),
    (
        "bin a cross-rack byte twice",
        "doctor.cross_rack_bytes",
        |r| r.doctor.series.cross_rack_bytes[0] += 1,
    ),
    ("shorten one path segment", "profile.segments", |r| {
        r.profile.segments[0].end -= SimTime::from_ps(1)
    }),
    ("zero a stage slice's net", "digest.stages", |r| {
        let s = r.digest.stages.iter_mut().find(|s| !s.phases.net.is_zero());
        s.expect("a stage with network time on the path").phases.net = SimTime::ZERO;
    }),
    ("move bytes between two uplinks", "net.node_uplinks", |r| {
        let links = &mut r.network.links;
        let busy = |links: &[sparklite::LinkReport], prefix: &str| {
            let up = links.iter().position(|l| {
                l.label.starts_with(prefix) && l.label.ends_with(":up") && l.bytes > 0
            });
            up.expect("an uplink that carried bytes")
        };
        let (node, rack) = (busy(links, "node"), busy(links, "rack"));
        links[node].bytes -= 1;
        links[rack].bytes += 1;
    }),
    ("flip doctor.conserved", "engine", |r| {
        r.doctor.conserved = false
    }),
];

#[test]
fn a_broken_identity_is_the_one_named() {
    // The one run that exercises every identity at once: wired, faulty,
    // crashed and migrating.
    let delay = run_scenario(&wired("als", DELAY)).expect("delay-scheduled run");
    let real = run_scenario(&faulty_and_tiered(&delay)).expect("tiered run");
    assert_eq!(real.audit(), Ok(()));
    assert!(real.recovery.cancelled_bytes > 0 && real.migrations.bytes_moved > 0);
    // An artifact read back from disk audits like the live result.
    let json = serde_json::to_string(&real).expect("serialize");
    let back: ScenarioResult = serde_json::from_str(&json).expect("parse");
    assert_eq!(back.audit(), Ok(()));

    for (what, identity, mutate) in MUTATIONS {
        let mut r = real.clone();
        mutate(&mut r);
        let err = r.audit().expect_err(what);
        assert_eq!(err.identity, identity, "{what}: {err}");
        assert_ne!(err.left, err.right, "{what}: {err}");
    }
}
