//! Virtual time pinned across commits.
//!
//! `workloads/tests/golden.rs` pins *answers*; every identity test in the
//! tree compares two runs of one binary. Nothing else says "this commit
//! computes the same virtual runtime as the last one". This file does: a
//! fixed scenario list, each row recorded as exact integers — the `f64`
//! runtime's bit pattern, task count, machine counters, and the integer
//! fields of the recovery, migration and network rollups. No formatted
//! float ever enters a literal (JSON float rendering differs between
//! `serde_json` builds; `to_bits()` does not).
//!
//! A refactor keeps every literal. A model change re-records exactly the
//! rows it moves and says so: on a mismatch the test prints the whole
//! table in literal syntax, ready to paste into `golden()`.

use memtier_core::{run_scenario, Scenario, ScenarioResult};
use memtier_des::SimTime;
use memtier_memsim::{PlacementSpec, TierId};
use memtier_workloads::{all_workloads, DataSize};
use sparklite::{FaultPlan, LocalityMode, NetTopology, NetworkMode, SpeculationConf};

/// One pinned run. Empty `recovery`/`migrations`/`network` slices stand for
/// all-zero rollups (fault-free, static, loopback runs).
#[derive(Debug, PartialEq)]
struct Row {
    name: &'static str,
    /// `elapsed_s.to_bits()`.
    elapsed_bits: u64,
    tasks: u64,
    /// Machine-wide reads, writes, bytes read, bytes written.
    counters: [u64; 4],
    /// `RecoveryStats` integers in declaration order, except `useful_time`
    /// (ps) moved to the front — it is the one field that accrues on every
    /// run — and `recompute_bytes` summed over tiers at the end.
    useful_ps: u64,
    recovery: Vec<u64>,
    /// `MigrationStats` in declaration order.
    migrations: Vec<u64>,
    /// `NetReport` integers in declaration order (per-link rows excluded:
    /// they re-sum to these by the plane's conservation check).
    network: Vec<u64>,
}

fn zero_is_empty(v: Vec<u64>) -> Vec<u64> {
    if v.iter().all(|&x| x == 0) {
        Vec::new()
    } else {
        v
    }
}

fn row(name: &'static str, r: &ScenarioResult) -> Row {
    let c = &r.counters.tiers;
    let rec = &r.recovery;
    let m = &r.migrations;
    let n = &r.network;
    Row {
        name,
        elapsed_bits: r.elapsed_s.to_bits(),
        tasks: r.tasks,
        counters: [
            c.iter().map(|t| t.reads).sum(),
            c.iter().map(|t| t.writes).sum(),
            c.iter().map(|t| t.bytes_read).sum(),
            c.iter().map(|t| t.bytes_written).sum(),
        ],
        useful_ps: rec.useful_time.as_ps(),
        recovery: zero_is_empty(vec![
            rec.task_failures,
            rec.fetch_failures,
            rec.executor_crashes,
            rec.tasks_killed,
            rec.stage_resubmissions,
            rec.retries,
            rec.speculative_launched,
            rec.speculative_won,
            rec.speculative_killed,
            rec.lost_blocks,
            rec.lost_bytes,
            rec.cancelled_bytes,
            rec.wasted_time.as_ps(),
            rec.recompute_bytes.iter().sum(),
        ]),
        migrations: zero_is_empty(vec![
            m.migrations,
            m.promotions,
            m.demotions,
            m.bytes_moved,
            m.silent_moves,
            m.epochs,
        ]),
        network: zero_is_empty(vec![
            n.transfers,
            n.total_bytes,
            n.node_local_bytes,
            n.rack_local_bytes,
            n.cross_rack_bytes,
            n.shuffle_bytes,
            n.broadcast_bytes,
            n.dfs_read_bytes,
            n.dfs_write_bytes,
            n.rereplicate_bytes,
            n.refetch_bytes,
            n.cancelled_transfers,
            n.cancelled_bytes,
        ]),
    }
}

fn tiny(app: &str, tier: TierId) -> Scenario {
    Scenario::default_conf(app, DataSize::Tiny, tier)
}

fn hot_cold() -> PlacementSpec {
    PlacementSpec::hot_cold(16 << 20, SimTime::from_ms(1))
}

/// The `net-faults` quartet of perf/src/workloads.rs for one app: 4 nodes /
/// 2 racks at 4:1, a 3×12 grid; (a) blind, (b) delay 500 µs, (c) = (b) under
/// the seed-42 plan with executor 1 crashing at half of (b)'s runtime,
/// (d) = (c) under hot/cold placement.
fn quartet(app: &'static str, names: [&'static str; 4], out: &mut Vec<Row>) {
    let wired = |locality| NetworkMode::Topology {
        topology: NetTopology::new(4, 2).with_oversubscription(4.0),
        locality,
    };
    let base = tiny(app, TierId::NVM_NEAR).with_grid(3, 12);
    let blind = base.clone().with_network(wired(LocalityMode::Blind));
    let delay = base.with_network(wired(LocalityMode::DelayScheduling {
        wait: SimTime::from_us(500),
    }));
    let reference = run_scenario(&delay).expect("delay-scheduled run");
    let plan = FaultPlan::seeded(42)
        .with_task_failures(0.05)
        .with_fetch_failures(0.02)
        .with_stragglers(0.1, 4.0)
        .with_speculation(SpeculationConf::default())
        .with_crash(SimTime::from_secs_f64(reference.elapsed_s / 2.0), 1);
    let faulty = delay.with_faults(plan);
    let tiered = faulty.clone().with_placement(hot_cold());
    out.push(row(names[0], &run_scenario(&blind).expect("blind run")));
    out.push(row(names[1], &reference));
    out.push(row(names[2], &run_scenario(&faulty).expect("faulty run")));
    out.push(row(names[3], &run_scenario(&tiered).expect("tiered run")));
}

fn measure() -> Vec<Row> {
    let mut out = Vec::new();
    for w in all_workloads() {
        let r = run_scenario(&tiny(w.name(), TierId::NVM_NEAR)).expect("suite run");
        out.push(row(w.name(), &r));
    }
    for (name, tier) in [
        ("pagerank@t0", TierId::LOCAL_DRAM),
        ("pagerank@t1", TierId::REMOTE_DRAM),
        ("pagerank@t3", TierId::NVM_FAR),
    ] {
        out.push(row(
            name,
            &run_scenario(&tiny("pagerank", tier)).expect("tier run"),
        ));
    }
    out.push(row(
        "pagerank@mba30",
        &run_scenario(&tiny("pagerank", TierId::NVM_NEAR).with_mba(30)).expect("mba run"),
    ));
    out.push(row(
        "als+hotcold",
        &run_scenario(&tiny("als", TierId::NVM_NEAR).with_placement(hot_cold()))
            .expect("hot/cold run"),
    ));
    quartet("rf", ["rf(a)", "rf(b)", "rf(c)", "rf(d)"], &mut out);
    quartet("lda", ["lda(a)", "lda(b)", "lda(c)", "lda(d)"], &mut out);
    quartet(
        "pagerank",
        ["pagerank(a)", "pagerank(b)", "pagerank(c)", "pagerank(d)"],
        &mut out,
    );
    out
}

/// Render rows in the syntax of [`golden`], for re-recording.
fn render(rows: &[Row]) -> String {
    let list = |v: &[u64]| {
        let items: Vec<String> = v.iter().map(u64::to_string).collect();
        format!("&[{}]", items.join(", "))
    };
    rows.iter()
        .map(|r| {
            format!(
                "        g({:?}, {:#018x}, {}, {:?}, {}, [{}, {}, {}]),\n",
                r.name,
                r.elapsed_bits,
                r.tasks,
                r.counters,
                r.useful_ps,
                list(&r.recovery),
                list(&r.migrations),
                list(&r.network),
            )
        })
        .collect()
}

fn g(
    name: &'static str,
    elapsed_bits: u64,
    tasks: u64,
    counters: [u64; 4],
    useful_ps: u64,
    [recovery, migrations, network]: [&[u64]; 3],
) -> Row {
    Row {
        name,
        elapsed_bits,
        tasks,
        counters,
        useful_ps,
        recovery: recovery.to_vec(),
        migrations: migrations.to_vec(),
        network: network.to_vec(),
    }
}

/// Recorded at PR 13 (a315b7e). PR 14's finished-job rule (a finished job
/// ignores its stale timers, so no crash or epoch walks its clock on) moved
/// four rows, re-recorded there; runtime bits old → new:
/// `rf(d)` 0x3fc963a715d610c9 → 0x3fc50361e84788c0 (198.35 → 164.17 ms),
/// `lda(c)` 0x3fd7e6e45323ec92 → 0x3fd799f9e2311b82 (373.47 → 368.77 ms),
/// `lda(d)` 0x3fd932dcee8a5a57 → 0x3fd63cfd202713f7 (393.73 → 347.47 ms),
/// `pagerank(d)` 0x3fc7964cacaa26a3 → 0x3fc862e69e2ce605 (184.27 → 190.52 ms).
#[rustfmt::skip]
fn golden() -> Vec<Row> {
    vec![
        g("sort", 0x3f8a5474b28cd95d, 84, [5516, 2138, 351272, 133871], 220999715055, [&[], &[], &[]]),
        g("repartition", 0x3f829537bba18320, 120, [3263, 136, 206208, 3840], 314281385864, [&[], &[], &[]]),
        g("als", 0x3fba67bdc85663d5, 1120, [66497, 7074, 4224480, 349376], 3378991451962, [&[], &[], &[]]),
        g("bayes", 0x3f9dec1eb14523f0, 240, [90069, 7044, 5758912, 374464], 906369085466, [&[], &[], &[]]),
        g("rf", 0x3fa0f9eb04073faf, 280, [93824, 9037, 5996228, 436159], 1168019341943, [&[], &[], &[]]),
        g("lda", 0x3fb42fa6e5d865c3, 520, [451847, 123231, 28901044, 7580470], 2512384415209, [&[], &[], &[]]),
        g("pagerank", 0x3fa9960a0f5c0c68, 720, [20513, 1436, 1295696, 42784], 1603409159184, [&[], &[], &[]]),
        g("pagerank@t0", 0x3fa2cad19b4cd1dd, 720, [20513, 1436, 1295696, 42784], 1235294123608, [&[], &[], &[]]),
        g("pagerank@t1", 0x3fa38f200186cc90, 720, [20513, 1436, 1295696, 42784], 1275128080993, [&[], &[], &[]]),
        g("pagerank@t3", 0x3facda9a5e98d4c4, 720, [20513, 1436, 1295696, 42784], 1780213698057, [&[], &[], &[]]),
        g("pagerank@mba30", 0x3fa9960a0f5c0c68, 720, [20513, 1436, 1295696, 42784], 1603409159184, [&[], &[], &[]]),
        g("als+hotcold", 0x3fba19b52f3e55a2, 1120, [78959, 19536, 5020856, 1145752], 3338165689450, [&[], &[55, 55, 0, 796376, 0, 101], &[]]),
        g("rf(a)", 0x3fb1e54bc29a226c, 252, [78820, 32594, 5034425, 1975931], 2224014956044, [&[], &[], &[2359, 215400, 111025, 68850, 146550, 215400, 0, 0, 0, 0, 0, 0, 0]]),
        g("rf(b)", 0x3fb219dfecd82fce, 252, [78820, 32594, 5034425, 1975931], 2223472648271, [&[], &[], &[2370, 213600, 112825, 70675, 142925, 213600, 0, 0, 0, 0, 0, 0, 0]]),
        g("rf(c)", 0x3fc5cd4362974696, 253, [86049, 35932, 5496777, 2177285], 1921081111886, [&[8, 1, 1, 12, 1, 21, 13, 13, 13, 12, 2970, 389185, 229353876664, 801718], &[], &[2040, 185825, 164825, 22300, 163525, 185825, 0, 0, 0, 0, 31900, 269, 24125]]),
        g("rf(d)", 0x3fc50361e84788c0, 253, [96274, 46042, 6151588, 2824686], 1787804879211, [&[8, 1, 1, 12, 1, 21, 14, 13, 14, 12, 2970, 460123, 231589876954, 801718], &[10, 10, 0, 615637, 0, 163], &[2034, 184725, 167750, 23400, 161325, 184725, 0, 0, 0, 0, 32475, 287, 26175]]),
        g("lda(a)", 0x3fc41bb90b548b2b, 468, [415918, 167390, 26592944, 10484652], 4756735369188, [&[], &[], &[5033, 845922, 424046, 319928, 525994, 613914, 232008, 0, 0, 0, 0, 0, 0]]),
        g("lda(b)", 0x3fc46925e737bf61, 468, [415918, 167390, 26592944, 10484652], 4743001873588, [&[], &[], &[5034, 839762, 430206, 316274, 523488, 607754, 232008, 0, 0, 0, 0, 0, 0]]),
        g("lda(c)", 0x3fd799f9e2311b82, 472, [468433, 190627, 29951866, 11939488], 4038000694431, [&[18, 4, 1, 12, 4, 34, 33, 17, 33, 12, 15048, 2890452, 418279822668, 3116378], &[], &[4114, 708350, 693803, 97245, 611105, 499086, 209264, 0, 0, 0, 48737, 207, 37979]]),
        g("lda(d)", 0x3fd63cfd202713f7, 472, [512668, 231642, 32781875, 14562409], 3708795712666, [&[18, 4, 1, 11, 4, 33, 29, 22, 29, 12, 15048, 1791257, 385305747184, 3108931], &[17, 17, 0, 2453041, 0, 340], &[4103, 710109, 688259, 104596, 605513, 497756, 212353, 0, 0, 0, 46104, 134, 27049]]),
        g("pagerank(a)", 0x3fb3a4e31fc69c86, 648, [20413, 63657, 1285056, 4023504], 1918353861408, [&[], &[], &[651, 22008, 15752, 6048, 15960, 22008, 0, 0, 0, 0, 0, 0, 0]]),
        g("pagerank(b)", 0x3fb3f649a7e6b867, 648, [20413, 63657, 1285056, 4023504], 1849326006351, [&[], &[], &[577, 12816, 24944, 3944, 8872, 12816, 0, 0, 0, 0, 0, 0, 0]]),
        g("pagerank(c)", 0x3fca5dfdd269b08c, 651, [24910, 72001, 1571804, 4552622], 1872117505766, [&[29, 3, 1, 12, 3, 44, 70, 43, 64, 12, 952, 511970, 447844294175, 295240], &[], &[595, 18200, 27704, 2920, 15280, 18200, 0, 0, 0, 0, 240, 119, 2528]]),
        g("pagerank(d)", 0x3fc862e69e2ce605, 651, [30728, 78081, 1943756, 4942266], 1599135328934, [&[26, 3, 1, 12, 3, 41, 71, 48, 63, 12, 952, 426564, 389080078193, 289784], &[36, 36, 0, 390517, 0, 190], &[556, 16424, 29016, 2624, 13800, 16424, 0, 0, 0, 0, 352, 136, 2896]]),
    ]
}

#[test]
fn virtual_time_is_pinned_across_commits() {
    let got = measure();
    let want = golden();
    let moved: Vec<&str> = got
        .iter()
        .zip(&want)
        .filter(|(g, w)| g != w)
        .map(|(g, _)| g.name)
        .collect();
    assert!(
        got == want,
        "virtual time moved on {moved:?} ({} rows measured, {} pinned); measured table:\n{}",
        got.len(),
        want.len(),
        render(&got)
    );
}
