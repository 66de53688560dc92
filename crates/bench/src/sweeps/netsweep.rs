//! The network-plane sweep (`BENCH_net.json`): rack-uplink oversubscription
//! × locality policy × memory tier over a 4-node/2-rack topology, with a
//! loopback endpoint per (app, tier). The per-link byte counters must
//! partition the traffic in exact integers, and locality-aware scheduling
//! must strictly reduce cross-rack bytes against blind placement.

use super::{find_run, Sweep};
use crate::{bench_net_entries, pct, BenchNetEntry};
use memtier_core::{Scenario, ScenarioResult};
use memtier_des::SimTime;
use memtier_memsim::TierId;
use memtier_metrics::table::fmt_f64;
use memtier_metrics::AsciiTable;
use memtier_workloads::DataSize;
use sparklite::{LocalityMode, NetReport, NetTopology, NetworkMode};
use std::collections::BTreeMap;

/// The rack-uplink oversubscription axis of the sweep.
const OVERSUBSCRIPTION: [f64; 3] = [1.0, 4.0, 16.0];

/// The tier axis: the paper's local-DRAM and near-NVM endpoints, so the
/// sweep shows how network cost composes with memory-tier cost.
const TIERS: [TierId; 2] = [TierId::LOCAL_DRAM, TierId::NVM_NEAR];

/// Cluster shape: 3 executors over a 4-node/2-rack fabric. Executors land
/// on nodes 0..2 round-robin, so the racks are deliberately asymmetric
/// (two executors in rack 0, one in rack 1) — the configuration where task
/// placement visibly moves bytes between the rack-local and cross-rack
/// buckets.
const NODES: u32 = 4;
const RACKS: u32 = 2;
const EXECUTORS: usize = 3;
const CORES: usize = 12;

/// How long delay scheduling holds a task for a preferred-node slot.
const DELAY_WAIT_US: u64 = 500;

/// The sweep the `netsweep` bin runs.
pub fn sweep() -> Sweep<BenchNetEntry> {
    Sweep {
        by_app: true,
        grid,
        accept: log_locality_wins,
        recheck: print_locality_win,
        rerun: Some(|r| r.scenario.network.is_some()),
        ..Sweep::suite(
            "net",
            bench_net_entries,
            |text| serde_json::from_str(text),
            check_rows,
            report,
        )
    }
}

/// Per (app, tier): the loopback endpoint, then the oversubscription ×
/// locality grid (blind, delay scheduling) on the shared fabric.
fn grid(apps: &[String], size: DataSize) -> Vec<Scenario> {
    let policies = [
        LocalityMode::Blind,
        LocalityMode::DelayScheduling {
            wait: SimTime::from_us(DELAY_WAIT_US),
        },
    ];
    let mut scenarios = Vec::new();
    for app in apps {
        for &tier in &TIERS {
            let base = Scenario::default_conf(app, size, tier).with_grid(EXECUTORS, CORES);
            scenarios.push(base.clone());
            for &oversub in &OVERSUBSCRIPTION {
                for locality in policies {
                    scenarios.push(base.clone().with_network(NetworkMode::Topology {
                        topology: NetTopology::new(NODES, RACKS).with_oversubscription(oversub),
                        locality,
                    }));
                }
            }
        }
    }
    scenarios
}

/// Cross-rack bytes per app over the wired rows: `(blind, delay-scheduling)`.
fn cross_rack_by_app(rows: &[BenchNetEntry]) -> BTreeMap<&str, (u64, u64)> {
    let mut split: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for e in rows.iter().filter(|e| e.wiring != "loopback") {
        let per_app = split.entry(e.app.as_str()).or_default();
        if e.wiring.contains(",blind)") {
            per_app.0 += e.network.cross_rack_bytes;
        } else {
            per_app.1 += e.network.cross_rack_bytes;
        }
    }
    split
}

/// Log which workloads show the locality win (the row predicate requires
/// at least one).
fn log_locality_wins(apps: &[String], results: &[ScenarioResult]) {
    let rows = bench_net_entries(results);
    let split = cross_rack_by_app(&rows);
    let wins: Vec<&str> = apps
        .iter()
        .map(|app| app.as_str())
        .filter(|app| split.get(app).is_some_and(|(blind, delay)| delay < blind))
        .collect();
    eprintln!(
        "locality win on {}/{} workloads: {}",
        wins.len(),
        apps.len(),
        wins.join(", ")
    );
}

/// Bytes over the `<prefix>*:up` link halves.
fn uplink_sum(net: &NetReport, prefix: &str) -> u64 {
    net.links
        .iter()
        .filter(|l| l.label.starts_with(prefix) && l.label.ends_with(":up"))
        .map(|l| l.bytes)
        .sum()
}

/// Each row has a real runtime. Loopback rows report no traffic. A wired
/// row's traffic partitions in exact integers: the locality split and the
/// charge-kind split both re-sum to the byte total, and every completed
/// transfer exits its source through exactly one node uplink, so the
/// node-up link counters re-sum to the total too (and the rack-up counters
/// to the cross-rack slice); the sweep is fault-free, so nothing was
/// cancelled. And the acceptance criterion: summed over the grid, delay
/// scheduling moves strictly fewer bytes across racks than blind placement
/// on at least one workload (shuffle-heavy apps are where the win lives).
fn check_rows(rows: &[BenchNetEntry]) -> Result<(), String> {
    for e in rows {
        let (label, n) = (&e.scenario, &e.network);
        if e.virtual_runtime_s <= 0.0 {
            return Err(format!("{label} has a non-positive runtime"));
        }
        if e.wiring == "loopback" {
            if !n.is_empty() {
                return Err(format!("loopback run {label} reports traffic"));
            }
            continue;
        }
        let kinds = n.shuffle_bytes
            + n.broadcast_bytes
            + n.dfs_read_bytes
            + n.dfs_write_bytes
            + n.rereplicate_bytes;
        let broken = if n.transfers == 0 {
            "saw no transfers"
        } else if n.cancelled_transfers != 0 {
            "is fault-free yet cancelled transfers"
        } else if n.total_bytes != n.rack_local_bytes + n.cross_rack_bytes {
            "locality split does not partition the bytes"
        } else if n.total_bytes != kinds {
            "charge-kind split does not partition the bytes"
        } else if n.total_bytes != uplink_sum(n, "node") {
            "node uplink counters do not re-sum to the total"
        } else if n.cross_rack_bytes != uplink_sum(n, "rack") {
            "rack uplink counters do not re-sum to the cross-rack slice"
        } else {
            continue;
        };
        return Err(format!("{label} {broken}"));
    }
    let split = cross_rack_by_app(rows);
    if !split.values().any(|(blind, delay)| delay < blind) {
        return Err(format!(
            "delay scheduling must strictly reduce cross-rack bytes \
             vs blind on >=1 workload: {split:?}"
        ));
    }
    Ok(())
}

/// Report the locality win in the rows on disk.
fn print_locality_win(_: &[ScenarioResult], rows: &[BenchNetEntry]) -> Result<(), String> {
    let split = cross_rack_by_app(rows);
    let (app, (blind, delay)) = split
        .iter()
        .find(|(_, (blind, delay))| delay < blind)
        .expect("the row predicate found a win");
    println!("  locality: delay scheduling cut {app}'s cross-rack bytes {blind} -> {delay}");
    Ok(())
}

/// The sweep table: each run's runtime against its loopback endpoint, plus
/// where the bytes went.
fn report(_apps: &[String], results: &[ScenarioResult], rows: &[BenchNetEntry]) {
    let mut t = AsciiTable::new(vec![
        "scenario",
        "wiring",
        "runtime (s)",
        "vs loopback",
        "transfers",
        "node-local (MB)",
        "rack (MB)",
        "x-rack (MB)",
    ])
    .title("Network sweep (oversubscription x locality policy x tier)");
    for (r, row) in results.iter().zip(rows) {
        let s = &r.scenario;
        let loopback = find_run(results, &s.workload, s.tier, |s| s.network.is_none()).elapsed_s;
        t.row(vec![
            row.scenario.clone(),
            row.wiring.clone(),
            fmt_f64(r.elapsed_s, 4),
            pct(r.elapsed_s / loopback - 1.0),
            r.network.transfers.to_string(),
            fmt_f64(r.network.node_local_bytes as f64 / 1e6, 2),
            fmt_f64(r.network.rack_local_bytes as f64 / 1e6, 2),
            fmt_f64(r.network.cross_rack_bytes as f64 / 1e6, 2),
        ]);
    }
    println!("{}", t.render());
}
