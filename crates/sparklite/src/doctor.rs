//! Run doctor: conserved windowed rollups + evidence-backed bottleneck
//! diagnosis.
//!
//! The explainer ([`crate::explain`]) answers *what changed* between two
//! runs; this module answers *what is wrong with this one*. It folds the
//! run's always-on, conservation-grade sources — the
//! [`WindowRollup`](memtier_memsim::WindowRollup) of every counter charge,
//! the profiler log (task spans, stage activations, eviction records), the
//! fault machinery's waste spans, the attribution ledger's object series —
//! into one uniform virtual-time grid of per-window series
//! ([`DoctorSeries`]), then runs a catalogue of online detectors over the
//! grid and emits ranked [`Finding`]s with evidence windows, affected
//! stages/objects, and recovery estimates cross-priced through the existing
//! [`reprice`]/[`hotness_promotion_whatif`] engines.
//!
//! ## The conservation contract
//!
//! Every windowed series is a *partition* of a totalled quantity, exact in
//! integer picoseconds / exact bytes. Where the total is on the run report
//! the identity is [`crate::audit`]'s to check (`doctor.*`):
//!
//! * per-tier traffic re-sums to the run's `CounterSnapshot` (via the
//!   rollup's own 1:1 charge mapping, re-binned onto the doctor grid);
//! * executor busy time re-sums to `useful_time + wasted_time` (task spans
//!   and waste spans split across windows with exact integer overlap);
//! * fault waste re-sums to `wasted_time`;
//! * migration bytes re-sum to the ledger's `migration` object traffic;
//! * cross-rack network bytes re-sum to the network plane's
//!   `cross_rack_bytes` counter (both zero under loopback wiring).
//!
//! Where the total lives only inside the engine, the check runs here and
//! [`DoctorReport::conserved`] carries the verdict:
//!
//! * the rollup itself re-sums to the counters, and the re-binned per-tier
//!   priced stall to the rollup's running stall total;
//! * queue wait re-sums to the profiler log's activation-to-dispatch gaps;
//! * eviction count/bytes re-sum to the profiler's eviction records, whose
//!   count equals the block manager's eviction counter;
//! * the network plane's per-link byte counters re-sum from its completed
//!   transfers ([`NetState::conserves`]).
//!
//! ## Determinism
//!
//! The doctor reads only always-on sources — never the opt-in event log or
//! samplers — so attaching it to every run stays inside the byte-identity
//! domain: a plain and an instrumented run of the same scenario carry
//! byte-identical doctor reports, and `BENCH_doctor.json` regenerates
//! byte-identically (every ordering is fixed, every float is a
//! deterministic function of the run).

use crate::faultsim::RecoveryStats;
use crate::net::{NetReport, NetState};
use crate::profile::{hotness_promotion_whatif, reprice, ProfileLog, RunProfile, WhatIf};
use crate::storage::CacheStats;
use memtier_des::SimTime;
use memtier_memsim::{
    CounterSnapshot, HotnessReport, MigrationStats, ObjectId, ObjectSample, TierId, TierParams,
    WindowRollup, NUM_TIERS,
};
use memtier_metrics::table::{fmt_f64, sparkline};
use memtier_metrics::AsciiTable;
use memtier_netsim::Locality;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Cap on the doctor's uniform grid. The rollup's own width is widened by
/// an integer factor until the whole run fits, so re-binning stays exact.
pub const DOCTOR_MAX_WINDOWS: u64 = 512;

/// How many evidence windows each finding carries.
pub const EVIDENCE_TOP_K: usize = 3;

/// How many hot objects the saturation what-if promotes (mirrors the
/// hotness harness's top-k narrative).
pub const PROMOTE_K: usize = 3;

/// Saturation detector: minimum recoverable fraction of the runtime for a
/// tier's latency gap to count as a finding.
pub const SATURATION_MIN_RECOVERY_FRAC: f64 = 0.02;

/// Saturation severity knee: recoverable fraction at which the finding
/// turns critical.
pub const SATURATION_CRITICAL_FRAC: f64 = 0.25;

/// Eviction-thrash detector: evicted bytes as a fraction of all traffic.
pub const THRASH_MIN_BYTE_FRAC: f64 = 0.05;

/// Ping-pong detector: migrated bytes as a fraction of all traffic.
pub const PINGPONG_MIN_BYTE_FRAC: f64 = 0.02;

/// Ping-pong detector: minimum promotions/demotions balance (1.0 = fully
/// reversing churn).
pub const PINGPONG_MIN_REVERSAL: f64 = 0.25;

/// Straggler detector: slowest / median task-duration ratio.
pub const STRAGGLER_RATIO: f64 = 1.5;

/// Straggler detector: stages smaller than this can't skew meaningfully.
pub const STRAGGLER_MIN_TASKS: usize = 4;

/// Idle-bubble detector: busy fraction below which a window counts as idle.
pub const IDLE_BUBBLE_UTIL: f64 = 0.25;

/// Idle-bubble detector: minimum bubble length as a fraction of the run.
pub const IDLE_BUBBLE_MIN_FRAC: f64 = 0.10;

/// Wear detector: one object's share of all NVM media writes that makes it
/// a hotspot.
pub const WEAR_MIN_SHARE: f64 = 0.5;

/// Waste detector: minimum wasted fraction of executor occupancy.
pub const WASTE_MIN_FRAC: f64 = 0.01;

/// Cross-rack saturation detector: minimum share of completed network
/// bytes that crossed racks for the oversubscribed uplinks to count as
/// the bottleneck.
pub const CROSS_RACK_MIN_BYTE_FRAC: f64 = 0.25;

/// The detector that produced a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FindingKind {
    /// A slow tier's latency gap dominates the critical path.
    TierBandwidthSaturation,
    /// The block cache churns under capacity pressure (DRAM capacity cliff).
    EvictionThrash,
    /// The placement engine migrates back and forth without settling.
    MigrationPingPong,
    /// One task per stage runs far past the pack.
    StragglerSkew,
    /// Executors sit idle mid-run.
    ExecutorIdleBubble,
    /// NVM media writes concentrate on one object.
    NvmWriteWear,
    /// Failed / killed attempts burn a visible slice of occupancy.
    FaultWasteConcentration,
    /// Oversubscribed rack uplinks carry most of the network traffic.
    CrossRackSaturation,
}

impl FindingKind {
    /// Stable display label (also the detector's name in docs and CI).
    pub fn label(&self) -> &'static str {
        match self {
            FindingKind::TierBandwidthSaturation => "tier-bandwidth-saturation",
            FindingKind::EvictionThrash => "eviction-thrash",
            FindingKind::MigrationPingPong => "migration-ping-pong",
            FindingKind::StragglerSkew => "straggler-skew",
            FindingKind::ExecutorIdleBubble => "executor-idle-bubble",
            FindingKind::NvmWriteWear => "nvm-write-wear",
            FindingKind::FaultWasteConcentration => "fault-waste-concentration",
            FindingKind::CrossRackSaturation => "cross-rack-saturation",
        }
    }

    fn order(&self) -> u8 {
        match self {
            FindingKind::TierBandwidthSaturation => 0,
            FindingKind::EvictionThrash => 1,
            FindingKind::MigrationPingPong => 2,
            FindingKind::StragglerSkew => 3,
            FindingKind::ExecutorIdleBubble => 4,
            FindingKind::NvmWriteWear => 5,
            FindingKind::FaultWasteConcentration => 6,
            FindingKind::CrossRackSaturation => 7,
        }
    }
}

/// How loud a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Severity {
    /// Worth knowing, unlikely to move the runtime.
    Info,
    /// Costs measurable runtime or device budget.
    Warning,
    /// Dominates the run.
    Critical,
}

impl Severity {
    /// Stable display label.
    pub fn label(&self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Critical => "critical",
        }
    }
}

/// One evidence window backing a finding: where on the timeline the
/// detector saw the symptom, and how strong it was there.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvidenceWindow {
    /// Window start (virtual time).
    pub start: SimTime,
    /// Window end (virtual time).
    pub end: SimTime,
    /// What the value measures (`utilization`, `evicted bytes`, ...).
    pub what: String,
    /// The symptom's strength inside the window.
    pub value: f64,
}

/// One ranked diagnosis: a detector's claim with its evidence, blast
/// radius, and a first-order recovery estimate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Finding {
    /// Which detector fired.
    pub kind: FindingKind,
    /// How loud.
    pub severity: Severity,
    /// Ranking key: roughly "fraction of the run at stake", comparable
    /// across detectors. Findings are sorted by this, descending.
    pub score: f64,
    /// One-line human narrative.
    pub summary: String,
    /// Where on the timeline (top windows by symptom strength).
    pub evidence: Vec<EvidenceWindow>,
    /// Affected stage keys (`job0/stage2`), worst first.
    pub stages: Vec<String>,
    /// Affected object labels (`rdd3:cache`, `migration`, ...), worst first.
    pub objects: Vec<String>,
    /// First-order runtime recovery if the issue were fixed, seconds
    /// (cross-priced through [`reprice`] where a what-if exists; an upper
    /// bound otherwise; 0 for non-runtime findings like wear).
    pub estimated_recovery_s: f64,
}

/// The per-window conserved series on the doctor's uniform grid. All
/// vectors have the same length; window `i` covers
/// `[i·width, (i+1)·width)` except the last, which absorbs the tail.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DoctorSeries {
    /// Window start instants.
    pub starts: Vec<SimTime>,
    /// Per-tier bytes moved per window (re-sums to the counter totals).
    pub tier_bytes: Vec<[u64; NUM_TIERS]>,
    /// Per-tier priced stall per window (re-sums to the rollup total).
    pub tier_stall: Vec<[SimTime; NUM_TIERS]>,
    /// Per-tier channel utilization per window (derived: bytes over
    /// capacity for the window width; unclamped).
    pub tier_utilization: Vec<[f64; NUM_TIERS]>,
    /// Executor-core busy time per window, useful *and* wasted attempts
    /// (re-sums to `useful_time + wasted_time`).
    pub busy: Vec<SimTime>,
    /// Runnable-queue wait per window: task time spent between stage
    /// activation and dispatch (divide by the width for mean queue depth).
    pub queue: Vec<SimTime>,
    /// Wasted attempt time per window (re-sums to `wasted_time`).
    pub waste: Vec<SimTime>,
    /// Cache blocks evicted per window.
    pub evictions: Vec<u64>,
    /// Bytes those evictions displaced per window.
    pub evict_bytes: Vec<u64>,
    /// Bytes the placement engine migrated per window.
    pub migration_bytes: Vec<u64>,
    /// Cross-rack network bytes per window (completed transfers, binned at
    /// completion; re-sums to the net report's `cross_rack_bytes`). Empty —
    /// and skipped from serialized reports, preserving pre-plane artifacts —
    /// when the run saw no cross-rack traffic.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub cross_rack_bytes: Vec<u64>,
}

/// The doctor's product: the conserved windowed series, the conservation
/// verdict, and the ranked findings. Attached to every
/// [`RunReport`](crate::context::RunReport) and `ScenarioResult` — a pure
/// function of the run, inside the byte-identity domain.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DoctorReport {
    /// End-to-end virtual runtime the grid covers.
    pub elapsed: SimTime,
    /// Uniform window width of the doctor grid (an integer multiple of the
    /// underlying rollup's width, so re-binning was exact).
    pub window_width: SimTime,
    /// Total executor cores (the busy series' capacity denominator).
    pub total_cores: u64,
    /// The per-window conserved series.
    pub series: DoctorSeries,
    /// The in-engine verdict: true iff every identity that needs engine
    /// internals held at teardown (see the module docs).
    /// [`crate::audit`] reports it as `engine`.
    pub conserved: bool,
    /// Ranked findings, highest score first.
    pub findings: Vec<Finding>,
}

/// Everything the doctor reads — all of it always-on.
pub struct DoctorInputs<'a> {
    /// End-to-end virtual runtime.
    pub elapsed: SimTime,
    /// Total executor cores (busy-capacity denominator).
    pub total_cores: u64,
    /// The memory system's windowed charge rollup.
    pub windows: &'a WindowRollup,
    /// The machine counter totals the rollup must conserve against.
    pub counters: &'a CounterSnapshot,
    /// Effective per-tier parameters (for utilization and repricing).
    pub params: &'a [TierParams; NUM_TIERS],
    /// The run's critical-path profile (for what-if repricing).
    pub profile: &'a RunProfile,
    /// The profiler log: task spans, stage activations, eviction records.
    pub log: &'a ProfileLog,
    /// Per-object attribution (for blast radius and promotion what-ifs).
    pub hotness: &'a HotnessReport,
    /// Block-cache statistics.
    pub cache: &'a CacheStats,
    /// Placement-engine rollup.
    pub migrations: MigrationStats,
    /// Fault/recovery rollup.
    pub recovery: RecoveryStats,
    /// Occupancy spans of failed / killed attempts (sum = `wasted_time`).
    pub waste_spans: &'a [(SimTime, SimTime)],
    /// The ledger's per-batch object series (for the migration timeline).
    pub object_series: &'a [ObjectSample],
    /// Aggregated network-plane rollup (all-zero under loopback wiring).
    pub network: NetReport,
    /// The network plane's bookkeeping: its completed transfers (binned per
    /// window; none under loopback) and the per-link counters they must
    /// re-sum to.
    pub net: &'a NetState,
}

/// Split the half-open span `[a, b)` across the uniform grid, charging each
/// window its exact integer-ps overlap. The last window absorbs any tail,
/// so the charged total is always exactly `b − a`.
fn add_span(series: &mut [SimTime], width_ps: u64, a: SimTime, b: SimTime) {
    if b <= a || series.is_empty() {
        return;
    }
    let (a, b) = (a.as_ps(), b.as_ps());
    let n = series.len() as u64;
    let mut idx = (a / width_ps).min(n - 1);
    loop {
        let w_start = idx * width_ps;
        let lo = a.max(w_start);
        let hi = if idx == n - 1 {
            b
        } else {
            b.min(w_start + width_ps)
        };
        if hi > lo {
            series[idx as usize] += SimTime::from_ps(hi - lo);
        }
        if idx == n - 1 || b <= w_start + width_ps {
            break;
        }
        idx += 1;
    }
}

/// The grid index of a point event, clamped into the grid.
fn slot(n: usize, width_ps: u64, at: SimTime) -> usize {
    ((at.as_ps() / width_ps) as usize).min(n - 1)
}

/// The top `k` window indices by `value`, descending, nonzero only, ties
/// broken by index (deterministic).
fn top_windows(values: &[f64], k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..values.len()).filter(|&i| values[i] > 0.0).collect();
    idx.sort_by(|&a, &b| values[b].total_cmp(&values[a]).then_with(|| a.cmp(&b)));
    idx.truncate(k);
    idx
}

/// Build evidence rows for the given window indices.
fn evidence(
    series: &DoctorSeries,
    width: SimTime,
    elapsed: SimTime,
    what: &str,
    values: &[f64],
    idx: &[usize],
) -> Vec<EvidenceWindow> {
    idx.iter()
        .map(|&i| {
            let start = series.starts[i];
            let nominal_end = start + width;
            EvidenceWindow {
                start,
                end: if i == series.starts.len() - 1 {
                    elapsed.max(nominal_end)
                } else {
                    nominal_end
                },
                what: what.to_string(),
                value: values[i],
            }
        })
        .collect()
}

/// Run the doctor: build the conserved windowed series, check the
/// conservation contract, and run every detector. Pure and deterministic —
/// the same inputs produce a byte-identical report.
pub fn diagnose(inputs: &DoctorInputs<'_>) -> DoctorReport {
    let elapsed_ps = inputs.elapsed.as_ps().max(1);
    let base_ps = inputs.windows.width().as_ps().max(1);
    let mult = elapsed_ps
        .div_ceil(base_ps)
        .div_ceil(DOCTOR_MAX_WINDOWS)
        .max(1);
    let width_ps = base_ps * mult;
    let width = SimTime::from_ps(width_ps);
    let n = elapsed_ps.div_ceil(width_ps) as usize;

    let mut s = DoctorSeries {
        starts: (0..n as u64)
            .map(|i| SimTime::from_ps(i * width_ps))
            .collect(),
        tier_bytes: vec![[0u64; NUM_TIERS]; n],
        tier_stall: vec![[SimTime::ZERO; NUM_TIERS]; n],
        tier_utilization: vec![[0.0f64; NUM_TIERS]; n],
        busy: vec![SimTime::ZERO; n],
        queue: vec![SimTime::ZERO; n],
        waste: vec![SimTime::ZERO; n],
        evictions: vec![0u64; n],
        evict_bytes: vec![0u64; n],
        migration_bytes: vec![0u64; n],
        cross_rack_bytes: Vec::new(),
    };

    // Re-bin the rollup onto the doctor grid. The doctor width is an
    // integer multiple of the rollup width and both grids start at zero, so
    // every rollup window lands wholly inside one doctor window — exact.
    for (idx, w) in inputs.windows.indexed() {
        let di = slot(n, width_ps, inputs.windows.window_start(idx));
        for t in 0..NUM_TIERS {
            s.tier_bytes[di][t] += w.tiers[t].bytes();
            s.tier_stall[di][t] = s.tier_stall[di][t] + w.tiers[t].stall();
        }
    }
    let width_s = width.as_secs_f64();
    for i in 0..n {
        for t in 0..NUM_TIERS {
            let cap = width_s * inputs.params[t].bandwidth_bytes_per_s;
            s.tier_utilization[i][t] = if cap > 0.0 {
                s.tier_bytes[i][t] as f64 / cap
            } else {
                0.0
            };
        }
    }

    // Executor occupancy: successful task spans plus wasted attempt spans.
    for t in &inputs.log.tasks {
        add_span(&mut s.busy, width_ps, t.started, t.end);
    }
    for &(a, b) in inputs.waste_spans {
        add_span(&mut s.busy, width_ps, a, b);
        add_span(&mut s.waste, width_ps, a, b);
    }

    // Runnable-queue wait: each task waits from its stage's activation to
    // its own dispatch.
    let submitted: BTreeMap<(u64, u32), SimTime> = inputs
        .log
        .stages
        .iter()
        .map(|st| ((st.job, st.stage), st.submitted))
        .collect();
    let mut queue_total = SimTime::ZERO;
    for t in &inputs.log.tasks {
        if let Some(&sub) = submitted.get(&(t.job, t.stage)) {
            if t.started > sub {
                queue_total += t.started - sub;
                add_span(&mut s.queue, width_ps, sub, t.started);
            }
        }
    }

    // Point events: evictions and migration batches.
    for ev in &inputs.log.evictions {
        let i = slot(n, width_ps, ev.at);
        s.evictions[i] += 1;
        s.evict_bytes[i] += ev.bytes;
    }
    for os in inputs.object_series {
        if os.object == ObjectId::Migration {
            s.migration_bytes[slot(n, width_ps, os.at)] += os.delta_bytes;
        }
    }

    // Cross-rack transfer completions, binned at their completion instant.
    // The series stays empty (and off the wire) when nothing crossed racks.
    for r in &inputs.net.records {
        if r.locality == Locality::Remote {
            if s.cross_rack_bytes.is_empty() {
                s.cross_rack_bytes = vec![0u64; n];
            }
            s.cross_rack_bytes[slot(n, width_ps, r.at)] += r.bytes;
        }
    }

    // The conservation contract, in exact integers.
    let conserved = check_conservation(inputs, &s, queue_total);

    let mut report = DoctorReport {
        elapsed: inputs.elapsed,
        window_width: width,
        total_cores: inputs.total_cores,
        series: s,
        conserved,
        findings: Vec::new(),
    };
    report.findings = run_detectors(inputs, &report);
    report.findings.sort_by(|a, b| {
        b.score
            .total_cmp(&a.score)
            .then_with(|| a.kind.order().cmp(&b.kind.order()))
            .then_with(|| a.summary.cmp(&b.summary))
    });
    report
}

/// Re-sum the series whose totals only the engine holds (the rest is
/// [`crate::audit`]'s). Exact integers only.
fn check_conservation(inputs: &DoctorInputs<'_>, s: &DoctorSeries, queue_total: SimTime) -> bool {
    // 1. The rollup itself partitions the machine counters …
    let mut ok = inputs.windows.conserves(inputs.counters);
    // … and the re-binned stall telescopes to its running stall total.
    let stall: SimTime = s.tier_stall.iter().flat_map(|w| w.iter().copied()).sum();
    ok &= stall == inputs.windows.total().stall();
    // 2. Queue windows partition the total queue wait.
    let queue: SimTime = s.queue.iter().copied().sum();
    ok &= queue == queue_total;
    // 3. Evictions: the windows partition the profiler's records, and the
    //    record count matches the block manager's counter.
    let ev_n: u64 = s.evictions.iter().sum();
    let ev_b: u64 = s.evict_bytes.iter().sum();
    ok &= ev_n == inputs.log.evictions.len() as u64;
    ok &= ev_b == inputs.log.evictions.iter().map(|e| e.bytes).sum::<u64>();
    ok &= ev_n == inputs.cache.evictions;
    // 4. The network plane's per-link counters re-sum from its completed
    //    transfers.
    ok &= inputs.net.conserves();
    ok
}

/// Run the detector catalogue over the built series.
fn run_detectors(inputs: &DoctorInputs<'_>, report: &DoctorReport) -> Vec<Finding> {
    let mut findings = Vec::new();
    let s = &report.series;
    let elapsed_s = inputs.elapsed.as_secs_f64().max(1e-12);
    let width = report.window_width;
    let total_bytes: u64 = TierId::all()
        .iter()
        .map(|&t| {
            let c = inputs.counters.tier(t);
            c.bytes_read + c.bytes_written
        })
        .sum();

    // --- tier-bandwidth-saturation -------------------------------------
    // A slow tier saturates the run when repricing its traffic at Tier-0
    // latency recovers a visible slice of the runtime. The recovery is the
    // finding's headline number (validated against an actual DRAM-bound
    // re-run in core/tests/doctor.rs); the top-k promotion what-if gives
    // the "promote just these objects" secondary narrative.
    let t0 = &inputs.params[TierId::LOCAL_DRAM.index()];
    for t in 1..NUM_TIERS {
        let p = &inputs.params[t];
        let mut w = WhatIf::identity();
        if p.effective_read_ns() > 0.0 {
            w.read_scale[t] = t0.effective_read_ns() / p.effective_read_ns();
        }
        if p.effective_write_ns() > 0.0 {
            w.write_scale[t] = t0.effective_write_ns() / p.effective_write_ns();
        }
        let rep = reprice(inputs.profile, &w);
        let recovery_s = rep.baseline_s - rep.predicted_s;
        if recovery_s < SATURATION_MIN_RECOVERY_FRAC * elapsed_s {
            continue;
        }
        let promo = reprice(
            inputs.profile,
            &hotness_promotion_whatif(inputs.hotness, PROMOTE_K),
        );
        let promo_recovery_s = promo.baseline_s - promo.predicted_s;
        let promo_pct = if recovery_s > 0.0 {
            (promo_recovery_s / recovery_s * 100.0).clamp(0.0, 100.0)
        } else {
            0.0
        };
        let util: Vec<f64> = s.tier_utilization.iter().map(|u| u[t]).collect();
        let peak_util = util.iter().cloned().fold(0.0, f64::max);
        let tier = TierId::from_index(t);
        let mut objects: Vec<(&str, SimTime)> = inputs
            .hotness
            .objects
            .iter()
            .filter(|o| !o.tiers[t].stall().is_zero())
            .map(|o| (o.label.as_str(), o.tiers[t].stall()))
            .collect();
        objects.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        let mut stages: Vec<((u64, u32), SimTime)> = {
            let mut m: BTreeMap<(u64, u32), SimTime> = BTreeMap::new();
            for task in &inputs.log.tasks {
                let stall = task.breakdown.mem_read[t] + task.breakdown.mem_write[t];
                if !stall.is_zero() {
                    *m.entry((task.job, task.stage)).or_default() += stall;
                }
            }
            m.into_iter().collect()
        };
        stages.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        findings.push(Finding {
            kind: FindingKind::TierBandwidthSaturation,
            severity: if recovery_s >= SATURATION_CRITICAL_FRAC * elapsed_s {
                Severity::Critical
            } else {
                Severity::Warning
            },
            score: recovery_s / elapsed_s,
            summary: format!(
                "{tier} stall dominates: repricing its traffic at Tier-0 latency \
                 recovers ~{recovery_s:.4}s ({:.1}% of the run; peak window \
                 utilization {:.0}%); promoting the top-{PROMOTE_K} hot objects \
                 alone recovers ~{promo_pct:.0}% of that gap",
                recovery_s / elapsed_s * 100.0,
                peak_util * 100.0,
            ),
            evidence: evidence(
                s,
                width,
                inputs.elapsed,
                "channel utilization",
                &util,
                &top_windows(&util, EVIDENCE_TOP_K),
            ),
            stages: stages
                .iter()
                .take(3)
                .map(|((j, st), _)| format!("job{j}/stage{st}"))
                .collect(),
            objects: objects.iter().take(3).map(|(l, _)| l.to_string()).collect(),
            estimated_recovery_s: recovery_s,
        });
    }

    // --- eviction-thrash ------------------------------------------------
    let ev_bytes: u64 = inputs.log.evictions.iter().map(|e| e.bytes).sum();
    let ev_frac = ev_bytes as f64 / total_bytes.max(1) as f64;
    if !inputs.log.evictions.is_empty()
        && (ev_frac >= THRASH_MIN_BYTE_FRAC || inputs.cache.disk_reads > 0)
    {
        let evb: Vec<f64> = s.evict_bytes.iter().map(|&b| b as f64).collect();
        let mut by_rdd: BTreeMap<u32, u64> = BTreeMap::new();
        for ev in &inputs.log.evictions {
            *by_rdd.entry(ev.rdd).or_default() += ev.bytes;
        }
        let mut rdds: Vec<(u32, u64)> = by_rdd.into_iter().collect();
        rdds.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        findings.push(Finding {
            kind: FindingKind::EvictionThrash,
            severity: if inputs.cache.disk_reads > 0 {
                Severity::Critical
            } else {
                Severity::Warning
            },
            score: ev_frac,
            summary: format!(
                "cache churns under capacity pressure: {} evictions displaced \
                 {:.1} MB ({:.1}% of all traffic), {} spills, {} disk reads — \
                 the working set fell off the DRAM capacity cliff",
                inputs.log.evictions.len(),
                ev_bytes as f64 / 1e6,
                ev_frac * 100.0,
                inputs.cache.spills,
                inputs.cache.disk_reads,
            ),
            evidence: evidence(
                s,
                width,
                inputs.elapsed,
                "evicted bytes",
                &evb,
                &top_windows(&evb, EVIDENCE_TOP_K),
            ),
            stages: Vec::new(),
            objects: rdds
                .iter()
                .take(3)
                .map(|(rdd, _)| format!("rdd{rdd}:cache"))
                .collect(),
            estimated_recovery_s: 0.0,
        });
    }

    // --- migration-ping-pong ---------------------------------------------
    let m = inputs.migrations;
    if m.migrations > 0 && m.promotions > 0 && m.demotions > 0 {
        let frac = m.bytes_moved as f64 / total_bytes.max(1) as f64;
        let reversal =
            m.promotions.min(m.demotions) as f64 / m.promotions.max(m.demotions).max(1) as f64;
        if frac >= PINGPONG_MIN_BYTE_FRAC && reversal >= PINGPONG_MIN_REVERSAL {
            let mig: Vec<f64> = s.migration_bytes.iter().map(|&b| b as f64).collect();
            let copy_stall_s = inputs
                .hotness
                .objects
                .iter()
                .find(|o| o.object == ObjectId::Migration)
                .map(|o| o.stall.as_secs_f64())
                .unwrap_or(0.0);
            findings.push(Finding {
                kind: FindingKind::MigrationPingPong,
                severity: Severity::Warning,
                score: frac,
                summary: format!(
                    "placement churns without settling: {} migrations \
                     ({} promotions / {} demotions) copied {:.1} MB \
                     ({:.1}% of all traffic) across {} epochs",
                    m.migrations,
                    m.promotions,
                    m.demotions,
                    m.bytes_moved as f64 / 1e6,
                    frac * 100.0,
                    m.epochs,
                ),
                evidence: evidence(
                    s,
                    width,
                    inputs.elapsed,
                    "migrated bytes",
                    &mig,
                    &top_windows(&mig, EVIDENCE_TOP_K),
                ),
                stages: Vec::new(),
                objects: vec![ObjectId::Migration.label()],
                estimated_recovery_s: copy_stall_s,
            });
        }
    }

    // --- straggler-skew ----------------------------------------------------
    let mut by_stage: BTreeMap<(u64, u32), Vec<&crate::profile::TaskRecord>> = BTreeMap::new();
    for t in &inputs.log.tasks {
        by_stage.entry((t.job, t.stage)).or_default().push(t);
    }
    let mut skews: Vec<((u64, u32), f64, f64, SimTime, SimTime)> = Vec::new();
    for (&key, tasks) in &by_stage {
        if tasks.len() < STRAGGLER_MIN_TASKS {
            continue;
        }
        let mut durs: Vec<f64> = tasks
            .iter()
            .map(|t| (t.end - t.started).as_secs_f64())
            .collect();
        durs.sort_by(f64::total_cmp);
        let median = durs[durs.len() / 2];
        let worst = tasks
            .iter()
            .max_by(|a, b| {
                (a.end - a.started)
                    .cmp(&(b.end - b.started))
                    .then_with(|| b.task_id.cmp(&a.task_id))
            })
            .expect("non-empty stage");
        let max = (worst.end - worst.started).as_secs_f64();
        if median > 0.0 && max >= STRAGGLER_RATIO * median {
            skews.push((key, max, median, worst.started, worst.end));
        }
    }
    if !skews.is_empty() {
        skews.sort_by(|a, b| {
            (b.1 - b.2)
                .total_cmp(&(a.1 - a.2))
                .then_with(|| a.0.cmp(&b.0))
        });
        let ((job, stage), max, median, w_start, w_end) = skews[0];
        let gap = max - median;
        findings.push(Finding {
            kind: FindingKind::StragglerSkew,
            severity: if gap >= 0.10 * elapsed_s {
                Severity::Warning
            } else {
                Severity::Info
            },
            score: gap / elapsed_s,
            summary: format!(
                "{} stage(s) skewed: worst is job{job}/stage{stage}, slowest task \
                 {max:.4}s vs median {median:.4}s ({:.1}x) — its tail holds the \
                 stage open ~{gap:.4}s",
                skews.len(),
                max / median,
            ),
            evidence: vec![EvidenceWindow {
                start: w_start,
                end: w_end,
                what: "straggling task span".to_string(),
                value: max / median,
            }],
            stages: skews
                .iter()
                .take(3)
                .map(|((j, st), ..)| format!("job{j}/stage{st}"))
                .collect(),
            objects: Vec::new(),
            estimated_recovery_s: gap,
        });
    }

    // --- executor-idle-bubble ----------------------------------------------
    if inputs.total_cores > 0 && !s.busy.is_empty() {
        let cap_ps = width.as_ps().saturating_mul(inputs.total_cores);
        let busy_frac: Vec<f64> = s
            .busy
            .iter()
            .map(|b| b.as_ps() as f64 / cap_ps.max(1) as f64)
            .collect();
        // Longest run of idle windows.
        let (mut best_start, mut best_len) = (0usize, 0usize);
        let (mut cur_start, mut cur_len) = (0usize, 0usize);
        for (i, &f) in busy_frac.iter().enumerate() {
            if f < IDLE_BUBBLE_UTIL {
                if cur_len == 0 {
                    cur_start = i;
                }
                cur_len += 1;
                if cur_len > best_len {
                    best_start = cur_start;
                    best_len = cur_len;
                }
            } else {
                cur_len = 0;
            }
        }
        let bubble_s = best_len as f64 * width.as_secs_f64();
        if best_len > 0 && bubble_s >= IDLE_BUBBLE_MIN_FRAC * elapsed_s {
            let avg_busy: f64 = busy_frac[best_start..best_start + best_len]
                .iter()
                .sum::<f64>()
                / best_len as f64;
            let idle_s = bubble_s * (1.0 - avg_busy);
            let inv: Vec<f64> = busy_frac.iter().map(|&f| (1.0 - f).max(0.0)).collect();
            findings.push(Finding {
                kind: FindingKind::ExecutorIdleBubble,
                severity: if bubble_s >= 0.25 * elapsed_s {
                    Severity::Warning
                } else {
                    Severity::Info
                },
                score: idle_s / elapsed_s,
                summary: format!(
                    "executors under {:.0}% busy for {bubble_s:.4}s starting at \
                     {:.4}s ({:.1}% of the run) — scheduling or driver bubble, \
                     ~{idle_s:.4}s of core time unused there",
                    IDLE_BUBBLE_UTIL * 100.0,
                    s.starts[best_start].as_secs_f64(),
                    bubble_s / elapsed_s * 100.0,
                ),
                evidence: evidence(
                    s,
                    width,
                    inputs.elapsed,
                    "idle fraction",
                    &inv,
                    &top_windows(&inv, EVIDENCE_TOP_K),
                ),
                stages: Vec::new(),
                objects: Vec::new(),
                estimated_recovery_s: idle_s,
            });
        }
    }

    // --- nvm-write-wear -----------------------------------------------------
    let total_nvm_writes: u64 = inputs
        .hotness
        .objects
        .iter()
        .map(|o| o.nvm_media_writes)
        .sum();
    if total_nvm_writes > 0 {
        let top = inputs
            .hotness
            .objects
            .iter()
            .max_by(|a, b| {
                a.nvm_media_writes
                    .cmp(&b.nvm_media_writes)
                    .then_with(|| b.object.cmp(&a.object))
            })
            .expect("non-empty hotness");
        let share = top.nvm_media_writes as f64 / total_nvm_writes as f64;
        if share >= WEAR_MIN_SHARE {
            let nvm_wb: Vec<f64> = s
                .tier_bytes
                .iter()
                .map(|w| (w[TierId::NVM_NEAR.index()] + w[TierId::NVM_FAR.index()]) as f64)
                .collect();
            findings.push(Finding {
                kind: FindingKind::NvmWriteWear,
                severity: Severity::Info,
                score: share * (total_nvm_writes as f64 / total_bytes.max(1) as f64).min(1.0),
                summary: format!(
                    "NVM media writes concentrate on {}: {} of {} media writes \
                     ({:.0}%) — the endurance budget burns on one object",
                    top.label,
                    top.nvm_media_writes,
                    total_nvm_writes,
                    share * 100.0,
                ),
                evidence: evidence(
                    s,
                    width,
                    inputs.elapsed,
                    "NVM bytes",
                    &nvm_wb,
                    &top_windows(&nvm_wb, EVIDENCE_TOP_K),
                ),
                stages: Vec::new(),
                objects: vec![top.label.clone()],
                estimated_recovery_s: 0.0,
            });
        }
    }

    // --- fault-waste-concentration ------------------------------------------
    if !inputs.recovery.wasted_time.is_zero() {
        let frac = inputs.recovery.waste_fraction();
        if frac >= WASTE_MIN_FRAC {
            let waste: Vec<f64> = s.waste.iter().map(|w| w.as_secs_f64()).collect();
            let peaks = top_windows(&waste, EVIDENCE_TOP_K);
            let peak_share = peaks
                .first()
                .map(|&i| waste[i] / inputs.recovery.wasted_time.as_secs_f64().max(1e-12))
                .unwrap_or(0.0);
            findings.push(Finding {
                kind: FindingKind::FaultWasteConcentration,
                severity: if frac >= 0.10 {
                    Severity::Warning
                } else {
                    Severity::Info
                },
                score: frac,
                summary: format!(
                    "{:.4}s of executor occupancy wasted on failed/killed attempts \
                     ({:.1}% of occupancy; {:.0}% of the waste lands in one window) — \
                     up to that much recoverable without the faults",
                    inputs.recovery.wasted_time.as_secs_f64(),
                    frac * 100.0,
                    peak_share * 100.0,
                ),
                evidence: evidence(s, width, inputs.elapsed, "wasted time (s)", &waste, &peaks),
                stages: Vec::new(),
                objects: Vec::new(),
                estimated_recovery_s: inputs.recovery.wasted_time.as_secs_f64(),
            });
        }
    }

    // --- cross-rack-saturation ----------------------------------------------
    // The oversubscribed rack uplinks dominate the network plane when most
    // completed bytes crossed racks. Recovery is priced as "make that
    // traffic node-local": node-local transfers are free loopback, so the
    // surviving network time scales with the byte share left on the wire —
    // the net_scale what-if axis prices exactly that.
    let netr = &inputs.network;
    if netr.total_bytes > 0 && netr.cross_rack_bytes > 0 {
        let frac = netr.cross_rack_bytes as f64 / netr.total_bytes as f64;
        if frac >= CROSS_RACK_MIN_BYTE_FRAC {
            let mut w = WhatIf::identity();
            w.net_scale = 1.0 - frac;
            let rep = reprice(inputs.profile, &w);
            let recovery_s = rep.baseline_s - rep.predicted_s;
            let xrack: Vec<f64> = s.cross_rack_bytes.iter().map(|&b| b as f64).collect();
            let mut uplinks: Vec<(&str, u64)> = netr
                .links
                .iter()
                .filter(|l| l.bytes > 0 && l.label.starts_with("rack"))
                .map(|l| (l.label.as_str(), l.bytes))
                .collect();
            uplinks.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
            let worst = uplinks.first().map(|&(l, _)| l).unwrap_or("rack links");
            let mut stages: Vec<((u64, u32), SimTime)> = {
                let mut m: BTreeMap<(u64, u32), SimTime> = BTreeMap::new();
                for task in &inputs.log.tasks {
                    if !task.breakdown.net.is_zero() {
                        *m.entry((task.job, task.stage)).or_default() += task.breakdown.net;
                    }
                }
                m.into_iter().collect()
            };
            stages.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            findings.push(Finding {
                kind: FindingKind::CrossRackSaturation,
                severity: if recovery_s >= SATURATION_CRITICAL_FRAC * elapsed_s {
                    Severity::Critical
                } else if recovery_s >= SATURATION_MIN_RECOVERY_FRAC * elapsed_s {
                    Severity::Warning
                } else {
                    Severity::Info
                },
                score: (recovery_s / elapsed_s).max(frac * SATURATION_MIN_RECOVERY_FRAC),
                summary: format!(
                    "cross-rack traffic dominates the network plane: {:.1} MB of \
                     {:.1} MB completed bytes crossed racks ({:.1}%, busiest uplink \
                     {worst}) — scheduling that traffic node-local recovers \
                     ~{recovery_s:.4}s",
                    netr.cross_rack_bytes as f64 / 1e6,
                    netr.total_bytes as f64 / 1e6,
                    frac * 100.0,
                ),
                evidence: evidence(
                    s,
                    width,
                    inputs.elapsed,
                    "cross-rack bytes",
                    &xrack,
                    &top_windows(&xrack, EVIDENCE_TOP_K),
                ),
                stages: stages
                    .iter()
                    .take(3)
                    .map(|((j, st), _)| format!("job{j}/stage{st}"))
                    .collect(),
                objects: Vec::new(),
                estimated_recovery_s: recovery_s,
            });
        }
    }

    findings
}

impl DoctorReport {
    /// Render the ranked narrative: a headline, per-tier utilization and
    /// occupancy sparklines, and the top-`k` findings table — the shared
    /// [`AsciiTable`]/[`sparkline`] machinery the explainer renders with.
    pub fn render(&self, k: usize) -> String {
        let n = self.series.starts.len();
        let mut out = format!(
            "run doctor: {:.6}s over {} windows x {:.6}s; conservation {}; {} finding(s)\n",
            self.elapsed.as_secs_f64(),
            n,
            self.window_width.as_secs_f64(),
            if self.conserved { "exact" } else { "BROKEN" },
            self.findings.len(),
        );
        for t in TierId::all() {
            let util: Vec<f64> = self
                .series
                .tier_utilization
                .iter()
                .map(|u| u[t.index()])
                .collect();
            let bytes: u64 = self.series.tier_bytes.iter().map(|w| w[t.index()]).sum();
            if bytes == 0 {
                continue;
            }
            let peak = util.iter().cloned().fold(0.0, f64::max);
            out.push_str(&format!(
                "{t} utilization (peak {:.0}%): {}\n",
                peak * 100.0,
                sparkline(&util)
            ));
        }
        if self.total_cores > 0 {
            let cap = self
                .window_width
                .as_ps()
                .saturating_mul(self.total_cores)
                .max(1) as f64;
            let busy: Vec<f64> = self
                .series
                .busy
                .iter()
                .map(|b| b.as_ps() as f64 / cap)
                .collect();
            out.push_str(&format!("executor busy: {}\n", sparkline(&busy)));
            let queue: Vec<f64> = self
                .series
                .queue
                .iter()
                .map(|q| q.as_ps() as f64 / self.window_width.as_ps().max(1) as f64)
                .collect();
            if queue.iter().any(|&q| q > 0.0) {
                out.push_str(&format!("runnable queue depth: {}\n", sparkline(&queue)));
            }
        }
        if self.findings.is_empty() {
            out.push_str("no findings: nothing crossed a detector threshold\n");
            return out;
        }
        let mut t = AsciiTable::new(vec![
            "#",
            "finding",
            "severity",
            "score",
            "recovery (s)",
            "summary",
        ])
        .title("Findings (ranked)");
        for (i, f) in self.findings.iter().take(k).enumerate() {
            t.row(vec![
                format!("{}", i + 1),
                f.kind.label().to_string(),
                f.severity.label().to_string(),
                fmt_f64(f.score, 4),
                fmt_f64(f.estimated_recovery_s, 4),
                f.summary.clone(),
            ]);
        }
        out.push_str(&t.render());
        for f in self.findings.iter().take(k) {
            for e in &f.evidence {
                out.push_str(&format!(
                    "  {}: [{:.6}s, {:.6}s) {} = {}\n",
                    f.kind.label(),
                    e.start.as_secs_f64(),
                    e.end.as_secs_f64(),
                    e.what,
                    fmt_f64(e.value, 4),
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::build_profile;
    use memtier_memsim::MemSimConfig;
    use memtier_netsim::NetworkMode;

    fn params() -> [TierParams; NUM_TIERS] {
        let conf = MemSimConfig::paper_default();
        TierId::all().map(|t| conf.effective_tier_params(t))
    }

    fn empty_inputs<'a>(
        elapsed: SimTime,
        windows: &'a WindowRollup,
        counters: &'a CounterSnapshot,
        params: &'a [TierParams; NUM_TIERS],
        profile: &'a RunProfile,
        log: &'a ProfileLog,
        hotness: &'a HotnessReport,
        cache: &'a CacheStats,
    ) -> DoctorInputs<'a> {
        DoctorInputs {
            elapsed,
            total_cores: 4,
            windows,
            counters,
            params,
            profile,
            log,
            hotness,
            cache,
            migrations: MigrationStats::default(),
            recovery: RecoveryStats::default(),
            waste_spans: &[],
            object_series: &[],
            network: NetReport::default(),
            net: Box::leak(Box::new(NetState::new(&NetworkMode::Loopback))),
        }
    }

    #[test]
    fn add_span_partitions_exactly_across_windows() {
        let width_ps = SimTime::from_us(100).as_ps();
        let mut series = vec![SimTime::ZERO; 10];
        // Straddles three windows with ragged edges.
        let (a, b) = (SimTime::from_us(150), SimTime::from_us(420));
        add_span(&mut series, width_ps, a, b);
        let total: SimTime = series.iter().copied().sum();
        assert_eq!(total, b - a);
        assert_eq!(series[1], SimTime::from_us(50));
        assert_eq!(series[2], SimTime::from_us(100));
        assert_eq!(series[3], SimTime::from_us(100));
        assert_eq!(series[4], SimTime::from_us(20));
        // A span past the grid end lands in the last window (tail absorb).
        let mut short = vec![SimTime::ZERO; 2];
        add_span(
            &mut short,
            width_ps,
            SimTime::from_us(150),
            SimTime::from_us(900),
        );
        let total: SimTime = short.iter().copied().sum();
        assert_eq!(total, SimTime::from_us(750));
        // Zero-length spans contribute nothing.
        add_span(
            &mut short,
            width_ps,
            SimTime::from_us(5),
            SimTime::from_us(5),
        );
        let still: SimTime = short.iter().copied().sum();
        assert_eq!(still, SimTime::from_us(750));
    }

    #[test]
    fn empty_run_diagnoses_clean_and_conserves() {
        let windows = WindowRollup::default();
        let counters = CounterSnapshot::zero();
        let params = params();
        let log = ProfileLog::default();
        let profile = build_profile(&log, SimTime::from_ms(1));
        let hotness = HotnessReport::default();
        let cache = CacheStats::default();
        let inputs = empty_inputs(
            SimTime::from_ms(1),
            &windows,
            &counters,
            &params,
            &profile,
            &log,
            &hotness,
            &cache,
        );
        let r = diagnose(&inputs);
        assert!(r.conserved, "an empty run trivially conserves");
        assert!(!r.series.starts.is_empty());
        // An all-driver run is one big idle bubble; nothing else fires.
        for f in &r.findings {
            assert_eq!(f.kind, FindingKind::ExecutorIdleBubble);
        }
        let text = r.render(5);
        assert!(text.contains("run doctor"));
        assert!(text.contains("conservation exact"));
    }

    #[test]
    fn doctor_grid_respects_the_window_cap() {
        let windows = WindowRollup::default(); // 100 us base width
        let counters = CounterSnapshot::zero();
        let params = params();
        let log = ProfileLog::default();
        // A long run: 10 s over 100 us windows would be 100k windows.
        let elapsed = SimTime::from_ms(10_000);
        let profile = build_profile(&log, elapsed);
        let hotness = HotnessReport::default();
        let cache = CacheStats::default();
        let inputs = empty_inputs(
            elapsed, &windows, &counters, &params, &profile, &log, &hotness, &cache,
        );
        let r = diagnose(&inputs);
        assert!(r.series.starts.len() as u64 <= DOCTOR_MAX_WINDOWS);
        assert_eq!(
            r.window_width.as_ps() % windows.width().as_ps(),
            0,
            "doctor width must stay an exact multiple of the rollup width"
        );
    }

    #[test]
    fn waste_spans_surface_and_conserve() {
        let windows = WindowRollup::default();
        let counters = CounterSnapshot::zero();
        let params = params();
        let log = ProfileLog::default();
        let elapsed = SimTime::from_ms(10);
        let profile = build_profile(&log, elapsed);
        let hotness = HotnessReport::default();
        let cache = CacheStats::default();
        let mut inputs = empty_inputs(
            elapsed, &windows, &counters, &params, &profile, &log, &hotness, &cache,
        );
        let spans = vec![(SimTime::from_ms(1), SimTime::from_ms(3))];
        inputs.recovery = RecoveryStats {
            useful_time: SimTime::from_ms(5),
            wasted_time: SimTime::from_ms(2),
            ..RecoveryStats::default()
        };
        inputs.waste_spans = &spans;
        let r = diagnose(&inputs);
        let waste_total: SimTime = r.series.waste.iter().copied().sum();
        assert_eq!(waste_total, SimTime::from_ms(2));
        let f = r
            .findings
            .iter()
            .find(|f| f.kind == FindingKind::FaultWasteConcentration)
            .expect("waste above threshold must surface");
        assert!(f.estimated_recovery_s > 0.0);
        assert!(!f.evidence.is_empty());
    }

    #[test]
    fn cross_rack_saturation_fires_and_conserves() {
        use crate::net::{NetChargeKind, TransferRecord};

        let windows = WindowRollup::default();
        let counters = CounterSnapshot::zero();
        let params = params();
        let log = ProfileLog::default();
        let elapsed = SimTime::from_ms(10);
        let profile = build_profile(&log, elapsed);
        let hotness = HotnessReport::default();
        let cache = CacheStats::default();
        let mut inputs = empty_inputs(
            elapsed, &windows, &counters, &params, &profile, &log, &hotness, &cache,
        );
        let rec = |at_ms: u64, bytes: u64, locality: Locality| TransferRecord {
            at: SimTime::from_ms(at_ms),
            task: Some(1),
            kind: NetChargeKind::ShuffleFetch,
            src: 0,
            dst: 2,
            bytes,
            locality,
            links: vec![0],
            refetch: false,
        };
        let mut net = NetState::new(&NetworkMode::Loopback);
        net.records = vec![
            rec(2, 3_000_000, Locality::Remote),
            rec(4, 1_000_000, Locality::RackLocal),
        ];
        inputs.network = NetReport {
            transfers: 2,
            total_bytes: 4_000_000,
            rack_local_bytes: 1_000_000,
            cross_rack_bytes: 3_000_000,
            shuffle_bytes: 4_000_000,
            links: vec![crate::net::LinkReport {
                label: "rack0:up".into(),
                bytes: 3_000_000,
                busy_s: 0.001,
            }],
            ..NetReport::default()
        };
        inputs.net = &net;
        let r = diagnose(&inputs);
        let binned: u64 = r.series.cross_rack_bytes.iter().sum();
        assert_eq!(binned, 3_000_000);
        let f = r
            .findings
            .iter()
            .find(|f| f.kind == FindingKind::CrossRackSaturation)
            .expect("75% cross-rack share must surface");
        assert!(f.summary.contains("rack0:up"));
        assert!(!f.evidence.is_empty());
        // With no network time in the profile the what-if recovers nothing,
        // but the byte-share score still ranks the finding.
        assert!(f.score > 0.0);
    }

    #[test]
    fn findings_rank_deterministically() {
        let a = Finding {
            kind: FindingKind::StragglerSkew,
            severity: Severity::Info,
            score: 0.1,
            summary: "a".into(),
            evidence: vec![],
            stages: vec![],
            objects: vec![],
            estimated_recovery_s: 0.0,
        };
        let mut b = a.clone();
        b.kind = FindingKind::TierBandwidthSaturation;
        b.score = 0.5;
        let mut r = DoctorReport {
            findings: vec![a, b],
            ..DoctorReport::default()
        };
        r.findings.sort_by(|x, y| {
            y.score
                .total_cmp(&x.score)
                .then_with(|| x.kind.order().cmp(&y.kind.order()))
                .then_with(|| x.summary.cmp(&y.summary))
        });
        assert_eq!(r.findings[0].kind, FindingKind::TierBandwidthSaturation);
    }
}
