//! Every conservation identity a run owes, checked in one place.
//!
//! A run's report says the same thing several ways — machine counters, the
//! per-object ledger, the doctor's windowed series, the critical path and
//! its digest, the network rollup — and each view is only worth reading
//! because it re-sums to the others in exact integers. [`RunView::audit`]
//! holds one run to all of those identities at once and names the first
//! that fails, with both sides. It reads nothing but the report (so a
//! deserialized artifact audits like a live run) and never looks at how the
//! run was configured: no placement mode, fault plan or wiring is exempt.
//!
//! What needs engine internals — the window rollup against the counters,
//! queue wait and evictions against the profiler log, completed transfers
//! against the per-link counters — is evaluated once at
//! [`finish`](crate::SparkContext::finish) and carried as
//! [`DoctorReport::conserved`], which the audit reports under `engine`.
//! DESIGN.md §20 tabulates every identity.

use crate::doctor::DoctorReport;
use crate::explain::RunDigest;
use crate::faultsim::RecoveryStats;
use crate::net::NetReport;
use crate::profile::{RunProfile, SegmentKind};
use memtier_des::SimTime;
use memtier_memsim::{CounterSnapshot, HotnessReport, MigrationStats, ObjectId, TierId};
use std::fmt;

/// A conservation identity that does not hold for a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditError {
    /// The identity's name, as DESIGN.md §20 lists it (`ledger`,
    /// `profile.segments`, `net.node_uplinks`, …).
    pub identity: &'static str,
    /// Where inside the identity (a tier, a segment index, …); may be empty.
    pub at: String,
    /// The side named first in the identity's definition (bytes, counts or
    /// picoseconds, exact).
    pub left: u64,
    /// The side it must equal.
    pub right: u64,
}

impl fmt::Display for AuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (sep, at) = if self.at.is_empty() {
            ("", "")
        } else {
            (" at ", self.at.as_str())
        };
        write!(
            f,
            "conservation identity `{}` does not hold{sep}{at}: {} != {}",
            self.identity, self.left, self.right
        )
    }
}

impl std::error::Error for AuditError {}

/// `Err` unless `ok`; `at` is rendered only on failure.
fn hold(
    ok: bool,
    identity: &'static str,
    at: impl fmt::Display,
    left: u64,
    right: u64,
) -> Result<(), AuditError> {
    if ok {
        return Ok(());
    }
    Err(AuditError {
        identity,
        at: at.to_string(),
        left,
        right,
    })
}

/// The report fields the identities relate, borrowed from wherever the run
/// lives: a live [`RunReport`](crate::context::RunReport), a
/// `memtier_core::ScenarioResult`, or one of those read back from JSON.
#[derive(Clone, Copy)]
pub struct RunView<'a> {
    /// End-to-end virtual runtime.
    pub elapsed: SimTime,
    /// Machine access counters.
    pub counters: &'a CounterSnapshot,
    /// Critical path and its attribution.
    pub profile: &'a RunProfile,
    /// Per-object ledger report.
    pub hotness: &'a HotnessReport,
    /// Placement-engine rollup.
    pub migrations: &'a MigrationStats,
    /// Fault/recovery rollup.
    pub recovery: &'a RecoveryStats,
    /// The explainer's digest.
    pub digest: &'a RunDigest,
    /// The doctor's windowed series and the in-engine verdict.
    pub doctor: &'a DoctorReport,
    /// Network-plane rollup.
    pub network: &'a NetReport,
}

impl RunView<'_> {
    /// Hold the run to every identity; the first that fails is the error.
    pub fn audit(&self) -> Result<(), AuditError> {
        let (p, d, n, r) = (self.profile, self.digest, self.network, self.recovery);
        let (a, s) = (&p.attribution, &self.doctor.series);
        let total = |series: &[SimTime]| series.iter().copied().sum::<SimTime>().as_ps();
        let object_bytes = |object: ObjectId| -> u64 {
            let charged = self.hotness.objects.iter().filter(|o| o.object == object);
            charged.map(|o| o.total_bytes).sum()
        };
        let uplinks = |prefix: &str| -> u64 {
            let up = |l: &&crate::net::LinkReport| {
                l.label.starts_with(prefix) && l.label.ends_with(":up")
            };
            n.links.iter().filter(up).map(|l| l.bytes).sum()
        };

        // Per tier: the ledger's objects and the doctor's windows each
        // re-sum to the machine counters.
        for t in TierId::all() {
            let (l, c) = (self.hotness.tier_total(t), self.counters.tier(t));
            for (field, l, c) in [
                ("reads", l.reads, c.reads),
                ("writes", l.writes, c.writes),
                ("bytes_read", l.bytes_read, c.bytes_read),
                ("bytes_written", l.bytes_written, c.bytes_written),
            ] {
                hold(l == c, "ledger", format_args!("{t} {field}"), l, c)?;
            }
            let binned: u64 = s.tier_bytes.iter().map(|w| w[t.index()]).sum();
            let bytes = c.bytes_read + c.bytes_written;
            hold(binned == bytes, "doctor.tier_bytes", t, binned, bytes)?;
        }

        // The path's segments abut and tile `[0, elapsed]`.
        let (mut cursor, mut queue, mut driver) = (SimTime::ZERO, SimTime::ZERO, SimTime::ZERO);
        for (i, seg) in p.segments.iter().enumerate() {
            let (start, prev) = (seg.start.as_ps(), cursor.as_ps());
            let abuts = start == prev && seg.end >= seg.start;
            hold(abuts, "profile.segments", i, start, prev)?;
            match seg.kind {
                SegmentKind::Queue => queue += seg.duration(),
                SegmentKind::Driver => driver += seg.duration(),
                SegmentKind::Task => {}
            }
            cursor = seg.end;
        }

        // Everything that is one sum against one total: (identity, where,
        // left, right). The two synthetic ledger objects carry what the
        // fault and placement rollups say was charged to them (a copy is a
        // read at the source plus a write at the destination); every
        // transfer leaves its source by one node uplink, every cross-rack
        // one by one rack uplink too; a report without links (loopback, or
        // a fabric nothing crossed) is all zeros, so its rows hold as 0 = 0.
        let (cancelled, migrated) = (
            object_bytes(ObjectId::Recovery),
            object_bytes(ObjectId::Migration),
        );
        let occupied = (r.useful_time + r.wasted_time).as_ps();
        let (binned_migrated, binned_remote): (u64, u64) = (
            s.migration_bytes.iter().sum(),
            s.cross_rack_bytes.iter().sum(),
        );
        let by_locality = n.rack_local_bytes + n.cross_rack_bytes;
        let by_kind = n.shuffle_bytes
            + n.broadcast_bytes
            + n.dfs_read_bytes
            + n.dfs_write_bytes
            + n.rereplicate_bytes;
        let (elapsed, moved) = (self.elapsed.as_ps(), self.migrations.bytes_moved);
        for (identity, at, left, right) in [
            ("elapsed", "profile", p.elapsed.as_ps(), elapsed),
            ("elapsed", "digest", d.elapsed.as_ps(), elapsed),
            ("elapsed", "doctor", self.doctor.elapsed.as_ps(), elapsed),
            ("recovery.cancelled_bytes", "", cancelled, r.cancelled_bytes),
            ("migration.bytes_moved", "", migrated, 2 * moved),
            ("doctor.busy", "", total(&s.busy), occupied),
            ("doctor.waste", "", total(&s.waste), r.wasted_time.as_ps()),
            ("doctor.migration_bytes", "", binned_migrated, migrated),
            (
                "doctor.cross_rack_bytes",
                "",
                binned_remote,
                n.cross_rack_bytes,
            ),
            ("profile.segments", "end", cursor.as_ps(), elapsed),
            (
                "profile.kinds",
                "queue",
                queue.as_ps(),
                a.sched_queue.as_ps(),
            ),
            ("profile.kinds", "driver", driver.as_ps(), a.driver.as_ps()),
            ("profile.attribution", "", a.total().as_ps(), elapsed),
            ("net.locality", "", by_locality, n.total_bytes),
            ("net.kinds", "", by_kind, n.total_bytes),
            ("net.node_uplinks", "", uplinks("node"), n.total_bytes),
            ("net.rack_uplinks", "", uplinks("rack"), n.cross_rack_bytes),
        ] {
            hold(left == right, identity, at, left, right)?;
        }

        // The digest is the projection it claims to be — of the profile,
        // the ledger and the two rollups — and its stage slices plus the
        // driver bucket re-sum to its phases.
        let sliced: SimTime = d.stages.iter().map(|s| s.phases.total()).sum();
        let (digested, ranked) = (d.objects.len() as u64, self.hotness.objects.len() as u64);
        hold(
            d.phases == *a,
            "digest.phases",
            "",
            d.phases.total().as_ps(),
            a.total().as_ps(),
        )?;
        hold(
            d.conserves(),
            "digest.stages",
            "",
            (sliced + d.phases.driver).as_ps(),
            d.elapsed.as_ps(),
        )?;
        hold(
            digested == ranked,
            "digest.objects",
            "count",
            digested,
            ranked,
        )?;
        for (got, o) in d.objects.iter().zip(&self.hotness.objects) {
            let projects = got.object == o.object
                && got.label == o.label
                && (0..got.bytes.len()).all(|i| {
                    got.bytes[i] == o.tiers[i].bytes() && got.stall[i] == o.tiers[i].stall()
                });
            hold(
                projects,
                "digest.objects",
                &o.label,
                got.total_bytes(),
                o.total_bytes,
            )?;
        }
        hold(
            d.migration == *self.migrations,
            "digest.migration",
            "",
            d.migration.bytes_moved,
            self.migrations.bytes_moved,
        )?;
        hold(
            d.recovery == *r,
            "digest.recovery",
            "",
            d.recovery.cancelled_bytes,
            r.cancelled_bytes,
        )?;
        let wired = !n.links.is_empty();
        hold(wired || n.is_empty(), "net.loopback", "", n.transfers, 0)?;
        hold(self.doctor.conserved, "engine", "", 0, 1)
    }
}
