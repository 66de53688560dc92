//! Property tests for the memory simulator's accounting invariants.

use memtier_des::SimTime;
use memtier_memsim::{
    AccessBatch, MemSimConfig, MemorySystem, ObjectId, TierCounters, TierId, TierParams,
    WindowRollup, MAX_WINDOWS, NUM_TIERS,
};
use proptest::prelude::*;

/// Retire `batch` whole, as one `Scratch` part.
fn finish(sys: &mut MemorySystem, now: SimTime, tier: TierId, flow: u64, batch: &AccessBatch) {
    sys.finish_access_attributed(now, tier, flow, batch, &[(ObjectId::Scratch, *batch)]);
}

fn arb_batch() -> impl Strategy<Value = AccessBatch> {
    (0u64..10_000, 0u64..10_000, 0u64..5_000, 0u64..5_000).prop_map(|(sr, sw, rr, rw)| {
        AccessBatch::sequential(sr, sw)
            + AccessBatch::random_reads(rr)
            + AccessBatch::random_writes(rw)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Batch addition is commutative and conserves every field.
    #[test]
    fn batch_addition_laws(a in arb_batch(), b in arb_batch()) {
        prop_assert_eq!(a + b, b + a);
        let s = a + b;
        prop_assert_eq!(s.reads, a.reads + b.reads);
        prop_assert_eq!(s.total_bytes(), a.total_bytes() + b.total_bytes());
        prop_assert_eq!(s.random_reads, a.random_reads + b.random_reads);
        prop_assert_eq!(a.scaled(3).total_accesses(), 3 * a.total_accesses());
    }

    /// Channel bytes interpolate between "random is free" and full volume.
    #[test]
    fn channel_bytes_bounds(batch in arb_batch(), frac in 0.0f64..=1.0) {
        let cb = batch.channel_bytes(frac);
        prop_assert!(cb <= batch.total_bytes() as f64 + 1e-9);
        prop_assert!(cb >= batch.channel_bytes(0.0) - 1e-9);
        // Monotone in the fraction.
        prop_assert!(batch.channel_bytes(frac) <= batch.channel_bytes(1.0) + 1e-9);
        // Full fraction charges everything.
        prop_assert!((batch.channel_bytes(1.0) - batch.total_bytes() as f64).abs() < 1e-9);
    }

    /// DIMM striping conserves all counted quantities exactly.
    #[test]
    fn counter_striping_conserves(batch in arb_batch(), dimms in 1usize..8) {
        let c = TierCounters::new([dimms, 1, 1, 1]);
        c.record(TierId::LOCAL_DRAM, &batch);
        let total = c.tier_total(TierId::LOCAL_DRAM);
        prop_assert_eq!(total.reads, batch.reads);
        prop_assert_eq!(total.writes, batch.writes);
        prop_assert_eq!(total.bytes_read, batch.bytes_read);
        prop_assert_eq!(total.bytes_written, batch.bytes_written);
        // Per-DIMM shares are balanced within 1 access.
        let per = c.tier_snapshot(TierId::LOCAL_DRAM);
        let max = per.iter().map(|d| d.reads).max().unwrap();
        let min = per.iter().map(|d| d.reads).min().unwrap();
        prop_assert!(max - min <= 1);
    }

    /// Nominal memory time is monotone in the tier index for any batch.
    #[test]
    fn tier_ordering_holds_for_any_batch(batch in arb_batch()) {
        prop_assume!(!batch.is_empty());
        let sys = MemorySystem::paper_default();
        let times: Vec<f64> = TierId::all()
            .iter()
            .map(|&t| sys.nominal_mem_time(t, &batch).as_secs_f64())
            .collect();
        for w in times.windows(2) {
            prop_assert!(w[0] <= w[1], "tier times must be non-decreasing: {:?}", times);
        }
    }

    /// A full access lifecycle charges exactly the batch, no matter the
    /// contents.
    #[test]
    fn lifecycle_charges_exact_batch(batch in arb_batch()) {
        prop_assume!(!batch.is_empty());
        let mut sys = MemorySystem::new(MemSimConfig::paper_default());
        sys.begin_access(SimTime::ZERO, TierId::NVM_NEAR, 1, &batch);
        if let Some((t, tier, flow)) = sys.next_completion() {
            sys.advance(t);
            finish(&mut sys, t, tier, flow, &batch);
        } else {
            finish(&mut sys, SimTime::ZERO, TierId::NVM_NEAR, 1, &batch);
        }
        let snap = sys.counters().tier(TierId::NVM_NEAR);
        prop_assert_eq!(snap.reads, batch.reads);
        prop_assert_eq!(snap.writes, batch.writes);
        prop_assert_eq!(snap.bytes_read, batch.bytes_read);
        prop_assert_eq!(snap.bytes_written, batch.bytes_written);
    }

    /// The windowed rollup re-sums exactly to the machine counters for
    /// arbitrary charge streams on arbitrary tiers at arbitrary instants —
    /// including charges landing exactly on window boundaries (jitter 0) —
    /// under arbitrary window widths.
    #[test]
    fn window_rollup_conserves_for_arbitrary_widths(
        charges in proptest::collection::vec(
            (0u64..2_000, 0u64..1_000, 0usize..NUM_TIERS, arb_batch()),
            0..64,
        ),
        width_us in 1u64..500,
    ) {
        let conf = MemSimConfig::paper_default();
        let params: [TierParams; NUM_TIERS] =
            TierId::all().map(|t| conf.effective_tier_params(t));
        let width = SimTime::from_us(width_us);
        let mut rollup = WindowRollup::new(width);
        let counters = TierCounters::new([1, 1, 1, 1]);
        for (k, jitter, tier_idx, batch) in &charges {
            let tier = TierId::from_index(*tier_idx);
            // Window-aligned when jitter is 0, straddling otherwise.
            let at = SimTime::from_ps(k * width.as_ps() + jitter);
            rollup.record(at, tier, batch, &params[tier.index()]);
            counters.record(tier, batch);
        }
        prop_assert!(rollup.conserves(&counters.snapshot()));
        // The per-window stall series telescopes to the running total too.
        let stall: SimTime = rollup.iter().map(|(_, w)| w.stall()).sum();
        prop_assert_eq!(stall, rollup.total().stall());
        // And every windowed byte is accounted: per-tier window sums equal
        // the counters per tier, exactly.
        for t in TierId::all() {
            let windowed: u64 = rollup.iter().map(|(_, w)| w.tier(t).bytes()).sum();
            let c = counters.snapshot().tier(t);
            prop_assert_eq!(windowed, c.bytes_read + c.bytes_written);
        }
    }

    /// Mid-flight cancellation (the fault path) charges the partially
    /// served slice of the batch — and the rollup window it lands in sees
    /// exactly what the counters see, so conservation survives any cut
    /// point.
    #[test]
    fn window_rollup_conserves_under_cancellation(
        batch in arb_batch(),
        cancel_frac in 0.0f64..=1.0,
        followup in arb_batch(),
    ) {
        prop_assume!(!batch.is_empty());
        let mut sys = MemorySystem::new(MemSimConfig::paper_default());
        sys.begin_access(SimTime::ZERO, TierId::NVM_NEAR, 1, &batch);
        let mut now = SimTime::ZERO;
        if let Some((t, tier, flow)) = sys.next_completion() {
            let cut = SimTime::from_ps((t.as_ps() as f64 * cancel_frac) as u64);
            sys.advance(cut);
            sys.cancel_access_attributed(cut, tier, flow, &batch, ObjectId::Recovery);
            now = cut;
        }
        // A later completed access on another tier must coexist with the
        // cancelled slice in the same rollup.
        if !followup.is_empty() {
            sys.begin_access(now, TierId::LOCAL_DRAM, 2, &followup);
            if let Some((t, tier, flow)) = sys.next_completion() {
                sys.advance(t);
                finish(&mut sys, t, tier, flow, &followup);
            }
        }
        prop_assert!(sys.windows().conserves(&sys.counters()));
    }

    /// Every charge reaches the counters, the windows and the ledger through
    /// one funnel, so all three agree after any interleaving of begin,
    /// finish (split across two objects) and mid-flight cancel, on any
    /// tiers, with flows overlapping.
    #[test]
    fn ledger_and_windows_conserve_under_any_interleaving(
        ops in proptest::collection::vec(
            (0usize..NUM_TIERS, arb_batch(), arb_batch(), 0u8..3, 0.0f64..=1.0),
            1..40,
        ),
    ) {
        let mut sys = MemorySystem::new(MemSimConfig::paper_default());
        let mut now = SimTime::ZERO;
        let mut open: Vec<(TierId, u64, AccessBatch, AccessBatch)> = Vec::new();
        for (flow, (tier_idx, a, b, action, frac)) in ops.into_iter().enumerate() {
            let tier = TierId::from_index(tier_idx);
            sys.begin_access(now, tier, flow as u64, &(a + b));
            open.push((tier, flow as u64, a, b));
            // 0: leave it in flight; 1: retire the oldest open flow at the
            // next completion instant; 2: cancel it part-way there.
            if action == 0 {
                continue;
            }
            let (tier, flow, a, b) = open.remove(0);
            let next = sys.next_completion().map_or(now, |(t, _, _)| t);
            if action == 1 {
                now = next;
                sys.advance(now);
                let parts = [(ObjectId::Input { rdd: 0 }, a), (ObjectId::Scratch, b)];
                sys.finish_access_attributed(now, tier, flow, &(a + b), &parts);
            } else {
                now += SimTime::from_ps(((next - now).as_ps() as f64 * frac) as u64);
                sys.advance(now);
                sys.cancel_access_attributed(now, tier, flow, &(a + b), ObjectId::Recovery);
            }
            prop_assert!(sys.ledger().conserves(&sys.counters()));
        }
        for (tier, flow, a, b) in open {
            sys.cancel_access_attributed(now, tier, flow, &(a + b), ObjectId::Recovery);
        }
        prop_assert!(sys.ledger().conserves(&sys.counters()));
        prop_assert!(sys.windows().conserves(&sys.counters()));
        let telemetry = sys.finish_run(now);
        prop_assert!(telemetry.hotness.conserves(&telemetry.counters));
    }
}

proptest! {
    // Compaction replays thousands of windows per case; keep the case count
    // modest so the suite stays fast.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Driving the rollup past its window cap forces width-doubling
    /// compaction; the halved grid must keep re-summing exactly to the
    /// machine counters (windows straddling the old epoch boundaries are
    /// absorbed pairwise, never split).
    #[test]
    fn window_rollup_compaction_preserves_conservation(
        batches in proptest::collection::vec(arb_batch(), 1..8),
    ) {
        let conf = MemSimConfig::paper_default();
        let params = conf.effective_tier_params(TierId::NVM_NEAR);
        let base = SimTime::from_us(1);
        let mut rollup = WindowRollup::new(base);
        let counters = TierCounters::new([1, 1, 1, 1]);
        // Every batch cycles through MAX_WINDOWS + 1000 distinct windows,
        // so one non-empty batch suffices to overflow the cap.
        let reps = ((MAX_WINDOWS as u64) + 1_000) * batches.len() as u64;
        for rep in 0..reps {
            let b = &batches[(rep % batches.len() as u64) as usize];
            rollup.record(SimTime::from_us(rep), TierId::NVM_NEAR, b, &params);
            counters.record(TierId::NVM_NEAR, b);
        }
        if batches.iter().any(|b| !b.is_empty()) {
            prop_assert!(rollup.width() > base, "the cap must have forced compaction");
        }
        prop_assert!(rollup.len() <= MAX_WINDOWS);
        prop_assert!(rollup.conserves(&counters.snapshot()));
    }
}
