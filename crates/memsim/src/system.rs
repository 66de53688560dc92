//! The memory-system facade the analytics engine talks to.

use crate::access::AccessBatch;
use crate::attribution::{AttributionLedger, HotnessReport, ObjectId, ObjectSample};
use crate::config::MemSimConfig;
use crate::counters::{CounterSnapshot, TierCounters};
use crate::energy::{EnergyBreakdown, EnergyMeter};
use crate::mba::MbaController;
use crate::telemetry::{CounterSample, CounterSampler};
use crate::tier::{TierId, TierParams, NUM_TIERS};
use crate::topology::Topology;
use crate::wear::{WearReport, WearTracker};
use crate::window::WindowRollup;
use memtier_des::{
    earliest_completion, EngineProf, EventClass, FlowId, ProfPhase, SharedResource, SimTime,
};

/// The simulated memory system: four tiers, each a fair-share bandwidth
/// resource, plus counters / energy / wear instrumentation.
///
/// # Examples
///
/// ```
/// use memtier_memsim::{AccessBatch, MemorySystem, TierId};
///
/// let sys = MemorySystem::paper_default();
/// let batch = AccessBatch::sequential_read(1 << 20);
/// // The same megabyte costs more memory time on Optane than on DRAM:
/// let dram = sys.nominal_mem_time(TierId::LOCAL_DRAM, &batch);
/// let nvm = sys.nominal_mem_time(TierId::NVM_NEAR, &batch);
/// assert!(nvm > dram);
/// ```
///
/// The engine drives it as an event loop:
/// 1. [`begin_access`](Self::begin_access) when a task starts a memory phase;
/// 2. [`next_completion`](Self::next_completion) to find the earliest finish;
/// 3. [`finish_access_attributed`](Self::finish_access_attributed) when the
///    phase drains — this is also the instant the traffic is charged to
///    counters, windows, energy, wear and the attribution ledger.
pub struct MemorySystem {
    config: MemSimConfig,
    /// Effective (ablation-applied) tier parameters.
    params: [TierParams; NUM_TIERS],
    resources: [SharedResource; NUM_TIERS],
    counters: TierCounters,
    energy: EnergyMeter,
    wear: WearTracker,
    mba: MbaController,
    ledger: AttributionLedger,
    /// Always-on windowed rollup: every counter charge is simultaneously
    /// folded into the virtual-time window containing its instant, so the
    /// windowed series conserve against `counters` in exact integers.
    windows: WindowRollup,
    counter_sampler: Option<CounterSampler>,
    /// Engine self-profiler (wall-clock only; disabled by default). The
    /// canonical handle for a run: enabling it here fans clones out to every
    /// tier resource, and the scheduler picks it up via
    /// [`engine_prof`](Self::engine_prof).
    prof: EngineProf,
}

/// Everything the instrumentation observed over one run.
#[derive(Debug, Clone)]
pub struct RunTelemetry {
    /// `ipmctl`-style access counter totals.
    pub counters: CounterSnapshot,
    /// Energy breakdown with static power integrated over `elapsed`.
    pub energy: EnergyBreakdown,
    /// NVM wear reports.
    pub wear: Vec<WearReport>,
    /// Per-tier busy time of the bandwidth resource.
    pub busy: [SimTime; NUM_TIERS],
    /// Per-tier bytes served by the bandwidth resource.
    pub bytes_served: [f64; NUM_TIERS],
    /// The sampled counter time series (empty unless
    /// [`enable_counter_sampling`](MemorySystem::enable_counter_sampling)
    /// was called). Its last sample always equals the cumulative totals:
    /// the run teardown re-samples the final instant after every in-flight
    /// batch has been charged.
    pub counter_series: Vec<CounterSample>,
    /// Object-level attribution: which Spark-level entity caused the
    /// traffic, ranked by bytes. Conserves against `counters` by
    /// construction: every charge reaches both through one funnel.
    pub hotness: HotnessReport,
    /// Always-on windowed rollup of every counter charge: per-tier traffic
    /// and priced stall per virtual-time window, conserving against
    /// `counters` in exact integers (the run doctor's raw material).
    pub windows: WindowRollup,
}

impl MemorySystem {
    /// Build a memory system from a validated configuration.
    ///
    /// # Panics
    /// Panics if the configuration fails validation.
    pub fn new(config: MemSimConfig) -> Self {
        config.validate().expect("invalid MemSimConfig");
        let params = TierId::all().map(|t| config.effective_tier_params(t));
        let resources = [0usize, 1, 2, 3]
            .map(|i| SharedResource::new(params[i].bandwidth_bytes_per_s, params[i].contention));
        let dimms = [0usize, 1, 2, 3].map(|i| params[i].dimm_count);
        let energy = EnergyMeter::new(&params);
        let wear = WearTracker::new(&params);
        MemorySystem {
            config,
            params,
            resources,
            counters: TierCounters::new(dimms),
            energy,
            wear,
            mba: MbaController::new(),
            ledger: AttributionLedger::new(),
            windows: WindowRollup::default(),
            counter_sampler: None,
            prof: EngineProf::default(),
        }
    }

    /// Turn on engine self-profiling for this run: creates a live collector
    /// and attaches it to every tier's bandwidth resource. Wall-clock only —
    /// virtual-time results are unaffected. Idempotent (a second call keeps
    /// the existing collector).
    pub fn enable_engine_prof(&mut self) {
        if self.prof.is_enabled() {
            return;
        }
        self.prof = EngineProf::enabled();
        for r in &mut self.resources {
            r.set_prof(self.prof.clone());
        }
    }

    /// The engine self-profiler handle (disabled unless
    /// [`enable_engine_prof`](Self::enable_engine_prof) was called). Clones
    /// share the collector, so the scheduler attaches this same handle to its
    /// event queue and loop.
    pub fn engine_prof(&self) -> &EngineProf {
        &self.prof
    }

    /// The paper-default memory system.
    pub fn paper_default() -> Self {
        Self::new(MemSimConfig::paper_default())
    }

    /// The machine topology.
    pub fn topology(&self) -> &Topology {
        &self.config.topology
    }

    /// The configuration this system was built from.
    pub fn config(&self) -> &MemSimConfig {
        &self.config
    }

    /// Effective parameters of a tier (after ablation switches).
    pub fn tier_params(&self, tier: TierId) -> &TierParams {
        &self.params[tier.index()]
    }

    /// Time the batch would take on `tier` with no competing traffic:
    /// `reads × (read_latency / read_MLP) + writes × (write_latency / write_MLP)`.
    ///
    /// This is the latency-limited service time; bandwidth contention and MBA
    /// throttling stretch it via the tier's [`SharedResource`].
    pub fn nominal_mem_time(&self, tier: TierId, batch: &AccessBatch) -> SimTime {
        let (r, w) = self.nominal_mem_time_rw(tier, batch);
        r + w
    }

    /// [`nominal_mem_time`](Self::nominal_mem_time) split into its read and
    /// write halves — the per-tier stall decomposition the critical-path
    /// profiler attributes task time with. The two halves sum to exactly the
    /// combined nominal time (each is rounded to ps independently of a
    /// single product, so the identity holds by construction).
    pub fn nominal_mem_time_rw(&self, tier: TierId, batch: &AccessBatch) -> (SimTime, SimTime) {
        let p = self.tier_params(tier);
        (
            SimTime::from_ns_f64(batch.reads as f64 * p.effective_read_ns()),
            SimTime::from_ns_f64(batch.writes as f64 * p.effective_write_ns()),
        )
    }

    /// The single-stream service rate (bytes/s) implied by
    /// [`nominal_mem_time`](Self::nominal_mem_time) for this batch.
    pub fn nominal_rate(&self, tier: TierId, batch: &AccessBatch) -> f64 {
        let t = self.nominal_mem_time(tier, batch).as_secs_f64();
        if t <= 0.0 {
            // Zero-latency batches complete instantly; rate is irrelevant but
            // must be positive for the resource.
            return self.params[tier.index()].bandwidth_bytes_per_s;
        }
        batch.total_bytes() as f64 / t
    }

    /// Start serving a batch on a tier. Returns `true` if the batch carries
    /// traffic (and therefore a completion must be awaited); empty batches
    /// complete immediately and return `false`.
    pub fn begin_access(
        &mut self,
        now: SimTime,
        tier: TierId,
        flow: FlowId,
        batch: &AccessBatch,
    ) -> bool {
        if batch.is_empty() {
            return false;
        }
        let demand = self.channel_demand(batch).max(1.0);
        let t = self.nominal_mem_time(tier, batch).as_secs_f64().max(1e-12);
        self.resources[tier.index()].add_flow(now, flow, demand, demand / t);
        true
    }

    /// Channel bytes a batch charges against the bandwidth resource.
    pub fn channel_demand(&self, batch: &AccessBatch) -> f64 {
        batch.channel_bytes(self.config.random_channel_fraction)
    }

    /// Like [`begin_access`](Self::begin_access) but with a caller-supplied
    /// service rate (bytes/s). The engine uses this to present a task's
    /// *CPU-interleaved average* demand rate instead of a raw burst: a task
    /// that computes for 1 ms and touches 100 KB asks for 100 MB/s, not the
    /// device's full stream rate. This is what makes latency-bound
    /// workloads insensitive to MBA throttling (the paper's Fig. 3) while
    /// genuinely bandwidth-hungry aggregates still saturate the tier.
    pub fn begin_access_with_rate(
        &mut self,
        now: SimTime,
        tier: TierId,
        flow: FlowId,
        batch: &AccessBatch,
        rate: f64,
    ) -> bool {
        if batch.is_empty() {
            return false;
        }
        assert!(rate > 0.0 && rate.is_finite(), "bad flow rate {rate}");
        let demand = self.channel_demand(batch).max(1.0);
        self.resources[tier.index()].add_flow(now, flow, demand, rate);
        true
    }

    /// Finish a batch: remove its flow and charge it — the machine
    /// instruments once from the whole batch, the attribution ledger from
    /// `parts`, which partition the batch across the objects that caused it
    /// (asserted exact in debug builds).
    pub fn finish_access_attributed(
        &mut self,
        now: SimTime,
        tier: TierId,
        flow: FlowId,
        batch: &AccessBatch,
        parts: &[(ObjectId, AccessBatch)],
    ) {
        if !batch.is_empty() {
            self.resources[tier.index()].remove_flow(now, flow);
        }
        self.charge(now, tier, batch, parts);
    }

    /// The one place traffic reaches the instruments: counters, windows,
    /// energy and wear from the whole batch, then the ledger part by part.
    /// Every charge carries its parts, so the ledger and the windows
    /// conserve against the counters by construction — there is no way to
    /// move one without the others.
    fn charge(
        &mut self,
        now: SimTime,
        tier: TierId,
        batch: &AccessBatch,
        parts: &[(ObjectId, AccessBatch)],
    ) {
        debug_assert_eq!(
            parts.iter().map(|&(_, b)| b).sum::<AccessBatch>(),
            *batch,
            "attributed parts must partition the batch exactly"
        );
        let params = &self.params[tier.index()];
        self.counters.record(tier, batch);
        self.windows.record(now, tier, batch, params);
        self.energy.record(tier, params, batch);
        self.wear.record(tier, batch);
        for (object, part) in parts {
            self.ledger.record(now, tier, *object, part, params);
        }
    }

    /// The object-level attribution ledger accumulated so far.
    pub fn ledger(&self) -> &AttributionLedger {
        &self.ledger
    }

    /// The per-batch object traffic timeline (for trace export).
    pub fn object_series(&self) -> &[ObjectSample] {
        self.ledger.series()
    }

    /// Distill the attribution ledger into a ranked [`HotnessReport`],
    /// priced with this system's effective tier parameters.
    pub fn hotness_report(&self) -> HotnessReport {
        self.ledger.report(&self.params)
    }

    /// Abort a batch mid-flight (e.g. task failure): the fraction already
    /// served is charged like a finished batch, attributed to `object`, so
    /// killed flows keep the ledger conserving against the counters in
    /// exact integers. Returns the partial batch that was charged (empty
    /// when nothing had been served, or the batch itself was empty).
    pub fn cancel_access_attributed(
        &mut self,
        now: SimTime,
        tier: TierId,
        flow: FlowId,
        batch: &AccessBatch,
        object: ObjectId,
    ) -> AccessBatch {
        if batch.is_empty() {
            return AccessBatch::default();
        }
        let partial = self.remove_partial(now, tier, flow, batch);
        self.charge(now, tier, &partial, &[(object, partial)]);
        partial
    }

    /// Remove a flow and scale its batch down to the fraction already served.
    fn remove_partial(
        &mut self,
        now: SimTime,
        tier: TierId,
        flow: FlowId,
        batch: &AccessBatch,
    ) -> AccessBatch {
        let residual = self.resources[tier.index()].remove_flow(now, flow);
        let total = self.channel_demand(batch);
        let served_frac = if total > 0.0 {
            ((total - residual) / total).clamp(0.0, 1.0)
        } else {
            1.0
        };
        AccessBatch {
            reads: (batch.reads as f64 * served_frac) as u64,
            writes: (batch.writes as f64 * served_frac) as u64,
            bytes_read: (batch.bytes_read as f64 * served_frac) as u64,
            bytes_written: (batch.bytes_written as f64 * served_frac) as u64,
            random_reads: (batch.random_reads as f64 * served_frac) as u64,
            random_writes: (batch.random_writes as f64 * served_frac) as u64,
        }
    }

    /// Earliest completion across all tiers: `(time, tier, flow)`.
    pub fn next_completion(&self) -> Option<(SimTime, TierId, FlowId)> {
        earliest_completion(&self.resources).map(|(t, i, f)| (t, TierId::all()[i], f))
    }

    /// Advance all tier resources to `now`, first taking every counter
    /// sample that fell due on the way. Sampling only reads: served bytes at
    /// a sample instant come from [`SharedResource::served_at`], and the
    /// resources advance once per call exactly as in an unsampled run, so an
    /// instrumented run's results are the plain run's, bit for bit.
    pub fn advance(&mut self, now: SimTime) {
        if self.counter_sampler.is_some() {
            let _t = self.prof.phase(ProfPhase::TelemetrySampling);
            while let Some(at) = self
                .counter_sampler
                .as_ref()
                .map(|s| s.next_due())
                .filter(|&at| at <= now)
            {
                self.take_counter_sample(at);
                self.counter_sampler
                    .as_mut()
                    .expect("checked above")
                    .arm_next();
            }
        }
        for r in &mut self.resources {
            r.advance(now);
        }
    }

    /// Read every instrument as of `at` (at or after each resource's clock;
    /// rates are piecewise-constant between events, so the served-byte
    /// reading is exact) and append the sample. No-op without a sampler.
    fn take_counter_sample(&mut self, at: SimTime) {
        let Some(sampler) = &mut self.counter_sampler else {
            return;
        };
        sampler.push(
            at,
            self.counters.snapshot(),
            TierId::all().map(|t| self.resources[t.index()].served_at(at)),
            TierId::all().map(|t| self.resources[t.index()].active_flows()),
            TierId::all().map(|t| self.energy.dynamic_joules(t)),
        );
        self.prof.count_event(EventClass::TelemetrySample);
    }

    /// Start recording the full counter time series (media counters,
    /// delivered bandwidth, queue occupancy, dynamic energy) every
    /// `interval` of virtual time — the `ipmctl -watch` equivalent.
    /// Idempotent; the first interval wins.
    ///
    /// # Panics
    /// Panics on a zero interval.
    pub fn enable_counter_sampling(&mut self, interval: SimTime) {
        if self.counter_sampler.is_none() {
            self.counter_sampler = Some(CounterSampler::new(interval));
        }
    }

    /// The recorded counter samples (empty if counter sampling is disabled).
    pub fn counter_samples(&self) -> &[CounterSample] {
        self.counter_sampler
            .as_ref()
            .map(|s| s.samples())
            .unwrap_or(&[])
    }

    /// Apply an MBA throttle level (percent) to a tier.
    pub fn set_mba_level(&mut self, now: SimTime, tier: TierId, percent: u8) {
        self.advance(now);
        self.mba.set_level(tier, percent);
        self.resources[tier.index()].set_throttle(self.mba.fraction(tier));
    }

    /// Apply an MBA level to every tier.
    pub fn set_mba_all(&mut self, now: SimTime, percent: u8) {
        for t in TierId::all() {
            self.set_mba_level(now, t, percent);
        }
    }

    /// Current MBA controller state.
    pub fn mba(&self) -> &MbaController {
        &self.mba
    }

    /// Live access-counter snapshot (the `ipmctl` read).
    pub fn counters(&self) -> CounterSnapshot {
        self.counters.snapshot()
    }

    /// The always-on windowed rollup accumulated so far.
    pub fn windows(&self) -> &WindowRollup {
        &self.windows
    }

    /// Number of in-flight flows on a tier.
    pub fn active_flows(&self, tier: TierId) -> usize {
        self.resources[tier.index()].active_flows()
    }

    /// Close out a run at `elapsed`, producing the full telemetry record.
    pub fn finish_run(&mut self, elapsed: SimTime) -> RunTelemetry {
        self.advance(elapsed);
        // Take (or re-take) a final sample at the end instant, *after* every
        // in-flight batch has been charged, so the series' last point equals
        // the cumulative totals (conservation).
        self.take_counter_sample(elapsed);
        RunTelemetry {
            counters: self.counters.snapshot(),
            energy: self.energy.finish(elapsed),
            wear: self.wear.report(elapsed),
            busy: TierId::all().map(|t| self.resources[t.index()].busy_time()),
            bytes_served: TierId::all().map(|t| self.resources[t.index()].total_served()),
            counter_series: self
                .counter_sampler
                .as_ref()
                .map(|s| s.samples().to_vec())
                .unwrap_or_default(),
            hotness: self.hotness_report(),
            windows: self.windows.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> MemorySystem {
        MemorySystem::paper_default()
    }

    /// Retire `batch` whole, as one `Scratch` part.
    fn finish(s: &mut MemorySystem, now: SimTime, tier: TierId, flow: FlowId, batch: &AccessBatch) {
        s.finish_access_attributed(now, tier, flow, batch, &[(ObjectId::Scratch, *batch)]);
    }

    #[test]
    fn nominal_time_orders_tiers() {
        let s = sys();
        let batch = AccessBatch::sequential(1 << 20, 1 << 20);
        let times: Vec<f64> = TierId::all()
            .iter()
            .map(|&t| s.nominal_mem_time(t, &batch).as_secs_f64())
            .collect();
        for w in times.windows(2) {
            assert!(w[0] < w[1], "higher tiers must be slower: {times:?}");
        }
    }

    #[test]
    fn rw_split_sums_to_nominal_time() {
        let s = sys();
        let batch = AccessBatch::sequential(1_000_003, 499_999) + AccessBatch::random_reads(777);
        for t in TierId::all() {
            let (r, w) = s.nominal_mem_time_rw(t, &batch);
            assert_eq!(r + w, s.nominal_mem_time(t, &batch));
            assert!(r > SimTime::ZERO && w > SimTime::ZERO);
        }
        // Read-only batches put everything in the read half.
        let ro = AccessBatch::sequential_read(4096);
        let (r, w) = s.nominal_mem_time_rw(TierId::NVM_NEAR, &ro);
        assert_eq!(w, SimTime::ZERO);
        assert_eq!(r, s.nominal_mem_time(TierId::NVM_NEAR, &ro));
    }

    #[test]
    fn nvm_writes_slower_than_reads() {
        let s = sys();
        let t_read = s.nominal_mem_time(TierId::NVM_NEAR, &AccessBatch::sequential_read(1 << 20));
        let t_write = s.nominal_mem_time(TierId::NVM_NEAR, &AccessBatch::sequential_write(1 << 20));
        assert!(t_write > t_read.mul_f64(3.0));
        // But symmetric on DRAM.
        let d_read = s.nominal_mem_time(TierId::LOCAL_DRAM, &AccessBatch::sequential_read(1 << 20));
        let d_write =
            s.nominal_mem_time(TierId::LOCAL_DRAM, &AccessBatch::sequential_write(1 << 20));
        assert_eq!(d_read, d_write);
    }

    #[test]
    fn access_lifecycle_charges_instrumentation() {
        let mut s = sys();
        let batch = AccessBatch::sequential(4096, 4096);
        assert!(s.begin_access(SimTime::ZERO, TierId::NVM_NEAR, 1, &batch));
        let (t, tier, flow) = s.next_completion().unwrap();
        assert_eq!((tier, flow), (TierId::NVM_NEAR, 1));
        s.advance(t);
        finish(&mut s, t, TierId::NVM_NEAR, 1, &batch);
        let snap = s.counters();
        assert_eq!(snap.tier(TierId::NVM_NEAR).bytes_read, 4096);
        assert_eq!(snap.tier(TierId::NVM_NEAR).bytes_written, 4096);
        assert!(s.next_completion().is_none());
    }

    #[test]
    fn empty_batch_completes_inline() {
        let mut s = sys();
        assert!(!s.begin_access(SimTime::ZERO, TierId::LOCAL_DRAM, 1, &AccessBatch::EMPTY));
        finish(
            &mut s,
            SimTime::ZERO,
            TierId::LOCAL_DRAM,
            1,
            &AccessBatch::EMPTY,
        );
        assert!(s.next_completion().is_none());
    }

    #[test]
    fn completion_time_matches_nominal_when_alone() {
        let mut s = sys();
        let batch = AccessBatch::sequential_read(1 << 20);
        let nominal = s.nominal_mem_time(TierId::LOCAL_DRAM, &batch);
        s.begin_access(SimTime::ZERO, TierId::LOCAL_DRAM, 9, &batch);
        let (t, _, _) = s.next_completion().unwrap();
        let rel_err =
            (t.as_secs_f64() - nominal.as_secs_f64()).abs() / nominal.as_secs_f64().max(1e-12);
        assert!(rel_err < 1e-6, "alone-flow time should equal nominal");
    }

    #[test]
    fn mba_throttle_stretches_saturating_flows() {
        // A flow demanding more than the throttled capacity takes longer.
        let mut s = sys();
        // Tier 3 capacity is only 0.47 GB/s: a fast nominal flow saturates it.
        let batch = AccessBatch::sequential_read(1 << 26); // 64 MB
        s.begin_access(SimTime::ZERO, TierId::NVM_FAR, 1, &batch);
        let (t_free, _, _) = s.next_completion().unwrap();
        let mut s2 = sys();
        s2.set_mba_level(SimTime::ZERO, TierId::NVM_FAR, 10);
        s2.begin_access(SimTime::ZERO, TierId::NVM_FAR, 1, &batch);
        let (t_thr, _, _) = s2.next_completion().unwrap();
        assert!(t_thr >= t_free, "throttle can only slow things down");
    }

    #[test]
    fn mba_invisible_below_saturation() {
        // The Fig. 3 shape: a latency-bound flow is unaffected by MBA.
        let mut s = sys();
        let batch = AccessBatch::random_reads(1000); // latency-bound trickle
        s.begin_access(SimTime::ZERO, TierId::NVM_NEAR, 1, &batch);
        let (t_free, _, _) = s.next_completion().unwrap();
        let mut s2 = sys();
        s2.set_mba_level(SimTime::ZERO, TierId::NVM_NEAR, 10);
        s2.begin_access(SimTime::ZERO, TierId::NVM_NEAR, 1, &batch);
        let (t_thr, _, _) = s2.next_completion().unwrap();
        let rel = (t_thr.as_secs_f64() - t_free.as_secs_f64()) / t_free.as_secs_f64();
        assert!(
            rel.abs() < 0.01,
            "latency-bound flow must not feel MBA (got {rel})"
        );
    }

    #[test]
    fn cancel_charges_partial_traffic() {
        let mut s = sys();
        let batch = AccessBatch::sequential_read(1 << 20);
        let nominal = s.nominal_mem_time(TierId::LOCAL_DRAM, &batch);
        s.begin_access(SimTime::ZERO, TierId::LOCAL_DRAM, 1, &batch);
        // Cancel halfway through.
        let half = SimTime::from_ps(nominal.as_ps() / 2);
        s.advance(half);
        s.cancel_access_attributed(half, TierId::LOCAL_DRAM, 1, &batch, ObjectId::Scratch);
        let read = s.counters().tier(TierId::LOCAL_DRAM).bytes_read;
        let frac = read as f64 / (1 << 20) as f64;
        assert!((frac - 0.5).abs() < 0.01, "expected ~half charged: {frac}");
    }

    #[test]
    fn finish_run_reports_energy_and_wear() {
        let mut s = sys();
        let batch = AccessBatch::sequential(0, 1 << 20);
        s.begin_access(SimTime::ZERO, TierId::NVM_NEAR, 1, &batch);
        let (t, _, _) = s.next_completion().unwrap();
        s.advance(t);
        finish(&mut s, t, TierId::NVM_NEAR, 1, &batch);
        let telemetry = s.finish_run(t);
        assert!(telemetry.energy.tier(TierId::NVM_NEAR).dynamic_j > 0.0);
        assert!(telemetry
            .wear
            .iter()
            .any(|w| w.tier == TierId::NVM_NEAR && w.media_writes > 0));
        assert!(telemetry.busy[TierId::NVM_NEAR.index()] > SimTime::ZERO);
        assert!(telemetry.bytes_served[TierId::NVM_NEAR.index()] > 0.0);
    }

    #[test]
    fn counter_sampling_conserves_totals() {
        let mut s = sys();
        s.enable_counter_sampling(SimTime::from_us(50));
        let batch = AccessBatch::sequential(1 << 20, 1 << 19);
        s.begin_access(SimTime::ZERO, TierId::NVM_NEAR, 1, &batch);
        let (t, _, _) = s.next_completion().unwrap();
        s.advance(t);
        finish(&mut s, t, TierId::NVM_NEAR, 1, &batch);
        let telemetry = s.finish_run(t);
        let series = &telemetry.counter_series;
        assert!(!series.is_empty());
        // Conservation: the last sample equals the cumulative totals.
        assert_eq!(series.last().unwrap().counters, telemetry.counters);
        for (i, tier_served) in telemetry.bytes_served.iter().enumerate() {
            let sampled = series.last().unwrap().bytes_served[i];
            assert!((sampled - tier_served).abs() <= 1e-6 * tier_served.max(1.0));
        }
        // Monotonicity of the cumulative signals, and telescoping deltas.
        for w in series.windows(2) {
            assert!(w[0].at < w[1].at);
            for tier in TierId::all() {
                assert!(w[1].counters.tier(tier).total() >= w[0].counters.tier(tier).total());
            }
        }
        let delta_total: u64 = series.iter().map(|s| s.delta.total()).sum();
        assert_eq!(delta_total, telemetry.counters.total());
    }

    #[test]
    fn attributed_finish_conserves_against_counters() {
        let mut s = sys();
        let part_a = AccessBatch::sequential(4096, 0);
        let part_b = AccessBatch::sequential(0, 8192) + AccessBatch::random_reads(13);
        let batch = part_a + part_b;
        s.begin_access(SimTime::ZERO, TierId::NVM_NEAR, 1, &batch);
        let (t, _, _) = s.next_completion().unwrap();
        s.advance(t);
        s.finish_access_attributed(
            t,
            TierId::NVM_NEAR,
            1,
            &batch,
            &[
                (ObjectId::Input { rdd: 0 }, part_a),
                (ObjectId::Scratch, part_b),
            ],
        );
        assert!(s.ledger().conserves(&s.counters()));
        let telemetry = s.finish_run(t);
        assert!(telemetry.hotness.conserves(&telemetry.counters));
        assert_eq!(telemetry.hotness.objects.len(), 2);
        assert!(!s.object_series().is_empty());
    }

    #[test]
    fn counter_sampling_disabled_is_empty() {
        let mut s = sys();
        let batch = AccessBatch::sequential_read(4096);
        s.begin_access(SimTime::ZERO, TierId::LOCAL_DRAM, 1, &batch);
        let (t, _, _) = s.next_completion().unwrap();
        s.advance(t);
        finish(&mut s, t, TierId::LOCAL_DRAM, 1, &batch);
        assert!(s.counter_samples().is_empty());
        assert!(s.finish_run(t).counter_series.is_empty());
    }

    #[test]
    fn contention_slows_concurrent_nvm_flows() {
        let mut s = sys();
        let batch = AccessBatch::sequential_write(1 << 20);
        s.begin_access(SimTime::ZERO, TierId::NVM_FAR, 1, &batch);
        let (alone, _, _) = s.next_completion().unwrap();

        let mut s2 = sys();
        for f in 0..60 {
            s2.begin_access(SimTime::ZERO, TierId::NVM_FAR, f, &batch);
        }
        let (crowded, _, _) = s2.next_completion().unwrap();
        assert!(
            crowded.as_secs_f64() > 2.0 * alone.as_secs_f64(),
            "60 concurrent NVM writers must contend hard"
        );
    }
}
