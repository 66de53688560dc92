//! Max–min-fair processor-sharing resource.
//!
//! [`SharedResource`] models a memory channel (or any capacity-limited
//! device): *flows* arrive with a total **demand** (e.g. bytes to move) and a
//! **nominal rate** — the rate the flow would sustain if it were alone, i.e.
//! its latency-limited single-stream throughput. The resource serves all
//! active flows simultaneously, dividing its capacity max–min-fairly subject
//! to each flow's (contention-degraded) nominal-rate cap.
//!
//! The model is piecewise-constant: rates only change when a flow is added or
//! removed, so the caller drives a classic event loop —
//! [`next_completion`](SharedResource::next_completion) tells it when the
//! earliest active flow will drain *under the current rate allocation*; the
//! caller advances to that instant, removes the finished flow, and re-queries.
//!
//! Because the allocation depends only on the flow *set* and the throttle —
//! never on residual demands or the clock — it is cached between mutations:
//! `advance` and `next_completion` reuse the last water-fill until an
//! `add_flow`/`remove_flow`/`set_throttle` invalidates it (DESIGN.md §16).
//! The `next_completion` answer is memoized the same way; it also depends on
//! residuals and the clock, so an `advance` that drains flows clears it too.

use crate::contention::ContentionModel;
use crate::prof::{EngineProf, ProfPhase};
use crate::time::SimTime;
use std::cell::RefCell;

/// Identifier for a flow within one resource. Uniqueness is the caller's
/// responsibility (the `sparklite` scheduler uses task attempt ids).
pub type FlowId = u64;

/// Residual demand below this threshold counts as "drained" — guards against
/// f64 rounding leaving 1e-12 bytes forever.
const DRAIN_EPS: f64 = 1e-6;

#[derive(Debug, Clone)]
struct Flow {
    /// Remaining demand, in capacity units (bytes for memory channels).
    remaining: f64,
    /// Single-stream rate in units/second, before contention degradation.
    nominal_rate: f64,
}

/// The memoized fair-share allocation plus the water-fill's scratch space,
/// and the memoized `next_completion` answer computed from it.
///
/// Lives behind a `RefCell` so `&self` readers (`next_completion`,
/// `current_rates`) can fill it lazily; both buffers keep their capacity
/// across recomputations, making the steady-state hot path allocation-free.
#[derive(Debug, Clone, Default)]
struct RateCache {
    /// Whether `rates` reflects the current flow set and throttle.
    valid: bool,
    /// Allocation in ascending flow-id order, index-aligned with `flows`.
    rates: Vec<(FlowId, f64)>,
    /// Scratch for the water-fill's `(cap, id)` ordering.
    scratch: Vec<(FlowId, f64)>,
    /// The last `next_completion` answer, `None` when stale. Its inputs are
    /// the flow set, `rates`, every `remaining` and `last_update`, so
    /// whatever clears `valid` clears it, and so does an `advance` over
    /// `dt > 0` with flows present. Nothing else does.
    eta: Option<(SimTime, FlowId)>,
}

impl RateCache {
    /// The flow set or the throttle changed: rates and ETA are both stale.
    fn invalidate(&mut self) {
        self.valid = false;
        self.eta = None;
    }
}

/// A capacity-limited resource shared max–min-fairly among active flows.
///
/// # Examples
///
/// ```
/// use memtier_des::{ContentionModel, SharedResource, SimTime};
/// // A 10-units/s channel with two flows of 10 units each: fair sharing
/// // gives 5 units/s apiece, so the first completion lands at t = 2 s.
/// let mut r = SharedResource::new(10.0, ContentionModel::None);
/// r.add_flow(SimTime::ZERO, 1, 10.0, 10.0);
/// r.add_flow(SimTime::ZERO, 2, 10.0, 10.0);
/// let (t, id) = r.next_completion().unwrap();
/// assert_eq!(id, 1);
/// assert!((t.as_secs_f64() - 2.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct SharedResource {
    /// Full capacity in units/second (e.g. bytes/s of a memory tier).
    capacity: f64,
    /// MBA-style throttle: fraction of `capacity` actually deliverable.
    throttle: f64,
    contention: ContentionModel,
    /// Active flows, dense and sorted by ascending id. Iteration order —
    /// and therefore every fair-share and ETA tie-break — matches the
    /// `BTreeMap` this replaced bit for bit; lookups are binary searches.
    flows: Vec<(FlowId, Flow)>,
    last_update: SimTime,
    /// Total units served since construction (for utilization accounting).
    served: f64,
    /// Integral of busy time (at least one active flow), for utilization.
    busy: SimTime,
    /// Memoized allocation (invalidated only by flow-set/throttle mutations)
    /// and next-completion answer (also by a draining `advance`).
    cache: RefCell<RateCache>,
    /// Engine self-profiler handle (disabled by default; never affects rates).
    prof: EngineProf,
}

impl SharedResource {
    /// A resource with the given capacity (units/second) and contention model.
    ///
    /// # Panics
    /// Panics if `capacity` is not strictly positive and finite.
    pub fn new(capacity: f64, contention: ContentionModel) -> Self {
        assert!(
            capacity.is_finite() && capacity > 0.0,
            "capacity must be positive and finite, got {capacity}"
        );
        SharedResource {
            capacity,
            throttle: 1.0,
            contention,
            flows: Vec::new(),
            last_update: SimTime::ZERO,
            served: 0.0,
            busy: SimTime::ZERO,
            cache: RefCell::new(RateCache::default()),
            prof: EngineProf::default(),
        }
    }

    /// Attach an engine profiler; re-share counts, active-flow histograms and
    /// wall time in `advance`/`add_flow`/`remove_flow` are recorded through
    /// it. The default (disabled) profiler records nothing.
    pub fn set_prof(&mut self, prof: EngineProf) {
        self.prof = prof;
    }

    /// Full (unthrottled) capacity in units/second.
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Currently deliverable capacity (`capacity × throttle`).
    pub fn effective_capacity(&self) -> f64 {
        self.capacity * self.throttle
    }

    /// Set an MBA-style throttle as a fraction in `(0, 1]`.
    ///
    /// # Panics
    /// Panics if `fraction` is outside `(0, 1]`. The caller must
    /// [`advance`](Self::advance) to the current instant first so served
    /// work up to the throttle change is accounted at the old rate.
    pub fn set_throttle(&mut self, fraction: f64) {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "throttle fraction must be in (0,1], got {fraction}"
        );
        self.throttle = fraction;
        self.cache.get_mut().invalidate();
    }

    /// Current throttle fraction.
    pub fn throttle(&self) -> f64 {
        self.throttle
    }

    /// Number of active flows.
    pub fn active_flows(&self) -> usize {
        self.flows.len()
    }

    /// Total units served across the lifetime of the resource.
    pub fn total_served(&self) -> f64 {
        self.served
    }

    /// What [`total_served`](Self::total_served) would read after
    /// `advance(at)`, without advancing: the same per-flow `min(rate·dt,
    /// remaining)` clamp, summed in the same order, on a copy of `served`.
    /// Lets telemetry sample between events without splitting the next
    /// `advance`'s drain into two `f64` steps. An `at` at or before the
    /// resource's clock reads the current total.
    pub fn served_at(&self, at: SimTime) -> f64 {
        let dt = at.saturating_sub(self.last_update).as_secs_f64();
        let mut served = self.served;
        if dt > 0.0 && !self.flows.is_empty() {
            self.ensure_rates();
            let cache = self.cache.borrow();
            for (&(_, rate), (_, flow)) in cache.rates.iter().zip(&self.flows) {
                served += (rate * dt).min(flow.remaining);
            }
        }
        served
    }

    /// Total time during which at least one flow was active.
    pub fn busy_time(&self) -> SimTime {
        self.busy
    }

    /// Position of `id` in the dense flow vector.
    fn flow_index(&self, id: FlowId) -> Result<usize, usize> {
        self.flows.binary_search_by_key(&id, |&(fid, _)| fid)
    }

    /// Advance internal state to `now`, draining flows at current rates.
    ///
    /// Idempotent for equal `now`; panics if `now` precedes the last update.
    pub fn advance(&mut self, now: SimTime) {
        let _t = self.prof.phase(ProfPhase::ResourceAdvance);
        assert!(
            now >= self.last_update,
            "resource time went backwards: {now:?} < {:?}",
            self.last_update
        );
        let dt = (now - self.last_update).as_secs_f64();
        if dt > 0.0 && !self.flows.is_empty() {
            self.ensure_rates();
            let cache = self.cache.get_mut();
            for (&(_, rate), (_, flow)) in cache.rates.iter().zip(self.flows.iter_mut()) {
                let drained = (rate * dt).min(flow.remaining);
                flow.remaining -= drained;
                self.served += drained;
            }
            // Residuals and the clock moved; the rates did not.
            cache.eta = None;
            self.busy += now - self.last_update;
        }
        self.last_update = now;
    }

    /// Register a new flow at time `now`.
    ///
    /// # Panics
    /// Panics on duplicate ids, negative demand, or non-positive nominal rate.
    pub fn add_flow(&mut self, now: SimTime, id: FlowId, demand: f64, nominal_rate: f64) {
        let _t = self.prof.phase(ProfPhase::ResourceAddFlow);
        assert!(demand >= 0.0 && demand.is_finite(), "bad demand {demand}");
        assert!(
            nominal_rate > 0.0 && nominal_rate.is_finite(),
            "bad nominal rate {nominal_rate}"
        );
        self.advance(now);
        let idx = match self.flow_index(id) {
            Ok(_) => panic!("duplicate flow id {id}"),
            Err(idx) => idx,
        };
        self.flows.insert(
            idx,
            (
                id,
                Flow {
                    remaining: demand,
                    nominal_rate,
                },
            ),
        );
        self.cache.get_mut().invalidate();
    }

    /// Remove a flow, returning its residual demand (0 if it had drained).
    ///
    /// # Panics
    /// Panics if the flow is unknown.
    pub fn remove_flow(&mut self, now: SimTime, id: FlowId) -> f64 {
        let _t = self.prof.phase(ProfPhase::ResourceRemoveFlow);
        self.advance(now);
        let idx = self
            .flow_index(id)
            .unwrap_or_else(|_| panic!("removing unknown flow"));
        let (_, flow) = self.flows.remove(idx);
        self.cache.get_mut().invalidate();
        if flow.remaining <= DRAIN_EPS {
            0.0
        } else {
            flow.remaining
        }
    }

    /// Residual demand of a flow, if it exists.
    pub fn remaining(&self, id: FlowId) -> Option<f64> {
        self.flow_index(id).ok().map(|i| self.flows[i].1.remaining)
    }

    /// The earliest `(instant, flow)` at which some active flow drains under
    /// the *current* allocation, or `None` if no flows are active.
    ///
    /// Valid only until the next `add_flow`/`remove_flow`/`set_throttle`;
    /// after any of those the caller must re-query. Ties break on the lowest
    /// flow id, deterministically.
    ///
    /// Memoized: the per-flow scan runs once per state change (those three,
    /// or an `advance` that drains flows), however many queries land in
    /// between.
    pub fn next_completion(&self) -> Option<(SimTime, FlowId)> {
        if self.flows.is_empty() {
            return None;
        }
        let memo = self.cache.borrow().eta;
        self.prof.record_eta_query(memo.is_some());
        if memo.is_some() {
            return memo;
        }
        self.ensure_rates();
        let mut cache = self.cache.borrow_mut();
        let mut best: Option<(SimTime, FlowId)> = None;
        for ((id, flow), &(_, rate)) in self.flows.iter().zip(cache.rates.iter()) {
            let eta = if flow.remaining <= DRAIN_EPS {
                self.last_update
            } else {
                // A zero share would divide to +inf, which `from_secs_f64`
                // maps to ZERO: the flow would claim to drain in 1 ps.
                assert!(
                    rate > 0.0,
                    "flow {id:?} has {} left at rate {rate}",
                    flow.remaining
                );
                // Round up by one picosecond so the flow is guaranteed to
                // have drained when the caller advances to the ETA —
                // from_secs_f64 rounds to nearest and could land half a
                // picosecond short.
                self.last_update
                    + SimTime::from_secs_f64(flow.remaining / rate)
                    + SimTime::from_ps(1)
            };
            match best {
                None => best = Some((eta, *id)),
                Some((bt, _)) if eta < bt => best = Some((eta, *id)),
                _ => {}
            }
        }
        cache.eta = best;
        best
    }

    /// Max–min-fair allocation of effective capacity among active flows,
    /// respecting each flow's contention-degraded nominal-rate cap.
    ///
    /// Returned in ascending flow-id order (deterministic). Served from the
    /// rate cache: repeated queries between mutations cost one clone, not a
    /// water-fill.
    pub fn current_rates(&self) -> Vec<(FlowId, f64)> {
        if self.flows.is_empty() {
            return Vec::new();
        }
        self.ensure_rates();
        self.cache.borrow().rates.clone()
    }

    /// Recompute the memoized allocation if a mutation invalidated it.
    ///
    /// The arithmetic — cap collection order, demand summation order, the
    /// `(cap, id)` stable sort, the water-fill division sequence — is the
    /// verbatim pre-cache algorithm, so cached results are bit-identical to
    /// recomputing from scratch every call (the differential proptest in
    /// `des/tests/proptest_fastpath.rs` pins this).
    fn ensure_rates(&self) {
        let mut guard = self.cache.borrow_mut();
        if guard.valid {
            return;
        }
        let n = self.flows.len();
        // Every cache miss is one genuine re-share: count it and the flow
        // population it water-filled over (this is what makes "one mutation
        // ⇒ at most one re-share" observable through simprof).
        self.prof.record_reshare(n);
        let _t = self.prof.phase(ProfPhase::RateRecompute);
        let cfactor = self.contention.factor(n);
        let cap_total = self.effective_capacity();

        let RateCache {
            valid,
            rates,
            scratch,
            ..
        } = &mut *guard;

        // Per-flow caps after contention degradation, ascending by id.
        rates.clear();
        rates.extend(
            self.flows
                .iter()
                .map(|(id, f)| (*id, f.nominal_rate * cfactor)),
        );

        let demand_sum: f64 = rates.iter().map(|&(_, c)| c).sum();
        if demand_sum <= cap_total {
            // Uncongested: everyone runs at their cap.
            *valid = true;
            return;
        }

        // Water-filling: ascending by cap, give each flow min(cap, fair share
        // of what's left). Sort is stable on (cap, id) for determinism.
        scratch.clear();
        scratch.extend_from_slice(rates);
        scratch.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
        let mut remaining_cap = cap_total;
        for (i, &(id, cap)) in scratch.iter().enumerate() {
            let share = remaining_cap / (n - i) as f64;
            let rate = cap.min(share);
            remaining_cap -= rate;
            let slot = rates
                .binary_search_by_key(&id, |&(fid, _)| fid)
                .expect("water-fill id missing from rates");
            rates[slot].1 = rate;
        }
        *valid = true;
    }

    /// Current time of the resource's internal clock.
    pub fn now(&self) -> SimTime {
        self.last_update
    }

    /// True if the given flow has (within tolerance) drained its demand.
    pub fn is_drained(&self, id: FlowId) -> bool {
        self.flow_index(id)
            .ok()
            .map(|i| self.flows[i].1.remaining <= DRAIN_EPS)
            .unwrap_or(false)
    }
}

/// The earliest `(instant, resource index, flow)` completion over a set of
/// resources, or `None` when all are idle. A tie goes to the lowest index
/// (first strictly-less wins), so the choice is deterministic. Queries each
/// resource's memoized [`next_completion`](SharedResource::next_completion)
/// exactly once.
#[inline]
pub fn earliest_completion(resources: &[SharedResource]) -> Option<(SimTime, usize, FlowId)> {
    let mut best: Option<(SimTime, usize, FlowId)> = None;
    for (i, r) in resources.iter().enumerate() {
        if let Some((t, f)) = r.next_completion() {
            if best.is_none_or(|(bt, _, _)| t < bt) {
                best = Some((t, i, f));
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn res(cap: f64) -> SharedResource {
        SharedResource::new(cap, ContentionModel::None)
    }

    #[test]
    fn earliest_completion_prefers_the_lowest_index_on_a_tie() {
        let mut rs = vec![res(100.0), res(100.0), res(100.0)];
        assert_eq!(earliest_completion(&rs), None);
        rs[2].add_flow(SimTime::ZERO, 7, 50.0, 10.0);
        rs[1].add_flow(SimTime::ZERO, 9, 50.0, 10.0);
        let (t, i, f) = earliest_completion(&rs).unwrap();
        assert_eq!((i, f), (1, 9), "equal ETAs: the first resource wins");
        rs[2].add_flow(SimTime::ZERO, 3, 10.0, 10.0);
        assert_eq!(
            earliest_completion(&rs).map(|(_, i, f)| (i, f)),
            Some((2, 3))
        );
        assert!(earliest_completion(&rs).unwrap().0 < t);
    }

    #[test]
    fn single_flow_runs_at_nominal_rate() {
        let mut r = res(100.0);
        r.add_flow(SimTime::ZERO, 1, 50.0, 10.0); // 5 seconds alone
        let (t, id) = r.next_completion().unwrap();
        assert_eq!(id, 1);
        assert!((t.as_secs_f64() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn capacity_caps_aggregate() {
        let mut r = res(10.0);
        // Two flows each wanting 10 units/s; capacity 10 -> 5 each.
        r.add_flow(SimTime::ZERO, 1, 10.0, 10.0);
        r.add_flow(SimTime::ZERO, 2, 10.0, 10.0);
        let rates = r.current_rates();
        assert!((rates[0].1 - 5.0).abs() < 1e-9);
        assert!((rates[1].1 - 5.0).abs() < 1e-9);
        let (t, _) = r.next_completion().unwrap();
        assert!((t.as_secs_f64() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn water_filling_respects_small_caps() {
        let mut r = res(10.0);
        // Flow 1 can only ever do 2/s; flow 2 can do 100/s.
        r.add_flow(SimTime::ZERO, 1, 2.0, 2.0);
        r.add_flow(SimTime::ZERO, 2, 100.0, 100.0);
        let rates = r.current_rates();
        let r1 = rates.iter().find(|&&(id, _)| id == 1).unwrap().1;
        let r2 = rates.iter().find(|&&(id, _)| id == 2).unwrap().1;
        assert!((r1 - 2.0).abs() < 1e-9, "capped flow keeps its cap");
        assert!((r2 - 8.0).abs() < 1e-9, "big flow gets the rest");
    }

    #[test]
    fn event_loop_drains_everything() {
        let mut r = res(10.0);
        r.add_flow(SimTime::ZERO, 1, 10.0, 10.0);
        r.add_flow(SimTime::ZERO, 2, 30.0, 10.0);
        // Both run at 5/s. Flow 1 finishes at t=2 with flow 2 at 20 left.
        let (t1, id1) = r.next_completion().unwrap();
        assert_eq!(id1, 1);
        assert!((t1.as_secs_f64() - 2.0).abs() < 1e-9);
        r.advance(t1);
        assert!(r.is_drained(1));
        assert_eq!(r.remove_flow(t1, 1), 0.0);
        // Flow 2 now alone at 10/s with 20 left -> finishes at t=4.
        let (t2, id2) = r.next_completion().unwrap();
        assert_eq!(id2, 2);
        assert!((t2.as_secs_f64() - 4.0).abs() < 1e-9);
        r.advance(t2);
        assert!(r.is_drained(2));
    }

    #[test]
    fn throttle_scales_capacity() {
        let mut r = res(100.0);
        r.set_throttle(0.1);
        assert!((r.effective_capacity() - 10.0).abs() < 1e-9);
        // One flow with nominal 50/s is now capacity-bound at 10/s.
        r.add_flow(SimTime::ZERO, 1, 10.0, 50.0);
        let (t, _) = r.next_completion().unwrap();
        assert!((t.as_secs_f64() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn throttle_no_effect_when_unsaturated() {
        // The Fig. 3 result: demand below the cap -> throttling is invisible.
        let mut r = res(100.0);
        r.add_flow(SimTime::ZERO, 1, 10.0, 5.0);
        let (t_full, _) = r.next_completion().unwrap();
        let mut r2 = res(100.0);
        r2.set_throttle(0.2); // still 20 units/s > 5 demanded
        r2.add_flow(SimTime::ZERO, 1, 10.0, 5.0);
        let (t_thr, _) = r2.next_completion().unwrap();
        assert_eq!(t_full, t_thr);
    }

    #[test]
    fn contention_degrades_rates() {
        let mut r = SharedResource::new(1000.0, ContentionModel::Linear { alpha: 1.0 });
        r.add_flow(SimTime::ZERO, 1, 10.0, 10.0);
        r.add_flow(SimTime::ZERO, 2, 10.0, 10.0);
        // factor(2) = 0.5 -> both capped at 5/s though capacity is ample.
        for (_, rate) in r.current_rates() {
            assert!((rate - 5.0).abs() < 1e-9);
        }
    }

    #[test]
    fn zero_demand_completes_immediately() {
        let mut r = res(10.0);
        r.add_flow(SimTime::from_ns(100), 7, 0.0, 1.0);
        let (t, id) = r.next_completion().unwrap();
        assert_eq!((t, id), (SimTime::from_ns(100), 7));
        assert!(r.is_drained(7));
    }

    #[test]
    fn served_and_busy_accounting() {
        let mut r = res(10.0);
        r.add_flow(SimTime::ZERO, 1, 10.0, 10.0);
        r.advance(SimTime::from_secs(1));
        assert!((r.total_served() - 10.0).abs() < 1e-6);
        assert_eq!(r.busy_time(), SimTime::from_secs(1));
        r.remove_flow(SimTime::from_secs(1), 1);
        // Idle period does not accrue busy time.
        r.advance(SimTime::from_secs(5));
        assert_eq!(r.busy_time(), SimTime::from_secs(1));
    }

    #[test]
    fn served_at_reads_what_advance_would_serve_without_advancing() {
        let mut r = res(10.0);
        r.add_flow(SimTime::ZERO, 1, 3.0, 10.0);
        r.add_flow(SimTime::ZERO, 2, 40.0, 10.0);
        r.advance(SimTime::from_ms(100));
        for ms in [100, 350, 700, 5_000] {
            let at = SimTime::from_ms(ms);
            let mut advanced = r.clone();
            advanced.advance(at);
            assert_eq!(r.served_at(at), advanced.total_served(), "at {ms} ms");
        }
        // Reading moved nothing: clock, residuals and the total are as left.
        assert_eq!(r.now(), SimTime::from_ms(100));
        assert_eq!(r.served_at(SimTime::ZERO), r.total_served());
        assert_eq!(r.remaining(2), Some(39.5));
    }

    #[test]
    #[should_panic(expected = "duplicate flow id")]
    fn duplicate_flow_panics() {
        let mut r = res(10.0);
        r.add_flow(SimTime::ZERO, 1, 1.0, 1.0);
        r.add_flow(SimTime::ZERO, 1, 1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "removing unknown flow")]
    fn removing_unknown_flow_panics() {
        let mut r = res(10.0);
        r.add_flow(SimTime::ZERO, 1, 1.0, 1.0);
        r.remove_flow(SimTime::ZERO, 2);
    }

    #[test]
    #[should_panic(expected = "throttle fraction")]
    fn zero_throttle_rejected() {
        res(10.0).set_throttle(0.0);
    }

    #[test]
    fn rates_are_deterministic_order() {
        let mut r = res(10.0);
        for id in (0..10).rev() {
            r.add_flow(SimTime::ZERO, id, 5.0, 5.0);
        }
        let ids: Vec<FlowId> = r.current_rates().iter().map(|&(id, _)| id).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted);
    }

    /// The satellite contract for the rate cache: one flow-set/throttle
    /// mutation costs at most one re-share, no matter how many reads
    /// (`next_completion`, `current_rates`, `served_at`, `advance`)
    /// land in between. Observed through the simprof reshare counter.
    #[test]
    fn rate_cache_reshares_at_most_once_per_mutation() {
        let prof = EngineProf::enabled();
        let mut r = res(10.0);
        r.set_prof(prof.clone());

        r.add_flow(SimTime::ZERO, 1, 10.0, 10.0);
        r.add_flow(SimTime::ZERO, 2, 30.0, 10.0);
        // A storm of reads over an unchanged flow set: one water-fill total.
        for _ in 0..16 {
            let _ = r.next_completion();
            let _ = r.current_rates();
            let _ = r.served_at(SimTime::from_ms(500));
        }
        r.advance(SimTime::from_secs(1));
        let stats = prof.snapshot(1.0).expect("profiler enabled");
        assert_eq!(
            stats.resource.reshares, 1,
            "reads between mutations must reuse the cached allocation"
        );

        // One mutation (remove) followed by more reads: exactly one more.
        r.remove_flow(SimTime::from_secs(1), 1);
        let _ = r.next_completion();
        let _ = r.current_rates();
        r.advance(SimTime::from_secs(2));
        let stats = prof.snapshot(2.0).expect("profiler enabled");
        assert_eq!(stats.resource.reshares, 2, "one mutation ⇒ one re-share");

        // A throttle change is a mutation too.
        r.set_throttle(0.5);
        let _ = r.next_completion();
        let _ = r.next_completion();
        let stats = prof.snapshot(2.0).expect("profiler enabled");
        assert_eq!(stats.resource.reshares, 3, "throttle invalidates the cache");
    }

    /// The same contract for the ETA memo: between two state changes any
    /// number of `next_completion` reads costs one per-flow scan, and only
    /// the four invalidators — not a same-instant or an idle `advance` —
    /// buy another. Observed through the simprof scan/hit counters.
    #[test]
    fn eta_memo_scans_at_most_once_per_state_change() {
        let prof = EngineProf::enabled();
        let mut r = res(10.0);
        r.set_prof(prof.clone());
        let counts = |at: f64| {
            let s = prof.snapshot(at).expect("profiler enabled").resource;
            (s.eta_scans, s.eta_hits)
        };

        // Idle: no flows, nothing to scan or to remember.
        assert_eq!(r.next_completion(), None);
        r.advance(SimTime::from_ms(1));
        assert_eq!(counts(0.0), (0, 0));

        let t0 = SimTime::from_ms(1);
        r.add_flow(t0, 1, 10.0, 10.0);
        r.add_flow(t0, 2, 30.0, 10.0);
        let first = r.next_completion();
        for _ in 0..16 {
            assert_eq!(r.next_completion(), first);
            let _ = r.current_rates();
            r.advance(t0); // same instant: residuals and clock unchanged
        }
        assert_eq!(counts(0.0), (1, 16), "N reads between mutations: one scan");

        // A draining advance moves residuals and the clock: one more scan,
        // and no water-fill (the rates did not change).
        r.advance(SimTime::from_ms(500));
        let second = r.next_completion();
        assert_eq!(r.next_completion(), second);
        assert_eq!(counts(0.5), (2, 17));
        assert_eq!(prof.snapshot(0.5).unwrap().resource.reshares, 1);

        // Each of the three mutations buys exactly one scan.
        r.set_throttle(0.5);
        let _ = (r.next_completion(), r.next_completion());
        assert_eq!(counts(0.5), (3, 18));
        r.remove_flow(SimTime::from_ms(500), 1);
        let _ = (r.next_completion(), r.next_completion());
        assert_eq!(counts(0.5), (4, 19));
        r.add_flow(SimTime::from_ms(500), 3, 1.0, 1.0);
        let _ = (r.next_completion(), r.next_completion());
        assert_eq!(counts(0.5), (5, 20));
    }

    /// The cached allocation is bit-identical to an uncached recompute: a
    /// clone of the resource (whose cache state travels with it) and a
    /// freshly-invalidated twin agree exactly.
    #[test]
    fn cached_rates_match_cold_recompute_exactly() {
        let mut r = SharedResource::new(25.0, ContentionModel::Linear { alpha: 0.3 });
        for id in 0..17 {
            r.add_flow(SimTime::ZERO, id, 40.0 + id as f64, 3.0 + (id % 5) as f64);
        }
        let cached = r.current_rates(); // fills the cache
        let warm = r.current_rates(); // served from it
        assert_eq!(cached, warm);
        r.set_throttle(1.0); // no numeric change, but invalidates
        let cold = r.current_rates(); // full water-fill again
        assert_eq!(cached, cold, "cache must be bit-identical to recompute");
    }
}
