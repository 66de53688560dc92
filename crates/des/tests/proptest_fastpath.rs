//! Differential property tests for the kernel fast path (DESIGN.md §16).
//!
//! The rate cache and the dense sorted flow vector are pure *mechanical*
//! optimizations: every virtual-time observable must stay bit-identical to
//! the pre-cache implementation. This file pins that claim by replaying
//! random operation interleavings (add / remove / advance / throttle)
//! against `NaiveResource` — a deliberately slow reference that stores flows
//! in a `BTreeMap` and re-runs the full water-fill on every query, i.e. the
//! verbatim algorithm the cache replaced — and requiring exact `==` (not
//! approximate) agreement on rates, completion ETAs, and served totals.
//!
//! The same reference pins the `next_completion` memo (it rescans every flow
//! on every query) — observed after every op, and again with reads landing
//! only where the op list puts them — and a second group pins `SimTime`'s
//! libm-free rounding to `f64::round() as u64`.

use memtier_des::{ContentionModel, SharedResource, SimTime};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Same drain tolerance as `des::resource` (a flow below this has finished).
const DRAIN_EPS: f64 = 1e-6;

/// The reference implementation: `BTreeMap` flow storage, no memoization —
/// every query recomputes the allocation from scratch, exactly as the
/// original `SharedResource` did. Arithmetic order (cap collection, demand
/// summation, the `(cap, id)` stable sort, the water-fill division sequence,
/// the final re-sort by id) mirrors the original line for line.
struct NaiveResource {
    capacity: f64,
    throttle: f64,
    contention: ContentionModel,
    /// id -> (remaining demand, nominal rate); BTreeMap iteration is the
    /// ascending-id order every tie-break inherits.
    flows: BTreeMap<u64, (f64, f64)>,
    last_update: SimTime,
    served: f64,
}

impl NaiveResource {
    fn new(capacity: f64, contention: ContentionModel) -> Self {
        NaiveResource {
            capacity,
            throttle: 1.0,
            contention,
            flows: BTreeMap::new(),
            last_update: SimTime::ZERO,
            served: 0.0,
        }
    }

    /// The full water-fill, recomputed on every call (no cache).
    fn current_rates(&self) -> Vec<(u64, f64)> {
        let n = self.flows.len();
        if n == 0 {
            return Vec::new();
        }
        let cfactor = self.contention.factor(n);
        let cap_total = self.capacity * self.throttle;
        let mut caps: Vec<(u64, f64)> = self
            .flows
            .iter()
            .map(|(id, &(_, nominal))| (*id, nominal * cfactor))
            .collect();
        let demand_sum: f64 = caps.iter().map(|&(_, c)| c).sum();
        if demand_sum <= cap_total {
            return caps;
        }
        caps.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
        let mut remaining_cap = cap_total;
        let mut out: Vec<(u64, f64)> = Vec::with_capacity(n);
        for (i, &(id, cap)) in caps.iter().enumerate() {
            let share = remaining_cap / (n - i) as f64;
            let rate = cap.min(share);
            remaining_cap -= rate;
            out.push((id, rate));
        }
        out.sort_by_key(|&(id, _)| id);
        out
    }

    fn advance(&mut self, now: SimTime) {
        assert!(now >= self.last_update);
        let dt = (now - self.last_update).as_secs_f64();
        if dt > 0.0 && !self.flows.is_empty() {
            let rates = self.current_rates();
            for ((_, flow), &(_, rate)) in self.flows.iter_mut().zip(rates.iter()) {
                let drained = (rate * dt).min(flow.0);
                flow.0 -= drained;
                self.served += drained;
            }
        }
        self.last_update = now;
    }

    fn add_flow(&mut self, now: SimTime, id: u64, demand: f64, nominal: f64) {
        self.advance(now);
        let prev = self.flows.insert(id, (demand, nominal));
        assert!(prev.is_none(), "duplicate flow id {id}");
    }

    fn remove_flow(&mut self, now: SimTime, id: u64) -> f64 {
        self.advance(now);
        let (remaining, _) = self.flows.remove(&id).expect("removing unknown flow");
        if remaining <= DRAIN_EPS {
            0.0
        } else {
            remaining
        }
    }

    fn set_throttle(&mut self, fraction: f64) {
        self.throttle = fraction;
    }

    fn next_completion(&self) -> Option<(SimTime, u64)> {
        let rates = self.current_rates();
        let mut best: Option<(SimTime, u64)> = None;
        for ((id, &(remaining, _)), &(_, rate)) in self.flows.iter().zip(rates.iter()) {
            let eta = if remaining <= DRAIN_EPS {
                self.last_update
            } else {
                self.last_update + SimTime::from_secs_f64(remaining / rate) + SimTime::from_ps(1)
            };
            match best {
                None => best = Some((eta, *id)),
                Some((bt, _)) if eta < bt => best = Some((eta, *id)),
                _ => {}
            }
        }
        best
    }
}

/// One step of the random interleaving the two implementations replay.
#[derive(Debug, Clone)]
enum Op {
    /// Add a fresh flow with this demand and nominal rate.
    Add { demand: f64, nominal: f64 },
    /// Remove the (n mod live)-th active flow (no-op when none are live).
    RemoveNth(usize),
    /// Advance both clocks to the model's next completion instant.
    AdvanceNext,
    /// Advance both clocks by this many nanoseconds.
    AdvanceBy(u64),
    /// Set the throttle to `pct / 10` (always in `(0, 1]`).
    Throttle(u8),
    /// Advance both clocks to the instant they are already at.
    AdvanceSame,
    /// Query `next_completion` this many times in a row.
    Reads(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0.0f64..1.0e6, 1.0f64..1.0e6)
            .prop_map(|(demand, nominal)| Op::Add { demand, nominal }),
        2 => any::<usize>().prop_map(Op::RemoveNth),
        2 => Just(Op::AdvanceNext),
        2 => (1u64..1_000_000_000).prop_map(Op::AdvanceBy),
        1 => (1u8..=10).prop_map(Op::Throttle),
        1 => Just(Op::AdvanceSame),
        2 => (1u8..5).prop_map(Op::Reads),
    ]
}

/// The two implementations plus the driver state an op list replays over.
struct Replay {
    fast: SharedResource,
    naive: NaiveResource,
    now: SimTime,
    next_id: u64,
    live: Vec<u64>,
}

impl Replay {
    fn new(capacity: f64, alpha: f64) -> Self {
        let model = ContentionModel::Linear { alpha };
        Replay {
            fast: SharedResource::new(capacity, model),
            naive: NaiveResource::new(capacity, model),
            now: SimTime::ZERO,
            next_id: 0,
            live: Vec::new(),
        }
    }

    /// Apply one op to both sides. Only `AdvanceNext` and `Reads` query
    /// `next_completion`; every other op leaves the memo as the mutation
    /// left it.
    fn apply(&mut self, op: &Op) -> Result<(), TestCaseError> {
        let Replay {
            fast,
            naive,
            now,
            next_id,
            live,
        } = self;
        match *op {
            Op::Add { demand, nominal } => {
                let id = *next_id;
                *next_id += 1;
                fast.add_flow(*now, id, demand, nominal);
                naive.add_flow(*now, id, demand, nominal);
                live.push(id);
            }
            Op::RemoveNth(n) => {
                if live.is_empty() {
                    return Ok(());
                }
                let id = live.remove(n % live.len());
                let a = fast.remove_flow(*now, id);
                let b = naive.remove_flow(*now, id);
                prop_assert_eq!(a.to_bits(), b.to_bits(), "residual of flow {}", id);
            }
            Op::AdvanceNext => {
                let eta = fast.next_completion();
                prop_assert_eq!(eta, naive.next_completion(), "ETA disagreement");
                if let Some((t, _)) = eta {
                    *now = t;
                    fast.advance(*now);
                    naive.advance(*now);
                }
            }
            Op::AdvanceBy(ns) => {
                // With no flows this is an idle-resource advance.
                *now += SimTime::from_ns(ns);
                fast.advance(*now);
                naive.advance(*now);
            }
            Op::Throttle(pct) => {
                // Account served work up to the change first, as the
                // `set_throttle` contract requires.
                fast.advance(*now);
                naive.advance(*now);
                fast.set_throttle(pct as f64 / 10.0);
                naive.set_throttle(pct as f64 / 10.0);
            }
            Op::AdvanceSame => {
                fast.advance(*now);
                naive.advance(*now);
            }
            Op::Reads(k) => {
                let want = naive.next_completion();
                for _ in 0..k {
                    prop_assert_eq!(fast.next_completion(), want, "repeated read diverged");
                }
            }
        }
        Ok(())
    }

    /// Drain to empty through both sides, requiring identical completions.
    fn drain(&mut self) -> Result<(), TestCaseError> {
        let Replay { fast, naive, .. } = self;
        while let Some((t, id)) = fast.next_completion() {
            prop_assert_eq!(Some((t, id)), naive.next_completion());
            fast.advance(t);
            naive.advance(t);
            let a = fast.remove_flow(t, id);
            let b = naive.remove_flow(t, id);
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        prop_assert_eq!(naive.next_completion(), None);
        prop_assert_eq!(fast.total_served().to_bits(), naive.served.to_bits());
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The tentpole contract: under arbitrary interleavings of every
    /// mutation the cache invalidates on, the cached `SharedResource` and
    /// the naive recompute-everything reference agree **to the last bit** on
    /// the allocation, the next completion, and the served total.
    #[test]
    fn cached_resource_is_bit_identical_to_naive_reference(
        capacity in 1.0f64..1.0e7,
        alpha in 0.0f64..0.5,
        ops in prop::collection::vec(op_strategy(), 1..60),
    ) {
        let mut r = Replay::new(capacity, alpha);
        for op in &ops {
            r.apply(op)?;
            let (fast, naive) = (&r.fast, &r.naive);

            // Every observable, after every op, compared exactly.
            let fr = fast.current_rates();
            let nr = naive.current_rates();
            prop_assert_eq!(fr.len(), nr.len());
            for (&(fid, frate), &(nid, nrate)) in fr.iter().zip(nr.iter()) {
                prop_assert_eq!(fid, nid, "allocation order diverged");
                prop_assert_eq!(
                    frate.to_bits(),
                    nrate.to_bits(),
                    "rate of flow {} diverged: {} vs {}",
                    fid,
                    frate,
                    nrate
                );
            }
            prop_assert_eq!(fast.next_completion(), naive.next_completion());
            prop_assert_eq!(
                fast.total_served().to_bits(),
                naive.served.to_bits(),
                "served totals diverged: {} vs {}",
                fast.total_served(),
                naive.served
            );
        }

        r.drain()?;
    }

    /// The ETA memo under sparse reads: `next_completion` is queried only
    /// where the op list says so, so a memo filled before a run of
    /// mutations (adds, removes, throttles, draining, same-instant and idle
    /// advances) must have been cleared by exactly the ones that change the
    /// answer — a stale hit or a lost invalidation shows as a wrong ETA at
    /// the next read, or as a wrong completion order in the final drain.
    #[test]
    fn eta_memo_matches_naive_reference_under_sparse_reads(
        capacity in 1.0f64..1.0e7,
        alpha in 0.0f64..0.5,
        ops in prop::collection::vec(op_strategy(), 1..80),
    ) {
        let mut r = Replay::new(capacity, alpha);
        for op in &ops {
            r.apply(op)?;
        }
        r.drain()?;
    }

    /// `SimTime`'s float→picosecond rounding is `f64::round() as u64` on
    /// every non-negative finite input: raw bit patterns (all exponents,
    /// subnormals included) and dyadic fractions `k / 2^j` (exact halves,
    /// quarters, … up to 2^54).
    #[test]
    fn rounding_matches_f64_round(
        bits in any::<u64>(),
        k in 0u64..(1u64 << 54),
        j in 0u32..13,
    ) {
        let from_bits = f64::from_bits(bits & (u64::MAX >> 1));
        prop_assume!(from_bits.is_finite());
        for x in [from_bits, k as f64 / (1u64 << j) as f64] {
            check_rounding(x)?;
        }
    }
}

/// All three float constructors against `f64::round() as u64` at `x`.
fn check_rounding(x: f64) -> Result<(), TestCaseError> {
    // `1 ps × x` rounds `x` itself; its guard and `as u64` both saturate.
    prop_assert_eq!(
        SimTime::from_ps(1).mul_f64(x).as_ps(),
        x.round() as u64,
        "mul_f64({})",
        x
    );
    prop_assert_eq!(
        SimTime::from_ns_f64(x).as_ps(),
        (x * 1e3).round() as u64,
        "from_ns_f64({})",
        x
    );
    prop_assert_eq!(
        SimTime::from_secs_f64(x).as_ps(),
        (x * 1e12).round() as u64,
        "from_secs_f64({})",
        x
    );
    Ok(())
}

/// The inputs where a hand-rolled `round` usually goes wrong.
#[test]
fn rounding_edges_match_f64_round() {
    let two64 = u64::MAX as f64;
    let edges = [
        0.0,
        f64::from_bits(1), // smallest subnormal
        f64::MIN_POSITIVE,
        0.49999999999999994, // largest double below one half: `floor(x + 0.5)` says 1
        0.5,
        0.5000000000000001,
        1.5,
        2.5,
        4_503_599_627_370_495.0,             // 2^52 - 1
        4_503_599_627_370_495.5,             // the last representable half
        4_503_599_627_370_496.0,             // 2^52
        4_503_599_627_370_497.0,             // 2^52 + 1
        9_007_199_254_740_992.0,             // 2^53
        f64::from_bits(two64.to_bits() - 1), // just below 2^64
        two64,
        f64::from_bits(two64.to_bits() + 1), // just above: the add must not wrap
        1.0e30,
        f64::MAX,
    ];
    for x in edges {
        check_rounding(x).unwrap_or_else(|e| panic!("{e:?}"));
        // Scaled so the product, not the input, sits on the edge.
        check_rounding(x / 1e3).unwrap_or_else(|e| panic!("{e:?}"));
        check_rounding(x / 1e12).unwrap_or_else(|e| panic!("{e:?}"));
    }
}
