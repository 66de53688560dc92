//! Differential property test for the plane over the memoized kernel.
//!
//! `NetworkPlane::next_event_time` and `step` both search every link for
//! its next completion; since `SharedResource` memoizes that answer, the
//! second search — and every search of a link no transfer touched — is a
//! memo hit. This file replays random begin / cancel / step / advance
//! interleavings on a two-rack topology against `RefPlane`: the same plane
//! logic over `ScanResource`, a memo-free resource that re-runs the
//! water-fill and the per-flow ETA scan on every query. The completion
//! sequence, the per-link byte counters and the cancel credits must agree
//! exactly.

use memtier_des::SimTime;
use memtier_netsim::{NetTopology, NetworkPlane, TransferDone};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Same drain tolerance as `des::resource`.
const DRAIN_EPS: f64 = 1e-6;

/// `SharedResource` with `ContentionModel::None` and no throttle, without
/// either memo: every query recomputes the allocation and rescans every
/// flow. Arithmetic order mirrors `des::resource` line for line.
struct ScanResource {
    capacity: f64,
    /// id -> (remaining, nominal rate), ascending id.
    flows: BTreeMap<u64, (f64, f64)>,
    last_update: SimTime,
}

impl ScanResource {
    fn rates(&self) -> Vec<(u64, f64)> {
        let n = self.flows.len();
        let mut caps: Vec<(u64, f64)> = self.flows.iter().map(|(id, f)| (*id, f.1)).collect();
        let demand_sum: f64 = caps.iter().map(|&(_, c)| c).sum();
        if demand_sum <= self.capacity {
            return caps;
        }
        caps.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
        let mut remaining_cap = self.capacity;
        let mut out = Vec::with_capacity(n);
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
            let rates = self.rates();
            for ((_, flow), &(_, rate)) in self.flows.iter_mut().zip(rates.iter()) {
                flow.0 -= (rate * dt).min(flow.0);
            }
        }
        self.last_update = now;
    }

    fn add_flow(&mut self, now: SimTime, id: u64, demand: f64, nominal: f64) {
        self.advance(now);
        assert!(self.flows.insert(id, (demand, nominal)).is_none());
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

    fn next_completion(&self) -> Option<(SimTime, u64)> {
        let rates = self.rates();
        let mut best: Option<(SimTime, u64)> = None;
        for ((id, &(remaining, _)), &(_, rate)) in self.flows.iter().zip(rates.iter()) {
            let eta = if remaining <= DRAIN_EPS {
                self.last_update
            } else {
                self.last_update + SimTime::from_secs_f64(remaining / rate) + SimTime::from_ps(1)
            };
            if best.map_or(true, |(bt, _)| eta < bt) {
                best = Some((eta, *id));
            }
        }
        best
    }
}

/// `NetworkPlane`'s bookkeeping over `ScanResource` links.
struct RefPlane {
    topo: NetTopology,
    links: Vec<ScanResource>,
    /// id -> (src, dst, bytes, path, links still draining).
    transfers: BTreeMap<u64, (u32, u32, u64, Vec<usize>, Vec<usize>)>,
    link_bytes: Vec<u64>,
    cancelled: (u64, u64),
}

impl RefPlane {
    fn new(topo: NetTopology) -> Self {
        let links = (0..topo.num_links())
            .map(|i| ScanResource {
                capacity: topo.link_capacity(topo.link_at(i)),
                flows: BTreeMap::new(),
                last_update: SimTime::ZERO,
            })
            .collect();
        RefPlane {
            link_bytes: vec![0; topo.num_links()],
            topo,
            links,
            transfers: BTreeMap::new(),
            cancelled: (0, 0),
        }
    }

    fn begin_transfer(&mut self, now: SimTime, id: u64, src: u32, dst: u32, bytes: u64, rate: f64) {
        let path: Vec<usize> = self
            .topo
            .path(src, dst)
            .into_iter()
            .map(|l| self.topo.link_index(l))
            .collect();
        for &l in &path {
            self.links[l].add_flow(now, id, bytes as f64, rate);
        }
        self.transfers
            .insert(id, (src, dst, bytes, path.clone(), path));
    }

    fn advance(&mut self, now: SimTime) {
        for l in &mut self.links {
            l.advance(now);
        }
    }

    fn next_event_time(&self) -> Option<SimTime> {
        self.links
            .iter()
            .filter_map(|l| l.next_completion().map(|(t, _)| t))
            .min()
    }

    fn step(&mut self, at: SimTime) -> Option<TransferDone> {
        let mut best: Option<(SimTime, usize, u64)> = None;
        for (i, l) in self.links.iter().enumerate() {
            if let Some((t, f)) = l.next_completion() {
                if best.map_or(true, |(bt, _, _)| t < bt) {
                    best = Some((t, i, f));
                }
            }
        }
        let (t, li, id) = best.expect("step with no flows in flight");
        assert!(t <= at);
        self.advance(at);
        assert_eq!(self.links[li].remove_flow(at, id), 0.0);
        let tr = self
            .transfers
            .get_mut(&id)
            .expect("flow without a transfer");
        tr.4.retain(|&x| x != li);
        if !tr.4.is_empty() {
            return None;
        }
        let (src, dst, bytes, path, _) = self.transfers.remove(&id).unwrap();
        for &l in &path {
            self.link_bytes[l] += bytes;
        }
        Some(TransferDone {
            id,
            src,
            dst,
            bytes,
            at,
            links: path,
        })
    }

    fn cancel_transfer(&mut self, now: SimTime, id: u64) {
        let (_, _, bytes, _, active) = self.transfers.remove(&id).expect("unknown transfer");
        for &l in &active {
            self.links[l].remove_flow(now, id);
        }
        self.cancelled.0 += 1;
        self.cancelled.1 += bytes;
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// Start a transfer `src → (src + hop) mod 4` (never loopback).
    Begin {
        src: u32,
        hop: u32,
        bytes: u64,
        rate: f64,
    },
    /// Cancel the (n mod live)-th in-flight transfer.
    CancelNth(usize),
    /// `next_event_time → step`, this many times.
    Steps(u8),
    /// Advance every link by up to this many ns, never past the next event.
    AdvanceBy(u64),
    /// Query `next_event_time` again without touching anything.
    Peek,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0u32..4, 1u32..4, 1u64..2_000_000, 1.0e3f64..1.0e7)
            .prop_map(|(src, hop, bytes, rate)| Op::Begin { src, hop, bytes, rate }),
        1 => any::<usize>().prop_map(Op::CancelNth),
        3 => (1u8..6).prop_map(Op::Steps),
        2 => (1u64..50_000_000).prop_map(Op::AdvanceBy),
        1 => Just(Op::Peek),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn plane_over_memoized_links_matches_scan_reference(
        node_bw in 1.0e4f64..1.0e7,
        oversub in 1.0f64..8.0,
        ops in prop::collection::vec(op_strategy(), 1..60),
    ) {
        let mut topo = NetTopology::new(4, 2).with_oversubscription(oversub);
        topo.node_bw = node_bw;
        let mut fast = NetworkPlane::new(topo.clone());
        let mut slow = RefPlane::new(topo);
        let mut now = SimTime::ZERO;
        let mut next_id = 0u64;
        let mut live: Vec<u64> = Vec::new();
        let mut done: Vec<TransferDone> = Vec::new();

        // One `next_event_time → step` round on both planes.
        macro_rules! step_both {
            ($t:expr) => {{
                now = $t;
                let d = fast.step(now);
                prop_assert_eq!(&d, &slow.step(now), "step at {:?} diverged", now);
                if let Some(d) = d {
                    live.retain(|&id| id != d.id);
                    done.push(d);
                }
            }};
        }

        for op in &ops {
            match *op {
                Op::Begin { src, hop, bytes, rate } => {
                    let dst = (src + hop) % 4;
                    fast.begin_transfer(now, next_id, src, dst, bytes, rate);
                    slow.begin_transfer(now, next_id, src, dst, bytes, rate);
                    live.push(next_id);
                    next_id += 1;
                }
                Op::CancelNth(n) => {
                    if live.is_empty() {
                        continue;
                    }
                    let id = live.remove(n % live.len());
                    fast.cancel_transfer(now, id);
                    slow.cancel_transfer(now, id);
                }
                Op::Steps(k) => {
                    for _ in 0..k {
                        let t = fast.next_event_time();
                        prop_assert_eq!(t, slow.next_event_time());
                        match t {
                            Some(t) => step_both!(t),
                            None => break,
                        }
                    }
                }
                Op::AdvanceBy(ns) => {
                    let horizon = fast.next_event_time().unwrap_or(SimTime::MAX);
                    now = (now + SimTime::from_ns(ns)).min(horizon);
                    fast.advance(now);
                    slow.advance(now);
                }
                Op::Peek => {
                    prop_assert_eq!(fast.next_event_time(), slow.next_event_time());
                    prop_assert_eq!(fast.next_event_time(), slow.next_event_time());
                }
            }
        }
        while let Some(t) = fast.next_event_time() {
            prop_assert_eq!(Some(t), slow.next_event_time());
            step_both!(t);
        }
        prop_assert_eq!(slow.next_event_time(), None);
        prop_assert!(live.is_empty(), "transfers left in flight: {:?}", live);
        prop_assert_eq!(fast.link_bytes(), &slow.link_bytes[..]);
        prop_assert_eq!(fast.cancelled(), slow.cancelled);
        let credited: u64 = done.iter().map(|d| d.bytes * d.links.len() as u64).sum();
        prop_assert_eq!(fast.link_bytes().iter().sum::<u64>(), credited);
    }
}
