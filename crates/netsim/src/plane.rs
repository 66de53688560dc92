//! The flow plane: one max–min fair [`SharedResource`] per link.
//!
//! A *transfer* is one logical `src → dst` movement of `bytes`. It becomes
//! one flow on every link of its path (same flow id, same byte demand, same
//! nominal rate). Each link drains its copy independently under fair
//! sharing; the transfer completes when its **last** link drains — the
//! bottleneck decides. At that single completion instant every path link's
//! integer byte counter is credited with the whole transfer, which is what
//! the conservation invariant re-sums against: cancelled transfers credit
//! nothing.

use crate::topology::NetTopology;
use memtier_des::{earliest_completion, ContentionModel, SharedResource, SimTime};
use std::collections::BTreeMap;

/// An in-flight transfer's bookkeeping.
#[derive(Debug, Clone)]
struct Transfer {
    src: u32,
    dst: u32,
    bytes: u64,
    /// Dense link indices of the full path (credited on completion).
    path: Vec<usize>,
    /// Path links whose flow copy has not drained yet.
    active: Vec<usize>,
}

/// A completed transfer, reported from [`NetworkPlane::step`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransferDone {
    /// The caller-assigned transfer id.
    pub id: u64,
    /// Source node.
    pub src: u32,
    /// Destination node.
    pub dst: u32,
    /// Whole-transfer size in bytes.
    pub bytes: u64,
    /// Completion instant.
    pub at: SimTime,
    /// Dense link indices of the path, in hop order.
    pub links: Vec<usize>,
}

/// The simulated network: per-link fair-shared capacity plus exact integer
/// traffic counters.
#[derive(Debug, Clone)]
pub struct NetworkPlane {
    topo: NetTopology,
    /// One resource per dense link index; `ContentionModel::None` — links
    /// degrade only by sharing capacity, not by flow count.
    links: Vec<SharedResource>,
    transfers: BTreeMap<u64, Transfer>,
    /// Whole-transfer bytes credited to each path link at completion.
    link_bytes: Vec<u64>,
    /// Transfers cancelled before completion (task kills, aborts).
    cancelled: u64,
    /// Bytes of cancelled transfers (never credited to `link_bytes`).
    cancelled_bytes: u64,
}

impl NetworkPlane {
    /// A plane over a validated topology.
    ///
    /// # Panics
    /// Panics if the topology fails [`NetTopology::validate`].
    pub fn new(topo: NetTopology) -> Self {
        if let Err(e) = topo.validate() {
            panic!("invalid network topology: {e}");
        }
        let links = (0..topo.num_links())
            .map(|i| {
                SharedResource::new(topo.link_capacity(topo.link_at(i)), ContentionModel::None)
            })
            .collect();
        let link_bytes = vec![0; topo.num_links()];
        NetworkPlane {
            topo,
            links,
            transfers: BTreeMap::new(),
            link_bytes,
            cancelled: 0,
            cancelled_bytes: 0,
        }
    }

    /// The topology this plane simulates.
    pub fn topology(&self) -> &NetTopology {
        &self.topo
    }

    /// Start a transfer of `bytes` from `src` to `dst` at `now`, pacing
    /// every link flow at `rate` bytes/s when uncontended.
    ///
    /// # Panics
    /// Panics on a loopback pair (`src == dst` takes the fast path and must
    /// not reach the plane), a duplicate transfer id, or a non-positive rate.
    pub fn begin_transfer(
        &mut self,
        now: SimTime,
        id: u64,
        src: u32,
        dst: u32,
        bytes: u64,
        rate: f64,
    ) {
        let path: Vec<usize> = self
            .topo
            .path(src, dst)
            .into_iter()
            .map(|l| self.topo.link_index(l))
            .collect();
        assert!(
            !path.is_empty(),
            "loopback transfer {id} must not enter the plane"
        );
        assert!(
            self.transfers
                .insert(
                    id,
                    Transfer {
                        src,
                        dst,
                        bytes,
                        path: path.clone(),
                        active: path.clone(),
                    },
                )
                .is_none(),
            "duplicate transfer id {id}"
        );
        for &l in &path {
            self.links[l].add_flow(now, id, bytes as f64, rate);
        }
    }

    /// Advance every link's clock to `now`, draining flows at current rates.
    pub fn advance(&mut self, now: SimTime) {
        for l in &mut self.links {
            l.advance(now);
        }
    }

    /// The earliest instant at which some link flow drains, or `None` when
    /// no transfers are in flight. The caller advances to this instant and
    /// calls [`step`](Self::step).
    pub fn next_event_time(&self) -> Option<SimTime> {
        earliest_completion(&self.links).map(|(t, _, _)| t)
    }

    /// Process exactly one link-drain event at `at` (which must be the time
    /// returned by [`next_event_time`](Self::next_event_time)).
    ///
    /// Returns `Some` when the drained flow was its transfer's last active
    /// link — the transfer is complete and its bytes have been credited to
    /// every path link — and `None` for an intermediate link drain (rates
    /// on that link re-share; the caller just re-queries). Ties process in
    /// ascending (link index, transfer id) order, deterministically.
    pub fn step(&mut self, at: SimTime) -> Option<TransferDone> {
        // The same all-links search `next_event_time` just made: every link
        // is as that call left it, so each query is a memo hit in
        // `SharedResource`, not a rescan — the plane keeps no cache itself.
        let (t, li, id) = earliest_completion(&self.links).expect("step with no flows in flight");
        assert!(t <= at, "stepping past the next drain event");
        self.advance(at);
        let residual = self.links[li].remove_flow(at, id);
        assert_eq!(residual, 0.0, "stepped flow must have drained");
        let tr = self
            .transfers
            .get_mut(&id)
            .expect("flow without a transfer");
        tr.active.retain(|&x| x != li);
        if !tr.active.is_empty() {
            return None;
        }
        let tr = self.transfers.remove(&id).expect("transfer vanished");
        for &l in &tr.path {
            self.link_bytes[l] += tr.bytes;
        }
        Some(TransferDone {
            id,
            src: tr.src,
            dst: tr.dst,
            bytes: tr.bytes,
            at,
            links: tr.path,
        })
    }

    /// Cancel an in-flight transfer (task kill / job abort): its remaining
    /// link flows are removed and **no** byte counters are credited.
    ///
    /// # Panics
    /// Panics if the transfer is unknown (the caller owns the id map).
    pub fn cancel_transfer(&mut self, now: SimTime, id: u64) {
        let tr = self
            .transfers
            .remove(&id)
            .unwrap_or_else(|| panic!("cancelling unknown transfer {id}"));
        for &l in &tr.active {
            self.links[l].remove_flow(now, id);
        }
        self.cancelled += 1;
        self.cancelled_bytes += tr.bytes;
    }

    /// Number of transfers currently in flight.
    pub fn in_flight(&self) -> usize {
        self.transfers.len()
    }

    /// Whole-transfer bytes credited per dense link index.
    pub fn link_bytes(&self) -> &[u64] {
        &self.link_bytes
    }

    /// Transfers cancelled before completion, and their bytes.
    pub fn cancelled(&self) -> (u64, u64) {
        (self.cancelled, self.cancelled_bytes)
    }

    /// Seconds each link spent with at least one active flow, per dense
    /// link index.
    pub fn link_busy_secs(&self) -> Vec<f64> {
        self.links
            .iter()
            .map(|l| l.busy_time().as_secs_f64())
            .collect()
    }

    /// Current fair-share allocation on one link (tests/diagnostics).
    pub fn link_rates(&self, index: usize) -> Vec<(u64, f64)> {
        self.links[index].current_rates()
    }

    /// Capacity of the link at a dense index, in bytes/s.
    pub fn link_capacity(&self, index: usize) -> f64 {
        self.links[index].capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plane(oversub: f64) -> NetworkPlane {
        let mut t = NetTopology::new(4, 2);
        t.node_bw = 100.0; // tiny units keep the arithmetic readable
        t.rack_oversubscription = oversub;
        t.latency_us = 0.0;
        NetworkPlane::new(t)
    }

    /// Drive the plane to completion, returning (time, done) events.
    fn drain(p: &mut NetworkPlane) -> Vec<TransferDone> {
        let mut done = Vec::new();
        while let Some(t) = p.next_event_time() {
            if let Some(d) = p.step(t) {
                done.push(d);
            }
        }
        done
    }

    #[test]
    fn single_transfer_runs_at_its_rate() {
        let mut p = plane(1.0);
        p.begin_transfer(SimTime::ZERO, 1, 0, 1, 100, 50.0);
        let done = drain(&mut p);
        assert_eq!(done.len(), 1);
        assert!(
            (done[0].at.as_secs_f64() - 2.0).abs() < 1e-6,
            "{:?}",
            done[0].at
        );
        // Both path links credited with the whole transfer.
        let up = p.topology().link_index(crate::topology::LinkId::NodeUp(0));
        let down = p
            .topology()
            .link_index(crate::topology::LinkId::NodeDown(1));
        assert_eq!(p.link_bytes()[up], 100);
        assert_eq!(p.link_bytes()[down], 100);
        assert_eq!(p.link_bytes().iter().sum::<u64>(), 200);
    }

    #[test]
    fn shared_link_fair_shares_and_ties_break_low_id_first() {
        let mut p = plane(1.0);
        // Two transfers out of node 0 wanting full node bandwidth each:
        // the node0:up link halves them.
        p.begin_transfer(SimTime::ZERO, 1, 0, 1, 100, 100.0);
        p.begin_transfer(SimTime::ZERO, 2, 0, 1, 100, 100.0);
        let done = drain(&mut p);
        assert_eq!(done.iter().map(|d| d.id).collect::<Vec<_>>(), vec![1, 2]);
        assert!((done[0].at.as_secs_f64() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn oversubscribed_rack_uplink_is_the_bottleneck() {
        let mut p = plane(4.0); // rack links: 100*2/4 = 50
        p.begin_transfer(SimTime::ZERO, 1, 0, 2, 100, 100.0);
        let done = drain(&mut p);
        // Nominal rate 100 is capacity-clamped to 50 on the rack hops.
        assert!(
            (done[0].at.as_secs_f64() - 2.0).abs() < 1e-6,
            "{:?}",
            done[0].at
        );
        assert_eq!(done[0].links.len(), 4);
    }

    #[test]
    fn cancel_credits_nothing() {
        let mut p = plane(1.0);
        p.begin_transfer(SimTime::ZERO, 1, 0, 3, 100, 10.0);
        p.advance(SimTime::from_secs(1));
        p.cancel_transfer(SimTime::from_secs(1), 1);
        assert_eq!(p.in_flight(), 0);
        assert_eq!(p.cancelled(), (1, 100));
        assert!(p.link_bytes().iter().all(|&b| b == 0));
        assert!(p.next_event_time().is_none());
    }

    #[test]
    fn completion_waits_for_the_last_link() {
        let mut p = plane(8.0); // rack links: 100*2/8 = 25
        p.begin_transfer(SimTime::ZERO, 1, 0, 2, 100, 100.0);
        // Node links would drain at t=1 (rate min(100, cap 100)); rack links
        // cap the flow at 25/s there, draining at t=4: intermediate steps
        // return None, the final one reports the transfer.
        let mut completions = 0;
        let mut last = SimTime::ZERO;
        while let Some(t) = p.next_event_time() {
            if let Some(d) = p.step(t) {
                completions += 1;
                last = d.at;
            }
        }
        assert_eq!(completions, 1);
        assert!((last.as_secs_f64() - 4.0).abs() < 1e-6, "{last:?}");
    }

    #[test]
    #[should_panic(expected = "loopback transfer")]
    fn loopback_transfers_are_rejected() {
        let mut p = plane(1.0);
        p.begin_transfer(SimTime::ZERO, 1, 2, 2, 10, 1.0);
    }

    #[test]
    #[should_panic(expected = "duplicate transfer id")]
    fn duplicate_ids_are_rejected() {
        let mut p = plane(1.0);
        p.begin_transfer(SimTime::ZERO, 1, 0, 1, 10, 1.0);
        p.begin_transfer(SimTime::ZERO, 1, 1, 0, 10, 1.0);
    }
}
