//! Scheduler-side bookkeeping for the simulated network plane.
//!
//! The data plane *records* network charges ([`NetCharge`]) while a task's
//! operators run; the scheduler *resolves* them — executor/datanode/driver
//! endpoints to topology nodes — and turns cross-node charges into flows on
//! the [`NetworkPlane`]. Everything here is gated on a configured topology:
//! under [`NetworkMode::Loopback`] the state is inert, no charge is ever
//! resolved, and runs are byte-identical to the pre-plane engine.
//!
//! Conservation contract: a completed transfer credits its whole byte count
//! to every link of its path, exactly once, at its completion instant —
//! both in the plane's per-link integer counters and in this module's
//! [`TransferRecord`] log. [`NetState::conserves`] re-sums the records
//! against the counters; cancelled transfers appear in neither.

use crate::events::{Event, EventBus};
use memtier_des::SimTime;
use memtier_netsim::{Locality, LocalityMode, NetTopology, NetworkMode, NetworkPlane};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// What a recorded charge was for (the traffic class in events/reports).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetChargeKind {
    /// Reduce-side shuffle fetch from a map output's executor.
    ShuffleFetch,
    /// Broadcast distribution from the driver.
    Broadcast,
    /// DFS block read from a datanode.
    DfsRead,
    /// DFS block write (one charge per replica) to a datanode.
    DfsWrite,
    /// DFS re-replication copy between datanodes.
    Rereplicate,
}

impl NetChargeKind {
    /// Stable label for events and reports.
    pub fn label(&self) -> &'static str {
        match self {
            NetChargeKind::ShuffleFetch => "shuffle-fetch",
            NetChargeKind::Broadcast => "broadcast",
            NetChargeKind::DfsRead => "dfs-read",
            NetChargeKind::DfsWrite => "dfs-write",
            NetChargeKind::Rereplicate => "rereplicate",
        }
    }
}

/// The far endpoint of a charge (the near endpoint is the charging task's
/// executor).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetPeer {
    /// Another executor (shuffle fetch source).
    Executor(usize),
    /// A DFS datanode.
    Datanode(u32),
    /// The driver.
    Driver,
}

/// One network charge recorded by the data plane, resolved by the
/// scheduler at task launch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetCharge {
    /// Traffic class.
    pub kind: NetChargeKind,
    /// The far endpoint.
    pub peer: NetPeer,
    /// `true` when bytes flow peer → task (reads/fetches); `false` for
    /// task → peer (writes).
    pub inbound: bool,
    /// Payload size.
    pub bytes: u64,
}

/// A charge resolved against the topology: what moves, and between which
/// nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetRoute {
    /// Traffic class.
    pub kind: NetChargeKind,
    /// Source node.
    pub src: u32,
    /// Destination node.
    pub dst: u32,
    /// Payload size.
    pub bytes: u64,
}

/// Topology context handed to a task's [`TaskEnv`](crate::rdd::TaskEnv) so
/// charge sites can rank replicas by closeness. Present only when a
/// topology is configured.
#[derive(Debug, Clone)]
pub struct NetCtx {
    /// The node hosting the executing task.
    pub node: u32,
    /// The cluster wiring.
    pub topo: NetTopology,
}

/// A completed transfer: the scheduler-side record the conservation
/// invariant re-sums against the plane's per-link counters.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferRecord {
    /// Completion instant.
    pub at: SimTime,
    /// Owning task, when the transfer belonged to one (re-replication
    /// runs driverless).
    pub task: Option<u64>,
    /// Traffic class.
    pub kind: NetChargeKind,
    /// Source node.
    pub src: u32,
    /// Destination node.
    pub dst: u32,
    /// Whole-transfer bytes.
    pub bytes: u64,
    /// Locality class (never `NodeLocal`: loopback skips the plane).
    pub locality: Locality,
    /// Dense link indices of the path.
    pub links: Vec<usize>,
    /// Whether this was lineage-recovery refetch traffic (task attempt > 0).
    pub refetch: bool,
}

/// Per-link serialized totals for the run report.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct LinkReport {
    /// Stable link label (`node0:up`, `rack1:down`, …).
    pub label: String,
    /// Whole-transfer bytes credited to this link.
    pub bytes: u64,
    /// Virtual seconds the link had at least one active flow.
    pub busy_s: f64,
}

/// Aggregated network activity of a run. Default (all-zero) under loopback
/// wiring — and skipped from serialized results, keeping pre-plane
/// artifacts byte-identical.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct NetReport {
    /// Completed cross-node transfers.
    pub transfers: u64,
    /// Bytes of completed transfers.
    pub total_bytes: u64,
    /// Charged bytes that resolved to co-located endpoints (free loopback).
    pub node_local_bytes: u64,
    /// Completed bytes between nodes of the same rack.
    pub rack_local_bytes: u64,
    /// Completed bytes that crossed racks.
    pub cross_rack_bytes: u64,
    /// Bytes of completed shuffle fetches.
    pub shuffle_bytes: u64,
    /// Bytes of completed broadcast deliveries.
    pub broadcast_bytes: u64,
    /// Bytes of completed DFS reads.
    pub dfs_read_bytes: u64,
    /// Bytes of completed DFS writes (replica fan-out included).
    pub dfs_write_bytes: u64,
    /// Bytes of completed re-replication copies.
    pub rereplicate_bytes: u64,
    /// Completed bytes that were lineage-recovery refetch traffic.
    pub refetch_bytes: u64,
    /// Transfers cancelled before completion (task kills, aborts).
    pub cancelled_transfers: u64,
    /// Bytes of cancelled transfers (credited nowhere).
    pub cancelled_bytes: u64,
    /// Per-link totals, dense link-index order.
    pub links: Vec<LinkReport>,
}

impl NetReport {
    /// True when the run saw no network activity at all — the loopback
    /// baseline, in which the report is skipped from serialized results.
    pub fn is_empty(&self) -> bool {
        *self == NetReport::default()
    }
}

/// The scheduler's network state: the plane plus charge resolution,
/// transfer ownership, locality bookkeeping, and the conservation ledger.
pub struct NetState {
    plane: Option<NetworkPlane>,
    locality: Option<LocalityMode>,
    next_transfer: u64,
    /// In-flight transfers by id: each one's record, complete but for its
    /// completion instant.
    pending: BTreeMap<u64, TransferRecord>,
    /// Completed transfers, in completion order.
    pub records: Vec<TransferRecord>,
    /// Charged bytes that resolved to co-located endpoints.
    node_local_bytes: u64,
}

impl NetState {
    /// Build from the configured wiring. `Loopback` yields an inert state.
    pub fn new(mode: &NetworkMode) -> NetState {
        let (plane, locality) = match mode {
            NetworkMode::Loopback => (None, None),
            NetworkMode::Topology { topology, locality } => {
                (Some(NetworkPlane::new(topology.clone())), Some(*locality))
            }
        };
        NetState {
            plane,
            locality,
            next_transfer: 0,
            pending: BTreeMap::new(),
            records: Vec::new(),
            node_local_bytes: 0,
        }
    }

    /// True when a topology is configured (the plane exists).
    pub fn active(&self) -> bool {
        self.plane.is_some()
    }

    /// The topology, when configured.
    pub fn topology(&self) -> Option<&NetTopology> {
        self.plane.as_ref().map(|p| p.topology())
    }

    /// The delay-scheduling wait, when that policy is configured.
    pub fn delay_wait(&self) -> Option<SimTime> {
        match self.locality {
            Some(LocalityMode::DelayScheduling { wait }) => Some(wait),
            _ => None,
        }
    }

    /// Topology context for a task on `exec`, when a topology is
    /// configured.
    pub fn task_ctx(&self, exec: usize) -> Option<NetCtx> {
        self.topology().map(|t| NetCtx {
            node: t.node_of_executor(exec),
            topo: t.clone(),
        })
    }

    /// Resolve a charge to its route for a task on `exec`.
    pub fn resolve(&self, exec: usize, charge: &NetCharge) -> NetRoute {
        let t = self.topology().expect("resolving a charge without a plane");
        let here = t.node_of_executor(exec);
        let peer = match charge.peer {
            NetPeer::Executor(e) => t.node_of_executor(e),
            NetPeer::Datanode(d) => t.node_of_datanode(d),
            NetPeer::Driver => t.driver_node(),
        };
        let (src, dst) = if charge.inbound {
            (peer, here)
        } else {
            (here, peer)
        };
        NetRoute {
            kind: charge.kind,
            src,
            dst,
            bytes: charge.bytes,
        }
    }

    /// Count bytes whose endpoints co-locate (the loopback fast path).
    pub fn note_node_local(&mut self, bytes: u64) {
        self.node_local_bytes += bytes;
    }

    /// Start a cross-node transfer at `now`, pacing its link flows at
    /// `rate` bytes/s, and mirror one [`Event::FlowStarted`] per path link.
    /// Returns the transfer id.
    ///
    /// # Panics
    /// Panics if no plane is configured or the endpoints co-locate.
    pub fn begin(
        &mut self,
        now: SimTime,
        events: &mut EventBus,
        task: Option<u64>,
        route: NetRoute,
        rate: f64,
        refetch: bool,
    ) -> u64 {
        let NetRoute {
            src, dst, bytes, ..
        } = route;
        let plane = self.plane.as_mut().expect("transfer without a plane");
        let id = self.next_transfer;
        self.next_transfer += 1;
        plane.begin_transfer(now, id, src, dst, bytes, rate);
        let topo = plane.topology();
        let rec = TransferRecord {
            at: now,
            task,
            kind: route.kind,
            src,
            dst,
            bytes,
            locality: topo.locality(src, dst),
            links: topo
                .path(src, dst)
                .into_iter()
                .map(|l| topo.link_index(l))
                .collect(),
            refetch,
        };
        self.emit_per_link(events, now, &rec, true);
        self.pending.insert(id, rec);
        id
    }

    /// One event per link of a transfer's path, labelled by the topology —
    /// the only place link indices become `FlowStarted`/`FlowCompleted`.
    fn emit_per_link(
        &self,
        events: &mut EventBus,
        at: SimTime,
        rec: &TransferRecord,
        started: bool,
    ) {
        if !events.is_active() {
            return;
        }
        let topo = self.topology().expect("flow event without a plane");
        for &l in &rec.links {
            let (task_id, link, bytes) = (rec.task, topo.link_at(l).label(), rec.bytes);
            let locality = rec.locality.label().to_string();
            let event = if started {
                Event::FlowStarted {
                    task_id,
                    link,
                    bytes,
                    locality,
                }
            } else {
                Event::FlowCompleted {
                    task_id,
                    link,
                    bytes,
                    locality,
                }
            };
            events.emit(at, event);
        }
    }

    /// The earliest link-drain instant, or `None` when idle / no plane.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.plane.as_ref().and_then(|p| p.next_event_time())
    }

    /// Process one link-drain event at `at`. `Some` when a transfer
    /// completed: its record has been appended to [`records`](Self::records),
    /// mirrored as one [`Event::FlowCompleted`] per path link, and is
    /// returned (borrowed) together with the owning task.
    pub fn step(&mut self, at: SimTime, events: &mut EventBus) -> Option<&TransferRecord> {
        let plane = self.plane.as_mut().expect("stepping without a plane");
        let done = plane.step(at)?;
        let mut rec = self
            .pending
            .remove(&done.id)
            .expect("completed transfer without metadata");
        debug_assert_eq!(rec.links, done.links);
        rec.at = done.at;
        self.emit_per_link(events, at, &rec, false);
        self.records.push(rec);
        self.records.last()
    }

    /// Cancel an in-flight transfer if it is still pending (the guard that
    /// makes kill/completion races at one instant safe, mirroring the
    /// memory plane's flow-owner map). Returns whether it was cancelled.
    pub fn cancel(&mut self, now: SimTime, id: u64) -> bool {
        if self.pending.remove(&id).is_none() {
            return false;
        }
        self.plane
            .as_mut()
            .expect("cancelling without a plane")
            .cancel_transfer(now, id);
        true
    }

    /// Exact-integer conservation: the per-link re-sum of completed
    /// records equals the plane's per-link counters. Vacuously true
    /// without a plane.
    pub fn conserves(&self) -> bool {
        let Some(plane) = self.plane.as_ref() else {
            return true;
        };
        let mut resum = vec![0u64; plane.link_bytes().len()];
        for r in &self.records {
            for &l in &r.links {
                resum[l] += r.bytes;
            }
        }
        resum == plane.link_bytes()
    }

    /// Aggregate the run's network activity. All-zero (and therefore
    /// serialization-skipped) when no transfer ever entered the plane.
    pub fn report(&self) -> NetReport {
        let Some(plane) = self.plane.as_ref() else {
            return NetReport::default();
        };
        let (cancelled_transfers, cancelled_bytes) = plane.cancelled();
        if self.records.is_empty() && cancelled_transfers == 0 {
            // A topology that never saw a cross-node transfer (e.g. the
            // single-node wiring) reports exactly like loopback.
            return NetReport::default();
        }
        let mut rep = NetReport {
            transfers: self.records.len() as u64,
            node_local_bytes: self.node_local_bytes,
            cancelled_transfers,
            cancelled_bytes,
            ..NetReport::default()
        };
        for r in &self.records {
            rep.total_bytes += r.bytes;
            match r.locality {
                Locality::NodeLocal => unreachable!("loopback never enters the plane"),
                Locality::RackLocal => rep.rack_local_bytes += r.bytes,
                Locality::Remote => rep.cross_rack_bytes += r.bytes,
            }
            match r.kind {
                NetChargeKind::ShuffleFetch => rep.shuffle_bytes += r.bytes,
                NetChargeKind::Broadcast => rep.broadcast_bytes += r.bytes,
                NetChargeKind::DfsRead => rep.dfs_read_bytes += r.bytes,
                NetChargeKind::DfsWrite => rep.dfs_write_bytes += r.bytes,
                NetChargeKind::Rereplicate => rep.rereplicate_bytes += r.bytes,
            }
            if r.refetch {
                rep.refetch_bytes += r.bytes;
            }
        }
        let busy = plane.link_busy_secs();
        let topo = plane.topology();
        rep.links = plane
            .link_bytes()
            .iter()
            .enumerate()
            .map(|(i, &bytes)| LinkReport {
                label: topo.link_at(i).label(),
                bytes,
                busy_s: busy[i],
            })
            .collect();
        rep
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state() -> NetState {
        let mut topo = NetTopology::new(4, 2);
        topo.node_bw = 1000.0;
        topo.latency_us = 0.0;
        NetState::new(&NetworkMode::Topology {
            topology: topo,
            locality: LocalityMode::Blind,
        })
    }

    fn drain(s: &mut NetState) {
        while let Some(t) = s.next_event_time() {
            s.step(t, &mut EventBus::new());
        }
    }

    fn begin(s: &mut NetState, task: Option<u64>, route: (NetChargeKind, u32, u32, u64)) -> u64 {
        let (kind, src, dst, bytes) = route;
        let refetch = kind == NetChargeKind::Broadcast;
        let route = NetRoute {
            kind,
            src,
            dst,
            bytes,
        };
        s.begin(
            SimTime::ZERO,
            &mut EventBus::new(),
            task,
            route,
            1000.0,
            refetch,
        )
    }

    #[test]
    fn loopback_state_is_inert_and_reports_empty() {
        let s = NetState::new(&NetworkMode::Loopback);
        assert!(!s.active());
        assert!(s.topology().is_none());
        assert!(s.next_event_time().is_none());
        assert!(s.conserves());
        assert!(s.report().is_empty());
    }

    #[test]
    fn records_conserve_against_link_counters() {
        let mut s = state();
        begin(&mut s, Some(7), (NetChargeKind::ShuffleFetch, 0, 2, 500));
        begin(&mut s, None, (NetChargeKind::Rereplicate, 0, 1, 300));
        drain(&mut s);
        let fetch = s.records.iter().find(|r| r.task == Some(7)).unwrap();
        assert_eq!(fetch.links.len(), 4);
        assert_eq!(fetch.locality, Locality::Remote);
        assert!(s.conserves());
        let rep = s.report();
        assert_eq!(rep.transfers, 2);
        assert_eq!(rep.total_bytes, 800);
        assert_eq!(rep.cross_rack_bytes, 500);
        assert_eq!(rep.rack_local_bytes, 300);
        assert_eq!(rep.shuffle_bytes, 500);
        assert_eq!(rep.rereplicate_bytes, 300);
        assert_eq!(rep.links.len(), 12);
        assert!(rep.links.iter().map(|l| l.bytes).sum::<u64>() > 0);
    }

    #[test]
    fn cancellation_is_guarded_and_uncounted() {
        let mut s = state();
        let id = begin(&mut s, Some(1), (NetChargeKind::Broadcast, 0, 1, 100));
        assert!(s.cancel(SimTime::ZERO, id));
        assert!(
            !s.cancel(SimTime::ZERO, id),
            "double cancel must be a no-op"
        );
        assert!(s.conserves());
        let rep = s.report();
        assert_eq!(rep.transfers, 0);
        assert_eq!(rep.cancelled_transfers, 1);
        assert_eq!(rep.cancelled_bytes, 100);
        assert_eq!(rep.refetch_bytes, 0);
    }

    #[test]
    fn quiet_topology_reports_like_loopback() {
        let mut s = state();
        s.note_node_local(4096);
        assert!(s.report().is_empty(), "no transfers → loopback-identical");
    }

    #[test]
    fn charge_resolution_orients_by_direction() {
        let s = state();
        // Executor 1 sits on node 1; datanode 2 on node 2.
        let inbound = NetCharge {
            kind: NetChargeKind::DfsRead,
            peer: NetPeer::Datanode(2),
            inbound: true,
            bytes: 10,
        };
        let r = s.resolve(1, &inbound);
        assert_eq!((r.src, r.dst), (2, 1));
        let outbound = NetCharge {
            kind: NetChargeKind::DfsWrite,
            peer: NetPeer::Datanode(2),
            inbound: false,
            bytes: 10,
        };
        let r = s.resolve(1, &outbound);
        assert_eq!((r.src, r.dst), (1, 2));
        let bcast = NetCharge {
            kind: NetChargeKind::Broadcast,
            peer: NetPeer::Driver,
            inbound: true,
            bytes: 10,
        };
        let r = s.resolve(5, &bcast);
        assert_eq!(
            (r.src, r.dst, r.kind, r.bytes),
            (0, 1, NetChargeKind::Broadcast, 10)
        );
    }
}
