//! Placement epochs and the migration copies they start.

use crate::events::Event;
use crate::scheduler::sim::JobRunner;
use memtier_des::{EventClass, SimTime};
use memtier_memsim::{AccessBatch, Migration, ObjectId, TierId, MIGRATION_FLOW_BASE};
use std::collections::BTreeMap;

/// In-flight migration copies: flow id → (tier, batch). Migration flows
/// live in the [`MIGRATION_FLOW_BASE`] namespace, disjoint from task flows,
/// and are attributed to [`ObjectId::Migration`].
#[derive(Default)]
pub(super) struct Migrations {
    pub(super) flows: BTreeMap<u64, (TierId, AccessBatch)>,
    seq: u64,
}

impl<U> JobRunner<'_, U> {
    /// Cross one placement-epoch boundary: feed the engine fresh cache
    /// footprints, let the policy rebalance off the live attribution
    /// ledger, and start charging the resulting migration copies.
    pub(super) fn cross_epoch(&mut self, at: SimTime) {
        self.prof.count_event(EventClass::PlacementEpoch);
        // A boundary scheduled before idle driver time advanced the clock
        // fires "now" — virtual time never runs backwards.
        self.advance_to(at.max(self.now));
        // Cached RDDs have a real footprint (their blocks' bytes); report
        // it so migrations copy what is actually resident instead of the
        // traffic-derived estimate.
        let st = &mut *self.st;
        for &object in st.mem.ledger().object_stats().keys() {
            if let ObjectId::CacheBlock { rdd } = object {
                st.engine
                    .set_footprint(object, self.rt.cache.rdd_bytes(rdd));
            }
        }
        for m in st.engine.rebalance(self.now, st.mem.ledger()) {
            self.start_migration(m);
        }
    }

    /// Charge one migration: a read flow on the source tier plus a write
    /// flow on the destination, both attributed to [`ObjectId::Migration`]
    /// when they complete. The copy contends with task flows for channel
    /// bandwidth, so its cost lands on the critical path like any other
    /// traffic. Cached-RDD residency in the block manager follows the move.
    fn start_migration(&mut self, m: Migration) {
        if let ObjectId::CacheBlock { rdd } = m.object {
            self.rt.cache.set_rdd_tier(rdd, m.to);
        }
        self.emit(|_| Event::ObjectMigrated {
            object: m.object,
            from: m.from,
            to: m.to,
            bytes: m.bytes,
        });
        for (tier, batch) in [(m.from, m.read_batch()), (m.to, m.write_batch())] {
            let flow = MIGRATION_FLOW_BASE | self.migrations.seq;
            self.migrations.seq += 1;
            if self.st.mem.begin_access(self.now, tier, flow, &batch) {
                self.migrations.flows.insert(flow, (tier, batch));
            }
        }
    }
}
