//! `cogroup`: group two pair RDDs by key (the substrate of `join`).

use crate::memsize::slice_mem_size;
use crate::rdd::map::impl_vitals;
use crate::rdd::shuffled::plain_writer;
use crate::rdd::{Computed, Data, Dep, Key, Rdd, RddBase, RddVitals, ShuffleDep, TaskEnv};
use crate::shuffle::{DetHasher, HashPartitioner, Partitioner};
use crate::storage::StorageLevel;
use std::collections::HashMap;
use std::sync::Arc;

/// A two-parent wide RDD: partition `p` holds, for every key hashing to
/// `p`, the values from both sides.
pub struct CoGroupedRdd {
    vitals: RddVitals,
    deps: Vec<Arc<ShuffleDep>>,
    reduce: Arc<dyn Fn(usize, &mut TaskEnv<'_>) -> Computed + Send + Sync>,
}

impl RddBase for CoGroupedRdd {
    impl_vitals!();
    fn deps(&self) -> Vec<Dep> {
        self.deps
            .iter()
            .map(|d| Dep::Shuffle(Arc::clone(d)))
            .collect()
    }
    fn compute_partition(&self, part: usize, env: &mut TaskEnv<'_>) -> Computed {
        (self.reduce)(part, env)
    }
}

impl<K: Key, V: Data> Rdd<(K, V)> {
    /// Group this RDD with `other` by key: for every key, the values from
    /// both sides.
    pub fn cogroup<W: Data>(
        &self,
        other: &Rdd<(K, W)>,
        partitions: usize,
    ) -> Rdd<(K, (Vec<V>, Vec<W>))> {
        let ctx = self.ctx.clone();
        let partitioner: Arc<dyn Partitioner<K>> = Arc::new(HashPartitioner::new(partitions));
        let rt = ctx.runtime();
        let left_id = rt.shuffle.register(self.num_partitions(), partitions);
        let right_id = rt.shuffle.register(other.num_partitions(), partitions);

        let left_dep = Arc::new(ShuffleDep {
            shuffle_id: left_id,
            parent: Arc::clone(&self.node),
            num_reduces: partitions,
            writer: Arc::new(plain_writer::<K, V>(
                Arc::clone(&self.node),
                Arc::clone(&partitioner),
                left_id,
            )),
        });
        let right_dep = Arc::new(ShuffleDep {
            shuffle_id: right_id,
            parent: Arc::clone(&other.node),
            num_reduces: partitions,
            writer: Arc::new(plain_writer::<K, W>(
                Arc::clone(&other.node),
                Arc::clone(&partitioner),
                right_id,
            )),
        });

        let reduce = move |part: usize, env: &mut TaskEnv<'_>| -> Computed {
            let mut groups: HashMap<K, (Vec<V>, Vec<W>), DetHasher> = HashMap::default();
            let mut n_in = 0u64;
            let left = env.rt.shuffle.fetch_reduce(left_id, part);
            env.charge_shuffle_read(
                left_id,
                left.iter().map(|b| b.bytes).sum(),
                left.len() as u64,
            );
            env.charge_shuffle_sources(left_id, part);
            for bucket in left {
                let items = bucket.data.downcast::<Vec<(K, V)>>().expect("left bucket");
                n_in += items.len() as u64;
                for (k, v) in items.iter() {
                    groups.entry(k.clone()).or_default().0.push(v.clone());
                }
            }
            let right = env.rt.shuffle.fetch_reduce(right_id, part);
            env.charge_shuffle_read(
                right_id,
                right.iter().map(|b| b.bytes).sum(),
                right.len() as u64,
            );
            env.charge_shuffle_sources(right_id, part);
            for bucket in right {
                let items = bucket.data.downcast::<Vec<(K, W)>>().expect("right bucket");
                n_in += items.len() as u64;
                for (k, w) in items.iter() {
                    groups.entry(k.clone()).or_default().1.push(w.clone());
                }
            }
            let out: Vec<(K, (Vec<V>, Vec<W>))> = groups.into_iter().collect();
            env.charge_hash_ops(n_in, slice_mem_size(&out) as u64);
            env.charge_records(n_in, out.len() as u64);
            Computed::from_vec(out)
        };

        let vitals = RddVitals::new(ctx.next_rdd_id(), "cogroup", partitions);
        Rdd::from_node(
            Arc::new(CoGroupedRdd {
                vitals,
                deps: vec![left_dep, right_dep],
                reduce: Arc::new(reduce),
            }),
            ctx,
        )
    }
}
