//! Post-shuffle RDDs: the reduce side of wide dependencies.
//!
//! A [`ShuffledRdd`] is deliberately type-erased: the typed bucketing
//! (map side) and merging (reduce side) logic is captured in closures built
//! by the constructors below, where the `K: Key` bounds are available. This
//! keeps [`RddBase`] object-safe for the scheduler while the whole shuffle
//! stays statically typed end to end.

use crate::cost::OpCost;
use crate::memsize::slice_mem_size;
use crate::rdd::map::impl_vitals;
use crate::rdd::{
    Computed, Data, Dep, Key, Rdd, RddBase, RddVitals, ShuffleDep, ShuffleWriter, TaskEnv,
};
use crate::shuffle::{det_hash, Bucket, HashPartitioner, Partitioner, ShuffleId};
use crate::storage::StorageLevel;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;

/// Spark's combiner triple: how reduce-side values fold into combiners.
pub struct Aggregator<K, V, C> {
    /// Turn the first value of a key into a combiner.
    pub create: Arc<dyn Fn(V) -> C + Send + Sync>,
    /// Fold another value into an existing combiner.
    pub merge_value: Arc<dyn Fn(C, V) -> C + Send + Sync>,
    /// Merge two combiners (across map outputs).
    pub merge_combiners: Arc<dyn Fn(C, C) -> C + Send + Sync>,
    /// Combine on the map side before writing buckets (`reduce_by_key`
    /// does; `group_by_key` doesn't).
    pub map_side_combine: bool,
    /// Marker so the type parameters are all used.
    pub _marker: std::marker::PhantomData<fn(K)>,
}

impl<K, V, C> Clone for Aggregator<K, V, C> {
    fn clone(&self) -> Self {
        Aggregator {
            create: Arc::clone(&self.create),
            merge_value: Arc::clone(&self.merge_value),
            merge_combiners: Arc::clone(&self.merge_combiners),
            map_side_combine: self.map_side_combine,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<K, V, C> Aggregator<K, V, C> {
    /// Build an aggregator from the three combiner functions.
    pub fn new(
        create: impl Fn(V) -> C + Send + Sync + 'static,
        merge_value: impl Fn(C, V) -> C + Send + Sync + 'static,
        merge_combiners: impl Fn(C, C) -> C + Send + Sync + 'static,
        map_side_combine: bool,
    ) -> Self {
        Aggregator {
            create: Arc::new(create),
            merge_value: Arc::new(merge_value),
            merge_combiners: Arc::new(merge_combiners),
            map_side_combine,
            _marker: std::marker::PhantomData,
        }
    }
}

/// A closure-backed shuffle writer (see module docs).
pub(crate) struct FnShuffleWriter {
    f: Box<dyn Fn(usize, &mut TaskEnv<'_>) + Send + Sync>,
}

impl ShuffleWriter for FnShuffleWriter {
    fn write_partition(&self, map_part: usize, env: &mut TaskEnv<'_>) {
        (self.f)(map_part, env)
    }
}

/// The reduce side of a shuffle: fetches buckets for its partition and
/// merges them with the strategy its constructor captured.
pub struct ShuffledRdd {
    vitals: RddVitals,
    dep: Arc<ShuffleDep>,
    reduce: Arc<dyn Fn(usize, &mut TaskEnv<'_>) -> Computed + Send + Sync>,
}

impl RddBase for ShuffledRdd {
    impl_vitals!();
    fn deps(&self) -> Vec<Dep> {
        vec![Dep::Shuffle(Arc::clone(&self.dep))]
    }
    fn compute_partition(&self, part: usize, env: &mut TaskEnv<'_>) -> Computed {
        (self.reduce)(part, env)
    }
}

/// Write one typed bucket to the shuffle manager, charging the env.
fn put_typed_bucket<K: Key, C: Data>(
    env: &mut TaskEnv<'_>,
    shuffle_id: ShuffleId,
    map_part: usize,
    reduce_part: usize,
    items: Vec<(K, C)>,
) {
    if items.is_empty() {
        return;
    }
    let bytes = slice_mem_size(&items) as u64;
    let records = items.len() as u64;
    env.charge_shuffle_write(shuffle_id, bytes);
    env.rt.shuffle.put_bucket(
        shuffle_id,
        map_part,
        reduce_part,
        Bucket {
            data: Arc::new(items),
            records,
            bytes,
        },
    );
}

/// The map side every non-combining shuffle shares (`partition_by`,
/// `sort_by_key`, `group_by_key`, both sides of `cogroup`): bucket the
/// parent partition's records by `partitioner` and write the non-empty
/// buckets.
pub(crate) fn plain_writer<K: Key, V: Data>(
    parent: Arc<dyn RddBase>,
    partitioner: Arc<dyn Partitioner<K>>,
    shuffle_id: ShuffleId,
) -> FnShuffleWriter {
    FnShuffleWriter {
        f: Box::new(move |map_part, env| {
            let input = env.narrow_input::<(K, V)>(&parent, map_part);
            let n = input.len() as u64;
            env.charge_records(n, 0);
            let mut buckets: Vec<Vec<(K, V)>> = (0..partitioner.num_partitions())
                .map(|_| Vec::new())
                .collect();
            for (k, v) in input.iter() {
                buckets[partitioner.partition(k)].push((k.clone(), v.clone()));
            }
            env.charge_op(n, &OpCost::cpu(12.0));
            for (b, bucket) in buckets.into_iter().enumerate() {
                put_typed_bucket(env, shuffle_id, map_part, b, bucket);
            }
        }),
    }
}

/// A key travelling with its [`det_hash`], so an aggregate table hashes
/// each record once: the partition, the `remove` and the `insert` all read
/// the carried value. The hash is the one `HashMap<K, _, DetHasher>` would
/// compute, so the table's layout — and with it `into_iter()` order — is
/// the layout of a table keyed by `K` (DESIGN.md, "Carried hash").
struct Hashed<K> {
    hash: u64,
    key: K,
}

impl<K: Key> Hashed<K> {
    fn new(key: &K) -> Self {
        Hashed {
            hash: det_hash(key),
            key: key.clone(),
        }
    }
}

impl<K: Eq> PartialEq for Hashed<K> {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.key == other.key
    }
}

impl<K: Eq> Eq for Hashed<K> {}

impl<K> Hash for Hashed<K> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// Hands a [`Hashed`] key's carried hash to the table unchanged.
#[derive(Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, _: &[u8]) {
        unreachable!("Hashed writes one u64")
    }
    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

/// An aggregate table: `HashMap<K, C, DetHasher>` with the hash carried.
type AggTable<K, C> = HashMap<Hashed<K>, C, BuildHasherDefault<PassThrough>>;

/// Replace `table[key]` with `fold` of what was there. `remove` then
/// `insert`, never `entry()`: `insert` reserves before it probes, so a full
/// table whose `remove` left a tombstone grows here where an in-place update
/// would not, and bucket count decides `into_iter()` order.
fn upsert<K: Key, C>(
    table: &mut AggTable<K, C>,
    key: Hashed<K>,
    fold: impl FnOnce(Option<C>) -> C,
) {
    let merged = fold(table.remove(&key));
    table.insert(key, merged);
}

/// Construct an aggregating shuffle (`reduce_by_key`, `combine_by_key`,
/// `group_by_key`), hash-partitioned into `num_reduces`.
pub(crate) fn shuffled_aggregate<K: Key, V: Data, C: Data>(
    parent: &Rdd<(K, V)>,
    num_reduces: usize,
    agg: Aggregator<K, V, C>,
    name: &str,
) -> Rdd<(K, C)> {
    let ctx = parent.ctx.clone();
    let partitioner = Arc::new(HashPartitioner::new(num_reduces));
    let num_maps = parent.num_partitions();
    let shuffle_id = ctx.runtime().shuffle.register(num_maps, num_reduces);

    // --- map side -----------------------------------------------------
    let parent_node = Arc::clone(&parent.node);
    let w_agg = agg.clone();
    let writer = if !agg.map_side_combine {
        plain_writer::<K, V>(parent_node, partitioner, shuffle_id)
    } else {
        FnShuffleWriter {
            f: Box::new(move |map_part, env| {
                let input = env.narrow_input::<(K, V)>(&parent_node, map_part);
                let n = input.len() as u64;
                env.charge_records(n, 0);
                let mut buckets: Vec<AggTable<K, C>> =
                    (0..num_reduces).map(|_| HashMap::default()).collect();
                for (k, v) in input.iter() {
                    let k = Hashed::new(k);
                    // `HashPartitioner::partition`, on the hash already taken.
                    let b = (k.hash % num_reduces as u64) as usize;
                    upsert(&mut buckets[b], k, |c| match c {
                        Some(c) => (w_agg.merge_value)(c, v.clone()),
                        None => (w_agg.create)(v.clone()),
                    });
                }
                let table_bytes: u64 = buckets
                    .iter()
                    .map(|m| {
                        m.iter()
                            .map(|(k, c)| k.key.mem_size() + c.mem_size())
                            .sum::<usize>() as u64
                    })
                    .sum();
                env.charge_hash_ops(n, table_bytes);
                for (b, bucket) in buckets.into_iter().enumerate() {
                    let items = bucket.into_iter().map(|(k, c)| (k.key, c)).collect();
                    put_typed_bucket(env, shuffle_id, map_part, b, items);
                }
            }),
        }
    };

    // --- reduce side ----------------------------------------------------
    let r_agg = agg;
    let reduce = move |part: usize, env: &mut TaskEnv<'_>| -> Computed {
        let buckets = env.rt.shuffle.fetch_reduce(shuffle_id, part);
        let total_bytes: u64 = buckets.iter().map(|b| b.bytes).sum();
        env.charge_shuffle_read(shuffle_id, total_bytes, buckets.len() as u64);
        env.charge_shuffle_sources(shuffle_id, part);
        let mut map: AggTable<K, C> = HashMap::default();
        let mut n_in = 0u64;
        for bucket in buckets {
            if r_agg.map_side_combine {
                let items = bucket
                    .data
                    .downcast::<Vec<(K, C)>>()
                    .expect("map-combined bucket type");
                n_in += items.len() as u64;
                for (k, c) in items.iter() {
                    upsert(&mut map, Hashed::new(k), |acc| match acc {
                        Some(acc) => (r_agg.merge_combiners)(acc, c.clone()),
                        None => c.clone(),
                    });
                }
            } else {
                let items = bucket
                    .data
                    .downcast::<Vec<(K, V)>>()
                    .expect("raw bucket type");
                n_in += items.len() as u64;
                for (k, v) in items.iter() {
                    upsert(&mut map, Hashed::new(k), |acc| match acc {
                        Some(acc) => (r_agg.merge_value)(acc, v.clone()),
                        None => (r_agg.create)(v.clone()),
                    });
                }
            }
        }
        let out: Vec<(K, C)> = map.into_iter().map(|(k, c)| (k.key, c)).collect();
        env.charge_hash_ops(n_in, slice_mem_size(&out) as u64);
        env.charge_records(n_in, out.len() as u64);
        Computed::from_vec(out)
    };

    let dep = Arc::new(ShuffleDep {
        shuffle_id,
        parent: Arc::clone(&parent.node),
        num_reduces,
        writer: Arc::new(writer),
    });
    let vitals = RddVitals::new(ctx.next_rdd_id(), name, num_reduces);
    Rdd::from_node(
        Arc::new(ShuffledRdd {
            vitals,
            dep,
            reduce: Arc::new(reduce),
        }),
        ctx,
    )
}

/// Construct a pass-through shuffle (`partition_by`, `sort_by_key`,
/// `repartition`): records are re-bucketed and optionally sorted within the
/// reduce partition, but not aggregated.
pub(crate) fn shuffled_plain<K: Key, V: Data>(
    parent: &Rdd<(K, V)>,
    partitioner: Arc<dyn Partitioner<K>>,
    sort_cmp: Option<Arc<dyn Fn(&K, &K) -> Ordering + Send + Sync>>,
    name: &str,
) -> Rdd<(K, V)> {
    let ctx = parent.ctx.clone();
    let num_reduces = partitioner.num_partitions();
    let num_maps = parent.num_partitions();
    let shuffle_id = ctx.runtime().shuffle.register(num_maps, num_reduces);

    let writer = plain_writer::<K, V>(Arc::clone(&parent.node), partitioner, shuffle_id);

    let reduce = move |part: usize, env: &mut TaskEnv<'_>| -> Computed {
        let buckets = env.rt.shuffle.fetch_reduce(shuffle_id, part);
        let total_bytes: u64 = buckets.iter().map(|b| b.bytes).sum();
        env.charge_shuffle_read(shuffle_id, total_bytes, buckets.len() as u64);
        env.charge_shuffle_sources(shuffle_id, part);
        let mut out: Vec<(K, V)> = Vec::new();
        for bucket in buckets {
            let items = bucket
                .data
                .downcast::<Vec<(K, V)>>()
                .expect("plain bucket type");
            out.extend(items.iter().cloned());
        }
        if let Some(cmp) = &sort_cmp {
            let sort_ns = {
                let c = &env.rt.cost;
                c.sort_cost_ns(out.len() as u64)
            };
            out.sort_by(|a, b| cmp(&a.0, &b.0));
            env.charge_cpu_ns(sort_ns);
        }
        let n = out.len() as u64;
        env.charge_records(n, n);
        Computed::from_vec(out)
    };

    let dep = Arc::new(ShuffleDep {
        shuffle_id,
        parent: Arc::clone(&parent.node),
        num_reduces,
        writer: Arc::new(writer),
    });
    let vitals = RddVitals::new(ctx.next_rdd_id(), name, num_reduces);
    Rdd::from_node(
        Arc::new(ShuffledRdd {
            vitals,
            dep,
            reduce: Arc::new(reduce),
        }),
        ctx,
    )
}
