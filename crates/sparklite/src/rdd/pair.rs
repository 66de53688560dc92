//! Key-value transformations (`PairRDDFunctions`).

use crate::cost::OpCost;
use crate::rdd::shuffled::{shuffled_aggregate, shuffled_plain, Aggregator};
use crate::rdd::{Data, Key, Rdd};
use crate::shuffle::HashPartitioner;
use std::sync::Arc;

impl<K: Key, V: Data> Rdd<(K, V)> {
    /// Merge values per key with `f`, combining on the map side
    /// (`reduceByKey`). Output has the parent's partition count.
    pub fn reduce_by_key(&self, f: impl Fn(V, V) -> V + Send + Sync + 'static) -> Rdd<(K, V)> {
        self.reduce_by_key_with_partitions(f, self.num_partitions())
    }

    /// `reduce_by_key` with an explicit reduce-partition count.
    pub fn reduce_by_key_with_partitions(
        &self,
        f: impl Fn(V, V) -> V + Send + Sync + 'static,
        partitions: usize,
    ) -> Rdd<(K, V)> {
        let f = Arc::new(f);
        let f2 = Arc::clone(&f);
        let agg = Aggregator::new(|v: V| v, move |c, v| f(c, v), move |a, b| f2(a, b), true);
        shuffled_aggregate(self, partitions, agg, "reduce_by_key")
    }

    /// Generalized combiner shuffle (`combineByKey`).
    pub fn combine_by_key<C: Data>(
        &self,
        create: impl Fn(V) -> C + Send + Sync + 'static,
        merge_value: impl Fn(C, V) -> C + Send + Sync + 'static,
        merge_combiners: impl Fn(C, C) -> C + Send + Sync + 'static,
        partitions: usize,
    ) -> Rdd<(K, C)> {
        let agg = Aggregator::new(create, merge_value, merge_combiners, true);
        shuffled_aggregate(self, partitions, agg, "combine_by_key")
    }

    /// Group all values per key (`groupByKey` — no map-side combining, like
    /// Spark, which is why it shuffles so much more than `reduce_by_key`).
    pub fn group_by_key(&self) -> Rdd<(K, Vec<V>)> {
        self.group_by_key_with_partitions(self.num_partitions())
    }

    /// `group_by_key` with an explicit partition count.
    pub fn group_by_key_with_partitions(&self, partitions: usize) -> Rdd<(K, Vec<V>)> {
        let agg = Aggregator::new(
            |v: V| vec![v],
            |mut c: Vec<V>, v| {
                c.push(v);
                c
            },
            |mut a: Vec<V>, mut b| {
                a.append(&mut b);
                a
            },
            false,
        );
        shuffled_aggregate(self, partitions, agg, "group_by_key")
    }

    /// Re-bucket by key hash without aggregation (`partitionBy`).
    pub fn partition_by(&self, partitions: usize) -> Rdd<(K, V)> {
        shuffled_plain(
            self,
            Arc::new(HashPartitioner::new(partitions)),
            None,
            "partition_by",
        )
    }

    /// Transform values, keeping keys and partitioning.
    pub fn map_values<W: Data>(&self, f: impl Fn(&V) -> W + Send + Sync + 'static) -> Rdd<(K, W)> {
        self.map(move |(k, v)| (k.clone(), f(v)))
    }

    /// Transform values with a cost hint.
    pub fn map_values_with_cost<W: Data>(
        &self,
        f: impl Fn(&V) -> W + Send + Sync + 'static,
        cost: OpCost,
    ) -> Rdd<(K, W)> {
        self.map_with_cost(move |(k, v)| (k.clone(), f(v)), cost)
    }

    /// The keys.
    pub fn keys(&self) -> Rdd<K> {
        self.map(|(k, _)| k.clone())
    }

    /// The values.
    pub fn values(&self) -> Rdd<V> {
        self.map(|(_, v)| v.clone())
    }

    /// Inner join (via `cogroup`).
    pub fn join<W: Data>(&self, other: &Rdd<(K, W)>, partitions: usize) -> Rdd<(K, (V, W))> {
        self.cogroup(other, partitions).flat_map(|(k, (vs, ws))| {
            let mut out = Vec::with_capacity(vs.len() * ws.len());
            for v in vs {
                for w in ws {
                    out.push((k.clone(), (v.clone(), w.clone())));
                }
            }
            out
        })
    }
}

impl<T: Key> Rdd<T> {
    /// Remove duplicates (shuffle-based, like Spark's `distinct`).
    pub fn distinct(&self) -> Rdd<T> {
        self.map(|t| (t.clone(), ())).reduce_by_key(|a, _| a).keys()
    }
}

impl<T: Key> Rdd<T> {
    /// Records of `self` that do not appear in `other` (`subtract`),
    /// de-duplicated like Spark's set semantics for key-only subtraction.
    pub fn subtract(&self, other: &Rdd<T>) -> Rdd<T> {
        let partitions = self.num_partitions().max(1);
        self.map(|t| (t.clone(), ()))
            .cogroup(&other.map(|t| (t.clone(), ())), partitions)
            .flat_map(|(k, (mine, theirs))| {
                if !mine.is_empty() && theirs.is_empty() {
                    vec![k.clone()]
                } else {
                    vec![]
                }
            })
    }

    /// Distinct records present in both RDDs (`intersection`).
    pub fn intersection(&self, other: &Rdd<T>) -> Rdd<T> {
        let partitions = self.num_partitions().max(1);
        self.map(|t| (t.clone(), ()))
            .cogroup(&other.map(|t| (t.clone(), ())), partitions)
            .flat_map(|(k, (mine, theirs))| {
                if !mine.is_empty() && !theirs.is_empty() {
                    vec![k.clone()]
                } else {
                    vec![]
                }
            })
    }
}
