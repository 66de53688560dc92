//! The aggregating shuffles return their records in a pinned *order*, not
//! just as a pinned set.
//!
//! `collect()` hands back each reduce partition's table in `into_iter()`
//! order, and the workloads fold checksums over it, so table layout is part
//! of the answer. The oracle below is the engine's aggregation as it was
//! before keys carried their hash: `HashMap<K, C, DetHasher>`,
//! `HashPartitioner::partition`, `remove` + `insert`, `into_iter().collect()`.
//! The engine must return the same `Vec`; the two near-misses a rewrite is
//! tempted by (updating in place, pre-sizing the tables) must not.

use sparklite::shuffle::{DetHasher, HashPartitioner, Partitioner};
use sparklite::{Data, Key, Rdd, SparkConf, SparkContext};
use std::collections::HashMap;

/// How the oracle's tables are built and updated.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Tables {
    /// The reference: empty tables, `remove` then `insert`.
    RemoveInsert,
    /// Wrong: a present key is updated where it sits (what `entry()` does).
    InPlace,
    /// Wrong: tables start with room for every record.
    PreSized,
}

/// The combiner triple over `u64` values.
struct Agg<C> {
    create: fn(u64) -> C,
    merge_value: fn(C, u64) -> C,
    merge_combiners: fn(C, C) -> C,
    map_side_combine: bool,
}

fn table<K: Key, C>(how: Tables, room: usize) -> HashMap<K, C, DetHasher> {
    match how {
        Tables::PreSized => HashMap::with_capacity_and_hasher(room, DetHasher::default()),
        _ => HashMap::default(),
    }
}

fn upsert<K: Key, C: Default>(
    how: Tables,
    map: &mut HashMap<K, C, DetHasher>,
    k: &K,
    fold: impl FnOnce(Option<C>) -> C,
) {
    if how == Tables::InPlace {
        if let Some(slot) = map.get_mut(k) {
            *slot = fold(Some(std::mem::take(slot)));
            return;
        }
    }
    let merged = fold(map.remove(k));
    map.insert(k.clone(), merged);
}

/// What `collect()` returned for `parts` (one `Vec` per map partition)
/// aggregated into `reduces` partitions, before the carried hash.
fn oracle<K: Key, C: Data + Default>(
    parts: &[Vec<(K, u64)>],
    reduces: usize,
    agg: &Agg<C>,
    how: Tables,
) -> Vec<(K, C)> {
    let partitioner = HashPartitioner::new(reduces);
    // shuffled[map][reduce]: combined on the map side, or raw.
    let mut combined: Vec<Vec<Vec<(K, C)>>> = Vec::new();
    let mut raw: Vec<Vec<Vec<(K, u64)>>> = Vec::new();
    for input in parts {
        if agg.map_side_combine {
            let mut buckets: Vec<HashMap<K, C, DetHasher>> =
                (0..reduces).map(|_| table(how, input.len())).collect();
            for (k, v) in input {
                let b = partitioner.partition(k);
                upsert(how, &mut buckets[b], k, |c| match c {
                    Some(c) => (agg.merge_value)(c, *v),
                    None => (agg.create)(*v),
                });
            }
            combined.push(
                buckets
                    .into_iter()
                    .map(|m| m.into_iter().collect())
                    .collect(),
            );
        } else {
            let mut buckets: Vec<Vec<(K, u64)>> = (0..reduces).map(|_| Vec::new()).collect();
            for (k, v) in input {
                buckets[partitioner.partition(k)].push((k.clone(), *v));
            }
            raw.push(buckets);
        }
    }
    let records: usize = parts.iter().map(Vec::len).sum();
    let mut out = Vec::new();
    for r in 0..reduces {
        let mut map: HashMap<K, C, DetHasher> = table(how, records);
        for m in 0..parts.len() {
            if agg.map_side_combine {
                for (k, c) in &combined[m][r] {
                    upsert(how, &mut map, k, |acc| match acc {
                        Some(acc) => (agg.merge_combiners)(acc, c.clone()),
                        None => c.clone(),
                    });
                }
            } else {
                for (k, v) in &raw[m][r] {
                    upsert(how, &mut map, k, |acc| match acc {
                        Some(acc) => (agg.merge_value)(acc, *v),
                        None => (agg.create)(*v),
                    });
                }
            }
        }
        out.extend(map);
    }
    out
}

// The three operators' combiners. The folds are order-sensitive, so a
// combiner built in another order shows as well as a record placed in one.
fn fold(a: u64, b: u64) -> u64 {
    a.wrapping_mul(31).wrapping_add(b)
}
fn push(mut c: Vec<u64>, v: u64) -> Vec<u64> {
    c.push(v);
    c
}
fn append(mut a: Vec<u64>, mut b: Vec<u64>) -> Vec<u64> {
    a.append(&mut b);
    a
}
const REDUCE: Agg<u64> = Agg {
    create: |v| v,
    merge_value: fold,
    merge_combiners: fold,
    map_side_combine: true,
};
const COMBINE: Agg<Vec<u64>> = Agg {
    create: |v| vec![v],
    merge_value: push,
    merge_combiners: append,
    map_side_combine: true,
};
const GROUP: Agg<Vec<u64>> = Agg {
    create: |v| vec![v],
    merge_value: push,
    merge_combiners: append,
    map_side_combine: false,
};

const MAP_PARTS: usize = 4;
const RECORDS_PER_PART: usize = 6_000;
const UNIVERSE: u64 = 1_000;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Four map partitions of `(key(rank), value)`: ranks are drawn with a
/// quadratic skew over `UNIVERSE`, so the head repeats hundreds of times
/// while every table still takes in enough distinct keys to double at
/// least five times on its way up from empty.
fn multiset<K: Key>(seed: u64, key: fn(u64) -> K) -> Vec<Vec<(K, u64)>> {
    let mut state = seed;
    (0..MAP_PARTS)
        .map(|_| {
            (0..RECORDS_PER_PART)
                .map(|_| {
                    let u = (splitmix(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
                    let rank = (u * u * UNIVERSE as f64) as u64;
                    (key(rank), splitmix(&mut state) % 1_000)
                })
                .collect()
        })
        .collect()
}

fn u64_key(rank: u64) -> u64 {
    rank.wrapping_mul(0x2545_F491_4F6C_DD1D)
}
fn pair_key(rank: u64) -> (u32, u16) {
    ((rank / 20) as u32, (rank % 20) as u16)
}
fn string_key(rank: u64) -> String {
    format!("w{rank:x}{}", "-".repeat(rank as usize % 11))
}

fn source<K: Key>(sc: &SparkContext, parts: &[Vec<(K, u64)>]) -> Rdd<(K, u64)> {
    let parts = parts.to_vec();
    sc.generate(
        parts.len(),
        move |p| parts[p].clone(),
        sparklite::OpCost::cpu(1.0),
    )
}

/// The engine's three answers for `parts` at `reduces` partitions.
#[allow(clippy::type_complexity)]
fn engine<K: Key>(
    parts: &[Vec<(K, u64)>],
    reduces: usize,
) -> (Vec<(K, u64)>, Vec<(K, Vec<u64>)>, Vec<(K, Vec<u64>)>) {
    let sc = SparkContext::new(SparkConf::default().with_parallelism(MAP_PARTS)).unwrap();
    let rdd = source(&sc, parts);
    (
        rdd.reduce_by_key_with_partitions(fold, reduces)
            .collect()
            .unwrap(),
        rdd.combine_by_key(|v| vec![v], push, append, reduces)
            .collect()
            .unwrap(),
        rdd.group_by_key_with_partitions(reduces).collect().unwrap(),
    )
}

fn check_key_type<K: Key + std::fmt::Debug>(key: fn(u64) -> K) {
    for seed in [1, 7, 42] {
        let parts = multiset(seed, key);
        for reduces in [1, 7] {
            // Smallest map-side table: ≥ 57 keys is ≥ 128 buckets, five
            // doublings from the first allocation of 4.
            let partitioner = HashPartitioner::new(reduces);
            for input in &parts {
                let mut distinct = vec![std::collections::HashSet::new(); reduces];
                for (k, _) in input {
                    distinct[partitioner.partition(k)].insert(k.clone());
                }
                assert!(distinct.iter().all(|d| d.len() >= 57), "input too thin");
            }
            let (reduced, combined, grouped) = engine(&parts, reduces);
            let how = Tables::RemoveInsert;
            assert_eq!(
                reduced,
                oracle(&parts, reduces, &REDUCE, how),
                "reduce_by_key, seed {seed}, {reduces} partitions"
            );
            assert_eq!(
                combined,
                oracle(&parts, reduces, &COMBINE, how),
                "combine_by_key, seed {seed}, {reduces} partitions"
            );
            assert_eq!(
                grouped,
                oracle(&parts, reduces, &GROUP, how),
                "group_by_key, seed {seed}, {reduces} partitions"
            );
        }
    }
}

#[test]
fn u64_keys_come_back_in_the_reference_order() {
    check_key_type(u64_key);
}

#[test]
fn tuple_keys_come_back_in_the_reference_order() {
    check_key_type(pair_key);
}

#[test]
fn string_keys_come_back_in_the_reference_order() {
    check_key_type(string_key);
}

/// The comparison above has teeth: the same records through tables that are
/// updated in place, or pre-sized, come back as the same set in another
/// order — so an engine rewritten either way fails the tests above.
#[test]
fn near_miss_tables_reorder_the_output() {
    let parts = multiset(42, u64_key);
    for reduces in [1, 7] {
        for (name, differs) in [
            (
                "reduce_by_key",
                near_misses_differ(&parts, reduces, &REDUCE),
            ),
            (
                "combine_by_key",
                near_misses_differ(&parts, reduces, &COMBINE),
            ),
            ("group_by_key", near_misses_differ(&parts, reduces, &GROUP)),
        ] {
            assert!(
                differs,
                "{name} at {reduces} partitions cannot tell a near miss"
            );
        }
    }
}

/// Whether both wrong table disciplines give the reference's records in a
/// different order.
fn near_misses_differ<C: Data + Default + PartialEq + Ord>(
    parts: &[Vec<(u64, u64)>],
    reduces: usize,
    agg: &Agg<C>,
) -> bool {
    let reference = oracle(parts, reduces, agg, Tables::RemoveInsert);
    let mut sorted_reference = reference.clone();
    sorted_reference.sort();
    [Tables::InPlace, Tables::PreSized].into_iter().all(|how| {
        let got = oracle(parts, reduces, agg, how);
        let mut sorted = got.clone();
        sorted.sort();
        sorted == sorted_reference && got != reference
    })
}
