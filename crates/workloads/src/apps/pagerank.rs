//! `pagerank` — the classic cached-links power iteration.
//!
//! Table II: 50 / 5 000 / 500 000 pages (large scaled 1/20 → 25 000).
//! The dataflow is Spark's canonical PageRank: links are hash-partitioned
//! once and cached; every iteration joins ranks against them, fans
//! contributions out along edges and aggregates with `reduce_by_key`. The
//! per-iteration join + aggregation state makes this the paper's most
//! access-intensive websearch workload, while the `tiny`/`small` profiles
//! are small enough to be tier-tolerant (Fig. 2's pagerank-tiny/small
//! observation).

use crate::gen::LinkGen;
use crate::suite::{Category, DataSize, Workload, WorkloadOutput};
use sparklite::error::Result;
use sparklite::{OpCost, SparkContext};

/// Pages per profile.
fn pages(size: DataSize) -> u64 {
    match size {
        DataSize::Tiny => 50,
        DataSize::Small => 5_000,
        DataSize::Large => 25_000,
    }
}

/// Power iterations.
const ITERATIONS: usize = 5;
/// Damping factor.
const DAMPING: f64 = 0.85;
/// Maximum out-degree of the generator.
const MAX_DEGREE: usize = 10;

/// The PageRank workload.
pub struct PageRank;

impl Workload for PageRank {
    fn name(&self) -> &'static str {
        "pagerank"
    }

    fn category(&self) -> Category {
        Category::WebSearch
    }

    fn data_description(&self, size: DataSize) -> String {
        format!(
            "{} pages, ≤{MAX_DEGREE} out-links, {ITERATIONS} iterations",
            pages(size)
        )
    }

    fn run(&self, sc: &SparkContext, size: DataSize, seed: u64) -> Result<WorkloadOutput> {
        let n = pages(size);
        let partitions = sc.conf().parallelism();
        let per_part = n.div_ceil(partitions as u64);

        // links: (page, out-neighbours), partitioned once and cached — the
        // canonical Spark pagerank optimization.
        let link_gen = LinkGen::new(n, MAX_DEGREE);
        let links = sc
            .generate(
                partitions,
                move |part| {
                    // More partitions than pages leaves the tail empty.
                    let lo = (part as u64 * per_part).min(n);
                    let hi = (lo + per_part).min(n);
                    link_gen.links(seed, part, lo, hi)
                },
                OpCost::cpu(70.0),
            )
            .group_by_key_with_partitions(partitions)
            .cache();
        links.count()?;

        let mut ranks = links.map_values(move |_| 1.0f64 / n as f64);
        for _ in 0..ITERATIONS {
            let contribs = links
                .join(&ranks, partitions)
                .flat_map_with_cost(
                    |(_, (neighbours, rank))| {
                        let share = *rank / neighbours.len().max(1) as f64;
                        neighbours
                            .iter()
                            .map(|&dst| (dst, share))
                            .collect::<Vec<(u64, f64)>>()
                    },
                    OpCost::cpu(20.0).with_reads(1.0),
                )
                .reduce_by_key(|a, b| a + b);
            let base = (1.0 - DAMPING) / n as f64;
            ranks = contribs.map_values(move |sum| base + DAMPING * sum);
        }

        let final_ranks = ranks.collect()?;
        // Quality: total rank mass over pages that receive links. (Pages
        // with no in-links drop out of `contribs`; their mass re-enters via
        // the damping term of pages that do. Mass stays bounded in (0, 1].)
        let mass: f64 = final_ranks.iter().map(|&(_, r)| r).sum();
        let mut top: Vec<(u64, f64)> = final_ranks.clone();
        top.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        let checksum = top.iter().take(20).fold(0u64, |acc, &(p, r)| {
            super::fnv_fold(acc, &[(p & 0xff) as u8, (r * 1e4) as u8])
        });
        Ok(WorkloadOutput {
            output_records: final_ranks.len() as u64,
            checksum,
            quality: mass,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparklite::SparkConf;

    #[test]
    fn rank_mass_is_conserved_approximately() {
        let sc = SparkContext::new(SparkConf::default().with_parallelism(4)).unwrap();
        let out = PageRank.run(&sc, DataSize::Small, 17).unwrap();
        assert!(out.output_records > 0);
        assert!(
            out.quality > 0.5 && out.quality <= 1.01,
            "rank mass out of range: {}",
            out.quality
        );
    }

    #[test]
    fn hubs_accumulate_rank() {
        let sc = SparkContext::new(SparkConf::default().with_parallelism(4)).unwrap();
        // Two runs with the same seed agree; ranks are skewed toward the
        // preferentially-attached head pages.
        let a = PageRank.run(&sc, DataSize::Tiny, 1).unwrap();
        let sc2 = SparkContext::new(SparkConf::default().with_parallelism(4)).unwrap();
        let b = PageRank.run(&sc2, DataSize::Tiny, 1).unwrap();
        assert_eq!(a.checksum, b.checksum);
    }
}
