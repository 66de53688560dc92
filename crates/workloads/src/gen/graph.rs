//! Web-graph generation for `pagerank`.

use crate::gen::rng_for;
use crate::gen::zipf::Zipf;

/// The link generator of one graph: its two sampler tables, built once and
/// shared by every partition of a run.
#[derive(Debug, Clone)]
pub struct LinkGen {
    pages: u64,
    degree_dist: Zipf,
    target_dist: Zipf,
}

impl LinkGen {
    /// A generator for a graph of `pages` pages: out-degrees follow Zipf
    /// over `[1, max_degree]` and targets are preferentially attached (Zipf
    /// over page ids), giving the skewed in-degree distribution real web
    /// graphs (and HiBench's pagerank generator) have.
    ///
    /// # Panics
    /// Panics if `pages == 0`.
    pub fn new(pages: u64, max_degree: usize) -> LinkGen {
        assert!(pages > 0);
        LinkGen {
            pages,
            degree_dist: Zipf::new(max_degree.max(1), 0.8),
            target_dist: Zipf::new(pages as usize, 0.6),
        }
    }

    /// The outgoing links of pages `[lo, hi)`, drawn from `partition`'s
    /// stream of `seed`. Every source page gets at least one link (dangling
    /// sources would leak rank mass in the simple power iteration).
    pub fn links(&self, seed: u64, partition: usize, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        assert!(lo <= hi && hi <= self.pages);
        let mut rng = rng_for(seed, partition);
        let mut links = Vec::new();
        for page in lo..hi {
            let degree = self.degree_dist.sample(&mut rng) + 1;
            for _ in 0..degree {
                let mut target = self.target_dist.sample(&mut rng) as u64;
                if target == page {
                    target = (target + 1) % self.pages;
                }
                links.push((page, target));
            }
        }
        links
    }
}

/// [`LinkGen::new`]`(pages, max_degree).`[`links`](LinkGen::links)`(seed,
/// partition, lo, hi)` in one call, for a caller that generates one range.
pub fn generate_links(
    seed: u64,
    partition: usize,
    lo: u64,
    hi: u64,
    pages: u64,
    max_degree: usize,
) -> Vec<(u64, u64)> {
    LinkGen::new(pages, max_degree).links(seed, partition, lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn links_are_in_range_and_self_loop_free() {
        let links = generate_links(1, 0, 0, 100, 100, 10);
        assert!(!links.is_empty());
        for &(src, dst) in &links {
            assert!(src < 100);
            assert!(dst < 100);
            assert_ne!(src, dst);
        }
    }

    #[test]
    fn every_source_in_range_has_links() {
        let links = generate_links(5, 0, 10, 20, 100, 6);
        let sources: std::collections::HashSet<u64> = links.iter().map(|&(s, _)| s).collect();
        for page in 10..20 {
            assert!(sources.contains(&page), "page {page} has no out-links");
        }
        assert!(links.iter().all(|&(s, _)| (10..20).contains(&s)));
    }

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(
            generate_links(9, 2, 0, 50, 200, 8),
            generate_links(9, 2, 0, 50, 200, 8)
        );
    }

    #[test]
    fn in_degree_is_skewed() {
        let links = generate_links(3, 0, 0, 2000, 2000, 10);
        let mut indeg = vec![0usize; 2000];
        for &(_, d) in &links {
            indeg[d as usize] += 1;
        }
        let mut sorted = indeg.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let top_share: usize = sorted[..20].iter().sum();
        assert!(
            top_share as f64 / links.len() as f64 > 0.05,
            "expected a skewed in-degree head"
        );
    }
}
