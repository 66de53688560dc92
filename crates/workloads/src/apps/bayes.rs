//! `bayes` — multinomial naive Bayes training.
//!
//! Table II: 25 000 / 30 000 / 100 000 pages with 10/100/100 classes.
//! Scaled ~1/12. The dataflow follows HiBench's Bayes: tokenize pages,
//! count `(class, word)` occurrences with a wide aggregation whose state is
//! the full vocabulary×class table — far beyond cache residency for the
//! larger profiles, which is what makes `bayes` one of the paper's
//! access-heavy, strongly tier-sensitive applications (and the one whose
//! system-level events correlate almost linearly with runtime, Fig. 5).

use crate::gen::{rng_for, zipf::Zipf};
use crate::suite::{Category, DataSize, Workload, WorkloadOutput};
use rand::Rng;
use sparklite::error::Result;
use sparklite::{OpCost, SparkContext};
use std::sync::Arc;

/// (pages, classes, vocabulary, words per page).
fn profile(size: DataSize) -> (usize, usize, usize, usize) {
    match size {
        DataSize::Tiny => (400, 10, 2_000, 40),
        DataSize::Small => (2_500, 20, 12_000, 60),
        DataSize::Large => (8_000, 20, 40_000, 80),
    }
}

/// The naive Bayes workload.
pub struct Bayes;

impl Workload for Bayes {
    fn name(&self) -> &'static str {
        "bayes"
    }

    fn category(&self) -> Category {
        Category::MachineLearning
    }

    fn data_description(&self, size: DataSize) -> String {
        let (pages, classes, vocab, wpp) = profile(size);
        format!("{pages} pages, {classes} classes, vocab {vocab}, {wpp} words/page")
    }

    fn run(&self, sc: &SparkContext, size: DataSize, seed: u64) -> Result<WorkloadOutput> {
        let (pages, classes, vocab, wpp) = profile(size);
        let partitions = sc.conf().parallelism();
        let per_part = pages.div_ceil(partitions);

        // Pages: (class, word ids). Class-conditional vocabularies are
        // shifted Zipf heads so classes are actually separable. One sampler
        // table serves every partition and the held-out sample below.
        let zipf = Arc::new(Zipf::new(vocab, 1.05));
        let page_zipf = Arc::clone(&zipf);
        let docs = sc.generate(
            partitions,
            move |part| {
                let mut rng = rng_for(seed, part);
                let lo = part * per_part;
                let hi = (lo + per_part).min(pages);
                (lo..hi)
                    .map(|page| {
                        let class = (page % classes) as u32;
                        let words: Vec<u32> = (0..wpp)
                            .map(|_| {
                                let base = page_zipf.sample(&mut rng);
                                // Shift a third of the mass into a
                                // class-specific region of the vocabulary.
                                if rng.gen::<f64>() < 0.33 {
                                    ((base + class as usize * 31) % vocab) as u32
                                } else {
                                    base as u32
                                }
                            })
                            .collect();
                        (class, words)
                    })
                    .collect::<Vec<(u32, Vec<u32>)>>()
            },
            OpCost::cpu(90.0),
        );

        // Count (class, word) occurrences: the big aggregation.
        let class_word_counts = docs
            .flat_map_with_cost(
                |(class, words)| {
                    words
                        .iter()
                        .map(|&w| ((*class, w), 1u64))
                        .collect::<Vec<((u32, u32), u64)>>()
                },
                OpCost::cpu(30.0).with_reads(1.0),
            )
            .reduce_by_key(|a, b| a + b);

        // Per-class totals and priors.
        let class_totals = class_word_counts
            .map(|((c, _), n)| (*c, *n))
            .reduce_by_key(|a, b| a + b);
        let totals: std::collections::HashMap<u32, u64> =
            class_totals.collect()?.into_iter().collect();
        let class_docs = docs.map(|(c, _)| (*c, 1u64)).reduce_by_key(|a, b| a + b);
        let priors: std::collections::HashMap<u32, u64> =
            class_docs.collect()?.into_iter().collect();

        // Laplace-smoothed log-probabilities (the trained model).
        let v = vocab as f64;
        let totals_cl = totals.clone();
        let model = class_word_counts.map_with_cost(
            move |((c, w), n)| {
                let t = *totals_cl.get(c).unwrap_or(&0) as f64;
                ((*c, *w), ((*n as f64 + 1.0) / (t + v)).ln())
            },
            OpCost::cpu(40.0),
        );
        let trained = model.collect()?;

        // Quality: classify a held-out sample generated the same way and
        // report accuracy. Chance level is 1/classes.
        let table: std::collections::HashMap<(u32, u32), f64> = trained.iter().cloned().collect();
        let n_docs: u64 = priors.values().sum();
        let mut rng = rng_for(seed ^ 0x7E57, 0);
        let mut correct = 0usize;
        const HELD_OUT: usize = 200;
        for i in 0..HELD_OUT {
            let truth = (i % classes) as u32;
            let words: Vec<u32> = (0..wpp)
                .map(|_| {
                    let base = zipf.sample(&mut rng);
                    if rng.gen::<f64>() < 0.33 {
                        ((base + truth as usize * 31) % vocab) as u32
                    } else {
                        base as u32
                    }
                })
                .collect();
            let scores: Vec<f64> = (0..classes as u32)
                .map(|c| {
                    let prior = (*priors.get(&c).unwrap_or(&1) as f64 / n_docs as f64).ln();
                    prior
                        + words
                            .iter()
                            .map(|&w| {
                                table.get(&(c, w)).copied().unwrap_or_else(|| {
                                    (1.0 / (*totals.get(&c).unwrap_or(&0) as f64 + v)).ln()
                                })
                            })
                            .sum::<f64>()
                })
                .collect();
            let best = (0..classes)
                .max_by(|&a, &b| scores[a].partial_cmp(&scores[b]).unwrap())
                .unwrap() as u32;
            if best == truth {
                correct += 1;
            }
        }

        let checksum = trained.iter().fold(0u64, |acc, ((c, w), p)| {
            super::fnv_fold(acc, &[*c as u8, *w as u8, (p * -10.0) as u8])
        });
        Ok(WorkloadOutput {
            output_records: trained.len() as u64,
            checksum,
            quality: correct as f64 / HELD_OUT as f64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparklite::SparkConf;

    #[test]
    fn trains_a_better_than_chance_model() {
        let sc = SparkContext::new(SparkConf::default().with_parallelism(8)).unwrap();
        let out = Bayes.run(&sc, DataSize::Tiny, 5).unwrap();
        assert!(out.output_records > 1000, "model must cover the vocabulary");
        // 10 classes -> chance is 0.1; the planted signal should lift it.
        assert!(
            out.quality > 0.5,
            "classifier barely better than chance: {}",
            out.quality
        );
    }
}
