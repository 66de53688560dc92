//! `lda` — Latent Dirichlet Allocation by EM over a word×topic table.
//!
//! Table II: 2 000/5 000/10 000 docs, vocab 1 000/2 000/3 000, topics
//! 10/20/30. Docs scaled ~1/10. Each EM iteration's M-step rebuilds the
//! whole word×topic count table through a wide aggregation keyed by
//! `(word, topic)` — for the large profile that is 90 000 hot counters
//! being *written* every iteration, which is exactly the write-heavy access
//! mix the paper blames for lda-large's blow-up on Optane (Takeaway 3: the
//! DCPM write asymmetry bites hardest here).

use crate::gen::{rng_for, zipf::Zipf};
use crate::suite::{Category, DataSize, Workload, WorkloadOutput};
use rand::Rng;
use sparklite::error::Result;
use sparklite::{MemSize, OpCost, SparkContext};
use std::cmp::Ordering;
use std::collections::HashMap;

/// (docs, vocabulary, topics, words per doc).
fn profile(size: DataSize) -> (usize, usize, usize, usize) {
    match size {
        DataSize::Tiny => (200, 1_000, 10, 50),
        DataSize::Small => (500, 2_000, 20, 60),
        DataSize::Large => (1_000, 3_000, 30, 80),
    }
}

/// EM iterations.
const ITERATIONS: usize = 6;

/// Marks a `(word, topic)` cell no emission has reached; every stored weight
/// is strictly positive.
const ABSENT: f64 = -1.0;

/// The word×topic model as a dense row-major `vocab × topics` table.
///
/// Iteration is ascending `(word, topic)`, so every `f64` sum over the model
/// is a function of its contents alone — the `RandomState` map this replaced
/// summed in per-instance hash order and moved the normalized table at the
/// last ulp from run to run.
struct TopicTable {
    topics: usize,
    cells: Vec<f64>,
    present: usize,
}

impl TopicTable {
    fn new(vocab: usize, topics: usize) -> Self {
        TopicTable {
            topics,
            cells: vec![ABSENT; vocab * topics],
            present: 0,
        }
    }

    fn set(&mut self, w: u32, t: u16, v: f64) {
        let cell = &mut self.cells[w as usize * self.topics + t as usize];
        if *cell == ABSENT {
            self.present += 1;
        }
        *cell = v;
    }

    /// Present cells as `((word, topic), weight)`, ascending.
    fn iter(&self) -> impl Iterator<Item = ((u32, u16), f64)> + '_ {
        let topics = self.topics;
        self.cells
            .iter()
            .enumerate()
            .filter(|&(_, &v)| v != ABSENT)
            .map(move |(i, &v)| (((i / topics) as u32, (i % topics) as u16), v))
    }

    /// `phi(w, t)`, with the smoothing floor for a cell no emission reached.
    fn phi(&self, w: u32, t: usize) -> f64 {
        match self.cells[w as usize * self.topics + t] {
            v if v == ABSENT => 1e-6,
            v => v,
        }
    }
}

impl MemSize for TopicTable {
    /// What the sparse `(word, topic) -> weight` map it models occupies, so
    /// broadcast traffic is priced by the present entries, not by the dense
    /// backing store.
    fn mem_size(&self) -> usize {
        std::mem::size_of::<HashMap<(u32, u16), f64>>() + 14 * self.present
    }
}

/// The indices of the two largest entries of `resp`, strongest first — what
/// a stable descending sort of the indices puts in front: among equals the
/// lowest index wins, and the runner-up is the lowest index among the maxima
/// of the rest. `None` second when there is one topic.
///
/// # Panics
/// Panics on a NaN, like the sort's comparator did.
fn top_two(resp: &[f64]) -> (usize, Option<usize>) {
    let beats = |a: usize, b: usize| {
        resp[a]
            .partial_cmp(&resp[b])
            .expect("responsibilities are never NaN")
            == Ordering::Greater
    };
    let (mut first, mut second) = (0, None);
    for t in 1..resp.len() {
        if beats(t, first) {
            second = Some(first);
            first = t;
        } else if second.is_none_or(|s| beats(t, s)) {
            second = Some(t);
        }
    }
    (first, second)
}

/// The LDA workload.
pub struct Lda;

impl Workload for Lda {
    fn name(&self) -> &'static str {
        "lda"
    }

    fn category(&self) -> Category {
        Category::MachineLearning
    }

    fn data_description(&self, size: DataSize) -> String {
        let (docs, vocab, topics, wpd) = profile(size);
        format!("{docs} docs, vocab {vocab}, {topics} topics, {wpd} words/doc")
    }

    fn run(&self, sc: &SparkContext, size: DataSize, seed: u64) -> Result<WorkloadOutput> {
        let (n_docs, vocab, topics, wpd) = profile(size);
        let partitions = sc.conf().parallelism();
        let per_part = n_docs.div_ceil(partitions);

        // Documents with planted topic structure: each doc mixes two true
        // topics whose vocabularies live in disjoint Zipf-shifted regions.
        let zipf = Zipf::new(vocab / topics, 1.1);
        let docs = sc
            .generate(
                partitions,
                move |part| {
                    let mut rng = rng_for(seed, part);
                    let lo = part * per_part;
                    let hi = (lo + per_part).min(n_docs);
                    (lo..hi)
                        .map(|doc| {
                            let t1 = doc % topics;
                            let t2 = (doc * 7 + 3) % topics;
                            let words: Vec<u32> = (0..wpd)
                                .map(|_| {
                                    let t = if rng.gen::<f64>() < 0.6 { t1 } else { t2 };
                                    (t * (vocab / topics) + zipf.sample(&mut rng)) as u32
                                })
                                .collect();
                            (doc as u32, words)
                        })
                        .collect::<Vec<(u32, Vec<u32>)>>()
                },
                OpCost::cpu(100.0),
            )
            .cache();
        docs.count()?;

        // word_topic[(word, topic)] -> weight. Initialized deterministically.
        let mut word_topic = TopicTable::new(vocab, topics);
        for w in 0..vocab as u32 {
            for t in 0..topics as u16 {
                let h = super::fnv_fold(seed, &[(w & 0xff) as u8, (w >> 8) as u8, t as u8]);
                word_topic.set(w, t, 0.5 + (h % 100) as f64 / 100.0);
            }
        }

        let mut checksum = 0u64;
        for _iter in 0..ITERATIONS {
            // E-step + M-step fused: each doc soft-assigns its words to
            // topics given the current table, emitting ((word, topic),
            // responsibility); the wide aggregation rebuilds the table.
            // Per-topic normalization: phi-hat(w, t) = phi(w, t) / total_t,
            // otherwise heavy topics swallow every theta and EM collapses.
            let mut topic_totals = vec![0.0f64; topics];
            for ((_, t), v) in word_topic.iter() {
                topic_totals[t as usize] += v;
            }
            let mut normalized = TopicTable::new(vocab, topics);
            for ((w, t), v) in word_topic.iter() {
                normalized.set(w, t, v / topic_totals[t as usize].max(1e-12));
            }
            // The table ships to executors as a broadcast variable: each
            // task pays an amortized fetch of the serialized table, exactly
            // like Spark's TorrentBroadcast of the LDA model.
            let table = sc.broadcast(normalized);
            let t_topics = topics;
            let contributions = docs
                .map_partitions_with_env(move |_, items, env| {
                    let table = table.value(env);
                    // Traffic scales with emissions; the closure CPU is
                    // charged separately per input record (flat_map
                    // semantics).
                    let per_emit = OpCost::cpu(0.0)
                        .with_reads(2.2)
                        .with_writes(0.08 * t_topics as f64);
                    let mut out = Vec::new();
                    // Refilled per document and per word, never reallocated.
                    let mut theta = vec![0.0f64; t_topics];
                    let mut acc = vec![0.0f64; t_topics];
                    let mut resp = vec![0.0f64; t_topics];
                    for (_, words) in items {
                        // Doc-level topic proportions: a short inner EM
                        // (proper variational theta, not a one-shot guess).
                        theta.fill(1.0f64 / t_topics as f64);
                        for _ in 0..3 {
                            acc.fill(0.02f64);
                            for &w in words.iter() {
                                for (t, r) in resp.iter_mut().enumerate() {
                                    *r = theta[t] * table.phi(w, t);
                                }
                                let rs: f64 = resp.iter().sum();
                                if rs > 0.0 {
                                    for (a, r) in acc.iter_mut().zip(&resp) {
                                        *a += r / rs;
                                    }
                                }
                            }
                            let s: f64 = acc.iter().sum();
                            for (th, a) in theta.iter_mut().zip(&acc) {
                                *th = a / s;
                            }
                        }
                        // Word-level responsibilities.
                        for &w in words.iter() {
                            // Annealed sharpening (square-and-renormalize)
                            // accelerates symmetry breaking in few-iteration
                            // EM runs.
                            for (t, r) in resp.iter_mut().enumerate() {
                                let p = theta[t] * table.phi(w, t);
                                *r = p * p;
                            }
                            let rs: f64 = resp.iter().sum();
                            for r in &mut resp {
                                *r /= rs.max(1e-12);
                            }
                            // Emit only the two strongest responsibilities
                            // (sparse EM), like practical LDA implementations.
                            let (first, second) = top_two(&resp);
                            for t in std::iter::once(first).chain(second) {
                                out.push(((w, t as u16), resp[t]));
                            }
                        }
                    }
                    // The E-step walks the big table per word (read-heavy);
                    // the M-step update traffic scales with the topic count —
                    // lda-large's 30 topics make it the suite's most
                    // write-intensive workload, which is what blows it up on
                    // DCPM (Takeaway 3). Charged per emission, like the
                    // flat_map operator does.
                    env.charge_op(out.len() as u64, &per_emit);
                    env.charge_cpu_ns(
                        items.len() as f64 * 60.0
                            + out.len() as f64 * env.rt.cost.per_record_ns * 0.25,
                    );
                    out
                })
                .reduce_by_key(|a, b| a + b);
            let new_table = contributions.collect()?;
            word_topic = TopicTable::new(vocab, topics);
            for &((w, t), v) in &new_table {
                word_topic.set(w, t, v + 0.01);
            }
            // Driver-side M-step finalization: renormalizing the full
            // word×topic table is serial work on the driver (as in MLlib's
            // EM-LDA driver aggregation) and dominates LDA's runtime — which
            // is why the paper finds lda insensitive to the executor grid.
            sc.run_driver_work((vocab * topics) as f64 * 150.0);
            checksum = new_table.iter().fold(checksum, |acc, ((w, t), v)| {
                super::fnv_fold(acc, &[*w as u8, *t as u8, (v * 10.0) as u8])
            });
        }

        // Quality: permutation-invariant topic coherence — EM recovers
        // topics up to relabeling, so for each learned topic we take the
        // *dominant* planted region's share of its top-10 words and average.
        // Chance level is 1/topics.
        let region = vocab / topics;
        let mut coherence_sum = 0.0;
        for t in 0..topics as u16 {
            let mut words: Vec<(u32, f64)> = word_topic
                .iter()
                .filter(|&((_, wt), _)| wt == t)
                .map(|((w, _), v)| (w, v))
                .collect();
            words.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
            let top: Vec<u32> = words.iter().take(10).map(|&(w, _)| w).collect();
            if top.is_empty() {
                continue;
            }
            let mut region_counts = vec![0usize; topics];
            for &w in &top {
                region_counts[((w as usize) / region).min(topics - 1)] += 1;
            }
            coherence_sum += *region_counts.iter().max().unwrap() as f64 / top.len() as f64;
        }
        let coherence = coherence_sum / topics as f64;

        Ok(WorkloadOutput {
            output_records: word_topic.present as u64,
            checksum,
            quality: coherence,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparklite::SparkConf;

    #[test]
    fn top_two_is_a_stable_descending_sort_cut_at_two() {
        let cases: [&[f64]; 8] = [
            &[0.25, 0.25, 0.25, 0.25], // all equal
            &[0.1, 0.4, 0.4, 0.1],     // maximum duplicated
            &[0.5, 0.2, 0.1, 0.2],     // runner-up duplicated
            &[0.2, 0.5, 0.2],          // runner-up on both sides
            &[0.1, 0.2, 0.3, 0.4],     // ascending
            &[0.4, 0.3, 0.2, 0.1],     // descending
            &[0.0, 0.0, 1.0, 0.0, 1.0, 0.5],
            &[1.0], // one topic
        ];
        for resp in cases {
            let mut idx: Vec<usize> = (0..resp.len()).collect();
            idx.sort_by(|&a, &b| resp[b].partial_cmp(&resp[a]).unwrap());
            let (first, second) = top_two(resp);
            let got: Vec<usize> = std::iter::once(first).chain(second).collect();
            assert_eq!(got, idx[..2.min(resp.len())], "{resp:?}");
        }
    }

    #[test]
    #[should_panic(expected = "never NaN")]
    fn top_two_refuses_to_order_a_nan() {
        top_two(&[0.3, f64::NAN, 0.1]);
    }

    #[test]
    fn topics_align_with_planted_regions() {
        let sc = SparkContext::new(SparkConf::default().with_parallelism(4)).unwrap();
        let out = Lda.run(&sc, DataSize::Tiny, 13).unwrap();
        assert!(out.output_records > 0);
        // Chance coherence is 1/topics = 0.1; EM should beat it clearly.
        assert!(
            out.quality > 0.4,
            "topic coherence too low: {}",
            out.quality
        );
    }
}
