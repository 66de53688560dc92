//! Deterministic, seeded data generators (the HiBench data-prep stage).

pub mod graph;
pub mod ratings;
pub mod text;
pub mod zipf;

pub use graph::{generate_links, LinkGen};
pub use ratings::generate_ratings;
pub use text::{random_line, random_word};
pub use zipf::Zipf;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The suite's RNG: seeded ChaCha8, deterministic across platforms.
pub type SuiteRng = ChaCha8Rng;

/// Derive a per-partition RNG from a workload seed.
pub fn rng_for(seed: u64, partition: usize) -> SuiteRng {
    // Golden-ratio mix keeps neighbouring partitions decorrelated.
    SuiteRng::seed_from_u64(seed ^ (partition as u64).wrapping_mul(0x9E3779B97F4A7C15))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn per_partition_rngs_are_deterministic_and_distinct() {
        let a1: u64 = rng_for(1, 0).gen();
        let a2: u64 = rng_for(1, 0).gen();
        let b: u64 = rng_for(1, 1).gen();
        let c: u64 = rng_for(2, 0).gen();
        assert_eq!(a1, a2);
        assert_ne!(a1, b);
        assert_ne!(a1, c);
    }
}
