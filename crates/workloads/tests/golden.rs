//! Answers pinned across commits: `(output_records, checksum,
//! quality.to_bits())` of every app at `Tiny`, seed 42, parallelism 8.
//!
//! The other tests compare two runs of one binary; a change that reorders a
//! `collect()` or moves a generated record passes those and fails here. The
//! literals were recorded at the commit before the carried-hash shuffle
//! tables, the allocation-free LDA E-step and the per-run sampler tables
//! landed. A deliberate model change re-records them (run with
//! `-- --nocapture` to print the current triples) and says so.

use memtier_workloads::{workload_by_name, DataSize};
use sparklite::{SparkConf, SparkContext};

const GOLDEN: [(&str, u64, u64, u64); 7] = [
    ("sort", 500, 0x77550aa9db22bf86, 0x0000000000000000),
    ("repartition", 100, 0x840db94a27535c61, 0x3ff999999999999a),
    ("als", 88, 0x9a32872bebca9531, 0x3fa938d11d9f8187),
    ("bayes", 5317, 0xb6fcff7b18d3eb1c, 0x3fedc28f5c28f5c3),
    ("rf", 56, 0x107fb258bff0da48, 0x3fe3d70a3d70a3d7),
    ("lda", 2185, 0x07c25e6a4aaafc7b, 0x3fe23d70a3d70a3d),
    ("pagerank", 46, 0xcfc821f378428d4b, 0x3feea0416b045ada),
];

#[test]
fn tiny_answers_match_the_recorded_literals() {
    let mut wrong = Vec::new();
    for (app, records, checksum, quality_bits) in GOLDEN {
        let sc = SparkContext::new(SparkConf::default().with_parallelism(8)).unwrap();
        let out = workload_by_name(app)
            .unwrap()
            .run(&sc, DataSize::Tiny, 42)
            .unwrap();
        let got = (out.output_records, out.checksum, out.quality.to_bits());
        println!(
            "    (\"{app}\", {}, {:#018x}, {:#018x}),",
            got.0, got.1, got.2
        );
        if got != (records, checksum, quality_bits) {
            wrong.push(app);
        }
    }
    assert!(wrong.is_empty(), "answers moved: {wrong:?}");
}
