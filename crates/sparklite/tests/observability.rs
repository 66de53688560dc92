//! Observability-surface tests: counter sampling, the
//! lifecycle event log, stage rollups, trace export, and MBA control
//! through the context.

use memtier_des::SimTime;
use memtier_memsim::TierId;
use sparklite::{parse_jsonl, to_jsonl, Event, JsonlSink, SparkConf, SparkContext};

fn nvm_ctx() -> SparkContext {
    SparkContext::new(SparkConf::bound_to_tier(TierId::NVM_NEAR)).unwrap()
}

/// A two-stage shuffle workload on the context.
fn run_shuffle_job(sc: &SparkContext) {
    sc.parallelize((0u64..30_000).map(|i| (i % 50, i)).collect::<Vec<_>>(), 16)
        .reduce_by_key(|a, b| a + b)
        .count()
        .unwrap();
}

#[test]
fn mba_through_context_throttles_streaming() {
    // A deliberately bandwidth-hungry pattern: wide sequential collect of
    // large partitions on the slowest tier.
    let run = |pct: u8| {
        let sc = SparkContext::new(SparkConf::bound_to_tier(TierId::NVM_FAR)).unwrap();
        sc.set_mba_level(TierId::NVM_FAR, pct);
        sc.parallelize((0u64..400_000).collect::<Vec<_>>(), 40)
            .collect()
            .unwrap();
        sc.elapsed().as_secs_f64()
    };
    let full = run(100);
    let throttled = run(10);
    assert!(
        throttled >= full,
        "throttling can only slow things down ({throttled} vs {full})"
    );
}

#[test]
fn events_are_internally_consistent() {
    let sc = nvm_ctx();
    sc.parallelize((0u64..5_000).map(|i| (i % 9, i)).collect::<Vec<_>>(), 8)
        .reduce_by_key(|a, b| a + b)
        .count()
        .unwrap();
    let report = sc.finish();
    let ev = &report.events;
    // The event vector mirrors the metrics struct.
    assert_eq!(ev.get("tasks").unwrap() as u64, report.metrics.tasks);
    assert_eq!(ev.get("jobs").unwrap() as u64, report.metrics.jobs);
    assert_eq!(
        ev.get("shuffle_write_bytes").unwrap() as u64,
        report.metrics.totals.shuffle_write_bytes
    );
    // Counter-derived events match the telemetry snapshot.
    let reads: u64 = TierId::all()
        .iter()
        .map(|&t| report.telemetry.counters.tier(t).reads)
        .sum();
    assert_eq!(ev.get("mem_reads").unwrap() as u64, reads);
    // Shuffle read equals shuffle write for a completed exchange.
    assert_eq!(
        report.metrics.totals.shuffle_read_bytes,
        report.metrics.totals.shuffle_write_bytes
    );
}

#[test]
fn counter_sampling_conserves_and_is_monotone() {
    let sc = nvm_ctx();
    sc.enable_counter_sampling(SimTime::from_us(100));
    run_shuffle_job(&sc);
    let report = sc.finish();
    let series = &report.telemetry.counter_series;
    assert!(
        series.len() > 10,
        "expected a timeline, got {}",
        series.len()
    );
    // Conservation: the series ends exactly on the cumulative totals.
    let last = series.last().unwrap();
    assert_eq!(last.counters, report.telemetry.counters);
    // Monotone in time and in every cumulative signal.
    let idx = TierId::NVM_NEAR.index();
    for w in series.windows(2) {
        assert!(w[0].at < w[1].at);
        for t in TierId::all() {
            let (a, b) = (w[0].counters.tier(t), w[1].counters.tier(t));
            assert!(b.reads >= a.reads && b.writes >= a.writes);
        }
        assert!(w[1].bytes_served[idx] >= w[0].bytes_served[idx]);
        assert!(w[1].dynamic_energy_j[idx] >= w[0].dynamic_energy_j[idx]);
    }
    // The bound tier actually moved; per-interval deltas telescope.
    assert!(last.counters.tier(TierId::NVM_NEAR).total() > 0);
    let delta_sum: u64 = series.iter().map(|s| s.delta.total()).sum();
    assert_eq!(delta_sum, last.counters.total());
}

#[test]
fn counter_sampling_is_deterministic() {
    let run = || {
        let sc = nvm_ctx();
        sc.enable_counter_sampling(SimTime::from_us(250));
        run_shuffle_job(&sc);
        sc.finish().telemetry.counter_series
    };
    let a = run();
    let b = run();
    assert!(!a.is_empty());
    assert_eq!(a, b, "same scenario+seed must give an identical series");
}

#[test]
fn event_log_captures_lifecycle() {
    let sc = nvm_ctx();
    let log = sc.enable_event_log();
    run_shuffle_job(&sc);
    let report = sc.finish();
    let events = log.events();
    assert!(!events.is_empty());
    assert_eq!(log.dropped(), 0);
    // Timestamps never go backwards.
    for w in events.windows(2) {
        assert!(w[0].at <= w[1].at);
    }
    // First and last events bracket the job.
    assert!(matches!(
        events.first().unwrap().event,
        Event::JobSubmitted { .. }
    ));
    assert!(matches!(
        events.last().unwrap().event,
        Event::JobCompleted { .. }
    ));
    // Lifecycle counts match the metrics exactly.
    let count = |f: fn(&Event) -> bool| events.iter().filter(|e| f(&e.event)).count() as u64;
    assert_eq!(
        count(|e| matches!(e, Event::TaskStarted { .. })),
        report.metrics.tasks
    );
    assert_eq!(
        count(|e| matches!(e, Event::TaskFinished { .. })),
        report.metrics.tasks
    );
    assert_eq!(
        count(|e| matches!(e, Event::StageSubmitted { .. })),
        report.metrics.stages
    );
    assert_eq!(
        count(|e| matches!(e, Event::StageCompleted { .. })),
        report.metrics.stages
    );
    // The shuffle produced write and fetch events, and their byte totals
    // agree with the aggregated task metrics.
    let shuffle_written: u64 = events
        .iter()
        .filter_map(|e| match e.event {
            Event::ShuffleWrite { bytes, .. } => Some(bytes),
            _ => None,
        })
        .sum();
    assert_eq!(shuffle_written, report.metrics.totals.shuffle_write_bytes);
    assert!(shuffle_written > 0);
}

#[test]
fn event_log_round_trips_through_jsonl() {
    let sc = nvm_ctx();
    let log = sc.enable_event_log();
    sc.add_event_sink(Box::new(JsonlSink::new(Vec::new())));
    sc.set_mba_level(TierId::NVM_NEAR, 70);
    run_shuffle_job(&sc);
    sc.finish();
    let events = log.events();
    assert!(events
        .iter()
        .any(|e| matches!(e.event, Event::MbaThrottle { percent: 70, .. })));
    let back = parse_jsonl(&to_jsonl(&events)).unwrap();
    assert_eq!(back, events);
}

#[test]
fn stage_rollups_sum_to_app_totals() {
    let sc = nvm_ctx();
    run_shuffle_job(&sc);
    let report = sc.finish();
    let rollups = &report.stage_rollups;
    assert_eq!(rollups.len() as u64, report.metrics.stages);
    let tasks: u64 = rollups.iter().map(|r| r.tasks).sum();
    assert_eq!(tasks, report.metrics.tasks);
    let mut agg = sparklite::metrics::TaskMetrics::default();
    for r in rollups {
        assert!(r.completed >= r.submitted);
        agg.merge(&r.metrics);
    }
    assert_eq!(agg, report.metrics.totals);
}

#[test]
fn rollups_and_profile_conserve_with_cached_rdd_skipped_stages() {
    // Cached-RDD lineage pruning must not break either rollup accounting or
    // critical-path conservation: the second action's job skips the shuffle
    // map stage (the cache already holds the shuffle output), so its result
    // stage is runnable at job submission and the path walk terminates on
    // an `activated_by: None` record.
    let sc = nvm_ctx();
    let counts = sc
        .parallelize((0u64..20_000).map(|i| (i % 40, i)).collect::<Vec<_>>(), 8)
        .reduce_by_key(|a, b| a + b)
        .cache();
    counts.count().unwrap(); // materialize cache (job 0: two stages)
    counts.count().unwrap(); // job 1: map stage skipped
    let report = sc.finish();

    // Rollups still cover exactly the executed stages and all tasks.
    assert_eq!(report.stage_rollups.len() as u64, report.metrics.stages);
    let rollup_tasks: u64 = report.stage_rollups.iter().map(|r| r.tasks).sum();
    assert_eq!(rollup_tasks, report.metrics.tasks);
    // Job 1 executed fewer stages than job 0.
    let stages_in = |job: u64| report.stage_rollups.iter().filter(|r| r.job == job).count();
    assert!(
        stages_in(1) < stages_in(0),
        "job 1 must skip the cached shuffle stage ({} vs {})",
        stages_in(1),
        stages_in(0)
    );

    // The profile still conserves across both jobs, and its log has no
    // record for the skipped stage.
    assert!(report.profile.conserves());
    let log = sc.profile_log();
    assert_eq!(log.stages.len() as u64, report.metrics.stages);
    assert_eq!(log.jobs.len(), 2);
    let job1: Vec<_> = log.stages.iter().filter(|s| s.job == 1).collect();
    assert_eq!(job1.len(), 1, "job 1 must run only the result stage");
    assert!(
        job1[0].activated_by.is_none(),
        "a skipped-parent stage is runnable at job submission"
    );
}

#[test]
fn run_profile_conserves_and_walks_real_tasks() {
    let sc = nvm_ctx();
    run_shuffle_job(&sc);
    let report = sc.finish();
    let profile = &report.profile;
    assert!(profile.conserves());
    assert_eq!(profile.elapsed, report.elapsed);
    // Every critical task is a real recorded task with the stated span.
    let log = sc.profile_log();
    let critical = profile.critical_tasks();
    assert!(!critical.is_empty());
    for (job, task_id) in critical {
        assert!(
            log.tasks
                .iter()
                .any(|t| t.job == job && t.task_id == task_id),
            "critical task ({job},{task_id}) not in the log"
        );
    }
    // Memory stall lands only on the bound tier.
    let idx = TierId::NVM_NEAR.index();
    for (i, r) in profile.attribution.mem_read.iter().enumerate() {
        if i != idx {
            assert!(r.is_zero() && profile.attribution.mem_write[i].is_zero());
        }
    }
    assert!(profile.attribution.mem_read[idx] + profile.attribution.mem_write[idx] > SimTime::ZERO);
}

#[test]
fn task_finished_events_carry_conserving_breakdowns() {
    let sc = nvm_ctx();
    let log = sc.enable_event_log();
    run_shuffle_job(&sc);
    sc.finish();
    let mut finished = 0;
    for e in log.events() {
        if let Event::TaskFinished { breakdown, .. } = e.event {
            finished += 1;
            assert!(breakdown.total() > SimTime::ZERO);
            // Traffic is bound to Tier 2; no stall elsewhere.
            for i in 0..4 {
                if i != TierId::NVM_NEAR.index() {
                    assert!(breakdown.mem_read[i].is_zero());
                    assert!(breakdown.mem_write[i].is_zero());
                }
            }
        }
    }
    assert!(finished > 0);
}

#[test]
fn trace_includes_counter_tracks_and_stage_flows() {
    let sc = nvm_ctx();
    sc.enable_tracing();
    sc.enable_counter_sampling(SimTime::from_us(100));
    sc.enable_event_log();
    run_shuffle_job(&sc);
    sc.finish();
    // Rendered after finish() so the final conservation sample is present.
    let json = sc.chrome_trace().unwrap();
    let v: serde_json::Value = serde_json::from_str(&json).unwrap();
    let events = v["traceEvents"].as_array().unwrap();
    assert!(events.iter().any(|e| e["ph"] == "X" && e["cat"] == "task"));
    assert!(events.iter().any(|e| e["ph"] == "X" && e["cat"] == "stage"));
    assert!(events.iter().any(|e| e["ph"] == "s"));
    let idx = TierId::NVM_NEAR.index();
    let track = format!("tier{idx} media traffic");
    assert!(events
        .iter()
        .any(|e| e["ph"] == "C" && e["name"] == track.as_str()));
    // Only the bound tier saw traffic, so no other tier has a track.
    assert!(!events
        .iter()
        .any(|e| e["ph"] == "C" && e["name"] == "tier0 media traffic"));
}

#[test]
fn driver_work_advances_clock_without_tasks() {
    let sc = nvm_ctx();
    let before = sc.elapsed();
    sc.run_driver_work(5e6); // 5 ms
    let after = sc.elapsed();
    assert_eq!(after - before, SimTime::from_ms(5));
    assert_eq!(sc.metrics().tasks, 0);
    // Negative work is clamped in the metrics but must not panic.
    sc.run_driver_work(-1.0);
    assert_eq!(sc.elapsed(), after);
}
