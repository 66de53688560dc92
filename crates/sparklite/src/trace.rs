//! Task-timeline tracing with Chrome-tracing export.
//!
//! When enabled on a context, every task's virtual-time span is recorded:
//! which executor and slot ran it, its stage and partition, and its start /
//! end instants. [`chrome_trace_json`] renders the spans in the Chrome
//! tracing / Perfetto format (`chrome://tracing`, ui.perfetto.dev), giving
//! the same at-a-glance view of stage waves, stragglers and executor
//! utilization that the Spark UI's timeline provides.
//!
//! Its [`TraceLanes`] argument interleaves the other telemetry streams
//! into the same timeline: counter samples become per-tier counter
//! tracks (`"ph":"C"` — media traffic, delivered bandwidth, queue
//! occupancy), and logged lifecycle events become a driver lane of job and
//! stage spans connected to their instants by flow arrows — so Perfetto
//! shows the paper's Fig. 2 correlation (stage boundaries against NVM media
//! traffic) in one view.
//!
//! When a [`RunProfile`](crate::profile::RunProfile) is supplied, the
//! critical path is highlighted on top: every task span on the path gets
//! `"args":{"critical":true}` and consecutive path tasks are chained with
//! `critical-path` flow arrows, so the one chain of spans that determines
//! the end-to-end runtime reads directly off the timeline.

use crate::events::{Event, TimedEvent};
use crate::profile::RunProfile;
use memtier_des::SimTime;
use memtier_memsim::{CounterSample, ObjectId, ObjectSample, TierId};
use serde::{Deserialize, Serialize};
use serde_json::json;
use std::collections::BTreeMap;

/// Synthetic `pid` for the driver lane (job/stage spans). Large enough to
/// never collide with an executor index.
const DRIVER_PID: u64 = 1_000_000;
/// Synthetic `pid` for counter tracks.
const COUNTER_PID: u64 = 1_000_001;
/// Synthetic `pid` for per-link network counter tracks.
const NET_PID: u64 = 1_000_002;

/// How a task attempt ended, for distinct rendering in the executor lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SpanKind {
    /// A plain successful attempt.
    #[default]
    Normal,
    /// An attempt that failed (injected fault or executor crash).
    Failed,
    /// A speculative clone that finished first (won the race).
    Speculative,
    /// An attempt killed because a rival copy finished first.
    SpeculativeKilled,
}

impl SpanKind {
    /// Trace category for the span (`"task"` keeps old traces' shape).
    fn category(self) -> &'static str {
        match self {
            SpanKind::Normal => "task",
            SpanKind::Failed => "task-failed",
            SpanKind::Speculative => "task-speculative",
            SpanKind::SpeculativeKilled => "task-spec-killed",
        }
    }

    /// Name prefix so outcome reads directly off the timeline.
    fn prefix(self) -> &'static str {
        match self {
            SpanKind::Normal => "",
            SpanKind::Failed => "FAILED ",
            SpanKind::Speculative => "spec ",
            SpanKind::SpeculativeKilled => "killed ",
        }
    }
}

/// One executed task's span in virtual time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskSpan {
    /// Engine-wide task sequence number.
    pub task_id: u64,
    /// Job this task belonged to (action sequence number).
    pub job: u64,
    /// Stage within the job.
    pub stage: u32,
    /// Partition computed.
    pub partition: usize,
    /// Executor that ran it.
    pub executor: usize,
    /// Slot within the executor (for lane assignment).
    pub slot: usize,
    /// Start instant.
    pub start: SimTime,
    /// End instant.
    pub end: SimTime,
    /// How the attempt ended (normal, failed, speculative, killed).
    #[serde(default)]
    pub kind: SpanKind,
}

impl TaskSpan {
    /// Span duration.
    pub fn duration(&self) -> SimTime {
        self.end.saturating_sub(self.start)
    }
}

/// The telemetry streams a trace can carry besides the task spans. Every
/// lane defaults to absent, so `TraceLanes::default()` renders the spans
/// alone and a caller names only the lanes it has.
#[derive(Debug, Clone, Copy, Default)]
pub struct TraceLanes<'a> {
    /// Counter samples: one set of `"ph":"C"` tracks per tier that saw
    /// traffic (judged from the last sample's cumulative counters, so an
    /// all-DRAM run doesn't drag three flat-zero tracks into the view).
    pub samples: &'a [CounterSample],
    /// Logged lifecycle events: a driver lane of job/stage spans with flow
    /// arrows, plus the recovery, network and residency lanes.
    pub events: &'a [TimedEvent],
    /// The run profile whose critical path to highlight.
    pub profile: Option<&'a RunProfile>,
    /// The attribution ledger's per-object series: one cumulative-traffic
    /// counter track per hot object, so Perfetto shows *which cached RDD or
    /// shuffle* drove each burst of media traffic.
    pub objects: &'a [ObjectSample],
}

/// Render spans, and whichever `lanes` are present, as one Chrome-tracing
/// JSON document.
///
/// `pid` = executor, `tid` = slot, timestamps in microseconds of virtual
/// time. Loadable in `chrome://tracing` or Perfetto as-is.
pub fn chrome_trace_json(spans: &[TaskSpan], lanes: TraceLanes<'_>) -> String {
    let TraceLanes {
        samples,
        events,
        profile,
        objects,
    } = lanes;
    let mut out = Vec::with_capacity(spans.len() + 4 * samples.len() + events.len());
    let critical: Vec<(u64, u64)> = profile.map(|p| p.critical_tasks()).unwrap_or_default();

    // Process-name metadata so Perfetto labels the lanes.
    let mut execs: Vec<usize> = spans.iter().map(|s| s.executor).collect();
    execs.sort_unstable();
    execs.dedup();
    for e in execs {
        out.push(json!({
            "name": "process_name", "ph": "M", "pid": e, "tid": 0,
            "args": { "name": format!("executor {e}") }
        }));
    }
    if !events.is_empty() {
        out.push(json!({
            "name": "process_name", "ph": "M", "pid": DRIVER_PID, "tid": 0,
            "args": { "name": "driver" }
        }));
    }
    if !samples.is_empty() || !objects.is_empty() {
        out.push(json!({
            "name": "process_name", "ph": "M", "pid": COUNTER_PID, "tid": 0,
            "args": { "name": "memory telemetry" }
        }));
    }

    for s in spans {
        let is_critical = critical.contains(&(s.job, s.task_id));
        out.push(json!({
            "name": format!(
                "{}job{} stage{} p{}",
                s.kind.prefix(), s.job, s.stage, s.partition
            ),
            "cat": s.kind.category(),
            "ph": "X",
            "ts": s.start.as_secs_f64() * 1e6,
            "dur": s.duration().as_secs_f64() * 1e6,
            "pid": s.executor,
            "tid": s.slot,
            "args": { "task_id": s.task_id, "critical": is_critical }
        }));
    }

    push_critical_path(&mut out, spans, &critical);
    push_lifecycle_events(&mut out, events);
    push_counter_tracks(&mut out, samples);
    push_object_tracks(&mut out, objects);

    serde_json::to_string_pretty(&json!({ "traceEvents": out })).expect("trace serialization")
}

/// Number of hot objects given their own counter track in the trace.
const HOT_OBJECT_TRACKS: usize = 5;

/// Cumulative-traffic `"ph":"C"` tracks for the hottest objects (top
/// [`HOT_OBJECT_TRACKS`] by final cumulative bytes, object-id tie-break):
/// one counter track per object, one point per attributed access batch.
fn push_object_tracks(out: &mut Vec<serde_json::Value>, objects: &[ObjectSample]) {
    if objects.is_empty() {
        return;
    }
    // Final cumulative bytes per object: samples carry running totals, so
    // the maximum seen is the last.
    let mut totals: BTreeMap<ObjectId, u64> = BTreeMap::new();
    for s in objects {
        let t = totals.entry(s.object).or_insert(0);
        *t = (*t).max(s.total_bytes);
    }
    let mut ranked: Vec<(ObjectId, u64)> = totals.into_iter().collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    ranked.truncate(HOT_OBJECT_TRACKS);
    let hot: Vec<ObjectId> = ranked.into_iter().map(|(o, _)| o).collect();
    for s in objects.iter().filter(|s| hot.contains(&s.object)) {
        out.push(json!({
            "name": format!("hot object {}", s.object.label()),
            "cat": "attribution",
            "ph": "C",
            "ts": s.at.as_us_f64(),
            "pid": COUNTER_PID,
            "args": { "mb": s.total_bytes as f64 / 1e6 }
        }));
    }
}

/// Flow arrows chaining consecutive critical-path tasks across executor
/// lanes: an `s` at each path task's end, an `f` at the next path task's
/// start. Ids live above bit 63 so they can never collide with the
/// stage-flow ids (`job << 32 | stage`).
fn push_critical_path(
    out: &mut Vec<serde_json::Value>,
    spans: &[TaskSpan],
    critical: &[(u64, u64)],
) {
    let lane = |job: u64, task: u64| {
        spans
            .iter()
            .find(|s| s.job == job && s.task_id == task)
            .map(|s| (s.executor, s.slot, s.start, s.end))
    };
    for (i, pair) in critical.windows(2).enumerate() {
        let (Some(from), Some(to)) = (lane(pair[0].0, pair[0].1), lane(pair[1].0, pair[1].1))
        else {
            continue;
        };
        let flow_id = (1u64 << 63) | i as u64;
        out.push(json!({
            "name": "critical path",
            "cat": "critical-path",
            "ph": "s",
            "id": flow_id,
            "ts": from.3.as_us_f64(),
            "pid": from.0,
            "tid": from.1
        }));
        out.push(json!({
            "name": "critical path",
            "cat": "critical-path",
            "ph": "f",
            "bp": "e",
            "id": flow_id,
            "ts": to.2.as_us_f64(),
            "pid": to.0,
            "tid": to.1
        }));
    }
}

/// Driver-lane job (tid 0) and stage (tid 1) spans, with `s`/`f` flow
/// arrows linking each stage's submit and complete instants, plus instant
/// markers for MBA throttle changes.
fn push_lifecycle_events(out: &mut Vec<serde_json::Value>, events: &[TimedEvent]) {
    // Pair submit/complete edges by (job, stage). A stage emits one
    // StageCompleted even if fetch failures resubmit tasks later, and jobs
    // are sequential, so a plain scan for the matching completion after
    // each submission is correct.
    for (i, e) in events.iter().enumerate() {
        match &e.event {
            Event::JobSubmitted { job, stages } => {
                let end = events[i..].iter().find_map(|later| match &later.event {
                    Event::JobCompleted { job: j, .. } if j == job => Some(later.at),
                    _ => None,
                });
                let end = end.unwrap_or(e.at);
                out.push(json!({
                    "name": format!("job {job}"),
                    "cat": "job",
                    "ph": "X",
                    "ts": e.at.as_us_f64(),
                    "dur": end.saturating_sub(e.at).as_us_f64(),
                    "pid": DRIVER_PID,
                    "tid": 0,
                    "args": { "stages": stages }
                }));
            }
            Event::StageSubmitted { job, stage, tasks } => {
                let end = events[i..].iter().find_map(|later| match &later.event {
                    Event::StageCompleted {
                        job: j, stage: s, ..
                    } if j == job && s == stage => Some(later.at),
                    _ => None,
                });
                let end = end.unwrap_or(e.at);
                let flow_id = (*job << 32) | u64::from(*stage);
                out.push(json!({
                    "name": format!("job {job} stage {stage}"),
                    "cat": "stage",
                    "ph": "X",
                    "ts": e.at.as_us_f64(),
                    "dur": end.saturating_sub(e.at).as_us_f64(),
                    "pid": DRIVER_PID,
                    "tid": 1,
                    "args": { "tasks": tasks }
                }));
                out.push(json!({
                    "name": format!("stage {stage} flow"),
                    "cat": "stage-flow",
                    "ph": "s",
                    "id": flow_id,
                    "ts": e.at.as_us_f64(),
                    "pid": DRIVER_PID,
                    "tid": 1
                }));
                out.push(json!({
                    "name": format!("stage {stage} flow"),
                    "cat": "stage-flow",
                    "ph": "f",
                    "bp": "e",
                    "id": flow_id,
                    "ts": end.as_us_f64(),
                    "pid": DRIVER_PID,
                    "tid": 1
                }));
            }
            Event::MbaThrottle { tier, percent } => {
                out.push(json!({
                    "name": format!("MBA tier{} -> {percent}%", tier.index()),
                    "cat": "mba",
                    "ph": "i",
                    "s": "g",
                    "ts": e.at.as_us_f64(),
                    "pid": DRIVER_PID,
                    "tid": 0
                }));
            }
            Event::ObjectMigrated {
                object,
                from,
                to,
                bytes,
            } => {
                out.push(json!({
                    "name": format!(
                        "migrate {} tier{} -> tier{}",
                        object.label(),
                        from.index(),
                        to.index()
                    ),
                    "cat": "placement",
                    "ph": "i",
                    "s": "g",
                    "ts": e.at.as_us_f64(),
                    "pid": DRIVER_PID,
                    "tid": 0,
                    "args": { "bytes": bytes }
                }));
            }
            Event::TaskFailed {
                task_id,
                stage,
                partition,
                attempt,
                reason,
                ..
            } => {
                out.push(json!({
                    "name": format!("task {task_id} failed ({reason})"),
                    "cat": "fault",
                    "ph": "i",
                    "s": "g",
                    "ts": e.at.as_us_f64(),
                    "pid": DRIVER_PID,
                    "tid": 0,
                    "args": { "stage": stage, "partition": partition, "attempt": attempt }
                }));
            }
            Event::ExecutorLost {
                executor,
                killed_tasks,
                lost_blocks,
                lost_bytes,
            } => {
                out.push(json!({
                    "name": format!("executor {executor} lost"),
                    "cat": "fault",
                    "ph": "i",
                    "s": "g",
                    "ts": e.at.as_us_f64(),
                    "pid": DRIVER_PID,
                    "tid": 0,
                    "args": {
                        "killed_tasks": killed_tasks,
                        "lost_blocks": lost_blocks,
                        "lost_bytes": lost_bytes
                    }
                }));
            }
            Event::StageResubmitted {
                job,
                stage,
                partition,
            } => {
                out.push(json!({
                    "name": format!("resubmit job {job} stage {stage} p{partition}"),
                    "cat": "fault",
                    "ph": "i",
                    "s": "g",
                    "ts": e.at.as_us_f64(),
                    "pid": DRIVER_PID,
                    "tid": 0
                }));
            }
            Event::SpeculativeLaunched {
                task_id, original, ..
            } => {
                out.push(json!({
                    "name": format!("speculate task {original} -> clone {task_id}"),
                    "cat": "speculation",
                    "ph": "i",
                    "s": "g",
                    "ts": e.at.as_us_f64(),
                    "pid": DRIVER_PID,
                    "tid": 0
                }));
            }
            Event::SpeculativeWon { task_id, .. } => {
                out.push(json!({
                    "name": format!("speculative clone {task_id} won"),
                    "cat": "speculation",
                    "ph": "i",
                    "s": "g",
                    "ts": e.at.as_us_f64(),
                    "pid": DRIVER_PID,
                    "tid": 0
                }));
            }
            _ => {}
        }
    }
    push_residency_tracks(out, events);
    push_net_tracks(out, events);
}

/// Per-link network utilization `"ph":"C"` tracks built from the
/// [`Event::FlowCompleted`] stream: one counter track per topology link
/// whose value is the cumulative bytes credited to it, stepping at each
/// transfer completion — the network companion of the per-tier traffic
/// tracks, rendered in its own "network telemetry" lane.
fn push_net_tracks(out: &mut Vec<serde_json::Value>, events: &[TimedEvent]) {
    let mut cumulative: BTreeMap<&str, u64> = BTreeMap::new();
    let mut any = false;
    for e in events {
        let Event::FlowCompleted { link, bytes, .. } = &e.event else {
            continue;
        };
        if !any {
            any = true;
            out.push(json!({
                "name": "process_name",
                "ph": "M",
                "pid": NET_PID,
                "tid": 0,
                "args": { "name": "network telemetry" }
            }));
        }
        let total = cumulative.entry(link.as_str()).or_insert(0);
        *total += bytes;
        out.push(json!({
            "name": format!("link {link} bytes"),
            "cat": "network",
            "ph": "C",
            "ts": e.at.as_us_f64(),
            "pid": NET_PID,
            "args": { "mb": *total as f64 / 1e6 }
        }));
    }
}

/// Per-object tier-residency `"ph":"C"` tracks built from the
/// [`Event::ObjectMigrated`] stream: one counter track per migrated
/// object whose value is the tier index it lives on, stepping at each
/// move — Perfetto renders the object's promotion/demotion history as a
/// staircase next to the traffic tracks.
fn push_residency_tracks(out: &mut Vec<serde_json::Value>, events: &[TimedEvent]) {
    let mut seen: Vec<ObjectId> = Vec::new();
    for e in events {
        let Event::ObjectMigrated {
            object, from, to, ..
        } = &e.event
        else {
            continue;
        };
        // The first move opens the track at the starting tier so the
        // staircase has a left edge.
        if !seen.contains(object) {
            seen.push(*object);
            out.push(json!({
                "name": format!("residency {}", object.label()),
                "cat": "placement",
                "ph": "C",
                "ts": 0.0,
                "pid": COUNTER_PID,
                "args": { "tier": from.index() }
            }));
        }
        out.push(json!({
            "name": format!("residency {}", object.label()),
            "cat": "placement",
            "ph": "C",
            "ts": e.at.as_us_f64(),
            "pid": COUNTER_PID,
            "args": { "tier": to.index() }
        }));
    }
}

/// Per-tier `"ph":"C"` counter tracks: interval media traffic, delivered
/// bandwidth, and queue occupancy, one point per sample.
fn push_counter_tracks(out: &mut Vec<serde_json::Value>, samples: &[CounterSample]) {
    let Some(last) = samples.last() else { return };
    let active: Vec<TierId> = TierId::all()
        .into_iter()
        .filter(|&t| last.counters.tier(t).total() > 0)
        .collect();
    for s in samples {
        let ts = s.at.as_us_f64();
        for &tier in &active {
            let i = tier.index();
            let d = s.delta.tier(tier);
            out.push(json!({
                "name": format!("tier{i} media traffic"),
                "cat": "counters",
                "ph": "C",
                "ts": ts,
                "pid": COUNTER_PID,
                "args": { "reads": d.reads, "writes": d.writes }
            }));
            out.push(json!({
                "name": format!("tier{i} delivered MB/s"),
                "cat": "counters",
                "ph": "C",
                "ts": ts,
                "pid": COUNTER_PID,
                "args": { "mb_per_s": s.bandwidth_bytes_per_s[i] / 1e6 }
            }));
            out.push(json!({
                "name": format!("tier{i} queue"),
                "cat": "counters",
                "ph": "C",
                "ts": ts,
                "pid": COUNTER_PID,
                "args": { "flows": s.active_flows[i] }
            }));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(task_id: u64, start_ms: u64, end_ms: u64) -> TaskSpan {
        TaskSpan {
            task_id,
            job: 0,
            stage: 1,
            partition: task_id as usize,
            executor: 0,
            slot: task_id as usize % 4,
            start: SimTime::from_ms(start_ms),
            end: SimTime::from_ms(end_ms),
            kind: SpanKind::Normal,
        }
    }

    fn with_events(events: &[TimedEvent]) -> TraceLanes<'_> {
        TraceLanes {
            events,
            ..Default::default()
        }
    }

    #[test]
    fn duration_and_json_shape() {
        let s = span(3, 10, 25);
        assert_eq!(s.duration(), SimTime::from_ms(15));
        let json = chrome_trace_json(&[s], TraceLanes::default());
        assert!(json.contains("\"ph\": \"X\""));
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("job0 stage1 p3"));
        // ts in microseconds.
        assert!(json.contains("10000.0"));
        // Valid JSON.
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v["traceEvents"].as_array().unwrap().len(), 2);
    }

    #[test]
    fn empty_trace_is_valid() {
        let v: serde_json::Value =
            serde_json::from_str(&chrome_trace_json(&[], TraceLanes::default())).unwrap();
        assert_eq!(v["traceEvents"].as_array().unwrap().len(), 0);
    }

    fn sample(at_ms: u64, nvm_reads: u64) -> CounterSample {
        use memtier_memsim::{AccessBatch, TierCounters, NUM_TIERS};
        let c = TierCounters::new([1; NUM_TIERS]);
        c.record(TierId::NVM_NEAR, &AccessBatch::random_reads(nvm_reads));
        let snap = c.snapshot();
        CounterSample {
            at: SimTime::from_ms(at_ms),
            counters: snap,
            delta: snap,
            bytes_served: [0.0; NUM_TIERS],
            bandwidth_bytes_per_s: [0.0; NUM_TIERS],
            active_flows: [0; NUM_TIERS],
            dynamic_energy_j: [0.0; NUM_TIERS],
        }
    }

    #[test]
    fn counter_tracks_only_for_active_tiers() {
        let json = chrome_trace_json(
            &[span(0, 0, 5)],
            TraceLanes {
                samples: &[sample(1, 100)],
                ..Default::default()
            },
        );
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        let events = v["traceEvents"].as_array().unwrap();
        let counters: Vec<&serde_json::Value> = events.iter().filter(|e| e["ph"] == "C").collect();
        // Only NVM_NEAR saw traffic: 3 tracks for it, none for other tiers.
        assert_eq!(counters.len(), 3);
        assert!(counters
            .iter()
            .all(|e| e["name"].as_str().unwrap().starts_with("tier2")));
        assert!(events.iter().any(|e| e["ph"] == "X"));
    }

    #[test]
    fn hot_object_tracks_cover_only_the_top_objects() {
        let samples: Vec<ObjectSample> = (0..7u32)
            .map(|rdd| ObjectSample {
                at: SimTime::from_ms(u64::from(rdd)),
                object: ObjectId::CacheBlock { rdd },
                delta_bytes: (u64::from(rdd) + 1) * 100,
                total_bytes: (u64::from(rdd) + 1) * 100,
            })
            .collect();
        let json = chrome_trace_json(
            &[],
            TraceLanes {
                objects: &samples,
                ..Default::default()
            },
        );
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        let out = v["traceEvents"].as_array().unwrap();
        let tracks: Vec<&str> = out
            .iter()
            .filter(|e| e["cat"] == "attribution")
            .map(|e| e["name"].as_str().unwrap())
            .collect();
        // Only the 5 hottest objects (rdd2..rdd6) get tracks.
        assert_eq!(tracks.len(), HOT_OBJECT_TRACKS);
        assert!(tracks.contains(&"hot object rdd6:cache"));
        assert!(!tracks.contains(&"hot object rdd0:cache"));
        // The telemetry process lane is labeled even without counter samples.
        assert!(out
            .iter()
            .any(|e| e["ph"] == "M" && e["args"]["name"] == "memory telemetry"));
        // The 4-argument form still degrades to no object tracks.
        let plain = chrome_trace_json(&[], TraceLanes::default());
        assert!(!plain.contains("attribution"));
    }

    #[test]
    fn lifecycle_events_become_driver_spans_and_flows() {
        let events = vec![
            TimedEvent {
                at: SimTime::from_ms(0),
                event: Event::JobSubmitted { job: 0, stages: 1 },
            },
            TimedEvent {
                at: SimTime::from_ms(0),
                event: Event::StageSubmitted {
                    job: 0,
                    stage: 0,
                    tasks: 4,
                },
            },
            TimedEvent {
                at: SimTime::from_ms(7),
                event: Event::StageCompleted {
                    job: 0,
                    stage: 0,
                    tasks: 4,
                },
            },
            TimedEvent {
                at: SimTime::from_ms(7),
                event: Event::JobCompleted {
                    job: 0,
                    stages_run: 1,
                    tasks_run: 4,
                },
            },
        ];
        let json = chrome_trace_json(&[], with_events(&events));
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        let out = v["traceEvents"].as_array().unwrap();
        let job = out
            .iter()
            .find(|e| e["name"] == "job 0")
            .expect("job span missing");
        assert_eq!(job["ph"], "X");
        assert!((job["dur"].as_f64().unwrap() - 7000.0).abs() < 1e-6);
        assert!(out.iter().any(|e| e["ph"] == "s"));
        assert!(out.iter().any(|e| e["ph"] == "f"));
        assert!(out
            .iter()
            .any(|e| e["ph"] == "M" && e["args"]["name"] == "driver"));
    }

    #[test]
    fn migrations_get_markers_and_residency_tracks() {
        let obj = ObjectId::CacheBlock { rdd: 3 };
        let hop = |at_ms: u64, from: TierId, to: TierId| TimedEvent {
            at: SimTime::from_ms(at_ms),
            event: Event::ObjectMigrated {
                object: obj,
                from,
                to,
                bytes: 4096,
            },
        };
        let events = vec![
            hop(5, TierId::NVM_NEAR, TierId::LOCAL_DRAM),
            hop(9, TierId::LOCAL_DRAM, TierId::NVM_NEAR),
        ];
        let json = chrome_trace_json(&[], with_events(&events));
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        let out = v["traceEvents"].as_array().unwrap();
        let markers: Vec<&serde_json::Value> = out
            .iter()
            .filter(|e| e["cat"] == "placement" && e["ph"] == "i")
            .collect();
        assert_eq!(markers.len(), 2);
        assert!(markers[0]["name"].as_str().unwrap().contains("rdd3:cache"));
        // Residency staircase: an opening point at the starting tier plus
        // one step per move.
        let track: Vec<&serde_json::Value> = out
            .iter()
            .filter(|e| e["cat"] == "placement" && e["ph"] == "C")
            .collect();
        assert_eq!(track.len(), 3);
        assert_eq!(track[0]["args"]["tier"], 2);
        assert_eq!(track[1]["args"]["tier"], 0);
        assert_eq!(track[2]["args"]["tier"], 2);
    }

    #[test]
    fn flow_completions_get_per_link_counter_tracks() {
        let flow = |at_ms: u64, link: &str, bytes: u64| TimedEvent {
            at: SimTime::from_ms(at_ms),
            event: Event::FlowCompleted {
                task_id: Some(7),
                link: link.into(),
                bytes,
                locality: "rack-local".into(),
            },
        };
        let events = vec![
            flow(5, "node0:up", 1_000_000),
            flow(9, "node0:up", 500_000),
            flow(9, "rack0:down", 250_000),
        ];
        let json = chrome_trace_json(&[], with_events(&events));
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        let out = v["traceEvents"].as_array().unwrap();
        // One "network telemetry" lane label, emitted once.
        let lanes: Vec<&serde_json::Value> = out
            .iter()
            .filter(|e| e["name"] == "process_name" && e["args"]["name"] == "network telemetry")
            .collect();
        assert_eq!(lanes.len(), 1);
        // Cumulative per-link staircase: two points on node0:up, one on
        // rack0:down, each carrying the running MB total.
        let track: Vec<&serde_json::Value> = out
            .iter()
            .filter(|e| e["cat"] == "network" && e["ph"] == "C")
            .collect();
        assert_eq!(track.len(), 3);
        assert_eq!(track[0]["name"], "link node0:up bytes");
        assert_eq!(track[0]["args"]["mb"], 1.0);
        assert_eq!(track[1]["args"]["mb"], 1.5);
        assert_eq!(track[2]["name"], "link rack0:down bytes");
        assert_eq!(track[2]["args"]["mb"], 0.25);
    }

    #[test]
    fn span_kinds_render_distinctly_and_faults_get_markers() {
        let mut failed = span(0, 0, 5);
        failed.kind = SpanKind::Failed;
        let mut spec = span(1, 5, 9);
        spec.kind = SpanKind::Speculative;
        let mut loser = span(2, 5, 9);
        loser.kind = SpanKind::SpeculativeKilled;
        let events = vec![
            TimedEvent {
                at: SimTime::from_ms(5),
                event: Event::TaskFailed {
                    task_id: 0,
                    job: 0,
                    stage: 1,
                    partition: 0,
                    attempt: 0,
                    reason: "task".into(),
                },
            },
            TimedEvent {
                at: SimTime::from_ms(6),
                event: Event::ExecutorLost {
                    executor: 1,
                    killed_tasks: 2,
                    lost_blocks: 3,
                    lost_bytes: 4096,
                },
            },
            TimedEvent {
                at: SimTime::from_ms(7),
                event: Event::StageResubmitted {
                    job: 0,
                    stage: 0,
                    partition: 2,
                },
            },
            TimedEvent {
                at: SimTime::from_ms(8),
                event: Event::SpeculativeLaunched {
                    task_id: 1,
                    original: 0,
                    job: 0,
                    stage: 1,
                    partition: 1,
                },
            },
            TimedEvent {
                at: SimTime::from_ms(9),
                event: Event::SpeculativeWon {
                    task_id: 1,
                    job: 0,
                    stage: 1,
                    partition: 1,
                },
            },
        ];
        let json = chrome_trace_json(&[failed, spec, loser], with_events(&events));
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        let out = v["traceEvents"].as_array().unwrap();
        let cat = |c: &str| out.iter().filter(|e| e["cat"] == c).count();
        assert_eq!(cat("task-failed"), 1);
        assert_eq!(cat("task-speculative"), 1);
        assert_eq!(cat("task-spec-killed"), 1);
        assert!(out
            .iter()
            .any(|e| e["name"].as_str().unwrap().starts_with("FAILED ")));
        // One instant marker per fault/speculation event.
        assert_eq!(cat("fault"), 3);
        assert_eq!(cat("speculation"), 2);
        // A span without a kind deserializes as Normal (old traces load).
        let legacy = r#"{"task_id":1,"job":0,"stage":0,"partition":0,
            "executor":0,"slot":0,"start":0,"end":1000}"#;
        let s: TaskSpan = serde_json::from_str(legacy).unwrap();
        assert_eq!(s.kind, SpanKind::Normal);
    }

    #[test]
    fn critical_path_is_highlighted_with_flow_arrows() {
        use crate::profile::{PathSegment, RunProfile, SegmentKind};
        let spans = vec![span(0, 0, 10), span(1, 0, 25), span(2, 25, 40)];
        let seg = |task_id: u64, start_ms: u64, end_ms: u64| PathSegment {
            kind: SegmentKind::Task,
            start: SimTime::from_ms(start_ms),
            end: SimTime::from_ms(end_ms),
            job: Some(0),
            task_id: Some(task_id),
        };
        let profile = RunProfile {
            elapsed: SimTime::from_ms(40),
            attribution: Default::default(),
            segments: vec![seg(1, 0, 25), seg(2, 25, 40)],
        };
        let json = chrome_trace_json(
            &spans,
            TraceLanes {
                profile: Some(&profile),
                ..Default::default()
            },
        );
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        let out = v["traceEvents"].as_array().unwrap();
        // Tasks 1 and 2 are on the path, task 0 is not.
        let marked: Vec<u64> = out
            .iter()
            .filter(|e| e["cat"] == "task" && e["args"]["critical"] == true)
            .map(|e| e["args"]["task_id"].as_u64().unwrap())
            .collect();
        assert_eq!(marked, vec![1, 2]);
        // One arrow chains the two path tasks.
        let arrows: Vec<&serde_json::Value> =
            out.iter().filter(|e| e["cat"] == "critical-path").collect();
        assert_eq!(arrows.len(), 2);
        assert_eq!(arrows[0]["ph"], "s");
        assert_eq!(arrows[1]["ph"], "f");
        assert_eq!(arrows[0]["id"], arrows[1]["id"]);
    }
}
