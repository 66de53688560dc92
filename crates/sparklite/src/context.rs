//! The `SparkContext`: application entry point and job driver.

use crate::audit::{AuditError, RunView};
use crate::config::{PlacementMode, SparkConf};
use crate::cost::OpCost;
use crate::doctor::{diagnose, DoctorInputs, DoctorReport};
use crate::error::{Result, SparkError};
use crate::events::{
    Event, EventBus, EventSink, MemoryRing, MemoryRingHandle, TimedEvent, DEFAULT_RING_CAPACITY,
};
use crate::explain::RunDigest;
use crate::faultsim::{FaultState, RecoveryStats};
use crate::metrics::{AppMetrics, StageRollup, SystemEvents};
use crate::net::{NetChargeKind, NetReport, NetRoute, NetState};
use crate::profile::{build_profile, ProfileLog, RunProfile};
use crate::rdd::source::{GeneratorRdd, ParallelizeRdd, TextFileRdd};
use crate::rdd::{Data, Rdd, RddId, RddVitals, TaskEnv};
use crate::runtime::Runtime;
use crate::scheduler::executor::{build_executors, ExecutorSpec};
use crate::scheduler::{build_plan, JobRunner, RunState};
use crate::storage::CacheStats;
use memtier_des::{EngineStats, ProfPhase, SimTime};
use memtier_dfs::DfsClient;
use memtier_memsim::{
    CounterSample, CounterSnapshot, HotnessReport, MemorySystem, MigrationStats, ObjectSample,
    PlacementEngine, RunTelemetry, TierId, WindowRollup,
};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Everything an application run produced, for the characterization layer.
pub struct RunReport {
    /// Total virtual execution time.
    pub elapsed: SimTime,
    /// Memory-system telemetry (counters, energy, wear, utilization).
    pub telemetry: RunTelemetry,
    /// Engine-level metrics.
    pub metrics: AppMetrics,
    /// The Fig. 5 system-level event vector.
    pub events: SystemEvents,
    /// Block-cache statistics.
    pub cache: CacheStats,
    /// Per-stage metric rollups, in completion order across all jobs.
    pub stage_rollups: Vec<StageRollup>,
    /// Critical-path profile: where the virtual runtime went
    /// (conserves: attribution components sum to `elapsed`).
    pub profile: RunProfile,
    /// Per-object memory attribution: every Spark-level object (cached RDD,
    /// shuffle segment, input, broadcast, scratch) ranked by the media
    /// traffic it drove, with per-tier residency, stall, energy and NVM
    /// wear. Conserves against `telemetry.counters` in exact integers.
    pub hotness: HotnessReport,
    /// What the placement engine did: migrations, promotions/demotions,
    /// bytes copied, epochs crossed. All zeros under static placement.
    pub migrations: MigrationStats,
    /// I/O errors event sinks hit during the run, surfaced at flush time
    /// (empty on a clean run). Sinks never kill a simulation mid-run, but
    /// a truncated event log must not pass silently either.
    pub sink_errors: Vec<String>,
    /// Fault-injection and recovery rollup: failures seen, retries and
    /// resubmissions issued, speculation outcomes, and useful vs. wasted
    /// virtual time. Fault and waste counters are all zeros when no
    /// [`FaultPlan`](crate::FaultPlan) is configured (`useful_time` always
    /// accrues — it is the waste fraction's denominator).
    pub recovery: RecoveryStats,
    /// Compact conserved decomposition of this run for the regression
    /// explainer ([`crate::explain`]): the critical-path phase rollup
    /// sliced per stage, per-object × per-tier footprints, and the
    /// migration/recovery rollups, all in exact integers. A pure function
    /// of the run, so it lives inside the byte-identity domain.
    pub digest: RunDigest,
    /// The run doctor's diagnosis: conserved windowed series (per-tier
    /// bandwidth and stall, executor busy/idle, queue depth, eviction and
    /// migration churn, fault waste) plus ranked, evidence-backed findings.
    /// Built from always-on sources only, so it is a pure function of the
    /// run and lives inside the byte-identity domain.
    pub doctor: DoctorReport,
    /// Aggregated network-plane activity: completed transfer counts and
    /// bytes split by locality class and traffic kind, plus per-link
    /// totals. All zeros (and skipped from serialized results) under the
    /// default loopback wiring, keeping pre-plane artifacts byte-identical.
    pub network: NetReport,
    /// Wall-clock engine self-profiling sidecar: present only when
    /// [`SparkConf::profile_engine`] was set. Strictly outside the
    /// byte-identity domain — everything else on this report is a pure
    /// function of (workload, config, seed), while this block contains
    /// host-dependent wall-clock measurements.
    pub engine: Option<EngineStats>,
}

impl RunReport {
    /// Hold the run to every conservation identity it owes
    /// ([`crate::audit`]); the error names the first that fails.
    pub fn audit(&self) -> std::result::Result<(), AuditError> {
        RunView {
            elapsed: self.elapsed,
            counters: &self.telemetry.counters,
            profile: &self.profile,
            hotness: &self.hotness,
            migrations: &self.migrations,
            recovery: &self.recovery,
            digest: &self.digest,
            doctor: &self.doctor,
            network: &self.network,
        }
        .audit()
    }
}

struct Inner {
    conf: SparkConf,
    runtime: Runtime,
    next_rdd: AtomicU32,
    executors: Vec<ExecutorSpec>,
    /// Everything jobs mutate, behind the context's one lock.
    state: Mutex<RunState>,
}

/// A handle to one application. Cloning shares the application (like
/// `SparkContext` references in Spark).
///
/// # Examples
///
/// ```
/// use sparklite::{SparkConf, SparkContext};
///
/// let sc = SparkContext::new(SparkConf::default()).unwrap();
/// let doubled = sc.parallelize(vec![1u64, 2, 3], 2).map(|x| x * 2);
/// assert_eq!(doubled.collect().unwrap(), vec![2, 4, 6]);
/// // Execution time is virtual and deterministic:
/// assert!(sc.elapsed().as_secs_f64() > 0.0);
/// ```
#[derive(Clone)]
pub struct SparkContext {
    inner: Arc<Inner>,
}

impl SparkContext {
    /// Start an application with the given configuration.
    pub fn new(conf: SparkConf) -> Result<SparkContext> {
        conf.validate()?;
        let runtime = Runtime::new(&conf);
        let mut mem = MemorySystem::new(conf.memsim.clone());
        if conf.profile_engine {
            mem.enable_engine_prof();
        }
        let executors = build_executors(&conf, mem.topology());
        let state = RunState {
            engine: match &conf.placement_mode {
                PlacementMode::Static => PlacementEngine::new_static(),
                PlacementMode::Dynamic(spec) => PlacementEngine::new_dynamic(spec),
            },
            clock: SimTime::ZERO,
            app: AppMetrics::default(),
            trace: None,
            events: EventBus::new(),
            rollups: Vec::new(),
            event_log: None,
            profile: ProfileLog::default(),
            faults: FaultState::new(conf.fault_plan.clone(), executors.len()),
            net: NetState::new(&conf.network),
            block_owner: BTreeMap::new(),
            mem,
        };
        Ok(SparkContext {
            inner: Arc::new(Inner {
                conf,
                runtime,
                next_rdd: AtomicU32::new(0),
                executors,
                state: Mutex::new(state),
            }),
        })
    }

    /// The application's configuration.
    pub fn conf(&self) -> &SparkConf {
        &self.inner.conf
    }

    /// Shared runtime services.
    pub(crate) fn runtime(&self) -> &Runtime {
        &self.inner.runtime
    }

    /// The resolved executor placements.
    pub fn executors(&self) -> &[ExecutorSpec] {
        &self.inner.executors
    }

    /// Allocate a lineage-node id.
    pub(crate) fn next_rdd_id(&self) -> RddId {
        RddId(self.inner.next_rdd.fetch_add(1, Ordering::Relaxed))
    }

    /// A DFS client for staging input data.
    pub fn dfs(&self) -> DfsClient {
        self.inner.runtime.dfs()
    }

    // --- sources ----------------------------------------------------------

    /// Distribute a driver-side collection over `partitions` partitions.
    pub fn parallelize<T: Data>(&self, data: Vec<T>, partitions: usize) -> Rdd<T> {
        let vitals = RddVitals::new(self.next_rdd_id(), "parallelize", partitions);
        Rdd::from_node(
            Arc::new(ParallelizeRdd::new(vitals, data, partitions)),
            self.clone(),
        )
    }

    /// Distribute with the configured default parallelism.
    pub fn parallelize_default<T: Data>(&self, data: Vec<T>) -> Rdd<T> {
        self.parallelize(data, self.inner.conf.parallelism())
    }

    /// A deterministic generator source: partition `i`'s records are
    /// `per_part(i)`. `cost` prices the generation closure.
    pub fn generate<T: Data>(
        &self,
        partitions: usize,
        per_part: impl Fn(usize) -> Vec<T> + Send + Sync + 'static,
        cost: OpCost,
    ) -> Rdd<T> {
        assert!(partitions > 0, "need at least one partition");
        let vitals = RddVitals::new(self.next_rdd_id(), "generate", partitions);
        Rdd::from_node(
            Arc::new(GeneratorRdd::new(vitals, Arc::new(per_part), cost)),
            self.clone(),
        )
    }

    /// Distribute a read-only value to all executors (`sc.broadcast`).
    pub fn broadcast<T: crate::memsize::MemSize + Send + Sync + 'static>(
        &self,
        value: T,
    ) -> crate::broadcast::Broadcast<T> {
        crate::broadcast::Broadcast::new(value)
    }

    /// Read a DFS text file, one partition per block, Hadoop line-boundary
    /// semantics.
    pub fn text_file(&self, path: &str) -> Result<Rdd<String>> {
        let status = self.dfs().stat(path)?;
        let partitions = status.blocks.len().max(1);
        let vitals = RddVitals::new(self.next_rdd_id(), format!("text_file({path})"), partitions);
        Ok(Rdd::from_node(
            Arc::new(TextFileRdd::new(vitals, status)),
            self.clone(),
        ))
    }

    // --- execution ---------------------------------------------------------

    /// Run a job: one task per partition of `rdd`, each applying `f` to its
    /// partition within a [`TaskEnv`]. Returns per-partition results.
    pub(crate) fn run_job<T: Data, U: Send + 'static>(
        &self,
        rdd: &Rdd<T>,
        f: Arc<dyn Fn(usize, &mut TaskEnv<'_>) -> U + Send + Sync>,
    ) -> Result<Vec<U>> {
        if !Arc::ptr_eq(&self.inner, &rdd.context().inner) {
            return Err(SparkError::ContextMismatch);
        }
        let inner = &self.inner;
        let plan = build_plan(rdd.node(), &inner.runtime);
        let mut state = inner.state.lock();
        let outcome =
            JobRunner::new(&inner.runtime, &mut state, &inner.executors, plan, f).run()?;
        state.app.jobs += 1;
        state.app.stages += outcome.stages_run;
        Ok(outcome.results)
    }

    // --- observation & control ---------------------------------------------

    /// Current virtual time (the application's running execution time).
    pub fn elapsed(&self) -> SimTime {
        self.inner.state.lock().clock
    }

    /// Charge serial driver-side computation: advances the virtual clock by
    /// `cpu_ns` with no executor parallelism. Workloads whose algorithms do
    /// non-trivial work between jobs on the driver (model normalization,
    /// split selection, …) use this so that work is part of the measured
    /// execution time — exactly as it is for a real Spark driver.
    pub fn run_driver_work(&self, cpu_ns: f64) {
        let mut st = self.inner.state.lock();
        st.clock += SimTime::from_ns_f64(cpu_ns);
        let now = st.clock;
        st.mem.advance(now);
        st.app.totals.cpu_ns += cpu_ns.max(0.0);
    }

    /// Start sampling the full counter time series (media counters,
    /// delivered bandwidth, queue occupancy, dynamic energy) every
    /// `interval` of virtual time (see
    /// [`MemorySystem::enable_counter_sampling`]).
    pub fn enable_counter_sampling(&self, interval: SimTime) {
        self.inner
            .state
            .lock()
            .mem
            .enable_counter_sampling(interval);
    }

    /// The recorded counter samples so far.
    pub fn counter_samples(&self) -> Vec<CounterSample> {
        self.inner.state.lock().mem.counter_samples().to_vec()
    }

    /// Attach a lifecycle-event sink. All jobs run after this call emit
    /// typed events (job/stage/task edges, cache and shuffle activity, MBA
    /// changes) to it. With no sink attached, emission is disabled and
    /// costs nothing measurable.
    pub fn add_event_sink(&self, sink: Box<dyn EventSink>) {
        self.inner.state.lock().events.attach(sink);
    }

    /// Attach (once) a bounded in-memory event log and return a read
    /// handle to it. Idempotent: repeated calls return handles onto the
    /// same ring.
    pub fn enable_event_log(&self) -> MemoryRingHandle {
        let mut st = self.inner.state.lock();
        if let Some(handle) = st.event_log.as_ref() {
            return handle.clone();
        }
        let ring = MemoryRing::new(DEFAULT_RING_CAPACITY);
        let handle = ring.handle();
        st.events.attach(Box::new(ring));
        st.event_log = Some(handle.clone());
        handle
    }

    /// The events retained by the in-memory log (empty if
    /// [`enable_event_log`](Self::enable_event_log) was never called).
    pub fn logged_events(&self) -> Vec<TimedEvent> {
        let log = self.inner.state.lock().event_log.clone();
        log.map(|h| h.events()).unwrap_or_default()
    }

    /// Per-stage metric rollups for every stage completed so far.
    pub fn stage_rollups(&self) -> Vec<StageRollup> {
        self.inner.state.lock().rollups.clone()
    }

    /// The raw profiler log (per-task breakdowns, stage activation edges,
    /// job windows) recorded so far. Always collected, like rollups.
    pub fn profile_log(&self) -> ProfileLog {
        self.inner.state.lock().profile.clone()
    }

    /// The critical-path profile of everything run so far: walks the
    /// recorded DAG, extracts the critical path, and rolls its components
    /// into a conserved attribution of the current virtual time.
    pub fn run_profile(&self) -> RunProfile {
        let st = self.inner.state.lock();
        build_profile(&st.profile, st.clock)
    }

    /// Start recording per-task spans for Chrome-tracing export. Only jobs
    /// run after this call are captured.
    pub fn enable_tracing(&self) {
        self.inner.state.lock().trace.get_or_insert_with(Vec::new);
    }

    /// The recorded task spans, if tracing is enabled.
    pub fn task_spans(&self) -> Option<Vec<crate::trace::TaskSpan>> {
        self.inner.state.lock().trace.clone()
    }

    /// The recorded timeline as Chrome-tracing JSON (`chrome://tracing`,
    /// Perfetto). `None` if tracing was never enabled.
    ///
    /// Task spans are enriched with whatever other telemetry is on: counter
    /// samples become per-tier counter tracks, logged job/stage events
    /// become driver-lane spans with flow arrows, and the critical path is
    /// highlighted (marked spans plus flow arrows chaining the path's
    /// tasks). Call after [`finish`](Self::finish) to include the final
    /// conservation sample.
    pub fn chrome_trace(&self) -> Option<String> {
        let events = self.logged_events();
        let st = self.inner.state.lock();
        let profile = build_profile(&st.profile, st.clock);
        st.trace.as_ref().map(|spans| {
            crate::trace::chrome_trace_json(
                spans,
                crate::trace::TraceLanes {
                    samples: st.mem.counter_samples(),
                    events: &events,
                    profile: Some(&profile),
                    objects: st.mem.object_series(),
                },
            )
        })
    }

    /// The per-object memory-attribution report so far: every Spark-level
    /// object ranked by the media traffic it drove, with per-tier
    /// residency, stall, energy and NVM-wear breakdowns. Always collected
    /// (like the profiler log); conserves against [`counters`](Self::counters)
    /// in exact integers.
    pub fn hotness_report(&self) -> HotnessReport {
        self.inner.state.lock().mem.hotness_report()
    }

    /// The per-object traffic time series recorded so far (one sample per
    /// attributed access batch, cumulative bytes per object).
    pub fn object_series(&self) -> Vec<ObjectSample> {
        self.inner.state.lock().mem.object_series().to_vec()
    }

    /// The windowed rollup of every counter charge so far: per-tier traffic
    /// and priced stall per virtual-time window. Always on (one map upsert
    /// per charge) and conserving against [`counters`](Self::counters) in
    /// exact integers — the run doctor's primary series source.
    pub fn window_rollup(&self) -> WindowRollup {
        self.inner.state.lock().mem.windows().clone()
    }

    /// Emit the structured unpersist event (called by
    /// [`Rdd::unpersist`](crate::rdd::Rdd::unpersist) after the block
    /// manager dropped the RDD's blocks).
    pub(crate) fn emit_unpersist(&self, rdd: u32, bytes_freed: u64) {
        let st = &mut *self.inner.state.lock();
        if st.events.is_active() {
            st.events
                .emit(st.clock, Event::RddUnpersisted { rdd, bytes_freed });
        }
    }

    /// What the placement engine has done so far (all zeros under static
    /// placement).
    pub fn migration_stats(&self) -> MigrationStats {
        self.inner.state.lock().engine.stats()
    }

    /// The active placement policy's name (`"membind"` in static mode).
    pub fn placement_policy_name(&self) -> &'static str {
        self.inner.state.lock().engine.policy_name()
    }

    /// Engine-level metrics so far.
    pub fn metrics(&self) -> AppMetrics {
        self.inner.state.lock().app
    }

    /// Live `ipmctl`-style counter snapshot.
    pub fn counters(&self) -> CounterSnapshot {
        self.inner.state.lock().mem.counters()
    }

    /// Apply an MBA throttle level (percent) to one tier.
    pub fn set_mba_level(&self, tier: TierId, percent: u8) {
        let st = &mut *self.inner.state.lock();
        st.mem.set_mba_level(st.clock, tier, percent);
        if st.events.is_active() {
            st.events
                .emit(st.clock, Event::MbaThrottle { tier, percent });
        }
    }

    /// Apply an MBA throttle level to every tier.
    pub fn set_mba_all(&self, percent: u8) {
        let st = &mut *self.inner.state.lock();
        st.mem.set_mba_all(st.clock, percent);
        if st.events.is_active() {
            for tier in TierId::all() {
                st.events
                    .emit(st.clock, Event::MbaThrottle { tier, percent });
            }
        }
    }

    /// Close out the application: returns the full run report (virtual
    /// time, telemetry with static energy integrated, metrics, event
    /// vector).
    pub fn finish(&self) -> RunReport {
        let st = &mut *self.inner.state.lock();
        let elapsed = st.clock;
        let prof = st.mem.engine_prof().clone();
        let mut report = {
            let _t = prof.phase(ProfPhase::Serialization);
            let telemetry = st.mem.finish_run(elapsed);
            let sink_errors: Vec<String> =
                st.events.flush().iter().map(|e| e.to_string()).collect();
            let metrics = st.app;
            let snap = telemetry.counters;
            let (reads, writes) = TierId::all().iter().fold((0, 0), |(r, w), &t| {
                (r + snap.tier(t).reads, w + snap.tier(t).writes)
            });
            let events = SystemEvents::collect(&metrics, reads, writes);
            let hotness = telemetry.hotness.clone();
            let migrations = st.engine.stats();
            let recovery = st.faults.stats;
            let profile = build_profile(&st.profile, elapsed);
            let digest =
                crate::explain::build_digest(&profile, &st.profile, &hotness, migrations, recovery);
            let cache = self.inner.runtime.cache.stats();
            let params = TierId::all().map(|t| st.mem.tier_params(t).clone());
            let total_cores: u64 = self.inner.executors.iter().map(|e| e.cores as u64).sum();
            let network = st.net.report();
            let doctor = diagnose(&DoctorInputs {
                elapsed,
                total_cores,
                windows: &telemetry.windows,
                counters: &snap,
                params: &params,
                profile: &profile,
                log: &st.profile,
                hotness: &hotness,
                cache: &cache,
                migrations,
                recovery,
                waste_spans: &st.faults.waste_spans,
                object_series: st.mem.object_series(),
                network: network.clone(),
                net: &st.net,
            });
            RunReport {
                elapsed,
                telemetry,
                metrics,
                events,
                cache,
                stage_rollups: st.rollups.clone(),
                profile,
                hotness,
                migrations,
                sink_errors,
                recovery,
                digest,
                doctor,
                network,
                engine: None,
            }
        };
        // Snapshot after the Serialization scope closes so report assembly
        // is included in the phase attribution.
        report.engine = prof.snapshot(elapsed.as_secs_f64());
        debug_assert_eq!(report.audit(), Ok(()));
        report
    }

    /// Fault-injection and recovery statistics so far. Fault and waste
    /// counters are all zeros with no fault plan configured; `useful_time`
    /// accrues regardless.
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.inner.state.lock().faults.stats
    }

    /// Aggregated network-plane activity so far (all zeros under the
    /// default loopback wiring).
    pub fn net_report(&self) -> NetReport {
        self.inner.state.lock().net.report()
    }

    /// Restore full DFS replication after datanode loss, charging every
    /// replica copy through the network plane as a driverless
    /// `src datanode → dst datanode` transfer. The virtual clock advances
    /// to the last copy's completion, so re-replication traffic competes
    /// for the same rack uplinks as everything else. Under loopback wiring
    /// the copies are free and instantaneous, exactly as before the plane
    /// existed. Returns the number of replicas created.
    pub fn rereplicate_dfs(&self) -> Result<usize> {
        let copies = self
            .inner
            .runtime
            .dfs_deployment()
            .rereplicate_with_records()
            .map_err(SparkError::from)?;
        let st = &mut *self.inner.state.lock();
        if !st.net.active() || copies.is_empty() {
            return Ok(copies.len());
        }
        let start = st.clock;
        for c in copies.iter().filter(|c| c.bytes > 0) {
            let topo = st.net.topology().expect("active plane has a topology");
            let route = NetRoute {
                kind: NetChargeKind::Rereplicate,
                src: topo.node_of_datanode(c.src.0),
                dst: topo.node_of_datanode(c.dst.0),
                bytes: c.bytes,
            };
            if route.src == route.dst {
                st.net.note_node_local(c.bytes);
                continue;
            }
            // Pace each copy at its path's nominal solo rate; concurrent
            // copies then fair-share the links like any other flows.
            let nominal = topo.nominal_time(route.src, route.dst, c.bytes);
            let rate = c.bytes as f64 / nominal.as_secs_f64().max(1e-12);
            st.net
                .begin(start, &mut st.events, None, route, rate, false);
        }
        // Drain the plane: re-replication runs to completion before the
        // application resumes, advancing the virtual clock past the last
        // copy.
        while let Some(t) = st.net.next_event_time() {
            st.net.step(t, &mut st.events);
            st.clock = st.clock.max(t);
        }
        st.mem.advance(st.clock);
        Ok(copies.len())
    }
}
