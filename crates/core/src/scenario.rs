//! Experimental points and their measurements.

use memtier_des::SimTime;
use memtier_memsim::{
    CounterSnapshot, HotnessReport, MigrationStats, PlacementSpec, TierId, NUM_TIERS,
};
use memtier_workloads::DataSize;
use serde::{Deserialize, Serialize};
use sparklite::{
    AuditError, DoctorReport, EngineStats, FaultPlan, NetReport, NetworkMode, RecoveryStats,
    RunDigest, RunProfile, RunView, StageRollup,
};

/// One experimental configuration — a cell of the paper's sweeps.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Workload name (`sort`, `pagerank`, ...).
    pub workload: String,
    /// Input profile.
    pub size: DataSize,
    /// Memory tier the executors are bound to.
    pub tier: TierId,
    /// Executor count.
    pub executors: usize,
    /// Cores per executor.
    pub cores: usize,
    /// MBA throttle applied to every tier (percent), if any.
    pub mba_percent: Option<u8>,
    /// Workload seed.
    pub seed: u64,
    /// Dynamic placement policy, if any. `None` (the default, and what
    /// every scenario serialized before the placement engine existed
    /// deserializes to) keeps the static per-executor `membind` split.
    #[serde(default)]
    pub placement: Option<PlacementSpec>,
    /// Deterministic fault-injection plan, if any. `None` (the default,
    /// and what every scenario serialized before the fault engine existed
    /// deserializes to) runs failure-free.
    #[serde(default)]
    pub faults: Option<FaultPlan>,
    /// Cluster network wiring, if any. `None` (the default, and what every
    /// scenario serialized before the network plane existed deserializes
    /// to) keeps free loopback transfers. Skipped when absent so pre-plane
    /// scenario JSON stays byte-identical.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub network: Option<NetworkMode>,
}

impl Scenario {
    /// The paper's default deployment (1 executor × 40 cores, no MBA) of a
    /// workload on a tier.
    pub fn default_conf(workload: &str, size: DataSize, tier: TierId) -> Scenario {
        Scenario {
            workload: workload.to_string(),
            size,
            tier,
            executors: 1,
            cores: 40,
            mba_percent: None,
            seed: 42,
            placement: None,
            faults: None,
            network: None,
        }
    }

    /// Override the executor grid.
    pub fn with_grid(mut self, executors: usize, cores: usize) -> Scenario {
        self.executors = executors;
        self.cores = cores;
        self
    }

    /// Override the MBA throttle.
    pub fn with_mba(mut self, percent: u8) -> Scenario {
        self.mba_percent = Some(percent);
        self
    }

    /// Override the seed.
    pub fn with_seed(mut self, seed: u64) -> Scenario {
        self.seed = seed;
        self
    }

    /// Route object traffic through a dynamic placement policy.
    pub fn with_placement(mut self, spec: PlacementSpec) -> Scenario {
        self.placement = Some(spec);
        self
    }

    /// Inject deterministic faults from `plan` and exercise recovery.
    pub fn with_faults(mut self, plan: FaultPlan) -> Scenario {
        self.faults = Some(plan);
        self
    }

    /// Wire the cluster through a simulated network topology.
    pub fn with_network(mut self, mode: NetworkMode) -> Scenario {
        self.network = Some(mode);
        self
    }

    /// A short display label (`pagerank-large@Tier 2, 1x40`); dynamic
    /// placement appends the policy (`…, 1x40 [hotcold(256MiB,5ms)]`) and
    /// a fault plan appends its own summary (`…, 1x40 [faults(seed3,…)]`),
    /// so fault-free static labels — and everything keyed on them — are
    /// unchanged.
    pub fn label(&self) -> String {
        let mut label = format!(
            "{}-{}@{}, {}x{}",
            self.workload, self.size, self.tier, self.executors, self.cores
        );
        if let Some(spec) = &self.placement {
            label = format!("{label} [{}]", spec.label());
        }
        if let Some(plan) = &self.faults {
            label = format!("{label} [{}]", plan.label());
        }
        if let Some(net) = &self.network {
            label = format!("{label} [{}]", net.label());
        }
        label
    }
}

/// Everything measured for one scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioResult {
    /// The configuration that produced this result.
    pub scenario: Scenario,
    /// Virtual execution time in seconds.
    pub elapsed_s: f64,
    /// `ipmctl`-style access counters per tier.
    pub counters: CounterSnapshot,
    /// Total energy per tier, joules (static + dynamic over the run).
    pub energy_j: [f64; NUM_TIERS],
    /// Energy per DIMM per tier, joules (Fig. 2 bottom's unit).
    pub energy_per_dimm_j: [f64; NUM_TIERS],
    /// System-level event vector (Fig. 5's features).
    pub events: Vec<(String, f64)>,
    /// Jobs / stages / tasks executed.
    pub jobs: u64,
    /// Stages executed.
    pub stages: u64,
    /// Tasks executed.
    pub tasks: u64,
    /// Workload verification: output record count.
    pub output_records: u64,
    /// Workload verification: output checksum.
    pub checksum: u64,
    /// Workload quality figure (meaning is per-app).
    pub quality: f64,
    /// Per-stage metric rollups in completion order (`#[serde(default)]`
    /// so result JSON written before this field existed still loads).
    #[serde(default)]
    pub stage_rollups: Vec<StageRollup>,
    /// Critical-path profile: conserved attribution of `elapsed_s` over
    /// named components plus the path itself (`#[serde(default)]` for the
    /// same backward-compatibility reason as `stage_rollups`).
    #[serde(default)]
    pub profile: RunProfile,
    /// Per-object memory attribution: objects ranked by the traffic they
    /// drove, with per-tier residency, stall, energy and NVM-wear
    /// breakdowns. Conserves against `counters` in exact integers
    /// (`#[serde(default)]` for backward compatibility).
    #[serde(default)]
    pub hotness: HotnessReport,
    /// What the placement engine did (all zeros under static placement;
    /// `#[serde(default)]` for backward compatibility).
    #[serde(default)]
    pub migrations: MigrationStats,
    /// Fault-injection and recovery rollup: failures, retries,
    /// resubmissions, speculation outcomes, useful vs. wasted virtual
    /// time, recompute bytes per tier. Fault and waste counters are all
    /// zeros without a fault plan; `useful_time` accrues on every run
    /// (`#[serde(default)]` for backward compatibility).
    #[serde(default)]
    pub recovery: RecoveryStats,
    /// Compact conserved decomposition of the run for the regression
    /// explainer (`sparklite::explain`): critical-path phases sliced per
    /// stage, per-object × per-tier footprints, and migration/recovery
    /// rollups, all exact integers. A pure function of the run, inside the
    /// byte-identity domain (`#[serde(default)]` for backward
    /// compatibility — pre-explainer artifacts load with an empty digest).
    #[serde(default)]
    pub digest: RunDigest,
    /// The run doctor's diagnosis: conserved windowed series plus ranked,
    /// evidence-backed findings (`sparklite::doctor`). Built from always-on
    /// sources only, so it is a pure function of the run and stays inside
    /// the byte-identity domain — two generations of the same scenario
    /// carry byte-identical doctor reports (`#[serde(default)]` for
    /// backward compatibility — pre-doctor artifacts load with an empty
    /// report).
    #[serde(default)]
    pub doctor: DoctorReport,
    /// Aggregated network-plane activity: transfers and bytes by locality
    /// class and traffic kind, plus per-link totals. All zeros under
    /// loopback wiring — and skipped from the JSON entirely, so pre-plane
    /// artifacts (and every loopback run) stay byte-identical
    /// (`#[serde(default)]` for backward compatibility).
    #[serde(default, skip_serializing_if = "NetReport::is_empty")]
    pub network: NetReport,
    /// Wall-clock engine self-profiling sidecar, present only when the run
    /// enabled `profile_engine`. **Strictly outside the byte-identity
    /// domain**: every other field is a pure function of (workload, config,
    /// seed), while this block carries host-dependent wall-clock numbers.
    /// Skipped entirely when absent so profiling-off artifacts are unchanged
    /// byte for byte, and ignored by the `compare` bin by construction (its
    /// row type deserializes only scenario + virtual runtime).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub engine: Option<EngineStats>,
}

impl ScenarioResult {
    /// Total media accesses (reads + writes) on the bound tier.
    pub fn bound_tier_accesses(&self) -> u64 {
        self.counters.tier(self.scenario.tier).total()
    }

    /// Media reads / writes on the bound tier.
    pub fn bound_tier_rw(&self) -> (u64, u64) {
        let t = self.counters.tier(self.scenario.tier);
        (t.reads, t.writes)
    }

    /// Write ratio on the bound tier (0 when idle).
    pub fn write_ratio(&self) -> f64 {
        let (r, w) = self.bound_tier_rw();
        if r + w == 0 {
            0.0
        } else {
            w as f64 / (r + w) as f64
        }
    }

    /// Value of a named system event.
    pub fn event(&self, name: &str) -> Option<f64> {
        self.events.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Hold the run to every conservation identity it owes
    /// (`sparklite::audit`), whatever its placement mode, fault plan or
    /// wiring; the error names the first that fails. Reads only this
    /// result's fields, so an artifact read back from JSON audits the same.
    pub fn audit(&self) -> Result<(), AuditError> {
        RunView {
            // Seconds-as-f64 names its picosecond count exactly below 2^51
            // ps (37 virtual minutes; the suite's runs are under a second).
            elapsed: SimTime::from_secs_f64(self.elapsed_s),
            counters: &self.counters,
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

    /// The virtual-identity serialization: this result as canonical JSON
    /// with the wall-clock `engine` sidecar removed. Two runs of the same
    /// scenario must produce *equal strings* here regardless of whether
    /// engine profiling was enabled — this is the firewall the observability
    /// tests assert byte-for-byte.
    pub fn virtual_identity_json(&self) -> String {
        let mut v = serde_json::to_value(self).expect("serialize ScenarioResult");
        if let Some(map) = v.as_object_mut() {
            map.remove("engine");
        }
        serde_json::to_string(&v).expect("render ScenarioResult json")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_label() {
        let s = Scenario::default_conf("sort", DataSize::Tiny, TierId::NVM_NEAR)
            .with_grid(4, 10)
            .with_mba(50)
            .with_seed(7);
        assert_eq!(s.executors, 4);
        assert_eq!(s.cores, 10);
        assert_eq!(s.mba_percent, Some(50));
        assert_eq!(s.seed, 7);
        assert_eq!(s.label(), "sort-tiny@Tier 2, 4x10");
    }

    #[test]
    fn scenario_serde_roundtrip() {
        let s = Scenario::default_conf("lda", DataSize::Large, TierId::NVM_FAR);
        let json = serde_json::to_string(&s).unwrap();
        let back: Scenario = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn placement_is_optional_and_labeled() {
        // Scenarios serialized before the placement engine carry no
        // `placement` key; they must load as static.
        let mut json = serde_json::to_value(Scenario::default_conf(
            "sort",
            DataSize::Tiny,
            TierId::NVM_NEAR,
        ))
        .unwrap();
        json.as_object_mut().unwrap().remove("placement");
        let back: Scenario = serde_json::from_value(json).unwrap();
        assert_eq!(back.placement, None);
        assert_eq!(back.label(), "sort-tiny@Tier 2, 1x40");
        // Dynamic placement shows up only as a label suffix.
        let dynamic = back
            .clone()
            .with_placement(PlacementSpec::hot_cold(256 << 20, SimTime::from_ms(5)));
        assert!(dynamic.label().starts_with("sort-tiny@Tier 2, 1x40 ["));
        assert!(dynamic.label().contains("hotcold(256MiB"));
    }

    #[test]
    fn engine_sidecar_is_optional_and_skipped_when_absent() {
        // A result with no engine block serializes without the key at all
        // (so profiling-off artifacts are unchanged byte for byte), and old
        // JSON without the key loads as None.
        let s = Scenario::default_conf("sort", DataSize::Tiny, TierId::NVM_NEAR);
        let result = ScenarioResult {
            scenario: s,
            elapsed_s: 1.5,
            counters: CounterSnapshot::zero(),
            energy_j: [0.0; NUM_TIERS],
            energy_per_dimm_j: [0.0; NUM_TIERS],
            events: Vec::new(),
            jobs: 1,
            stages: 1,
            tasks: 1,
            output_records: 1,
            checksum: 1,
            quality: 0.0,
            stage_rollups: Vec::new(),
            profile: RunProfile::default(),
            hotness: HotnessReport::default(),
            migrations: MigrationStats::default(),
            recovery: RecoveryStats::default(),
            digest: RunDigest::default(),
            doctor: DoctorReport::default(),
            network: NetReport::default(),
            engine: None,
        };
        let json = serde_json::to_string(&result).unwrap();
        assert!(
            !json.contains("\"engine\""),
            "absent sidecar must not serialize"
        );
        assert!(
            !json.contains("\"network\""),
            "a quiet net report must not serialize"
        );
        let back: ScenarioResult = serde_json::from_str(&json).unwrap();
        assert_eq!(back.engine, None);
        // The virtual-identity view is insensitive to the sidecar.
        let mut profiled = result.clone();
        profiled.engine = Some(EngineStats {
            wall_ms: 12.5,
            events_total: 100,
            ..EngineStats::default()
        });
        assert_eq!(
            result.virtual_identity_json(),
            profiled.virtual_identity_json(),
            "engine sidecar must be invisible to the byte-identity view"
        );
        // But the sidecar itself round-trips when present.
        let j2 = serde_json::to_string(&profiled).unwrap();
        let b2: ScenarioResult = serde_json::from_str(&j2).unwrap();
        assert_eq!(b2.engine.as_ref().unwrap().events_total, 100);
    }

    #[test]
    fn fault_plan_is_optional_and_labeled() {
        // Scenarios serialized before the fault engine carry no `faults`
        // key; they must load as failure-free.
        let mut json = serde_json::to_value(Scenario::default_conf(
            "sort",
            DataSize::Tiny,
            TierId::NVM_NEAR,
        ))
        .unwrap();
        json.as_object_mut().unwrap().remove("faults");
        let back: Scenario = serde_json::from_value(json).unwrap();
        assert_eq!(back.faults, None);
        assert_eq!(back.label(), "sort-tiny@Tier 2, 1x40");
        // A fault plan shows up only as a label suffix.
        let faulty = back
            .clone()
            .with_faults(FaultPlan::seeded(3).with_task_failures(0.05));
        assert!(faulty
            .label()
            .starts_with("sort-tiny@Tier 2, 1x40 [faults("));
        // And the recovery rollup defaults to quiet for old result JSON.
        assert!(RecoveryStats::default().is_quiet());
    }

    #[test]
    fn network_is_optional_and_labeled() {
        use sparklite::{LocalityMode, NetTopology};
        // Scenarios serialized before the network plane carry no `network`
        // key; they must load as loopback, and a loopback scenario must not
        // serialize the key at all.
        let s = Scenario::default_conf("sort", DataSize::Tiny, TierId::NVM_NEAR);
        let json = serde_json::to_string(&s).unwrap();
        assert!(!json.contains("\"network\""));
        let back: Scenario = serde_json::from_str(&json).unwrap();
        assert_eq!(back.network, None);
        assert_eq!(back.label(), "sort-tiny@Tier 2, 1x40");
        // A topology shows up only as a label suffix, and round-trips.
        let wired = back.clone().with_network(NetworkMode::Topology {
            topology: NetTopology::new(4, 2),
            locality: LocalityMode::DelayScheduling {
                wait: SimTime::from_ms(1),
            },
        });
        assert!(wired
            .label()
            .starts_with("sort-tiny@Tier 2, 1x40 [net(4n/2r,"));
        assert!(wired.label().contains("delay1000us"));
        let j2 = serde_json::to_string(&wired).unwrap();
        let b2: Scenario = serde_json::from_str(&j2).unwrap();
        assert_eq!(wired, b2);
    }
}
