//! RDDs: lazy, lineage-tracked, partitioned collections.
//!
//! The module mirrors Spark's RDD layer. A [`Rdd<T>`] is a cheap typed handle
//! onto an [`RddBase`] lineage node; transformations build new nodes without
//! computing anything, actions hand the terminal node to the DAG scheduler.
//!
//! Computation happens per partition inside a [`TaskEnv`]: narrow parents
//! are pipelined (computed recursively within the same task, memoized for
//! the task's lifetime), shuffle parents are read from the
//! [`ShuffleManager`](crate::shuffle::ShuffleManager), and every operator
//! charges the metrics accumulator with the CPU and memory traffic the time
//! plane will price.

pub mod action;
pub mod cogroup;
pub mod extra;
pub mod map;
pub mod pair;
pub mod shuffled;
pub mod sort;
pub mod source;
pub mod union;

pub use shuffled::{Aggregator, ShuffledRdd};

use crate::context::SparkContext;
use crate::cost::OpCost;
use crate::memsize::{slice_mem_size, MemSize};
use crate::metrics::TaskMetrics;
use crate::net::{NetCharge, NetChargeKind, NetCtx, NetPeer};
use crate::runtime::Runtime;
use crate::shuffle::{AnyPart, ShuffleId};
use crate::storage::StorageLevel;
use memtier_dfs::{BlockInfo, DfsError, FileStatus};
use memtier_memsim::{AccessBatch, ObjectId};
use parking_lot::RwLock;
use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::marker::PhantomData;
use std::sync::Arc;

/// Marker for record types the engine can hold: cloneable, thread-safe and
/// size-estimable. Blanket-implemented; user types only need [`MemSize`].
pub trait Data: Clone + Send + Sync + MemSize + 'static {}
impl<T: Clone + Send + Sync + MemSize + 'static> Data for T {}

/// Marker for key types (hashable + comparable data). Blanket-implemented.
pub trait Key: Data + Eq + Hash {}
impl<T: Data + Eq + Hash> Key for T {}

/// Identifier of a lineage node, unique within one context.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RddId(pub u32);

/// The result of materializing one partition.
pub struct Computed {
    /// `Arc<Vec<T>>`, type-erased.
    pub data: AnyPart,
    /// Record count.
    pub records: u64,
    /// Estimated in-memory bytes.
    pub bytes: u64,
}

impl Computed {
    /// Wrap a typed partition.
    pub fn from_vec<T: Data>(items: Vec<T>) -> Computed {
        let records = items.len() as u64;
        let bytes = slice_mem_size(&items) as u64;
        Computed {
            data: Arc::new(items),
            records,
            bytes,
        }
    }
}

/// Common bookkeeping every lineage node embeds.
#[derive(Debug)]
pub struct RddVitals {
    /// Node id.
    pub id: RddId,
    /// Display name (operator name).
    pub name: String,
    /// Partition count.
    pub partitions: usize,
    /// Current persistence level (mutable: `persist` flips it after
    /// construction, exactly like Spark).
    pub storage: RwLock<StorageLevel>,
}

impl RddVitals {
    /// New vitals with storage level `None`.
    pub fn new(id: RddId, name: impl Into<String>, partitions: usize) -> RddVitals {
        RddVitals {
            id,
            name: name.into(),
            partitions,
            storage: RwLock::new(StorageLevel::None),
        }
    }
}

/// A dependency edge in the lineage graph.
#[derive(Clone)]
pub enum Dep {
    /// Narrow: each child partition reads exactly one parent partition;
    /// pipelined within the same stage.
    Narrow(Arc<dyn RddBase>),
    /// Wide: requires a shuffle; forms a stage boundary.
    Shuffle(Arc<ShuffleDep>),
}

/// A shuffle dependency: the map-side writer plus its registration.
pub struct ShuffleDep {
    /// Shuffle registration in the manager.
    pub shuffle_id: ShuffleId,
    /// The map-side parent RDD.
    pub parent: Arc<dyn RddBase>,
    /// Reduce partition count.
    pub num_reduces: usize,
    /// Type-aware map-task logic (bucketing + map-side combine).
    pub writer: Arc<dyn ShuffleWriter>,
}

/// Map-task logic of one shuffle: compute parent partition `map_part`,
/// bucket it by the partitioner, and store buckets in the shuffle manager,
/// charging the env for the traffic.
pub trait ShuffleWriter: Send + Sync {
    /// Execute the map side for one partition.
    fn write_partition(&self, map_part: usize, env: &mut TaskEnv<'_>);
}

/// A lineage node. Object-safe so the scheduler can walk heterogeneous
/// graphs; the typed API lives on [`Rdd<T>`].
pub trait RddBase: Send + Sync {
    /// Node id.
    fn id(&self) -> RddId;
    /// Operator name.
    fn name(&self) -> String;
    /// Partition count.
    fn num_partitions(&self) -> usize;
    /// Dependency edges.
    fn deps(&self) -> Vec<Dep>;
    /// Current persistence level.
    fn storage_level(&self) -> StorageLevel;
    /// Set the persistence level (used by `persist`/`unpersist`).
    fn set_storage_level(&self, level: StorageLevel);
    /// Materialize one partition within a task.
    fn compute_partition(&self, part: usize, env: &mut TaskEnv<'_>) -> Computed;
    /// Datanodes holding this partition's input (DFS replica residency).
    /// Empty for everything but storage-backed sources; the locality-aware
    /// scheduler maps these to nodes when ranking placements.
    fn preferred_replicas(&self, _part: usize) -> Vec<u32> {
        Vec::new()
    }
}

/// Per-task execution environment: runtime services, a metrics accumulator,
/// and the pipeline memo (computed partitions of this task's lineage chain).
pub struct TaskEnv<'a> {
    /// Shared services (shuffle manager, block cache, cost model, DFS).
    pub rt: &'a Runtime,
    /// Metrics accumulated by this task.
    pub metrics: TaskMetrics,
    /// Per-object decomposition of `metrics.traffic`: which Spark-level
    /// entity each access batch belongs to. The map's values sum to
    /// `metrics.traffic` exactly (every charge path goes through
    /// [`add_traffic`](Self::add_traffic)), which is what lets the
    /// scheduler's attribution conserve against the machine counters.
    pub object_traffic: BTreeMap<ObjectId, AccessBatch>,
    /// Network charges recorded by operators (shuffle fetches, DFS I/O,
    /// broadcast pulls). Only populated when a topology is configured
    /// (`net_ctx` is set); the scheduler resolves them into flows on the
    /// network plane after the data plane finishes.
    pub net_charges: Vec<NetCharge>,
    /// Topology context of the hosting executor. `None` under loopback
    /// wiring, in which case no charge is recorded and every code path is
    /// byte-identical to the pre-plane engine.
    pub net_ctx: Option<NetCtx>,
    memo: HashMap<(RddId, usize), AnyPart>,
}

impl<'a> TaskEnv<'a> {
    /// A fresh environment for one task.
    pub fn new(rt: &'a Runtime) -> TaskEnv<'a> {
        TaskEnv {
            rt,
            metrics: TaskMetrics::default(),
            object_traffic: BTreeMap::new(),
            net_charges: Vec::new(),
            net_ctx: None,
            memo: HashMap::new(),
        }
    }

    /// Materialize a narrow parent partition, pipelining within this task.
    ///
    /// Resolution order: task memo → block cache (for persisted RDDs,
    /// charging a cache read) → recursive compute (charging whatever the
    /// parent's operators charge, then a cache write if persisted).
    ///
    /// # Panics
    /// Panics if the parent's partition type is not `Vec<T>` — a lineage
    /// construction bug, not a runtime condition.
    pub fn narrow_input<T: Data>(&mut self, parent: &Arc<dyn RddBase>, part: usize) -> Arc<Vec<T>> {
        let key = (parent.id(), part);
        if let Some(hit) = self.memo.get(&key) {
            return downcast::<T>(hit.clone(), parent);
        }
        let level = parent.storage_level();
        if level.is_cached() {
            if let Some((data, bytes, location)) = self.rt.cache.get((parent.id().0, part)) {
                self.metrics.cache_hits += 1;
                self.charge_input_scan(ObjectId::CacheBlock { rdd: parent.id().0 }, bytes);
                if location == crate::storage::BlockLocation::Disk {
                    // Spilled block: pay the disk read on top of the scan.
                    self.charge_cpu_ns(
                        bytes as f64 * self.rt.cost.disk_read_ns_per_byte
                            + self.rt.cost.disk_seek_ns,
                    );
                }
                self.memo.insert(key, data.clone());
                return downcast::<T>(data, parent);
            }
            self.metrics.cache_misses += 1;
        }
        let computed = parent.compute_partition(part, self);
        if level.is_cached()
            && self.rt.cache.put(
                (parent.id().0, part),
                computed.data.clone(),
                computed.bytes,
                level,
            )
        {
            self.charge_materialize(ObjectId::CacheBlock { rdd: parent.id().0 }, computed.bytes);
        }
        self.memo.insert(key, computed.data.clone());
        downcast::<T>(computed.data, parent)
    }

    /// Charge pure CPU time.
    pub fn charge_cpu_ns(&mut self, ns: f64) {
        self.metrics.cpu_ns += ns.max(0.0);
    }

    /// Charge memory traffic to an object: accumulates both the task's
    /// aggregate traffic and the per-object decomposition. Every traffic
    /// charge funnels through here so the two always agree.
    pub fn add_traffic(&mut self, object: ObjectId, batch: AccessBatch) {
        self.metrics.traffic += batch;
        *self.object_traffic.entry(object).or_default() += batch;
    }

    /// Charge a sequential stage-input scan of `object`: read traffic plus
    /// deserialization CPU.
    pub fn charge_input_scan(&mut self, object: ObjectId, bytes: u64) {
        self.metrics.input_bytes += bytes;
        self.add_traffic(object, AccessBatch::sequential_read(bytes));
        self.metrics.cpu_ns += bytes as f64 * self.rt.cost.scan_ns_per_byte;
    }

    /// Charge a sequential stage-output materialization of `object`: write
    /// traffic plus serialization CPU.
    pub fn charge_materialize(&mut self, object: ObjectId, bytes: u64) {
        self.metrics.output_bytes += bytes;
        self.add_traffic(object, AccessBatch::sequential_write(bytes));
        self.metrics.cpu_ns += bytes as f64 * self.rt.cost.write_ns_per_byte;
    }

    /// Charge random working-set accesses (hash probes, index walks).
    /// Attributed to operator scratch.
    pub fn charge_random(&mut self, reads: u64, writes: u64) {
        self.add_traffic(
            ObjectId::Scratch,
            AccessBatch::random_reads(reads) + AccessBatch::random_writes(writes),
        );
    }

    /// Charge an operator pass over `records` records with the given hint.
    pub fn charge_op(&mut self, records: u64, op: &OpCost) {
        self.metrics.cpu_ns += records as f64 * op.cpu_ns_per_record;
        let reads = (records as f64 * op.rnd_reads_per_record).round() as u64;
        let writes = (records as f64 * op.rnd_writes_per_record).round() as u64;
        self.charge_random(reads, writes);
    }

    /// Charge writing `bytes` of shuffle output: write traffic plus
    /// serialization CPU.
    pub fn charge_shuffle_write(&mut self, shuffle: ShuffleId, bytes: u64) {
        self.metrics.shuffle_write_bytes += bytes;
        self.metrics.output_bytes += bytes;
        self.add_traffic(
            ObjectId::ShuffleWrite { shuffle: shuffle.0 },
            AccessBatch::sequential_write(bytes),
        );
        self.metrics.cpu_ns += bytes as f64 * self.rt.cost.write_ns_per_byte;
        if self.rt.shuffle_through_disk {
            // MapReduce mode: the map output is materialized on disk.
            self.metrics.cpu_ns +=
                bytes as f64 * self.rt.cost.disk_write_ns_per_byte + self.rt.cost.disk_seek_ns;
        }
    }

    /// Charge fetching `bytes` of shuffle input spread over `buckets`
    /// buckets: read traffic, deserialization CPU, plus the per-bucket fetch
    /// overhead (connection setup CPU and index-walk random reads).
    pub fn charge_shuffle_read(&mut self, shuffle: ShuffleId, bytes: u64, buckets: u64) {
        self.metrics.shuffle_read_bytes += bytes;
        self.metrics.input_bytes += bytes;
        self.metrics.shuffle_buckets_read += buckets;
        let object = ObjectId::ShuffleFetch { shuffle: shuffle.0 };
        self.add_traffic(object, AccessBatch::sequential_read(bytes));
        let mut fetch_ns = bytes as f64 * self.rt.cost.scan_ns_per_byte
            + buckets as f64 * self.rt.cost.bucket_overhead_ns;
        if self.rt.shuffle_through_disk {
            // MapReduce mode: reducers re-read materialized map output from
            // disk, one seek per bucket.
            fetch_ns += bytes as f64 * self.rt.cost.disk_read_ns_per_byte
                + buckets as f64 * self.rt.cost.disk_seek_ns;
        }
        self.metrics.cpu_ns += fetch_ns;
        // Mirror into the profiler's shuffle-fetch bucket so the breakdown
        // can split fetch processing out of the compute component.
        self.metrics.shuffle_fetch_ns += fetch_ns;
        // Bucket index walks belong to the fetch segment, not to scratch.
        self.add_traffic(
            object,
            AccessBatch::random_reads(buckets * self.rt.cost.bucket_random_reads),
        );
    }

    /// Charge a hash-aggregation pass over `records` records against a
    /// table of `table_bytes`. Cache-resident tables (small combiner maps)
    /// cost CPU plus a trickle of cold misses; tables beyond
    /// `cache_resident_bytes` pay full per-probe memory traffic — the
    /// mechanism that makes large aggregation state tier-sensitive.
    pub fn charge_hash_ops(&mut self, records: u64, table_bytes: u64) {
        let cpu = records as f64 * self.rt.cost.per_record_ns * 0.6;
        self.charge_cpu_ns(cpu);
        let (reads, writes) = if table_bytes <= self.rt.cost.cache_resident_bytes {
            let f = self.rt.cost.hash_cold_fraction;
            (
                (records as f64 * f).round() as u64,
                (records as f64 * f * 0.5).round() as u64,
            )
        } else {
            (
                (records as f64 * self.rt.cost.hash_reads_per_record).round() as u64,
                (records as f64 * self.rt.cost.hash_writes_per_record).round() as u64,
            )
        };
        self.charge_random(reads, writes);
    }

    /// Record records flowing through the terminal operator.
    pub fn charge_records(&mut self, records_in: u64, records_out: u64) {
        self.metrics.records_in += records_in;
        self.metrics.records_out += records_out;
    }

    /// Record a network charge for the scheduler to turn into a flow on the
    /// network plane. A no-op under loopback wiring (no topology context)
    /// and for empty payloads, so pre-plane runs never see it.
    pub fn record_net(&mut self, kind: NetChargeKind, peer: NetPeer, inbound: bool, bytes: u64) {
        if self.net_ctx.is_none() || bytes == 0 {
            return;
        }
        self.net_charges.push(NetCharge {
            kind,
            peer,
            inbound,
            bytes,
        });
    }

    /// Record the per-source network charges of a reduce-side fetch: one
    /// inbound charge per map executor that produced bytes for `reduce`.
    /// Complements [`charge_shuffle_read`](Self::charge_shuffle_read) (which
    /// prices the memory/CPU side) and is a no-op under loopback wiring.
    pub fn charge_shuffle_sources(&mut self, shuffle: ShuffleId, reduce: usize) {
        if self.net_ctx.is_none() {
            return;
        }
        for (exec, bytes) in self.rt.shuffle.reduce_sources(shuffle, reduce) {
            self.record_net(
                NetChargeKind::ShuffleFetch,
                NetPeer::Executor(exec),
                true,
                bytes,
            );
        }
    }

    /// Read a DFS block through the network plane's locality lens: with a
    /// topology configured, live replicas are tried closest-first
    /// (node-local > rack-local > remote, declaration order within a
    /// class) and the serving datanode is charged as an inbound transfer.
    /// Without one this is exactly `read_block(block, None)`.
    pub fn dfs_read(&mut self, block: &BlockInfo) -> Result<Arc<Vec<u8>>, DfsError> {
        let client = self.rt.dfs();
        let Some(ctx) = self.net_ctx.clone() else {
            return client.read_block(block, None);
        };
        let (data, served) = client.read_block_ranked(block, |d| {
            match ctx.topo.locality(ctx.topo.node_of_datanode(d.0), ctx.node) {
                memtier_netsim::Locality::NodeLocal => 0,
                memtier_netsim::Locality::RackLocal => 1,
                memtier_netsim::Locality::Remote => 2,
            }
        })?;
        self.record_net(
            NetChargeKind::DfsRead,
            NetPeer::Datanode(served.0),
            true,
            data.len() as u64,
        );
        Ok(data)
    }

    /// Write a DFS file, charging one outbound transfer per block replica
    /// when a topology is configured (replica fan-out is network traffic).
    ///
    /// First committer wins: task output is a pure function of the
    /// partition, so a path that already holds a file of this length is an
    /// earlier attempt's commit of the same bytes (a retry or a speculative
    /// twin got there first). The re-attempt keeps that file, is charged its
    /// write traffic like any other attempt, and succeeds.
    pub fn dfs_write(
        &mut self,
        path: &str,
        data: &[u8],
        block_size: usize,
        replication: usize,
    ) -> Result<FileStatus, DfsError> {
        let dfs = self.rt.dfs();
        let status = match dfs.write_file(path, data, block_size, replication) {
            Err(DfsError::FileExists(p)) => match dfs.stat(path) {
                Ok(committed) if committed.len == data.len() as u64 => committed,
                _ => return Err(DfsError::FileExists(p)),
            },
            other => other?,
        };
        if self.net_ctx.is_some() {
            for block in &status.blocks {
                for &replica in &block.replicas {
                    self.record_net(
                        NetChargeKind::DfsWrite,
                        NetPeer::Datanode(replica.0),
                        false,
                        block.len as u64,
                    );
                }
            }
        }
        Ok(status)
    }
}

fn downcast<T: Data>(part: AnyPart, parent: &Arc<dyn RddBase>) -> Arc<Vec<T>> {
    part.downcast::<Vec<T>>().unwrap_or_else(|_| {
        panic!(
            "lineage type error: partition of {} is not Vec<{}>",
            parent.name(),
            std::any::type_name::<T>()
        )
    })
}

/// A typed handle onto a lineage node. Cloning is cheap (two `Arc` bumps).
///
/// # Examples
///
/// ```
/// use sparklite::{SparkConf, SparkContext};
///
/// let sc = SparkContext::new(SparkConf::default().with_parallelism(4)).unwrap();
/// let mut counts = sc
///     .parallelize(vec!["a", "b", "a"], 2)
///     .map(|w| (w.to_string(), 1u64))
///     .reduce_by_key(|x, y| x + y)
///     .collect()
///     .unwrap();
/// counts.sort();
/// assert_eq!(counts, vec![("a".into(), 2), ("b".into(), 1)]);
/// ```
pub struct Rdd<T: Data> {
    pub(crate) node: Arc<dyn RddBase>,
    pub(crate) ctx: SparkContext,
    _marker: PhantomData<fn() -> T>,
}

impl<T: Data> Clone for Rdd<T> {
    fn clone(&self) -> Self {
        Rdd {
            node: Arc::clone(&self.node),
            ctx: self.ctx.clone(),
            _marker: PhantomData,
        }
    }
}

impl<T: Data> Rdd<T> {
    /// Wrap a lineage node (crate-internal; users go through transformations
    /// and `SparkContext` sources).
    pub(crate) fn from_node(node: Arc<dyn RddBase>, ctx: SparkContext) -> Rdd<T> {
        Rdd {
            node,
            ctx,
            _marker: PhantomData,
        }
    }

    /// This RDD's id.
    pub fn id(&self) -> RddId {
        self.node.id()
    }

    /// Operator name.
    pub fn name(&self) -> String {
        self.node.name()
    }

    /// Partition count.
    pub fn num_partitions(&self) -> usize {
        self.node.num_partitions()
    }

    /// The owning context.
    pub fn context(&self) -> &SparkContext {
        &self.ctx
    }

    /// Persist at the given level; returns the same RDD for chaining.
    pub fn persist(&self, level: StorageLevel) -> Rdd<T> {
        self.node.set_storage_level(level);
        self.clone()
    }

    /// Shorthand for `persist(StorageLevel::MemoryOnly)`.
    pub fn cache(&self) -> Rdd<T> {
        self.persist(StorageLevel::MemoryOnly)
    }

    /// Drop persistence and free cached blocks. Emits a structured
    /// [`RddUnpersisted`](crate::events::Event::RddUnpersisted) event with
    /// the bytes freed when an event sink is attached.
    pub fn unpersist(&self) {
        self.node.set_storage_level(StorageLevel::None);
        let freed = self.ctx.runtime().cache.unpersist(self.id().0);
        self.ctx.emit_unpersist(self.id().0, freed);
    }

    /// Current storage level.
    pub fn storage_level(&self) -> StorageLevel {
        self.node.storage_level()
    }

    /// The underlying lineage node (for the scheduler).
    pub(crate) fn node(&self) -> &Arc<dyn RddBase> {
        &self.node
    }
}
