//! Actions: the operations that trigger job execution.

use crate::error::{Result, SparkError};
use crate::memsize::{slice_mem_size, MemSize};
use crate::rdd::{Data, Key, Rdd, TaskEnv};
use std::collections::HashMap;
use std::sync::Arc;

impl<T: Data> Rdd<T> {
    /// Materialize every partition on the driver.
    pub fn collect(&self) -> Result<Vec<T>> {
        let node = Arc::clone(&self.node);
        let parts: Vec<Vec<T>> = self.ctx.run_job(
            self,
            Arc::new(move |part, env: &mut TaskEnv<'_>| {
                let data = env.narrow_input::<T>(&node, part);
                // Serializing results back to the driver is a stage output.
                env.charge_materialize(
                    memtier_memsim::ObjectId::Scratch,
                    slice_mem_size(&data) as u64,
                );
                (*data).clone()
            }),
        )?;
        Ok(parts.into_iter().flatten().collect())
    }

    /// Count records.
    pub fn count(&self) -> Result<u64> {
        let node = Arc::clone(&self.node);
        let parts: Vec<u64> = self.ctx.run_job(
            self,
            Arc::new(move |part, env: &mut TaskEnv<'_>| {
                env.narrow_input::<T>(&node, part).len() as u64
            }),
        )?;
        Ok(parts.into_iter().sum())
    }

    /// Reduce all records with `f`.
    ///
    /// Errors with [`SparkError::EmptyCollection`] on an empty RDD.
    pub fn reduce(&self, f: impl Fn(T, T) -> T + Send + Sync + 'static) -> Result<T> {
        let node = Arc::clone(&self.node);
        let f = Arc::new(f);
        let task_f = Arc::clone(&f);
        let parts: Vec<Option<T>> = self.ctx.run_job(
            self,
            Arc::new(move |part, env: &mut TaskEnv<'_>| {
                let data = env.narrow_input::<T>(&node, part);
                env.charge_cpu_ns(data.len() as f64 * env.rt.cost.per_record_ns * 0.5);
                data.iter().cloned().reduce(|a, b| task_f(a, b))
            }),
        )?;
        parts
            .into_iter()
            .flatten()
            .reduce(|a, b| f(a, b))
            .ok_or(SparkError::EmptyCollection)
    }

    /// Fold with a zero value (applied per partition, then across).
    pub fn fold(&self, zero: T, f: impl Fn(T, T) -> T + Send + Sync + 'static) -> Result<T> {
        let node = Arc::clone(&self.node);
        let f = Arc::new(f);
        let task_f = Arc::clone(&f);
        let z = zero.clone();
        let parts: Vec<T> = self.ctx.run_job(
            self,
            Arc::new(move |part, env: &mut TaskEnv<'_>| {
                let data = env.narrow_input::<T>(&node, part);
                env.charge_cpu_ns(data.len() as f64 * env.rt.cost.per_record_ns * 0.5);
                data.iter().cloned().fold(z.clone(), |a, b| task_f(a, b))
            }),
        )?;
        Ok(parts.into_iter().fold(zero, |a, b| f(a, b)))
    }

    /// The first `n` records (in partition order).
    ///
    /// Simplification vs Spark: all partitions are computed rather than
    /// incrementally scanning — acceptable because the engine's partitions
    /// are materialized per job anyway.
    pub fn take(&self, n: usize) -> Result<Vec<T>> {
        let mut all = self.collect()?;
        all.truncate(n);
        Ok(all)
    }

    /// The first record.
    pub fn first(&self) -> Result<T> {
        self.take(1)?
            .into_iter()
            .next()
            .ok_or(SparkError::EmptyCollection)
    }

    /// Describe the stage plan an action on this RDD would execute —
    /// Spark's `toDebugString` for the DAG scheduler. One line per stage:
    /// id, kind, terminal operator, task count, parent stages, and whether
    /// the stage would be skipped (its shuffle output already exists).
    pub fn explain(&self) -> String {
        use crate::scheduler::dag::{build_plan, StageKind};
        let plan = build_plan(&self.node, self.ctx.runtime());
        let mut out = String::new();
        for stage in &plan.stages {
            let kind = match stage.kind {
                StageKind::ShuffleMap(_) => "ShuffleMap",
                StageKind::Result => "Result",
            };
            let parents: Vec<String> = stage.parents.iter().map(|p| p.0.to_string()).collect();
            out.push_str(&format!(
                "Stage {}: {kind}({}) tasks={} parents=[{}]{}\n",
                stage.id.0,
                stage.terminal.name(),
                stage.num_tasks,
                parents.join(","),
                if stage.skippable { " [skipped]" } else { "" }
            ));
        }
        out
    }
}

impl<K: Key, V: Data> Rdd<(K, V)> {
    /// Count records per key (reduce-side aggregation, then driver merge).
    pub fn count_by_key(&self) -> Result<HashMap<K, u64>> {
        let counts = self
            .map(|(k, _)| (k.clone(), 1u64))
            .reduce_by_key(|a, b| a + b)
            .collect()?;
        Ok(counts.into_iter().collect())
    }
}

impl Rdd<String> {
    /// Write one text part-file per partition under `path` in the DFS.
    ///
    /// An output directory that already holds files is refused here, on the
    /// driver; inside the job a part file that already exists can then only
    /// be an earlier attempt's commit (see [`TaskEnv::dfs_write`]).
    pub fn save_as_text_file(&self, path: &str) -> Result<()> {
        if !self.ctx.dfs().list(&format!("{path}/")).is_empty() {
            return Err(memtier_dfs::DfsError::FileExists(path.to_string()).into());
        }
        let node = Arc::clone(&self.node);
        let path = path.to_string();
        let results: Vec<std::result::Result<(), String>> = self.ctx.run_job(
            self,
            Arc::new(move |part, env: &mut TaskEnv<'_>| {
                let data = env.narrow_input::<String>(&node, part);
                let mut bytes = Vec::with_capacity(data.iter().map(|l| l.len() + 1).sum());
                for line in data.iter() {
                    bytes.extend_from_slice(line.as_bytes());
                    bytes.push(b'\n');
                }
                env.charge_materialize(memtier_memsim::ObjectId::Scratch, bytes.len() as u64);
                let block_size = env.rt.dfs_block_size;
                let replication = env.rt.dfs_replication;
                env.dfs_write(
                    &format!("{path}/part-{part:05}"),
                    &bytes,
                    block_size,
                    replication,
                )
                .map(|_| ())
                .map_err(|e| e.to_string())
            }),
        )?;
        for r in results {
            r.map_err(SparkError::Dfs)?;
        }
        Ok(())
    }
}

// `MemSize` for the Result used inside save_as_text_file's task closure is
// not needed (results are not RDD records), but the generic bound on
// `run_job` only requires `Send + 'static`, which `Result<(), String>`
// satisfies.
#[allow(dead_code)]
fn _assert_memsize_unrelated<T: MemSize>() {}
