//! Layer drives: fixed-size loops that call one crate's public functions
//! directly, so a layer has a host-time number of its own that does not
//! depend on which workload ran. Diagnostic, never gated.

use memtier_des::{ContentionModel, EventQueue, SharedResource, SimTime};
use memtier_dfs::Dfs;
use memtier_memsim::{AccessBatch, MemorySystem, ObjectId, TierId};
use memtier_netsim::{NetTopology, NetworkPlane};
use std::hint::black_box;
use std::time::Instant;

/// `(metric, value)` of every drive. `scale` divides the loop sizes
/// (1 for a real run, larger for the smoke test).
pub fn run_all(scale: usize) -> Vec<(&'static str, f64)> {
    let (memsim_charge, memsim_finish_ms) = memsim_charge(200_000 / scale);
    let (dfs_write, dfs_read) = dfs_blocks((8 / scale).max(1));
    vec![
        ("des.queue_ns_per_event", queue_hold(1_000_000 / scale)),
        ("des.pop_at_ns_per_event", queue_pop_at(1_000_000 / scale)),
        ("des.waterfill_ns", rates(20_000 / scale, true)),
        ("des.rates_cached_ns", rates(20_000 / scale, false)),
        ("des.flow_churn_ns", flow_churn(100_000 / scale)),
        ("memsim.charge_ns_per_batch", memsim_charge),
        ("memsim.cancel_ns_per_batch", memsim_cancel(200_000 / scale)),
        ("memsim.finish_run_ms", memsim_finish_ms),
        ("netsim.transfer_ns", net_transfers(100_000 / scale)),
        ("dfs.write_ns_per_block", dfs_write),
        ("dfs.read_ns_per_block", dfs_read),
    ]
}

fn ns_per(start: Instant, n: usize) -> f64 {
    start.elapsed().as_nanos() as f64 / n as f64
}

/// A delay stream without a generator dependency: the cascade's mixer
/// over a counter.
fn next(state: &mut u64) -> u64 {
    *state += 1;
    crate::job::mix(*state)
}

/// The hold model: a queue kept at 4 096 pending events, `n` times pop
/// the earliest and schedule one at a random later instant.
fn queue_hold(n: usize) -> f64 {
    let mut queue = EventQueue::new();
    let mut state = 1;
    for i in 0..4096u64 {
        queue.schedule(SimTime::from_ps(next(&mut state) % 1_000_000), i);
    }
    let start = Instant::now();
    for _ in 0..n {
        let (at, event) = queue.pop().expect("the queue holds 4096 events");
        queue.schedule(
            at + SimTime::from_ps(1 + next(&mut state) % 1_000_000),
            event,
        );
    }
    black_box(queue.len());
    ns_per(start, n)
}

/// `n` events on 4 096 instants: one `schedule_batch`, then one `pop_at`
/// per instant into a reused buffer.
fn queue_pop_at(n: usize) -> f64 {
    let mut queue = EventQueue::new();
    let mut batch = Vec::new();
    let start = Instant::now();
    queue.schedule_batch((0..n as u64).map(|i| (SimTime::from_us(1 + i % 4096), i)));
    while let Some(at) = queue.peek_time() {
        black_box(queue.pop_at(at, &mut batch));
    }
    ns_per(start, n)
}

fn resource_with_flows(flows: u64) -> SharedResource {
    let mut resource = SharedResource::new(40e9, ContentionModel::Linear { alpha: 0.02 });
    for id in 0..flows {
        resource.add_flow(SimTime::ZERO, id, 1e12, 1e9 + id as f64 * 1e7);
    }
    resource
}

/// `current_rates` at 80 flows, after a `set_throttle` that invalidates
/// the rate cache (`mutate`) or straight from the cache.
fn rates(n: usize, mutate: bool) -> f64 {
    let mut resource = resource_with_flows(80);
    let start = Instant::now();
    for _ in 0..n {
        if mutate {
            resource.set_throttle(1.0);
        }
        black_box(resource.current_rates());
    }
    ns_per(start, n)
}

/// At 80 flows: add one, advance the clock, remove the oldest.
fn flow_churn(n: usize) -> f64 {
    let mut resource = resource_with_flows(80);
    let mut now = SimTime::ZERO;
    let start = Instant::now();
    for i in 0..n as u64 {
        resource.add_flow(now, 80 + i, 1e12, 1e9);
        now += SimTime::from_ns(100);
        resource.advance(now);
        black_box(resource.remove_flow(now, i));
    }
    ns_per(start, n)
}

const BATCH: u64 = 64 << 10;
const IN_FLIGHT: u64 = 40;

fn memsim_with_flows() -> (MemorySystem, AccessBatch) {
    let mut mem = MemorySystem::paper_default();
    let batch = AccessBatch::sequential(BATCH, BATCH / 4);
    for flow in 0..IN_FLIGHT {
        mem.begin_access(SimTime::ZERO, TierId::NVM_NEAR, flow, &batch);
    }
    (mem, batch)
}

/// The charge path with 40 flows in flight on Tier 2: wait for the next
/// completion, advance to it, finish that flow attributed to two objects,
/// begin a new one. Returns ns per batch and the `finish_run` time in ms.
fn memsim_charge(n: usize) -> (f64, f64) {
    let (mut mem, batch) = memsim_with_flows();
    let parts = [
        (
            ObjectId::Input { rdd: 1 },
            AccessBatch::sequential(BATCH, 0),
        ),
        (
            ObjectId::ShuffleWrite { shuffle: 1 },
            AccessBatch::sequential(0, BATCH / 4),
        ),
    ];
    let mut now = SimTime::ZERO;
    let start = Instant::now();
    for i in 0..n as u64 {
        let (at, tier, flow) = mem.next_completion().expect("flows are in flight");
        now = at;
        mem.advance(now);
        mem.finish_access_attributed(now, tier, flow, &batch, &parts);
        mem.begin_access(now, TierId::NVM_NEAR, IN_FLIGHT + i, &batch);
    }
    let per_batch = ns_per(start, n);
    let start = Instant::now();
    black_box(mem.finish_run(now));
    (per_batch, start.elapsed().as_secs_f64() * 1e3)
}

/// The same with every flow ended early by `cancel_access_attributed`,
/// the path a killed task's partial traffic takes.
fn memsim_cancel(n: usize) -> f64 {
    let (mut mem, batch) = memsim_with_flows();
    let mut now = SimTime::ZERO;
    let start = Instant::now();
    for i in 0..n as u64 {
        now += SimTime::from_ns(50);
        mem.advance(now);
        black_box(mem.cancel_access_attributed(
            now,
            TierId::NVM_NEAR,
            i,
            &batch,
            ObjectId::Recovery,
        ));
        mem.begin_access(now, TierId::NVM_NEAR, IN_FLIGHT + i, &batch);
    }
    ns_per(start, n)
}

/// 64 transfers in flight on 4 nodes in 2 racks: step to each link drain
/// and replace every completed transfer.
fn net_transfers(n: usize) -> f64 {
    let mut plane = NetworkPlane::new(NetTopology::new(4, 2).with_oversubscription(4.0));
    let begin = |plane: &mut NetworkPlane, now, id: u64| {
        let src = (id % 4) as u32;
        let dst = ((id / 4 + 1 + id % 4) % 4) as u32;
        let dst = if dst == src { (src + 1) % 4 } else { dst };
        plane.begin_transfer(now, id, src, dst, 256 << 10, 1e9);
    };
    for id in 0..64 {
        begin(&mut plane, SimTime::ZERO, id);
    }
    let (mut done, mut next_id) = (0, 64);
    let start = Instant::now();
    while done < n {
        let at = plane.next_event_time().expect("transfers are in flight");
        if plane.step(at).is_some() {
            done += 1;
            begin(&mut plane, at, next_id);
            next_id += 1;
        }
    }
    ns_per(start, n)
}

/// A 16 MiB file in 1 MiB blocks, three replicas on three datanodes,
/// written and read back `rounds` times. Returns ns per block of each.
fn dfs_blocks(rounds: usize) -> (f64, f64) {
    const BLOCK: usize = 1 << 20;
    const BLOCKS: usize = 16;
    let dfs = Dfs::new(3, 1 << 30);
    let client = dfs.client();
    let data: Vec<u8> = (0..BLOCK * BLOCKS).map(|i| i as u8).collect();
    let (mut write_ns, mut read_ns) = (0u128, 0u128);
    for _ in 0..rounds {
        let start = Instant::now();
        client
            .write_file("/perf/file", &data, BLOCK, 3)
            .expect("the datanodes have room");
        write_ns += start.elapsed().as_nanos();
        let start = Instant::now();
        let back = client
            .read_file("/perf/file")
            .expect("the file was just written");
        read_ns += start.elapsed().as_nanos();
        assert_eq!(
            black_box(back).len(),
            data.len(),
            "dfs read returned another length"
        );
        client.delete("/perf/file").expect("the file exists");
    }
    let blocks = (rounds * BLOCKS) as f64;
    (write_ns as f64 / blocks, read_ns as f64 / blocks)
}
