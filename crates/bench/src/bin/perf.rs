//! Engine-throughput microbenchmark: events/second through the `dcsim`
//! scheduler, plus the full-stack cluster hot path.
//!
//! Four workloads:
//!
//! * `short_delay` — every event reschedules 0.1–1.1 µs out, the
//!   steady-state profile of the network substrate (NIC hops, switch
//!   traversals, LTL probes);
//! * `mixed_delay` — 90% short, 9% 10–100 µs, 1% 1–10 ms, the profile of
//!   a full ranking experiment (service times and open-loop arrivals on
//!   top of network events);
//! * `cluster` — a real fabric: LTL ping-pong sessions whose frames cross
//!   TOR→L1 (agg) and TOR→L1→L2 (spine) paths, exercising the switch,
//!   shell and LTL codec hot paths end to end;
//! * `parallel_cluster` — a denser fabric on the sharded engine, against
//!   the same build at 1 shard.
//!
//! Every baseline is measured in the same process: the chain workloads
//! are compared against a verbatim replica of the `BinaryHeap` engine
//! this repository used before the calendar queue landed, and the
//! sharded row against its 1-shard run. The `cluster` row has no
//! baseline.
//!
//! The binary runs under a counting global allocator, so every workload
//! also reports steady-state heap allocations per event (counted after a
//! warm-up phase). Results are printed and written to
//! `results/BENCH_dcsim.json` with a stable `{commit, events_per_sec,
//! allocs_per_event, workloads[]}` schema.

use bytes::Bytes;
use catapult::prelude::*;
use serde::Serialize;
use shell::ltl::SendConnId;
use shell::{LtlDeliver, ShellCmd};
use std::time::Instant;

/// Pending event chains (the steady-state queue depth).
const CHAINS: u64 = 1024;

/// A counting wrapper around the system allocator: measures how many
/// times the simulator round-trips the heap per event.
mod counted {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCS: AtomicU64 = AtomicU64::new(0);

    /// Counts heap acquisitions (`alloc` and `realloc`); frees are not
    /// interesting for the steady-state-zero contract.
    pub struct CountingAlloc;

    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            System.alloc(layout)
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            System.realloc(ptr, layout, new_size)
        }
    }

    /// Heap acquisitions since process start.
    pub fn allocs() -> u64 {
        ALLOCS.load(Ordering::Relaxed)
    }
}

#[global_allocator]
static ALLOC: counted::CountingAlloc = counted::CountingAlloc;

#[inline]
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Short,
    Mixed,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Short => "short_delay",
            Workload::Mixed => "mixed_delay",
        }
    }

    /// The next reschedule delay in nanoseconds.
    #[inline]
    fn delay_ns(self, r: u64) -> u64 {
        match self {
            Workload::Short => 100 + r % 1_000,
            Workload::Mixed => match r % 100 {
                0 => 1_000_000 + (r >> 8) % 9_000_000, // 1–10 ms
                1..=9 => 10_000 + (r >> 8) % 90_000,   // 10–100 µs
                _ => 100 + (r >> 8) % 1_000,           // 0.1–1.1 µs
            },
        }
    }

    /// A horizon by which roughly the first twentieth of the chain run has
    /// executed: the warm-up slice excluded from allocation counting.
    fn warm_horizon(self, events_per_chain: u64) -> SimTime {
        let avg_delay_ns = match self {
            Workload::Short => 600,
            Workload::Mixed => 65_000,
        };
        SimTime::from_nanos(events_per_chain * avg_delay_ns / 20)
    }
}

/// A self-rescheduling chain on the real `dcsim` engine. The message is
/// the number of events left in the chain.
struct Chain {
    rng: u64,
    workload: Workload,
}

impl Component<u64> for Chain {
    fn on_message(&mut self, left: u64, ctx: &mut Context<'_, u64>) {
        if left > 0 {
            let delay = self.workload.delay_ns(splitmix(&mut self.rng));
            ctx.send_to_self_after(SimDuration::from_nanos(delay), left - 1);
        }
    }
}

fn chain_engine(workload: Workload, events_per_chain: u64) -> Engine<u64> {
    let mut e: Engine<u64> = Engine::new(7);
    for i in 0..CHAINS {
        let id = e.add_component(Chain {
            rng: 0xC0FFEE ^ i,
            workload,
        });
        e.schedule(SimTime::from_nanos(i), id, events_per_chain);
    }
    e
}

/// Events/second through the calendar-queue engine (whole run, matching
/// how the heap baseline is timed).
fn run_engine(workload: Workload, events_per_chain: u64) -> f64 {
    let mut e = chain_engine(workload, events_per_chain);
    let start = Instant::now();
    e.run_to_idle();
    let elapsed = start.elapsed().as_secs_f64();
    e.events_processed() as f64 / elapsed
}

/// Steady-state allocations/event through the calendar-queue engine: the
/// first twentieth of the run warms pools and bucket vectors, then the
/// remainder is counted.
fn run_engine_allocs(workload: Workload, events_per_chain: u64) -> f64 {
    let mut e = chain_engine(workload, events_per_chain);
    e.run_until(workload.warm_horizon(events_per_chain));
    let ev0 = e.events_processed();
    let a0 = counted::allocs();
    e.run_to_idle();
    let events = (e.events_processed() - ev0).max(1);
    (counted::allocs() - a0) as f64 / events as f64
}

/// The binary-heap engine this repository used before the calendar
/// queue: kept verbatim (component slots, outbox, peek-then-pop loop) so
/// the comparison isolates the pending-event set.
mod heap_baseline {
    use super::{splitmix, Workload};
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    struct Scheduled {
        at: u64,
        seq: u64,
        dest: usize,
        msg: u64,
    }

    impl PartialEq for Scheduled {
        fn eq(&self, other: &Self) -> bool {
            self.at == other.at && self.seq == other.seq
        }
    }
    impl Eq for Scheduled {}
    impl PartialOrd for Scheduled {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Scheduled {
        fn cmp(&self, other: &Self) -> Ordering {
            // Reversed: BinaryHeap is a max-heap and we want the earliest.
            other
                .at
                .cmp(&self.at)
                .then_with(|| other.seq.cmp(&self.seq))
        }
    }

    struct Chain {
        rng: u64,
        workload: Workload,
    }

    pub struct HeapEngine {
        now: u64,
        seq: u64,
        queue: BinaryHeap<Scheduled>,
        components: Vec<Option<Box<Chain>>>,
        events_processed: u64,
    }

    impl HeapEngine {
        pub fn new(workload: Workload, chains: u64, events_per_chain: u64) -> Self {
            let mut e = HeapEngine {
                now: 0,
                seq: 0,
                queue: BinaryHeap::new(),
                components: Vec::new(),
                events_processed: 0,
            };
            for i in 0..chains {
                e.components.push(Some(Box::new(Chain {
                    rng: 0xC0FFEE ^ i,
                    workload,
                })));
                e.push(i, e.components.len() - 1, events_per_chain);
            }
            e
        }

        fn push(&mut self, at: u64, dest: usize, msg: u64) {
            self.queue.push(Scheduled {
                at,
                seq: self.seq,
                dest,
                msg,
            });
            self.seq += 1;
        }

        pub fn run_to_idle(&mut self) -> u64 {
            let mut outbox: Vec<(u64, usize, u64)> = Vec::new();
            while let Some(ev) = self.queue.pop() {
                self.now = ev.at;
                let mut component = self.components[ev.dest]
                    .take()
                    .expect("component is always returned after dispatch");
                if ev.msg > 0 {
                    let delay = component.workload.delay_ns(splitmix(&mut component.rng));
                    outbox.push((self.now + delay, ev.dest, ev.msg - 1));
                }
                self.components[ev.dest] = Some(component);
                for (at, dest, msg) in outbox.drain(..) {
                    self.push(at, dest, msg);
                }
                self.events_processed += 1;
            }
            self.events_processed
        }
    }
}

/// Events/second through the binary-heap baseline.
fn run_heap(workload: Workload, events_per_chain: u64) -> f64 {
    let mut e = heap_baseline::HeapEngine::new(workload, CHAINS, events_per_chain);
    let start = Instant::now();
    let events = e.run_to_idle();
    let elapsed = start.elapsed().as_secs_f64();
    events as f64 / elapsed
}

/// One side of an LTL ping-pong pair: consumes deliveries at its shell
/// and answers with the next message until its budget is spent. Shared
/// by the single-engine and sharded cluster workloads.
struct Pinger {
    shell: ComponentId,
    conn: SendConnId,
    payload: Bytes,
    remaining: u64,
}

impl Component<Msg> for Pinger {
    fn on_message(&mut self, msg: Msg, ctx: &mut Context<'_, Msg>) {
        if msg.downcast::<LtlDeliver>().is_ok() && self.remaining > 0 {
            self.remaining -= 1;
            ctx.send(
                self.shell,
                Msg::custom(ShellCmd::LtlSend {
                    conn: self.conn,
                    vc: 0,
                    payload: self.payload.clone(),
                }),
            );
        }
    }
}

/// The full-stack cluster workload: LTL ping-pong sessions over a real
/// fabric, crossing the L1 (agg) and L2 (spine) tiers.
mod cluster_workload {
    use super::*;

    pub struct ClusterRun {
        pub events: u64,
        pub events_per_sec: f64,
        pub allocs_per_event: f64,
        /// Serialized metrics snapshot: the determinism fingerprint.
        pub fingerprint: String,
    }

    /// Runs the cluster workload once and measures its steady state (the
    /// first 200 µs of simulated time warm the pools and queues).
    pub fn run(seed: u64, msgs_per_pair: u64) -> ClusterRun {
        let shape = FabricShape {
            hosts_per_tor: 4,
            tors_per_pod: 4,
            pods: 2,
            spines: 2,
        };
        let mut cluster = ClusterBuilder::new(seed)
            .fabric_config(&calib::fabric_config(shape))
            .shell_config(calib::shell_config())
            .build();
        // Two rack-crossing pairs (TOR→agg→TOR) and two pod-crossing
        // pairs (TOR→agg→spine→agg→TOR).
        let pairs = [
            (NodeAddr::new(0, 0, 0), NodeAddr::new(0, 1, 0)),
            (NodeAddr::new(0, 2, 0), NodeAddr::new(0, 3, 0)),
            (NodeAddr::new(0, 0, 1), NodeAddr::new(1, 0, 0)),
            (NodeAddr::new(0, 1, 1), NodeAddr::new(1, 2, 0)),
        ];
        // 4 KiB messages segment into multiple MTU-sized LTL frames.
        let payload = Bytes::from(vec![0xA5u8; 4 * 1024]);
        for &(a, b) in &pairs {
            let a_shell = cluster.add_shell(a);
            let b_shell = cluster.add_shell(b);
            let (a_send, b_send, _, _) = cluster.connect_pair(a, b);
            let a_pinger = cluster.engine_mut().add_component(Pinger {
                shell: a_shell,
                conn: a_send,
                payload: payload.clone(),
                remaining: msgs_per_pair,
            });
            let b_pinger = cluster.engine_mut().add_component(Pinger {
                shell: b_shell,
                conn: b_send,
                payload: payload.clone(),
                remaining: msgs_per_pair,
            });
            cluster.set_consumer(a, a_pinger);
            cluster.set_consumer(b, b_pinger);
            cluster.engine_mut().schedule(
                SimTime::ZERO,
                a_shell,
                Msg::custom(ShellCmd::LtlSend {
                    conn: a_send,
                    vc: 0,
                    payload: payload.clone(),
                }),
            );
        }
        cluster.run_for(SimDuration::from_micros(200));
        let ev0 = cluster.engine().events_processed();
        let a0 = counted::allocs();
        let start = Instant::now();
        cluster.run_to_idle();
        let elapsed = start.elapsed().as_secs_f64();
        let events = cluster.engine().events_processed() - ev0;
        ClusterRun {
            events,
            events_per_sec: events as f64 / elapsed,
            allocs_per_event: (counted::allocs() - a0) as f64 / events.max(1) as f64,
            fingerprint: cluster.metrics_snapshot().to_json_pretty(),
        }
    }
}

/// The sharded cluster workload: a denser multi-pod fabric, LTL pairs
/// volleying inside racks, across racks, and across pods, executed on
/// the conservative time-window sharded engine. The same build run at
/// 1 shard is the baseline: the shard count must change throughput only,
/// never the fingerprint.
mod parallel_cluster_workload {
    use super::*;

    pub struct ParallelRun {
        pub shards: u32,
        /// Worker threads the run actually used: `min(shards, cores)`.
        pub workers: u32,
        /// Barrier rounds (= synchronization windows) the run executed.
        pub rounds: u64,
        /// Per-shard window counters, summed.
        pub sync: ShardSyncStats,
        pub events: u64,
        pub events_per_sec: f64,
        pub allocs_per_event: f64,
        pub fingerprint: String,
    }

    /// Folds the per-shard sync counters into one row-friendly total.
    pub fn sum_sync(stats: &[ShardSyncStats]) -> ShardSyncStats {
        let mut total = ShardSyncStats::default();
        for s in stats {
            total.windows_run += s.windows_run;
            total.windows_fast_forwarded += s.windows_fast_forwarded;
            total.window_extensions += s.window_extensions;
            total.cut_events += s.cut_events;
        }
        total
    }

    /// Builds and runs the workload on `shards` shards.
    pub fn run(seed: u64, msgs_per_pair: u64, shards: u32) -> ParallelRun {
        let shape = FabricShape {
            hosts_per_tor: 6,
            tors_per_pod: 4,
            pods: 4,
            spines: 2,
        };
        let mut cluster = ClusterBuilder::new(seed)
            .fabric_config(&calib::fabric_config(shape))
            .shell_config(calib::shell_config())
            .build();
        // Eight rack-crossing pairs per pod plus two pod-crossing pairs
        // per pod: every shard has plenty of local work per time window
        // and every partition cut carries traffic.
        let mut pairs = Vec::new();
        for pod in 0..4 {
            for host in 0..4 {
                pairs.push((
                    NodeAddr::new(pod, host % 2, host),
                    NodeAddr::new(pod, 2 + host % 2, host),
                ));
                pairs.push((
                    NodeAddr::new(pod, (host + 1) % 2, host),
                    NodeAddr::new(pod, 2 + (host + 1) % 2, host),
                ));
            }
            pairs.push((NodeAddr::new(pod, 0, 4), NodeAddr::new((pod + 1) % 4, 1, 4)));
            pairs.push((NodeAddr::new(pod, 2, 4), NodeAddr::new((pod + 2) % 4, 3, 4)));
        }
        let payload = Bytes::from(vec![0xA5u8; 4 * 1024]);
        for &(a, b) in &pairs {
            let a_shell = cluster.add_shell(a);
            let b_shell = cluster.add_shell(b);
            let (a_send, b_send, _, _) = cluster.connect_pair(a, b);
            let a_pinger = cluster.add_component_at(
                a,
                Pinger {
                    shell: a_shell,
                    conn: a_send,
                    payload: payload.clone(),
                    remaining: msgs_per_pair,
                },
            );
            let b_pinger = cluster.add_component_at(
                b,
                Pinger {
                    shell: b_shell,
                    conn: b_send,
                    payload: payload.clone(),
                    remaining: msgs_per_pair,
                },
            );
            cluster.set_consumer(a, a_pinger);
            cluster.set_consumer(b, b_pinger);
            cluster.engine_mut().schedule(
                SimTime::ZERO,
                a_shell,
                Msg::custom(ShellCmd::LtlSend {
                    conn: a_send,
                    vc: 0,
                    payload: payload.clone(),
                }),
            );
        }
        let got = cluster.shard(shards);
        assert_eq!(got, shards, "16 racks should accommodate {shards} shards");
        cluster.run_for(SimDuration::from_micros(200));
        let a0 = counted::allocs();
        let start = Instant::now();
        let events = cluster.run_to_idle();
        let elapsed = start.elapsed().as_secs_f64();
        ParallelRun {
            shards: got,
            workers: cluster.effective_workers() as u32,
            rounds: cluster.sync_rounds(),
            sync: sum_sync(&cluster.sync_stats()),
            events,
            events_per_sec: events as f64 / elapsed,
            allocs_per_event: (counted::allocs() - a0) as f64 / events.max(1) as f64,
            fingerprint: cluster.metrics_snapshot().to_json_pretty(),
        }
    }
}

/// Shard count of the sharded row: `CATAPULT_SHARDS` when it is a
/// positive integer, else 4.
fn env_shards() -> u32 {
    std::env::var("CATAPULT_SHARDS")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(4)
}

fn current_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

#[derive(Debug, Serialize)]
struct WorkloadResult {
    workload: String,
    /// Shards the measured run executed on (1 = single-threaded engine).
    shards: u32,
    /// Worker threads actually used: `min(shards, cores)`. A speedup
    /// column is only a parallelism claim when this matches `shards`;
    /// on fewer cores the sharded run measures window overhead instead.
    shards_effective: u32,
    /// Barrier rounds (synchronization windows) the measured run took.
    sync_rounds: u64,
    /// Summed per-shard window counters for the measured run (all zero
    /// for single-threaded workloads).
    windows_run: u64,
    windows_fast_forwarded: u64,
    window_extensions: u64,
    cut_events: u64,
    /// Throughput of the row's in-process baseline; `None` when the row
    /// has none.
    baseline_events_per_sec: Option<f64>,
    events_per_sec: f64,
    speedup: Option<f64>,
    allocs_per_event: f64,
}

impl WorkloadResult {
    /// A row for a single-threaded workload: no shards, no windows.
    fn single(workload: &str, baseline: Option<f64>, current: f64, allocs: f64) -> Self {
        WorkloadResult {
            workload: workload.to_string(),
            shards: 1,
            shards_effective: 1,
            sync_rounds: 0,
            windows_run: 0,
            windows_fast_forwarded: 0,
            window_extensions: 0,
            cut_events: 0,
            baseline_events_per_sec: baseline,
            events_per_sec: current,
            speedup: baseline.map(|b| current / b),
            allocs_per_event: allocs,
        }
    }

    /// A row for a sharded workload, carrying its sync accounting.
    fn sharded(
        workload: &str,
        run: &parallel_cluster_workload::ParallelRun,
        baseline: f64,
    ) -> Self {
        WorkloadResult {
            workload: workload.to_string(),
            shards: run.shards,
            shards_effective: run.workers,
            sync_rounds: run.rounds,
            windows_run: run.sync.windows_run,
            windows_fast_forwarded: run.sync.windows_fast_forwarded,
            window_extensions: run.sync.window_extensions,
            cut_events: run.sync.cut_events,
            baseline_events_per_sec: Some(baseline),
            events_per_sec: run.events_per_sec,
            speedup: Some(run.events_per_sec / baseline.max(1.0)),
            allocs_per_event: run.allocs_per_event,
        }
    }
}

#[derive(Debug, Serialize)]
struct PerfResult {
    commit: String,
    /// Headline number: events/sec on the cluster workload.
    events_per_sec: f64,
    /// Headline number: steady-state allocations/event on the cluster
    /// workload.
    allocs_per_event: f64,
    chains: u64,
    events_per_workload: u64,
    workloads: Vec<WorkloadResult>,
}

fn main() {
    bench::header(
        "perf",
        "dcsim engine + cluster hot-path throughput and allocation profile",
    );
    let quick = bench::quick_mode();
    let events_per_chain: u64 = if quick { 400 } else { 4_000 };
    let msgs_per_pair: u64 = if quick { 300 } else { 3_000 };
    let total = CHAINS * (events_per_chain + 1);

    let mut results = Vec::new();
    for workload in [Workload::Short, Workload::Mixed] {
        // Warm-up pass at a tenth of the size, then the measured pass.
        run_heap(workload, events_per_chain / 10);
        run_engine(workload, events_per_chain / 10);
        let heap = run_heap(workload, events_per_chain);
        let calendar = run_engine(workload, events_per_chain);
        let allocs_per_event = run_engine_allocs(workload, events_per_chain);
        let speedup = calendar / heap;
        println!(
            "{:<12}  heap {:>12.0} ev/s   calendar {:>12.0} ev/s   speedup {:.2}x   allocs/ev {:.4}",
            workload.name(),
            heap,
            calendar,
            speedup,
            allocs_per_event,
        );
        results.push(WorkloadResult::single(
            workload.name(),
            Some(heap),
            calendar,
            allocs_per_event,
        ));
    }

    // Cluster workload: warm-up pass, then best-of-3 measured runs. The
    // workload is deterministic (identical fingerprints are asserted), so
    // the repeats time the exact same computation and the best one is the
    // least scheduler-contended measurement.
    cluster_workload::run(3, msgs_per_pair / 10);
    let mut cluster = cluster_workload::run(3, msgs_per_pair);
    for _ in 0..2 {
        let rerun = cluster_workload::run(3, msgs_per_pair);
        assert_eq!(
            rerun.fingerprint, cluster.fingerprint,
            "same-seed cluster runs diverged"
        );
        if rerun.events_per_sec > cluster.events_per_sec {
            cluster = rerun;
        }
    }
    println!(
        "{:<12}  current {:>12.0} ev/s   allocs/ev {:.4}  ({} events)",
        "cluster", cluster.events_per_sec, cluster.allocs_per_event, cluster.events,
    );

    // Determinism proof: the same seed must yield a byte-identical
    // metrics dump from an independent run.
    let d1 = cluster_workload::run(11, msgs_per_pair / 10);
    let d2 = cluster_workload::run(11, msgs_per_pair / 10);
    if d1.fingerprint == d2.fingerprint && d1.events == d2.events {
        println!("determinism   same-seed metrics dumps byte-identical ok");
    } else {
        eprintln!("FAIL: same-seed cluster runs diverged");
        std::process::exit(1);
    }

    results.push(WorkloadResult::single(
        "cluster",
        None,
        cluster.events_per_sec,
        cluster.allocs_per_event,
    ));

    // Sharded cluster workload: the same build on the conservative
    // parallel engine, 1-shard run as the baseline. `CATAPULT_SHARDS`
    // overrides the shard count (default 4). The shard count must not
    // change results: the fingerprints are asserted byte-identical, so
    // the speedup column measures pure execution-mode throughput. The
    // workers are capped at the machine's cores — on a single-core host
    // the sharded run degenerates to a barrier-overhead measurement.
    let shards = env_shards();
    parallel_cluster_workload::run(5, msgs_per_pair / 10, shards); // warm-up

    // Both sides are best-of-3 — an asymmetric estimator would let one
    // interference spike on either side swing the reported ratio.
    let mut single = parallel_cluster_workload::run(5, msgs_per_pair, 1);
    let mut multi = parallel_cluster_workload::run(5, msgs_per_pair, shards);
    for _ in 0..2 {
        let rerun = parallel_cluster_workload::run(5, msgs_per_pair, 1);
        if rerun.events_per_sec > single.events_per_sec {
            single = rerun;
        }
        let rerun = parallel_cluster_workload::run(5, msgs_per_pair, shards);
        if rerun.events_per_sec > multi.events_per_sec {
            multi = rerun;
        }
    }
    if single.fingerprint != multi.fingerprint || single.events != multi.events {
        eprintln!(
            "FAIL: {}-shard run diverged from the 1-shard baseline",
            multi.shards
        );
        std::process::exit(1);
    }
    let parallel_speedup = multi.events_per_sec / single.events_per_sec.max(1.0);
    println!(
        "{:<12}  1-shard {:>11.0} ev/s   {}-shard  {:>11.0} ev/s   speedup {:.2}x   allocs/ev {:.4}  ({} events, {} workers on {} cores, {} rounds)",
        "parallel",
        single.events_per_sec,
        multi.shards,
        multi.events_per_sec,
        parallel_speedup,
        multi.allocs_per_event,
        multi.events,
        multi.workers,
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        multi.rounds,
    );
    println!(
        "determinism   1-shard and {}-shard fingerprints byte-identical ok",
        multi.shards
    );
    results.push(WorkloadResult::sharded(
        "parallel_cluster",
        &multi,
        single.events_per_sec,
    ));

    let result = PerfResult {
        commit: current_commit(),
        events_per_sec: cluster.events_per_sec,
        allocs_per_event: cluster.allocs_per_event,
        chains: CHAINS,
        events_per_workload: total,
        workloads: results,
    };
    bench::write_json("BENCH_dcsim", &result);
}
