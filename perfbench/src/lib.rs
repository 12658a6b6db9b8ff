//! The repository benchmark: host time of the simulator's workloads, end
//! to end and split by layer.
//!
//! One run of the benchmark repeats one [`Workload`] for a fixed host-time
//! budget, cycling through [`INPUT_SETS`] input sets generated from one
//! seed. Every repetition builds the simulation afresh, runs it, takes the
//! final metrics snapshot and checks the simulated output; its snapshot
//! digest must match every other repetition's of the same input set and
//! engine, since the simulator is deterministic. Host times are scaled by
//! a [`Gauge`] timed around each repetition. See `METRICS.md` for every
//! metric and why each workload exists.

pub mod cpu;
pub mod gauge;
pub mod heap;
pub mod trace;
pub mod workloads;

use std::fmt::Write as _;
use std::time::Instant;

use telemetry::MetricsSnapshot;

pub use gauge::Gauge;
pub use trace::{Kind, KindTimes, KindTracer};
pub use workloads::{Verdict, Workload};

#[global_allocator]
static ALLOC: heap::CountingAlloc = heap::CountingAlloc;

/// Simulated counts of one run: every one repeats exactly for a workload
/// and seed on one commit. Switch counters are summed over the fabric,
/// LTL counters over the shells.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Events dispatched by the run.
    pub events: u64,
    /// Switches materialized in the fabric.
    pub switches: u64,
    pub ecn_marked: u64,
    pub pauses_sent: u64,
    pub dropped: u64,
    pub ltl_tx_frames: u64,
    pub ltl_retransmits: u64,
    pub ltl_timeouts: u64,
    pub ltl_conn_failures: u64,
    /// Background flows completed by the flow-level model.
    pub flows_completed: u64,
    /// Background bytes the flow-level model delivered.
    pub flow_bytes_delivered: u64,
}

/// The sharded engine's synchronization counters (zero, with 1 worker,
/// when unsharded). `dcsim::sharded` documents them as deterministic, but
/// they are not part of the simulated output, so a run whose counters
/// vary is reported rather than judged incorrect.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SyncCounts {
    pub rounds: u64,
    pub windows_run: u64,
    pub windows_fast_forwarded: u64,
    pub window_extensions: u64,
    pub cut_events: u64,
    pub workers: u64,
}

/// One repetition: set up, run, snapshot, check.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Host seconds from the start of `ClusterBuilder::build` until the
    /// simulation is ready to run.
    pub setup_s: f64,
    /// The part of `setup_s` inside `ClusterBuilder::build`.
    pub build_s: f64,
    /// The part of `setup_s` wiring and scheduling inputs.
    pub wire_s: f64,
    /// Host seconds from the run call through the final snapshot.
    pub wall_s: f64,
    /// Process CPU seconds over the same interval.
    pub cpu_s: f64,
    /// The part of `wall_s` inside `Cluster::metrics_snapshot`.
    pub snapshot_s: f64,
    /// Heap high-water mark over set-up and run, in bytes.
    pub peak_heap: usize,
    /// FNV-1a digest of the final snapshot's JSON.
    pub digest: u64,
    /// The seed the repetition's inputs came from.
    pub seed: u64,
    /// Operations attempted.
    pub attempted: u64,
    /// The output check.
    pub verdict: Verdict,
    /// Simulated counts.
    pub counts: Counts,
    /// Synchronization counters.
    pub sync: SyncCounts,
    /// Host time per component kind, on a traced repetition.
    pub trace: Option<KindTimes>,
}

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn sum_fabric(snap: &MetricsSnapshot, counter: &str) -> u64 {
    snap.iter()
        .filter(|(k, _)| k.starts_with("fabric/"))
        .filter(|(k, _)| k.rsplit('/').next() == Some(counter))
        .filter_map(|(_, v)| match v {
            telemetry::MetricValue::Counter(c) => Some(*c),
            _ => None,
        })
        .sum()
}

/// How one repetition executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The single engine: end-to-end metrics and counts.
    Plain,
    /// The single engine with [`KindTracer`] attached.
    Traced,
    /// The sharded engine, on [`workloads::SHARDS`] shards (observers are
    /// unavailable there).
    Sharded,
}

/// Runs one repetition of `workload` from `seed` in `mode`.
///
/// # Panics
///
/// Panics if `mode` is [`Mode::Sharded`] and the workload is not
/// [`Workload::shardable`].
pub fn run_once(workload: Workload, seed: u64, scale: f64, mode: Mode) -> Sample {
    let traced = mode == Mode::Traced;
    let heap_base = heap::reset_peak();
    let t = Instant::now();
    let mut prepared = workloads::prepare(workload, seed, scale, mode == Mode::Sharded);
    let setup_s = t.elapsed().as_secs_f64();
    if traced {
        prepared
            .cluster
            .engine_mut()
            .set_observer(Box::new(KindTracer::start()));
    }

    let cpu0 = cpu::process_seconds();
    let t = Instant::now();
    let events = workloads::run(&mut prepared);
    let t_snap = Instant::now();
    let snap = prepared.cluster.metrics_snapshot();
    let end = Instant::now();
    let cpu_s = cpu::process_seconds() - cpu0;
    let wall_s = end.duration_since(t).as_secs_f64();
    let snapshot_s = end.duration_since(t_snap).as_secs_f64();
    let peak_heap = heap::peak_since(heap_base);

    let verdict = workloads::check(&prepared, &snap);
    let cluster = &prepared.cluster;
    let trace = traced.then(|| {
        cluster
            .engine()
            .observer_as::<KindTracer>()
            .expect("the kind tracer is attached")
            .times()
    });
    let sync = cluster.sync_stats();
    let counts = Counts {
        events,
        switches: cluster.fabric().switch_count() as u64,
        ecn_marked: sum_fabric(&snap, "ecn_marked"),
        pauses_sent: sum_fabric(&snap, "pauses_sent"),
        dropped: sum_fabric(&snap, "dropped"),
        ltl_tx_frames: snap.sum_counters("ltl_tx_frames"),
        ltl_retransmits: snap.sum_counters("ltl/retransmits"),
        ltl_timeouts: snap.sum_counters("ltl/timeouts"),
        ltl_conn_failures: snap.sum_counters("ltl/conn_failures"),
        flows_completed: cluster.flowsim().map_or(0, |f| f.flows_completed()),
        flow_bytes_delivered: cluster.flowsim().map_or(0, |f| f.bytes_delivered()),
    };
    // Every shard takes part in every window: the window counters are
    // global decisions, mirrored on each shard.
    let sync = SyncCounts {
        rounds: cluster.sync_rounds(),
        windows_run: sync.iter().map(|s| s.windows_run).max().unwrap_or(0),
        windows_fast_forwarded: sync
            .iter()
            .map(|s| s.windows_fast_forwarded)
            .max()
            .unwrap_or(0),
        window_extensions: sync.iter().map(|s| s.window_extensions).max().unwrap_or(0),
        cut_events: sync.iter().map(|s| s.cut_events).sum(),
        workers: cluster.effective_workers() as u64,
    };
    Sample {
        setup_s,
        build_s: prepared.build_s,
        wire_s: prepared.wire_s,
        wall_s,
        cpu_s,
        snapshot_s,
        peak_heap,
        digest: fnv1a(snap.to_json().as_bytes()),
        seed,
        attempted: prepared.attempted,
        verdict,
        counts,
        sync,
        trace,
    }
}

/// The median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as declared in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Input sets one benchmark run cycles through. The simulator's host time
/// depends on its inputs by up to about 15% from one seed to the next
/// (memory layout and event mix move with them), so one run averages over
/// several generated input sets rather than resting on one.
pub const INPUT_SETS: u64 = 4;

/// The seed of input set `set` of a benchmark run from `seed`. The sets
/// of seed `n` are seeds `4n` to `4n + 3` of [`run_once`], so different
/// seeds never share an input set.
pub fn input_seed(seed: u64, set: u64) -> u64 {
    seed.wrapping_mul(INPUT_SETS).wrapping_add(set)
}

/// The repetitions of one benchmark run and what they add up to.
#[derive(Debug, Clone)]
pub struct Run {
    /// [`Mode::Plain`] repetitions: the end-to-end metrics and the counts.
    /// Repetition `i` runs input set `i % INPUT_SETS`.
    pub untraced: Vec<Sample>,
    /// For each untraced repetition, the mean [`Gauge`] time measured just
    /// before and just after it.
    pub gauge_s: Vec<f64>,
    /// [`Mode::Traced`] repetitions: the per-kind split.
    pub traced: Vec<Sample>,
    /// [`Mode::Sharded`] repetitions: the `dcsim::sharded` layer.
    pub sharded: Vec<Sample>,
}

/// The entries of `reps`, one per repetition, that ran input set `set`.
fn of_set<T>(reps: &[T], set: u64) -> impl Iterator<Item = &T> {
    reps.iter().skip(set as usize).step_by(INPUT_SETS as usize)
}

/// The mean over input sets of the median of each set's `values`, one per
/// repetition; 0 when there are none.
fn set_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let medians: Vec<f64> = (0..INPUT_SETS)
        .map(|set| median(&of_set(values, set).copied().collect::<Vec<_>>()))
        .collect();
    medians.iter().sum::<f64>() / medians.len() as f64
}

/// [`set_mean`] of `f` over `samples`.
fn per_set(samples: &[Sample], f: impl Fn(&Sample) -> f64) -> f64 {
    set_mean(&samples.iter().map(f).collect::<Vec<_>>())
}

/// One digest of all input sets: FNV-1a over each set's first digest, in
/// set order.
fn combined_digest(samples: &[Sample]) -> u64 {
    let bytes: Vec<u8> = (0..INPUT_SETS)
        .filter_map(|set| of_set(samples, set).next())
        .flat_map(|s| s.digest.to_le_bytes())
        .collect();
    fnv1a(&bytes)
}

impl Run {
    /// Repeats `workload` from `seed`, cycling through its input sets,
    /// until `seconds` of host time have passed, at least `min_reps`
    /// untraced repetitions ran and every set ran equally often. The
    /// [`Gauge`] is timed around every untraced repetition. With `layers`,
    /// every untraced repetition is followed by a traced one of the same
    /// input set and, for a shardable workload, a sharded one, so the
    /// three see the same host conditions. No cycle starts once `limit_s`
    /// has passed.
    pub fn measure(
        workload: Workload,
        seed: u64,
        scale: f64,
        seconds: f64,
        layers: bool,
        min_reps: usize,
        limit_s: f64,
    ) -> Run {
        let mut run = Run {
            untraced: Vec::new(),
            gauge_s: Vec::new(),
            traced: Vec::new(),
            sharded: Vec::new(),
        };
        let mut gauge = Gauge::new();
        let start = Instant::now();
        loop {
            let reps = run.untraced.len();
            let elapsed = start.elapsed().as_secs_f64();
            if reps.is_multiple_of(INPUT_SETS as usize)
                && reps > 0
                && ((reps >= min_reps && elapsed >= seconds) || elapsed >= limit_s)
            {
                break;
            }
            let set_seed = input_seed(seed, reps as u64 % INPUT_SETS);
            let before = gauge.measure();
            run.untraced
                .push(run_once(workload, set_seed, scale, Mode::Plain));
            run.gauge_s.push((before + gauge.measure()) / 2.0);
            if layers {
                run.traced
                    .push(run_once(workload, set_seed, scale, Mode::Traced));
                if workload.shardable() {
                    run.sharded
                        .push(run_once(workload, set_seed, scale, Mode::Sharded));
                }
            }
        }
        run
    }

    fn all(&self) -> impl Iterator<Item = &Sample> {
        self.untraced
            .iter()
            .chain(&self.traced)
            .chain(&self.sharded)
    }

    /// Operations attempted by one repetition (the same for every input
    /// set).
    pub fn attempted(&self) -> u64 {
        self.untraced[0].attempted
    }

    /// Operations failed in the worst repetition.
    pub fn failed(&self) -> u64 {
        self.all().map(|s| s.verdict.failed).max().unwrap_or(0)
    }

    /// The single engine's digest over all input sets.
    pub fn digest(&self) -> u64 {
        combined_digest(&self.untraced)
    }

    /// The sharded engine's digest over all input sets, when it ran.
    pub fn sharded_digest(&self) -> Option<u64> {
        (!self.sharded.is_empty()).then(|| combined_digest(&self.sharded))
    }

    /// Every failed output check and every repeatability or passivity
    /// violation across the repetitions; empty when the run is correct.
    /// Within an input set, traced repetitions must repeat the untraced
    /// digest and counts. Sharded ones draw from per-component random
    /// streams, so they must repeat their own.
    pub fn errors(&self) -> Vec<String> {
        let mut errors: Vec<String> = Vec::new();
        for s in self.all() {
            errors.extend(
                s.verdict
                    .errors
                    .iter()
                    .map(|e| format!("input seed {}: {e}", s.seed)),
            );
        }
        for set in 0..INPUT_SETS {
            let single: Vec<&Sample> = of_set(&self.untraced, set)
                .chain(of_set(&self.traced, set))
                .collect();
            let sharded: Vec<&Sample> = of_set(&self.sharded, set).collect();
            for (name, reps) in [("single-engine", single), ("sharded", sharded)] {
                let Some(head) = reps.first() else { continue };
                for s in &reps[1..] {
                    if s.digest != head.digest {
                        errors.push(format!(
                            "{name}, input seed {}: snapshot digest {:016x} differs from {:016x}",
                            s.seed, s.digest, head.digest
                        ));
                    }
                    if s.counts != head.counts {
                        errors.push(format!(
                            "{name}, input seed {}: counts {:?} differ from {:?}",
                            s.seed, s.counts, head.counts
                        ));
                    }
                }
            }
        }
        for (i, s) in self.traced.iter().enumerate() {
            let seen: u64 = s.trace.map_or(0, |t| t.events.iter().sum());
            let events = self.untraced[i % INPUT_SETS as usize].counts.events;
            if seen != events {
                errors.push(format!(
                    "traced rep {i}: observer saw {seen} of {events} events"
                ));
            }
        }
        if !self.traced.is_empty() && self.attributed_frac() < 0.95 {
            errors.push(format!(
                "traced pass attributes only {:.3} of its wall time",
                self.attributed_frac()
            ));
        }
        errors
    }

    /// Describes how the synchronization counters varied across the
    /// sharded repetitions of an input set; `None` when they repeated
    /// exactly.
    pub fn sync_variation(&self) -> Option<String> {
        let varied: Vec<String> = (0..INPUT_SETS)
            .filter_map(|set| {
                let mut reps = of_set(&self.sharded, set);
                let first = reps.next()?;
                let others: Vec<String> = reps
                    .filter(|s| s.sync != first.sync)
                    .map(|s| format!("{:?}", s.sync))
                    .collect();
                (!others.is_empty()).then(|| {
                    format!(
                        "input seed {}: {:?}, then {}",
                        first.seed,
                        first.sync,
                        others.join(", ")
                    )
                })
            })
            .collect();
        (!varied.is_empty()).then(|| varied.join("; "))
    }

    /// Share of each traced repetition's wall time charged to a component
    /// kind or to the snapshot call, averaged over input sets.
    pub fn attributed_frac(&self) -> f64 {
        per_set(&self.traced, |s| {
            let kinds: u64 = s.trace.map_or(0, |t| t.nanos.iter().sum());
            ratio(kinds as f64 * 1e-9 + s.snapshot_s, s.wall_s)
        })
    }

    /// `f`, a host time of each untraced repetition, scaled to the gauge's
    /// reference speed, then averaged like every metric ([`per_set`]).
    fn scaled(&self, f: impl Fn(&Sample) -> f64) -> f64 {
        let scaled: Vec<f64> = self
            .untraced
            .iter()
            .zip(&self.gauge_s)
            .map(|(s, &g)| f(s) * gauge::REFERENCE_S / g)
            .collect();
        set_mean(&scaled)
    }

    /// The end-to-end metrics of the untraced repetitions: per input set,
    /// the median repetition, averaged over the sets; host times are
    /// scaled to the gauge's reference speed.
    pub fn end_to_end(&self) -> Vec<Metric> {
        vec![
            metric("wall_s", self.scaled(|s| s.wall_s), "s"),
            metric("cpu_s", self.scaled(|s| s.cpu_s), "s"),
            metric("setup_s", self.scaled(|s| s.setup_s), "s"),
            metric(
                "peak_heap_mib",
                per_set(&self.untraced, |s| s.peak_heap as f64 / (1024.0 * 1024.0)),
                "MiB",
            ),
        ]
    }

    /// The per-layer metrics: counts and directly timed calls from the
    /// untraced repetitions (unscaled host time, like every per-layer
    /// time), per-kind self time from the traced ones, the `sync.*` layer
    /// from the sharded ones (zero, with 1 worker, for a workload that has
    /// none). Each is the per-set median averaged over the input sets.
    pub fn per_layer(&self) -> Vec<Metric> {
        let u = &self.untraced;
        let sh = &self.sharded;
        let count = |f: fn(&Counts) -> u64| per_set(u, |s| f(&s.counts) as f64);
        let wall = per_set(u, |s| s.wall_s);
        let events = count(|c| c.events);
        let sync = |f: fn(&SyncCounts) -> u64| {
            per_set(if sh.is_empty() { u } else { sh }, |s| f(&s.sync) as f64)
        };
        let sync_wall = per_set(sh, |s| s.wall_s);
        let tx = count(|c| c.ltl_tx_frames);
        let mut m = vec![
            metric("host.wall_s", wall, "s"),
            metric("host.gauge_s", set_mean(&self.gauge_s), "s"),
            metric("dcsim.events", events, "count"),
            metric("dcsim.ns_per_event", ratio(wall * 1e9, events), "ns"),
            metric("sync.rounds", sync(|y| y.rounds), "count"),
            metric("sync.windows_run", sync(|y| y.windows_run), "count"),
            metric(
                "sync.windows_fast_forwarded",
                sync(|y| y.windows_fast_forwarded),
                "count",
            ),
            metric(
                "sync.window_extensions",
                sync(|y| y.window_extensions),
                "count",
            ),
            metric("sync.cut_events", sync(|y| y.cut_events), "count"),
            metric(
                "sync.events_per_round",
                ratio(per_set(sh, |s| s.counts.events as f64), sync(|y| y.rounds)),
                "count",
            ),
            metric("sync.workers", sync(|y| y.workers), "count"),
            metric("sync.wall_s", sync_wall, "s"),
            metric("sync.cpu_s", per_set(sh, |s| s.cpu_s), "s"),
            metric("sync.speedup", ratio(wall, sync_wall), "ratio"),
            metric("switch.ecn_marked", count(|c| c.ecn_marked), "count"),
            metric("switch.pauses_sent", count(|c| c.pauses_sent), "count"),
            metric("switch.dropped", count(|c| c.dropped), "count"),
            metric("ltl.tx_frames", tx, "count"),
            metric("ltl.retransmits", count(|c| c.ltl_retransmits), "count"),
            metric("ltl.timeouts", count(|c| c.ltl_timeouts), "count"),
            metric("ltl.conn_failures", count(|c| c.ltl_conn_failures), "count"),
            metric(
                "ltl.useful_frac",
                ratio(tx - count(|c| c.ltl_retransmits), tx),
                "1",
            ),
            metric(
                "flowsim.flows_completed",
                count(|c| c.flows_completed),
                "count",
            ),
            metric(
                "flowsim.bytes_delivered",
                count(|c| c.flow_bytes_delivered),
                "B",
            ),
            metric("topology.switches", count(|c| c.switches), "count"),
            metric("topology.build_s", per_set(u, |s| s.build_s), "s"),
            metric("topology.wire_s", per_set(u, |s| s.wire_s), "s"),
            metric("telemetry.snapshot_s", per_set(u, |s| s.snapshot_s), "s"),
        ];
        let t = &self.traced;
        for kind in Kind::ALL {
            let k = kind as usize;
            let self_s = per_set(t, |s| s.trace.map_or(0, |x| x.nanos[k]) as f64 * 1e-9);
            let events = per_set(t, |s| s.trace.map_or(0, |x| x.events[k]) as f64);
            let name = kind.name();
            m.push(metric(format!("{name}.self_s"), self_s, "s"));
            m.push(metric(format!("{name}.events"), events, "count"));
            m.push(metric(
                format!("{name}.ns_per_event"),
                ratio(self_s * 1e9, events),
                "ns",
            ));
        }
        let (overhead, attributed) = if t.is_empty() {
            (0.0, 0.0)
        } else {
            (
                ratio(per_set(t, |s| s.wall_s), wall),
                self.attributed_frac(),
            )
        };
        m.push(metric("trace.overhead", overhead, "ratio"));
        m.push(metric("trace.attributed_frac", attributed, "1"));
        m
    }
}

/// Formats `value` for JSON: integers without a fraction, everything else
/// with every digit Rust's shortest round-trip form gives.
fn json_number(value: f64) -> String {
    if !value.is_finite() {
        return "0".into();
    }
    if value.fract() == 0.0 && value.abs() < 1e15 {
        format!("{}", value as i64)
    } else {
        format!("{value}")
    }
}

/// The benchmark's result line: `correct`, `attempted`, `failed` and the
/// named metrics with their units.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}
