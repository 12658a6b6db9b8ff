//! Self-tests of the benchmark at reduced scale: every workload repeats
//! its snapshot digest exactly on each engine, the traced pass is passive
//! and accounts for its wall time, and every reported metric is declared
//! in `BENCHMARK.json` under the same name and unit.

use std::sync::{Mutex, MutexGuard};

use perfbench::{input_seed, run_once, Metric, Mode, Run, Workload, INPUT_SETS};
use serde::Value;

/// A twentieth of every workload's generated inputs.
const SCALE: f64 = 0.05;
const SEED: u64 = 1;

/// The heap counters are process-wide, so tests run one at a time.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    // A test that panicked while holding the lock leaves nothing to repair.
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Every (workload, engine) pair the benchmark runs.
fn executions() -> Vec<(Workload, Mode)> {
    let mut all: Vec<(Workload, Mode)> = Workload::ALL.map(|w| (w, Mode::Plain)).to_vec();
    all.extend(
        Workload::ALL
            .into_iter()
            .filter(|w| w.shardable())
            .map(|w| (w, Mode::Sharded)),
    );
    all
}

#[test]
fn every_execution_repeats_its_digest_and_counts() {
    let _serial = serial();
    for (w, mode) in executions() {
        let a = run_once(w, SEED, SCALE, mode);
        let b = run_once(w, SEED, SCALE, mode);
        let name = format!("{} {mode:?}", w.name());
        assert!(a.verdict.errors.is_empty(), "{name}: {:?}", a.verdict);
        assert_eq!(a.verdict.failed, 0, "{name}: operations failed");
        assert!(a.counts.events > 0, "{name}: no events");
        assert_eq!(a.digest, b.digest, "{name}: digest differs");
        assert_eq!(a.counts, b.counts, "{name}: counts differ");
    }
}

#[test]
fn sharded_execution_uses_the_sharded_engine() {
    let _serial = serial();
    let s = run_once(Workload::LossyIncast, SEED, SCALE, Mode::Sharded);
    assert!(s.sync.rounds > 0, "no synchronization rounds: {:?}", s.sync);
    assert!(s.sync.workers >= 1);
    let plain = run_once(Workload::LossyIncast, SEED, SCALE, Mode::Plain);
    assert_eq!(plain.sync.rounds, 0);
    assert_eq!(plain.sync.workers, 1);
}

#[test]
#[should_panic(expected = "has no sharded execution")]
fn only_shardable_workloads_run_sharded() {
    let _serial = serial();
    run_once(Workload::RemoteRanking, SEED, SCALE, Mode::Sharded);
}

#[test]
fn other_seeds_give_other_inputs() {
    let _serial = serial();
    for (w, mode) in executions() {
        let a = run_once(w, SEED, SCALE, mode);
        let b = run_once(w, SEED + 1, SCALE, mode);
        assert_ne!(
            a.digest,
            b.digest,
            "{}: seed does not reach the inputs",
            w.name()
        );
    }
}

#[test]
fn traced_pass_is_passive_and_attributes_its_wall_time() {
    let _serial = serial();
    for w in Workload::ALL {
        let plain = run_once(w, SEED, SCALE, Mode::Plain);
        let traced = run_once(w, SEED, SCALE, Mode::Traced);
        assert_eq!(
            plain.digest,
            traced.digest,
            "{}: observer changed the run",
            w.name()
        );
        assert_eq!(plain.counts, traced.counts, "{}: counts differ", w.name());
        let times = traced.trace.expect("traced repetition carries kind times");
        assert_eq!(
            times.events.iter().sum::<u64>(),
            plain.counts.events,
            "{}: observer missed events",
            w.name()
        );
        let attributed = times.nanos.iter().sum::<u64>() as f64 * 1e-9 + traced.snapshot_s;
        assert!(
            attributed >= 0.95 * traced.wall_s,
            "{}: {attributed} s of {} s attributed",
            w.name(),
            traced.wall_s
        );
    }
}

#[test]
fn a_run_cycles_through_distinct_input_sets() {
    let _serial = serial();
    let run = Run::measure(Workload::RemoteRanking, SEED, SCALE, 0.0, false, 1, 60.0);
    let seeds: Vec<u64> = run.untraced.iter().map(|s| s.seed).collect();
    let want: Vec<u64> = (0..INPUT_SETS).map(|set| input_seed(SEED, set)).collect();
    assert_eq!(seeds, want, "one repetition per input set, in order");
    assert!(want
        .iter()
        .all(|&s| (0..INPUT_SETS).all(|k| s != input_seed(SEED + 1, k))));
    let mut digests: Vec<u64> = run.untraced.iter().map(|s| s.digest).collect();
    digests.sort_unstable();
    digests.dedup();
    assert_eq!(
        digests.len(),
        INPUT_SETS as usize,
        "input sets repeat a digest"
    );
    assert_eq!(run.gauge_s.len(), run.untraced.len());
    assert!(run.gauge_s.iter().all(|&g| g > 0.0));
    let again = Run::measure(Workload::RemoteRanking, SEED, SCALE, 0.0, false, 1, 60.0);
    assert_eq!(run.digest(), again.digest(), "combined digest differs");
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    let Value::Object(fields) = v else {
        panic!("expected an object holding {key}");
    };
    &fields
        .iter()
        .find(|(k, _)| k == key)
        .unwrap_or_else(|| panic!("missing {key}"))
        .1
}

fn text(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        other => panic!("expected a string, got {other:?}"),
    }
}

/// `(name, unit)` of every metric `BENCHMARK.json` declares in `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let spec = telemetry::json::parse(&spec).expect("BENCHMARK.json parses");
    let Value::Array(metrics) = field(&spec, section) else {
        panic!("{section} is not an array");
    };
    metrics
        .iter()
        .map(|m| {
            (
                text(field(m, "name")).to_string(),
                text(field(m, "unit")).to_string(),
            )
        })
        .collect()
}

fn reported(metrics: &[Metric]) -> Vec<(String, String)> {
    metrics
        .iter()
        .map(|m| {
            assert!(
                !m.name.is_empty()
                    && m.name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')),
                "metric name {:?} is outside [A-Za-z0-9_.-]+",
                m.name
            );
            assert!(m.value.is_finite(), "{} is not finite", m.name);
            (m.name.clone(), m.unit.to_string())
        })
        .collect()
}

#[test]
fn every_reported_metric_is_declared() {
    let _serial = serial();
    let e2e = declared("end_to_end");
    let layers = declared("per_layer");
    for w in Workload::ALL {
        let run = Run::measure(w, SEED, SCALE, 0.0, true, 1, 60.0);
        assert!(run.errors().is_empty(), "{}: {:?}", w.name(), run.errors());
        assert_eq!(run.sharded.is_empty(), !w.shardable());
        assert_eq!(
            reported(&run.end_to_end()),
            e2e,
            "{}: end-to-end set",
            w.name()
        );
        assert_eq!(
            reported(&run.per_layer()),
            layers,
            "{}: per-layer set",
            w.name()
        );
        for m in run.end_to_end() {
            assert!(m.value > 0.0, "{}: end-to-end {} is zero", w.name(), m.name);
        }
    }
}
