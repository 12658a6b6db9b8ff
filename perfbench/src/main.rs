//! Command-line entry of the benchmark; `run.py` builds and calls it.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a human-readable report, then as its last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`, which
//! adds traced (and, for `lossy_incast`, sharded) repetitions.

use std::panic::{self, AssertUnwindSafe};
use std::process::ExitCode;

use perfbench::{result_json, Run, Workload};

/// Environment variables `dcsim::sharded` and `catapult::Cluster` read.
/// The benchmark pins what they would set, so it refuses to run under any
/// of them rather than let an ambient value change a workload.
const PINNED_ENV: [&str; 3] = [
    "CATAPULT_SHARDS",
    "CATAPULT_ADAPTIVE_WINDOWS",
    "CATAPULT_WINDOW_STRIDE",
];

/// Untraced repetitions at the least: one per input set.
const MIN_REPS: usize = perfbench::INPUT_SETS as usize;
/// No repetition starts after this many host seconds.
const LIMIT_S: f64 = 120.0;
/// The benchmark runs every workload at full size (smaller scales are
/// for the self-tests).
const FULL: f64 = 1.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad(&"unknown workload"))?)
            }
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(var) = PINNED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("perfbench: refusing to run with {var} set; unset it");
        return ExitCode::from(2);
    }

    // Printed first, so a run that dies still says what it attempted.
    let planned = perfbench::workloads::planned_ops(args.workload, FULL);
    println!("operations {planned}");
    let measured = panic::catch_unwind(AssertUnwindSafe(|| {
        Run::measure(
            args.workload,
            args.seed,
            FULL,
            args.seconds,
            args.trace,
            MIN_REPS,
            LIMIT_S,
        )
    }));
    let run = match measured {
        Ok(run) => run,
        Err(_) => {
            eprintln!("perfbench: {} panicked", args.workload.name());
            println!("{}", result_json(false, planned, planned, &[]));
            return ExitCode::FAILURE;
        }
    };

    let errors = run.errors();
    let attempted = run.attempted();
    let failed = if errors.is_empty() {
        run.failed()
    } else {
        attempted
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "workload {} | seed {} (input seeds {}..={}) | reps {} untraced + {} traced + {} sharded | \
         available_parallelism {} | sharded workers {}",
        args.workload.name(),
        args.seed,
        perfbench::input_seed(args.seed, 0),
        perfbench::input_seed(args.seed, perfbench::INPUT_SETS - 1),
        run.untraced.len(),
        run.traced.len(),
        run.sharded.len(),
        cores,
        run.sharded.first().map_or(1, |s| s.sync.workers),
    );
    println!("snapshot digest {:016x}", run.digest());
    if let Some(d) = run.sharded_digest() {
        println!("sharded snapshot digest {d:016x}");
    }
    let walls: Vec<String> = run
        .untraced
        .iter()
        .map(|s| format!("{:.4}", s.wall_s))
        .collect();
    println!(
        "untraced wall_s per repetition (median {:.4}): {}",
        perfbench::median(&run.untraced.iter().map(|s| s.wall_s).collect::<Vec<_>>()),
        walls.join(" ")
    );
    let gauges: Vec<String> = run.gauge_s.iter().map(|g| format!("{g:.5}")).collect();
    println!(
        "gauge_s per repetition (median {:.5}; reference {}): {}",
        perfbench::median(&run.gauge_s),
        perfbench::gauge::REFERENCE_S,
        gauges.join(" ")
    );
    println!(
        "failed_frac {} ({failed} of {attempted} operations)",
        failed as f64 / attempted as f64
    );
    for e in &errors {
        println!("CHECK FAILED: {e}");
    }
    if let Some(v) = run.sync_variation() {
        println!("SYNC COUNTERS DID NOT REPEAT (medians reported): {v}");
    }
    let metrics = if args.trace {
        run.per_layer()
    } else {
        run.end_to_end()
    };
    for m in &metrics {
        println!("{:<28} {:>18} {}", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        result_json(errors.is_empty(), attempted, failed, &metrics)
    );
    ExitCode::SUCCESS
}
