#!/usr/bin/env python3
"""Repository benchmark: builds the `perfbench` package and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: remote_ranking, fleet_background, lossy_incast (see
perfbench/METRICS.md). `--trace 0` reports the end-to-end metrics,
`--trace 1` the per-layer ones. The last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`; the line before it records provenance (host parallelism,
git HEAD and dirty flag, seed, and the pinned environment variables).

The build goes to `$CARGO_TARGET_DIR`, or `.bench_build` in the checkout.
"""

import argparse
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")

WORKLOADS = ("remote_ranking", "fleet_background", "lossy_incast")

# The seed a run uses when none is given, and the held-out seed a change
# that claims a gain must also hold on (it is not used while tuning).
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

# Read by dcsim::sharded and catapult::Cluster. The benchmark pins what
# they control (shard count, window policy), so they are recorded and
# removed from the benchmark's environment; the binary refuses to run
# if one reaches it anyway.
PINNED_ENV = ("CATAPULT_SHARDS", "CATAPULT_ADAPTIVE_WINDOWS", "CATAPULT_WINDOW_STRIDE")

# Hard limit on one measuring process (the build is not counted).
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def git_provenance():
    """HEAD and a dirty flag, when the checkout is a git work tree."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return {"head": "unknown", "dirty": None}

    def git(*args):
        return subprocess.run(
            ["git", "-C", ROOT, *args], capture_output=True, text=True, timeout=30
        )

    head = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no")
    if head.returncode != 0 or status.returncode != 0:
        return {"head": "unknown", "dirty": None}
    return {"head": head.stdout.strip(), "dirty": bool(status.stdout.strip())}


def build(env):
    """Builds the benchmark binary; returns its path."""
    target = env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    cmd = [
        "cargo", "build", "--release", "--offline", "--locked", "--quiet",
        "--manifest-path", MANIFEST,
    ]
    try:
        # Cargo's output goes to stderr: standard output carries only the report.
        built = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=880)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if built.returncode != 0:
        fail(f"build failed with exit code {built.returncode}")
    return os.path.join(os.path.abspath(target), "release", "perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(MANIFEST) or not os.path.isdir(os.path.join(ROOT, "crates")):
        fail(f"{ROOT} is not a checkout of the repository")

    env = dict(os.environ)
    ambient = {var: env.pop(var, None) for var in PINNED_ENV}
    binary = build(env)

    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    started = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S
        )
        out, code = proc.stdout, proc.returncode
    except subprocess.TimeoutExpired as e:
        out = e.stdout.decode() if isinstance(e.stdout, bytes) else (e.stdout or "")
        code = None
    lines = out.splitlines()

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "trace": args.trace,
        "seconds": args.seconds,
        "host_cpus": os.cpu_count(),
        **git_provenance(),
        "ambient_env": ambient,
        "measure_s": round(time.monotonic() - started, 3),
    }
    for line in lines[:-1]:
        print(line)
    print(json.dumps({"provenance": provenance}))

    if code is None:
        # Hung past its limit: every planned operation counts as failed.
        planned = next(
            (int(l.split()[1]) for l in lines if l.startswith("operations ")), 1
        )
        print(json.dumps(
            {"correct": False, "attempted": planned, "failed": planned, "metrics": {}}
        ))
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if not lines:
        fail(f"benchmark exited with code {code} and printed nothing")
    result_line = lines[-1]
    print(result_line)
    if code != 0:
        fail(f"benchmark exited with code {code}")
    result = json.loads(result_line)
    want = expected_metrics(args.trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        fail(f"reported metrics {sorted(got.items())} differ from BENCHMARK.json {sorted(want.items())}")


if __name__ == "__main__":
    main()
