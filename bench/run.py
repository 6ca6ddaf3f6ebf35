"""c2surf benchmark: one command for the four workloads.

Each pass runs in a fresh single-threaded worker process (bench/worker.py),
one after another, for about ``--seconds`` (at least three passes).  Every
pass runs the same seeded input.  The worker times its work in segments and
probes the host speed between them; each time is scaled to the nominal host
speed (see ``worker.Clock``).  The end-to-end metrics are medians over the
passes of those scaled times; the medians as measured are printed too.
``--trace 1`` instead alternates untraced and traced passes and reports the
per-layer metrics of the traced ones (medians), plus the tracing overhead
against the untraced wall time; the raw spans of the last traced pass are left
in ``bench/spans-<workload>.tsv``.  Every answer is checked; the command exits
1 on any wrong output.

    python3 bench/run.py --workload enumerate --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``attempted`` and
``failed`` count the operations of the seeded input, which every pass repeats
with the same outcome.  The lines before it give the run context (machine,
load average before each pass, worker pids, host speed), the input sizes, the
failure breakdown and every metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

from tracer import PER_LAYER

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("enumerate", "count", "dd_oracle", "query")
MIN_PASSES = 3
PASS_TIMEOUT_S = 150

# units of every metric, as BENCHMARK.json declares them
UNITS = {
    m["name"]: m["unit"]
    for kind in ("end_to_end", "per_layer")
    for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def run_pass(workload: str, seed: int, traced: bool, tiny: bool) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--trace"] * traced + ["--tiny"] * tiny
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    # Workers keep compiled bytecode under __pycache__, as an installed c2surf
    # does, so set-up measures a start from bytecode, not a compile, whatever
    # the caller's environment says.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    load = os.getloadavg()
    spawned = time.monotonic()
    proc = subprocess.Popen(
        cmd + ["--spawned-at", repr(spawned)], cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True
    )
    try:
        stdout, _ = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} pass exceeded {PASS_TIMEOUT_S} s")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or not stdout.strip():
        raise BenchError(f"{workload} worker exited with code {proc.returncode}")
    result = json.loads(stdout.strip().splitlines()[-1])
    result.update(pid=proc.pid, loadavg_before=load, traced=traced)
    return result


def percentiles(samples) -> Tuple[float, float]:
    """p50 and p99 of latencies in nanoseconds, in microseconds."""
    pct = statistics.quantiles(samples, n=100, method="inclusive")
    return pct[49] / 1e3, pct[98] / 1e3


def end_to_end(passes: List[dict]) -> Dict[str, float]:
    """Medians over the passes of the times at the nominal host speed.  A
    pass's set-up time is scaled by the speed its timed work ran at.  Every
    pass makes the same requests in the same order, so the latency
    percentiles are taken over the requests' medians across passes: a stall
    that hits a request in one pass does not reach the tail."""
    per_request = [statistics.median(xs) for xs in zip(*(p["nominal_latencies_ns"] for p in passes))]
    p50, p99 = percentiles(per_request)
    return {
        "setup_s": statistics.median(p["setup_s"] * p["speed"] for p in passes),
        "wall_s": statistics.median(p["nominal_wall_s"] for p in passes),
        "ops_per_s": statistics.median(p["ops"] / p["nominal_wall_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "latency_p50_us": p50,
        "latency_p99_us": p99,
    }


def as_measured(passes: List[dict]) -> Dict[str, float]:
    """Medians of the times as measured, and of the host speed, for the record."""
    keys = ("setup_s", "wall_s", "speed")
    return {key: statistics.median(p[key] for p in passes) for key in keys}


def per_layer(traced: List[dict], untraced: List[dict]) -> Dict[str, float]:
    """Medians over the traced passes; times are scaled like the end-to-end ones."""
    names = set.intersection(*(set(p["layers"]) for p in traced))
    metrics = {
        name: statistics.median(p["layers"][name] * (p["speed"] if name.endswith("_s") else 1) for p in traced)
        for name in sorted(names)
    }
    metrics["trace.overhead_s"] = statistics.median(p["nominal_wall_s"] for p in traced) - statistics.median(
        p["nominal_wall_s"] for p in untraced
    )
    return metrics


def outcome(p: dict) -> tuple:
    return p["attempted"], p["failed"], tuple(sorted(p.get("gaps", {}).items()))


def run_workload(workload: str, seed: int, seconds: int, trace: bool, tiny: bool) -> dict:
    """Passes until the next one might end after ``seconds``, at least
    MIN_PASSES (twice that when traced)."""
    deadline = time.monotonic() + seconds
    passes: List[dict] = []
    durations: List[float] = []
    while True:
        traced = trace and len(passes) % 2 == 1
        t0 = time.monotonic()
        passes.append(run_pass(workload, seed, traced, tiny))
        durations.append(time.monotonic() - t0)
        enough = len(passes) >= (2 * MIN_PASSES if trace else MIN_PASSES)
        if enough and time.monotonic() + max(durations) > deadline:
            break
    untraced = [p for p in passes if not p["traced"]]
    measured = [p for p in passes if p["traced"]] if trace else untraced
    if trace:
        metrics = per_layer(measured, untraced)
        missing = sorted(set().union(*(p["missing"] for p in measured)))
        expected_moves = {name: PER_LAYER[name][1:] for name in metrics if name in PER_LAYER}
        record = {}
    else:
        metrics = end_to_end(passes)
        missing, expected_moves = [], {}
        record = as_measured(passes)
    # every pass runs the same seeded input, so each must end the same way
    errors = [e for p in passes for e in p["errors"]][:10]
    if len({outcome(p) for p in passes}) > 1:
        errors.append(f"passes disagree on (attempted, failed, gaps): {sorted({outcome(p) for p in passes})}")
    first = passes[0]
    return {
        "workload": workload,
        "seed": seed,
        "correct": all(p["correct"] for p in passes) and not errors,
        "attempted": first["attempted"],
        "failed": first["failed"],
        "fail_ratio": first["failed"] / first["attempted"],
        "gaps": first.get("gaps", {}),
        "errors": errors,
        "sizes": first["sizes"],
        "latency_requests": first["latency_samples"],
        "processes": [
            {key: p[key] for key in ("pid", "traced", "loadavg_before", "setup_s", "wall_s", "speed")}
            for p in passes
        ],
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
        "as_measured": record,
        "missing": missing,
        "expected_moves": expected_moves,
    }


def report(res: dict) -> None:
    """Human-readable lines, then the one-line JSON result."""
    print(f"# workload {res['workload']} seed {res['seed']}: {len(res['processes'])} passes, "
          f"one fresh process each")
    print("# sizes " + json.dumps(res["sizes"]))
    print("# processes " + json.dumps(res["processes"]))
    print(f"# per pass: attempted {res['attempted']} failed {res['failed']} fail_ratio {res['fail_ratio']:.6f} "
          f"gaps {json.dumps(res['gaps'])}; latency over {res['latency_requests']} requests, each the median "
          f"of {len(res['processes'])} passes")
    if res["as_measured"]:
        print("# as measured (medians) " + json.dumps(res["as_measured"]))
    for err in res["errors"]:
        print(f"# WRONG {err}")
    for name in res["missing"]:
        print(f"# MISSING {name}: its function is gone from c2surf")
    for name, m in res["metrics"].items():
        moves = res["expected_moves"].get(name)
        note = f"  [moves {moves[1]} on {moves[0]}]" if moves else ""
        print(f"{res['workload']} {name} {m['value']:.6g} {m['unit']}{note}")
    print(json.dumps({key: res[key] for key in ("correct", "attempted", "failed", "metrics")}))


def main() -> int:
    # turn SIGTERM into SystemExit, so that run_pass stops its worker first
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description="c2surf benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test input sizes")
    args = parser.parse_args()
    if not (ROOT / "src" / "c2surf" / "__init__.py").is_file():
        print(f"error: no c2surf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    print("# context " + json.dumps({
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": git_commit(),
        "seconds": args.seconds,
        "trace": args.trace,
    }))
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    correct = True
    for workload in workloads:
        try:
            res = run_workload(workload, args.seed, args.seconds, bool(args.trace), args.tiny)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        report(res)
        correct &= res["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
