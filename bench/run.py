#!/usr/bin/env python3
"""confound-lens benchmark: one run of one workload, or of each in turn.

    python3 bench/run.py --workload mc-small --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory, never from an installed copy.  The run

1. times `setup_s`: fresh interpreters running `python -m confound_lens.cli
   --help` (interpreter start, package import, parser build);
2. makes the workload's inputs from `--seed` in a temp directory inside the
   checkout;
3. starts one worker process (bench/worker.py) that runs ops in a closed loop
   through `confound_lens.cli.main(argv)` for `--seconds`;
4. checks every op's output against the oracles in bench/checks.py;
5. prints a readable report, then, as the last line, one JSON object with
   `correct`, `attempted`, `failed` and `metrics`.

With `--workload all` each workload runs in turn, in its own worker, and the
last line sums the counts and names each metric `<workload>/<metric>`.
With `--trace 0` the metrics are the end-to-end ones.  With `--trace 1` the
worker spends half the time untraced and half traced, in whole periods of the
workload's op rotation, and the metrics are the per-layer ones (README.md).
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracer
import workloads

SETUP_RUNS = 5  # timed fresh interpreters per run, after one untimed
# Fixed, so the tail means the same on every run and commit; at the seed
# commit's speed every workload has at least ten timed ops beyond it in a
# 25 s run (the report prints the count).
TAIL_PERCENTILE = 75
WORKER_GRACE_S = 90  # beyond --seconds, before a stuck worker is killed
BENCH_DIR = Path(__file__).resolve().parent


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.BY_NAME, "all"],
                        help="one workload, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _child_env(src: Path) -> dict:
    env = dict(os.environ)
    env.pop("CONFOUND_LENS_THREADS", None)  # the documented default: serial replicates
    env["PYTHONPATH"] = os.pathsep.join([str(src)] + ([env["PYTHONPATH"]]
                                                      if env.get("PYTHONPATH") else []))
    return env


def _openblas_threads() -> int | None:
    import numpy
    for lib in sorted(glob.glob(str(Path(numpy.__file__).parent.parent / "numpy.libs"
                                    / "*openblas*"))):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = None
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas, "blas_threads": _openblas_threads(),
            "CONFOUND_LENS_THREADS": "unset"}


def measure_setup(root: Path, env: dict) -> float:
    """Median wall time of a fresh `python -m confound_lens.cli --help`."""
    argv = [sys.executable, "-m", "confound_lens.cli", "--help"]
    times = []
    for k in range(SETUP_RUNS + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=root, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=60)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"`{' '.join(argv[1:])}` exited {proc.returncode}: "
                               f"{proc.stderr.decode(errors='replace').strip()}")
        if k:  # the first one may also compile bytecode
            times.append(elapsed)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# the measured run
# ---------------------------------------------------------------------------

def _phases(seconds: int, trace: bool) -> list[dict]:
    warmup = {"name": "warmup", "seconds": 0}
    if not trace:
        return [warmup, {"name": "timed", "seconds": seconds}]
    return [warmup,
            {"name": "timed", "seconds": seconds / 2, "whole_periods": True},
            {"name": "traced", "seconds": seconds / 2, "whole_periods": True,
             "traced": True}]


def run_worker(wl: workloads.Workload, src: Path, tmp: Path, env: dict,
               phases: list[dict], timeout: float) -> dict:
    """Run the worker over `phases`; return its records plus `first_dir`."""
    first_dir = tmp / "first"
    first_dir.mkdir()
    plan = {"src": str(src), "first_dir": str(first_dir),
            "result": str(tmp / "result.json"), "spans": str(tmp / "spans.json"),
            "slots": [[{"argv": list(c.argv), "output": c.output} for c in slot.calls]
                      for slot in wl.slots],
            "phases": phases}
    plan_path = tmp / "plan.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "worker.py"), str(plan_path)],
                          cwd=src.parent, env=env, stdout=subprocess.DEVNULL,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    result = json.loads((tmp / "result.json").read_text(encoding="utf-8"))
    if not Path(result["package_file"]).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"worker imported {result['package_file']}, not the checkout's")
    result["first_dir"] = first_dir
    return result


def check_slot(wl: workloads.Workload, slot: int, first_dir: Path) -> list[str]:
    """Oracle problems with the outputs of a slot's first op."""
    problems = []
    for call in wl.slots[slot].calls:
        path = first_dir / f"{slot}-{Path(call.output).name}"
        kind = call.check["kind"]
        if not path.exists():
            problems.append(f"{kind}: no output")
        elif kind == "replicates":
            problems += checks.check_replicates(path.read_text(encoding="utf-8"), call.check)
        elif kind == "simulate-csv":
            problems += checks.check_simulated_csv(path, call.check)
        else:
            strata = wl.strata
            if call.check["data"] != "survey":
                try:
                    strata = {None: checks.load_simulated_csv(
                        first_dir / f"{slot}-{Path(call.check['data']).name}")}
                except (OSError, ValueError) as exc:
                    problems.append(f"{kind}: input unreadable: {exc!r}")
                    continue
            problems += checks.check_data_command(path.read_text(encoding="utf-8"),
                                                  call.check, strata)
    return [f"slot {slot} {p}" for p in problems]


def account(wl: workloads.Workload, ops: list[dict], first_dir: Path) -> tuple[int, list[str]]:
    """Failed ops: a non-zero exit, an oracle mismatch in the slot's output, or
    output bytes that differ from the slot's first op (all ops are
    --deterministic, so a repeat must be byte-identical)."""
    first_digest: dict[int, str] = {}
    for op in ops:
        first_digest.setdefault(op["slot"], op["digest"])
    slot_problems = {slot: check_slot(wl, slot, first_dir) for slot in first_digest}
    problems = [p for slot in sorted(slot_problems) for p in slot_problems[slot]]
    failed = 0
    for n, op in enumerate(ops):
        if any(code != 0 for code in op["codes"]):
            problems.append(f"op {n} (slot {op['slot']}) exited {op['codes']}")
        elif op["digest"] != first_digest[op["slot"]]:
            problems.append(f"op {n} (slot {op['slot']}) output differs from its first run")
        elif not slot_problems[op["slot"]]:
            continue
        failed += 1
    return failed, problems


def tail(latencies: list[float]) -> tuple[float, int]:
    """Nearest-rank TAIL_PERCENTILE, and the number of ops beyond it."""
    ordered = sorted(latencies)
    rank = max(1, math.ceil(TAIL_PERCENTILE / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def end_to_end(wl: workloads.Workload, ops: list[dict], peak_rss_kb: int,
               setup_s: float) -> tuple[dict, str]:
    timed = [op for op in ops if op["phase"] == "timed"]
    ms = [op["ms"] for op in timed]
    rows = sum(wl.slots[op["slot"]].rows for op in timed)
    tail_ms, beyond = tail(ms)
    metrics = {
        "op_p50_ms": {"value": statistics.median(ms), "unit": "ms"},
        "op_tail_ms": {"value": tail_ms, "unit": "ms"},
        "rows_per_s": {"value": rows / (sum(ms) / 1000.0), "unit": "rows/s"},
        "peak_rss_mb": {"value": peak_rss_kb / 1024.0, "unit": "MB"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }
    note = f"op_tail_ms is p{TAIL_PERCENTILE} of {len(ms)} timed ops ({beyond} beyond it)"
    if beyond < 10:
        note += "; fewer than ten beyond it: lengthen the run for a trustworthy tail"
    return metrics, note


def per_layer(ops: list[dict], spans: list[list], missing: list[str]) -> tuple[dict, dict]:
    untraced = [op["ms"] for op in ops if op["phase"] == "timed"]
    traced = [op for op in ops if op["phase"] == "traced"]
    overhead = statistics.median(op["ms"] for op in traced) / statistics.median(untraced) - 1.0
    output_bytes = statistics.fmean(op["bytes"] for op in traced)
    return tracer.summarise(spans, len(traced), output_bytes, overhead, missing)


def run_workload(name: str, seed: int, seconds: int, trace: bool, root: Path,
                 env: dict) -> tuple[list[str], dict]:
    """One workload end to end: its report lines and its result object."""
    scratch = root / ".bench_tmp"
    tmp = scratch / f"{name}-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        wl = workloads.build(name, seed, tmp)
        setup_s = None if trace else measure_setup(root, env)
        result = run_worker(wl, root / "src", tmp, env, _phases(seconds, trace),
                            seconds + WORKER_GRACE_S)
        ops = result["ops"]
        failed, problems = account(wl, ops, result["first_dir"])
        if trace:
            spans = json.loads((tmp / "spans.json").read_text(encoding="utf-8"))
            metrics, shares = per_layer(ops, spans, result["missing"])
            op_ms = statistics.fmean(op["ms"] for op in ops if op["phase"] == "traced")
            note = (f"self time by module, of a {op_ms:.1f} ms traced op: "
                    + ", ".join(f"{m} {v:.2f} ms ({100 * v / op_ms:.1f}%)"
                                for m, v in sorted(shares.items(), key=lambda kv: -kv[1])))
            if result["missing"]:
                note += f"\nabsent (target not found): {', '.join(result['missing'])}"
        else:
            metrics, note = end_to_end(wl, ops, result["peak_rss_kb"], setup_s)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    lines = [f"workload {wl.name} (seed {wl.seed}, {seconds} s, trace {int(trace)}): {wl.why}",
             f"sizes: {json.dumps(wl.sizes)}",
             f"env: {json.dumps(environment())}",
             f"ops: {len(ops)} attempted ({len(wl.slots)} slots), {failed} failed, "
             f"failed_op_frac {failed / len(ops):.4f}",
             note]
    lines += [f"  {metric:44s} {m['value']:14.6g} {m['unit']}" for metric, m in metrics.items()]
    lines += [f"  problem: {problem}" for problem in problems[:20]]
    return lines, {"correct": failed == 0, "attempted": len(ops), "failed": failed,
                   "metrics": metrics}


def main(argv=None) -> int:
    args = _parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "confound_lens" / "cli.py").is_file():
        print(f"error: no confound_lens sources under {src}; run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    env = _child_env(src)
    names = list(workloads.BY_NAME) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            lines, results[name] = run_workload(name, args.seed, args.seconds,
                                                bool(args.trace), root, env)
        except (RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 3
        print("\n".join(lines))
    if len(names) == 1:
        final = results[names[0]]
    else:  # one line for all workloads, metrics named "<workload>/<metric>"
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{name}/{metric}": m for name, r in results.items()
                             for metric, m in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
