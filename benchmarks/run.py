"""Benchmark for coresat: four workloads, timed from outside the program.

Usage, from the root of the repository:

    python3 benchmarks/run.py --workload sweep --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --seed 1          # every workload, each in its own process

With ``--workload`` the workload runs in this process: set-up (import,
input generation, one warm-up call) is done once, then whole rounds of
the workload's operations run one after another (a closed loop with one
caller) until ``--seconds`` have passed.  Between operations the set-up
is repeated, untimed by the operations, once every SETUP_EVERY_S
seconds, so that ``setup_s`` is a median over the same stretch of time
as the other metrics.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Details go to
``benchmarks/out/``.

Exit codes: 0 when every output was correct, 1 when a check failed, 2
when the program cannot be found or the arguments are wrong.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_EVERY_S = 1.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MiB",
}


def _limit_blas_threads() -> None:
    """At most one OpenBLAS thread per usable CPU; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    current = os.environ.get("OPENBLAS_NUM_THREADS", "")
    if not current.isdigit() or not 1 <= int(current) <= nproc:
        os.environ["OPENBLAS_NUM_THREADS"] = str(nproc)


def environment() -> dict:
    import numpy

    blas = getattr(numpy.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _program_present() -> bool:
    return (ROOT / "src" / "coresat" / "__init__.py").is_file()


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Set up, run whole rounds for ``seconds``, check every output."""
    import numpy  # noqa: F401  -- loaded once, outside the timed set-up

    setups = []
    mods, ops = set_up(name, seed, setups)
    if not Path(mods["cli"].__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"coresat imported from {mods['cli'].__file__}, not {ROOT / 'src'}")

    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()

    gc.collect()
    gc.freeze()
    latencies: list[float] = []
    per_kind: dict[str, list[float]] = {}
    round_walls: list[float] = []
    attempted = failed = 0
    errors: list[str] = []
    start = last_setup = time.perf_counter()
    traced = False
    while True:
        # a traced run alternates traced and untraced rounds, traced first;
        # the difference between the two is the tracing overhead
        if tracer is not None:
            traced = not traced
            if traced:
                tracer.install(mods)
        gc.collect()
        wall = 0.0
        for op in ops:
            # the operation's own timing is its root span when tracing
            root = tracer.open_root("bench.op", "bench") if traced else None
            t0 = time.perf_counter()
            try:
                out = op.fn()
            except Exception as exc:  # a raising operation is a failed one
                out, raised = None, f"{type(exc).__name__}: {exc}"
            else:
                raised = None
            t1 = time.perf_counter()
            dt = t1 - t0
            if root is not None:
                tracer.close_root(root, t0, t1)
            wall += dt
            latencies.append(dt)
            per_kind.setdefault(op.kind, []).append(dt)
            attempted += 1
            problem = raised or _judge(op, out)
            if problem:
                failed += 1
                if not op.known_failure and len(errors) < 5:
                    errors.append(f"{op.label}: {problem}")
            if time.perf_counter() - last_setup >= SETUP_EVERY_S:
                set_up(name, seed, setups)
                last_setup = time.perf_counter()
        round_walls.append(wall)
        if traced:
            tracer.fold_round(wall)
            tracer.uninstall()
        elif tracer is not None:
            tracer.untraced_walls.append(wall)
        if time.perf_counter() - start >= seconds and (tracer is None or tracer.untraced_walls):
            break

    correct = not errors
    if trace:
        from tracing import PER_LAYER

        values = tracer.per_layer_metrics()
        metrics = {key: {"value": values[key], "unit": unit} for key, (unit, _) in PER_LAYER.items()}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(round_walls),
            "op_p50_ms": statistics.median(latencies) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {key: {"value": values[key], "unit": unit} for key, unit in END_TO_END.items()}
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    details = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "rounds": len(round_walls),
        "ops_per_round": len(ops),
        "round_wall_s": round_walls,
        "setup_s": setups,
        "op_ms_by_kind": {
            kind: {"n": len(v), "p50": statistics.median(v) * 1e3, "max": max(v) * 1e3}
            for kind, v in sorted(per_kind.items())
        },
        "errors": errors,
        "environment": environment(),
        "result": result,
    }
    if tracer is not None:
        details["trace_file"] = str(_write(f"trace-{name}-seed{seed}.json", tracer.trace_document()))
    return result, details


def set_up(name: str, seed: int, times: list[float]) -> tuple[dict, list]:
    """Import coresat afresh, make the inputs, check one warm-up call; time it all."""
    t0 = time.perf_counter()
    mods = workloads.load_program()
    ops, warm = workloads.WORKLOADS[name](mods, seed)
    warm_error = warm.check(warm.fn())
    times.append(time.perf_counter() - t0)
    if warm_error:
        raise SystemExit(f"warm-up call failed: {warm.label}: {warm_error}")
    return mods, ops


def _judge(op, out) -> str | None:
    """The check's verdict; a check that raises on malformed output fails the op."""
    try:
        return op.check(out)
    except Exception as exc:  # malformed output can break any parser
        return f"check raised {type(exc).__name__}: {exc}"


def _write(filename: str, document: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / filename
    path.write_text(json.dumps(document, indent=1) + "\n")
    return path


def run_all(args) -> int:
    """Every workload in its own process; a table, then one combined JSON line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"{name}: exited {proc.returncode} without a result", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
            rows.append((name, key, metric["value"], metric["unit"]))
        rows.append((name, "attempted", result["attempted"], "ops"))
        rows.append((name, "failed", result["failed"], "ops"))
        rows.append((name, "correct", result["correct"], ""))
    for name, key, value, unit in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"{name:<9} {key:<30} {shown:>14} {unit}")
    _write(f"all-seed{args.seed}-trace{args.trace}.json", combined)
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not _program_present():
        print(f"error: no coresat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    _limit_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload is None:
        return run_all(args)

    result, details = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    _write(f"{args.workload}-seed{args.seed}-trace{args.trace}.json", details)
    for line in details["errors"]:
        print(f"check failed: {line}", file=sys.stderr)
    print(
        f"{args.workload}: {details['rounds']} rounds x {details['ops_per_round']} ops, "
        f"{result['failed']}/{result['attempted']} failed",
        file=sys.stderr,
    )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
