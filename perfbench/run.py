"""Benchmark of zenobath: three workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cli-artifacts --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json with tracing
off: the median set-up time of ten fresh processes, and one process that
runs ops for ``--seconds``.  Set-up and op times in these metrics are
normalised: each process times a fixed reference kernel (between ops, or
right after setting up), and each time is rescaled to a host that runs that
kernel in REF_KERNEL_S, so the host's swings in speed cancel.  Raw seconds
are in the report.  ``--trace 1`` gives the per-layer metrics: one untraced
and one traced process run the same seeded ops for half the time each, and
their difference is the tracing overhead.  Every op's outputs are checked;
the last line of standard output is the JSON result.

Load model: one process, one thread, closed loop with one client: each op
starts when the previous one (and its output check) has ended.  BLAS and
OpenMP pools are pinned to one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "perfbench" / "out"
SETUP_RUNS = 10
REF_KERNEL_S = 0.002
PINNED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
# above this share of op time outside every span, a layer could hide
UNATTRIBUTED_FLAG = 0.05

# which end-to-end metric each layer metric should move, on which workload
LAYER_MAP = {
    "formatting.write_csv.self_s, formatting.bytes_per_s":
        "cli-artifacts landscape_s and the trajectory scenarios "
        "(evolve_s, zeno_s, discrete_zeno_s); not zeno-protocol or domain-sweep",
    "dynamics.integrate.self_s, dynamics.steps_per_s":
        "zeno-protocol solve_s; cli-artifacts evolve_s and zeno_s; "
        "barely domain-sweep",
    "measurement.discrete_zeno_protocol.self_s, dynamics.integrate.calls, "
    "algebra.bloch_to_density.calls (about one per cycle)":
        "zeno-protocol solve_s strongly; cli-artifacts discrete_zeno_s less",
    "measurement.decay_exponent.*, intelligent.* (the cross-checks)":
        "domain-sweep cell_s and cells_per_s; "
        "cli-artifacts intelligent_s and steady_state_s",
    "dynamics.generator_matrix.calls (step-matrix cache misses)":
        "domain-sweep cell_s and peak_rss_mb",
    "cli.parse_config.self_s":
        "the sub-millisecond scenarios: cli-artifacts intelligent_s, steady_state_s",
    "<fn>.failed": "domain-sweep failed_ratio and cells_per_s",
}

def pct(values, q: int) -> float:
    """q-th percentile, by statistics.quantiles (exclusive method)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def normalised(run: dict) -> list[float]:
    """Op times rescaled by the reference-kernel timings that bracket them."""
    ops, cal = run["op_s"], run["calibration"]
    out = []
    for (first, before), (last, after) in zip(cal, cal[1:]):
        scale = REF_KERNEL_S / ((before + after) / 2.0)
        out += [t * scale for t in ops[first + 1:last + 1]]
    return out


def worker(args, mode: str, seconds: float) -> dict:
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(seconds), "--mode", mode,
    ]
    env = dict(os.environ, **PINNED, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=seconds + 120,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker ({mode}) exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit() -> str:
    """Commit of the checkout; git does not look above the checkout's root."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)), timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git did not run)"
    if proc.returncode != 0:
        return "unknown (not a git checkout)"
    return proc.stdout.strip()


def environment(args, numpy_version: str) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "thread_pinning": PINNED,
        "seed": args.seed,
        "seconds": args.seconds,
        "git_commit": git_commit(),
    }


def workload_metrics(workload: str, run: dict, setup_s: float) -> dict:
    """The workload's own headline figures: name -> (value, unit, samples)."""
    ops = run["op_s"]
    census = run["census"]
    out = {
        "setup_s": (setup_s, "s", SETUP_RUNS),
        "peak_rss_mb": (run["peak_rss_mb"], "MB", 1),
        # over the census, so it repeats exactly for a fixed seed
        "failed_ratio": (1.0 - sum(run["good"][:census]) / census, "ratio", census),
    }
    if workload == "cli-artifacts":
        for scenario in run["sub_s"][0] if run["sub_s"] else ():
            times = [sub[scenario] for sub in run["sub_s"]]
            name = scenario.replace("-", "_") + "_s.p50"
            out[name] = (statistics.median(times), "s", len(times))
    elif workload == "zeno-protocol":
        out["solve_s.p50"] = (statistics.median(ops), "s", len(ops))
        out["solve_s.p90"] = (pct(ops, 90), "s", len(ops))
    else:
        out["cells_per_s"] = (sum(run["good"]) / sum(ops), "1/s", len(ops))
        out["cell_s.p50"] = (statistics.median(ops), "s", len(ops))
        out["cell_s.p99"] = (pct(ops, 99), "s", len(ops))
    return out


def end_to_end(args, spec) -> tuple[dict, dict, list[dict]]:
    worker(args, "setup", 0.0)  # unmeasured: compiles bytecode, warms the file cache
    # half the set-up samples before the timed run and half after, so that
    # one slow phase of the host does not hold all of them; each is rescaled
    # by the reference kernel its own process ran right after setting up
    setup_runs = [worker(args, "setup", 0.0) for _ in range(SETUP_RUNS // 2)]
    run = worker(args, "untraced", args.seconds)
    setup_runs += [worker(args, "setup", 0.0) for _ in range(SETUP_RUNS // 2)]
    setups = [x["setup_s"] * REF_KERNEL_S / x["kernel_s"] for x in setup_runs]
    raw_setup_s = statistics.median(x["setup_s"] for x in setup_runs)
    ops = normalised(run)
    values = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": run["peak_rss_mb"],
        "norm_op_s.p50": statistics.median(ops),
        "norm_good_ops_per_s": sum(run["good"]) / sum(ops),
    }
    samples = {
        "setup_s": SETUP_RUNS, "peak_rss_mb": 1, "norm_op_s.p50": len(ops),
        "norm_good_ops_per_s": len(ops),
    }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    kernel = [s for _, s in run["calibration"]]
    report = {
        "samples": samples,
        "workload_metrics": workload_metrics(args.workload, run, raw_setup_s),
        "detail": {
            # no bound: about 9 samples lie beyond it in a cli-artifacts run,
            # too few for its run-to-run spread to stay within one
            "norm_op_s.p75": pct(ops, 75),
            "op_s.p50": statistics.median(run["op_s"]),
            "op_s.p90": pct(run["op_s"], 90),
            "setup_s.p50": raw_setup_s,
            "reference_kernel_s.p50": statistics.median(kernel),
            "reference_kernel_s.min": min(kernel),
            "reference_kernel_s.max": max(kernel),
        },
        "setup_samples_raw_s": [x["setup_s"] for x in setup_runs],
    }
    return metrics, report, [run]


def per_layer(args, spec) -> tuple[dict, dict, list[dict]]:
    half = args.seconds / 2.0
    plain = worker(args, "untraced", half)
    traced = worker(args, "traced", half)
    trace = traced["trace"]
    values = {}
    for name, entry in trace["layers"].items():
        values[f"{name}.calls"] = entry["calls"]
        values[f"{name}.self_s"] = entry["self_s"]
        values[f"{name}.failed"] = entry["failed"]
    integrate = trace["layers"]["dynamics.integrate"]
    values["dynamics.steps"] = integrate["work"]
    values["dynamics.steps_per_s"] = (
        integrate["work"] / integrate["self_s"] if integrate["self_s"] else 0.0
    )
    written = [trace["layers"][f"formatting.write_{kind}"] for kind in ("csv", "json")]
    fmt_bytes = sum(e["work"] for e in written)
    fmt_s = sum(e["self_s"] for e in written)
    values["formatting.bytes"] = fmt_bytes
    values["formatting.bytes_per_s"] = fmt_bytes / fmt_s if fmt_s else 0.0
    values["measurement.discrete_zeno_protocol.integrate_per_cycle"] = (
        trace["nested_integrate"] / trace["protocol_cycles"]
        if trace["protocol_cycles"] else 0.0
    )
    common = min(len(plain["op_s"]), len(traced["op_s"]))
    traced_s = sum(normalised(traced)[:common])
    plain_s = sum(normalised(plain)[:common])
    values["trace.overhead_ratio"] = traced_s / plain_s
    values["trace.unattributed_share"] = trace["unattributed_share"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    report = {
        "census_ops": trace["census_ops"],
        "tracing_cost": {
            "ops_compared": common,
            "untraced_norm_op_s.mean": plain_s / common,
            "traced_norm_op_s.mean": traced_s / common,
            "traced_minus_untraced_norm_s.mean": (traced_s - plain_s) / common,
            "overhead_ratio": values["trace.overhead_ratio"],
            "unattributed_share": trace["unattributed_share"],
            "unattributed_flag": trace["unattributed_share"] > UNATTRIBUTED_FLAG,
        },
        "spans_file": str((OUT / f"spans-{args.workload}.csv").relative_to(ROOT)),
    }
    # both processes ran and checked seeded ops; the traced one comes last
    return metrics, report, [plain, traced]


def failure_table(run: dict) -> dict:
    """Census failures by guarded call, raising function and exception type."""
    table: dict = {}
    for cell in run["census_library_failed"]:
        for label, raiser, exc_type in cell:
            key = f"{label} <- {raiser}: {exc_type}"
            table[key] = table.get(key, 0) + 1
    return dict(sorted(table.items()))


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(why))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "zenobath" / "__init__.py").is_file():
        print(f"no zenobath sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    if args.trace:
        metrics, report, runs = per_layer(args, bench["per_layer"])
    else:
        metrics, report, runs = end_to_end(args, bench["end_to_end"])
    run = runs[-1]
    attempted = sum(len(r["op_s"]) for r in runs)
    failed = sum(r["failed_ops"] for r in runs)
    problems = [p for r in runs for p in r["problems"]]
    report.update(
        workload=args.workload,
        why=why[args.workload],
        trace=args.trace,
        environment=environment(args, run["numpy"]),
        layer_map=LAYER_MAP,
        census=run["census"],
        census_failures=failure_table(run),
        problems=problems,
        metrics=metrics,
    )
    (OUT / f"report-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2) + "\n"
    )

    print(f"workload {args.workload} (seed {args.seed}, {args.seconds} s, "
          f"trace {args.trace}): {why[args.workload]}")
    print(f"environment: {json.dumps(report['environment'])}")
    print(f"layer metric -> end-to-end metric it should move: {json.dumps(LAYER_MAP)}")
    for name, entry in metrics.items():
        n = report.get("samples", {}).get(name, report.get("census_ops"))
        print(f"  {name:58s} {entry['value']:<14.6g} {entry['unit']:8s} n={n}")
    if "detail" in report:
        print(f"detail (unbounded, op_s and setup_s raw): {json.dumps(report['detail'])}")
    if "workload_metrics" in report:
        print("workload figures (raw seconds):")
        for name, (value, unit, n) in report["workload_metrics"].items():
            print(f"  {name:58s} {value:<14.6g} {unit:8s} n={n}")
    if "tracing_cost" in report:
        print(f"tracing cost: {json.dumps(report['tracing_cost'])}")
        if report["tracing_cost"]["unattributed_flag"]:
            print(f"  FLAG: over {UNATTRIBUTED_FLAG:.0%} of op time is outside "
                  "every span; a missing wrapper could hide a layer")
    print(f"census failures (first {run['census']} ops): "
          f"{json.dumps(report['census_failures'])}")
    for problem in problems:
        print(f"  check failed: {problem}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
