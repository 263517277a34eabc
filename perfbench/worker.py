"""One benchmark process: set up a workload, run its ops, print one JSON line.

Modes:
  setup     import zenobath, build the inputs, report the time and exit;
  untraced  run ops for --seconds (at least the workload's census ops);
  traced    the same with every wrapped library function recording spans.

The process imports zenobath from the ``src`` directory of the checkout it
lives in and refuses any other copy.  Ops run one at a time on one thread;
each op's outputs are checked after its timer stops.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import tempfile
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
# the host's speed swings by up to 1.5x over seconds (shared cores), so the
# worker times a fixed reference kernel between ops at least this often
CALIBRATE_EVERY_S = 0.25


def reference_kernel_s() -> float:
    """Median time of five runs of a fixed small-array numpy/Python loop.

    The mix resembles the library's own inner loops, so a slow phase of the
    host slows it about as much as it slows an op; the median of short runs
    ignores millisecond interruptions, which are not a phase.
    """
    import numpy as np

    step = np.array(
        [[0.9, 0.1j, 0, 0], [0, 0.8, 0.1, 0], [0, 0, 0.95, 0.05], [0.01, 0, 0, 0.9]]
    )
    times = []
    for _ in range(5):
        vec = np.ones(4, dtype=complex)
        acc = 0.0
        start = perf_counter()
        for i in range(300):
            vec = step @ vec
            acc += abs(vec[0]) * 0.5 + i % 7
            vec = vec / np.abs(vec).max()
        times.append(perf_counter() - start)
    return sorted(times)[2]


def _import_library():
    sys.path.insert(0, str(ROOT / "src"))
    import zenobath

    where = Path(zenobath.__file__).resolve()
    if where.parent != ROOT / "src" / "zenobath":
        raise SystemExit(f"zenobath imported from {where}, not from this checkout")
    from perfbench import workloads

    return workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "untraced", "traced"), required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT))
    out_dir = ROOT / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        start = perf_counter()
        workloads = _import_library()
        workload = workloads.WORKLOADS[args.workload](args.seed, Path(tmp))
        setup_s = perf_counter() - start
        if args.mode == "setup":
            print(json.dumps({"setup_s": setup_s, "kernel_s": reference_kernel_s()}))
            return 0
        result = run_ops(workload, args)
    print(json.dumps(result))
    return 0


def run_ops(workload, args) -> dict:
    import numpy
    from perfbench import tracing, workloads

    tracer = None
    if args.mode == "traced":
        tracer = tracing.Tracer()
        tracer.install()
    census = workload.CENSUS
    op_s, sub_s, good, library_failed, problems = [], [], [], [], []
    rss_kb = 0
    calibration = [(-1, reference_kernel_s())]  # (last op before it, seconds)
    calibrated_at = perf_counter()
    deadline = calibrated_at + args.seconds
    i = 0
    while i < census or perf_counter() < deadline:
        if tracer:
            tracer.op_id = i
        error = None
        with tracer.span(tracing.OP) if tracer else nullcontext():
            start = perf_counter()
            try:
                result = workload.run(i)
            except Exception as exc:  # noqa: BLE001 - an op that raises is a failed op
                error, result = exc, {"library_failed": []}
            op_s.append(perf_counter() - start)
        if error is None:
            with tracer.span(tracing.VERIFY, paused=True) if tracer else nullcontext():
                found = workload.verify(i, result)
        else:
            found = [f"op {i} raised {type(error).__name__} in "
                     f"{workloads.raising_function(error)}: {error}"]
        problems.append(found)
        good.append(not found and not result["library_failed"])
        if "times" in result:
            sub_s.append(result["times"])
        if i < census:
            library_failed.append(result["library_failed"])
        if i + 1 == census:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if perf_counter() - calibrated_at >= CALIBRATE_EVERY_S:
            calibration.append((i, reference_kernel_s()))
            calibrated_at = perf_counter()
        i += 1
    if calibration[-1][0] != i - 1:
        calibration.append((i - 1, reference_kernel_s()))

    out = {
        "op_s": op_s,
        "calibration": calibration,
        "sub_s": sub_s,
        "good": good,
        "census": census,
        "census_library_failed": library_failed,
        "problems": [p for found in problems for p in found][:20],
        "failed_ops": sum(bool(found) for found in problems),
        "peak_rss_mb": rss_kb / 1024.0,
        "numpy": numpy.__version__,
    }
    if tracer:
        out["trace"] = tracing.analyse(tracer.spans, census)
        tracer.write_spans(ROOT / "perfbench" / "out" / f"spans-{args.workload}.csv")
    return out


if __name__ == "__main__":
    sys.exit(main())
