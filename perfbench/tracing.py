"""In-memory span tracing around the public functions of zenobath.

The tracer wraps functions from outside the library: every module-level
binding of a wrapped function is replaced, because zenobath modules import
names directly (``integrate`` is bound in ``dynamics``, ``cli``,
``measurement``, ``intelligent`` and the package itself).  A span is the
tuple (name, start, end, parent index, op id, error type, work), appended in
call order and analysed only after the run.
"""

from __future__ import annotations

import functools
import os
import sys
from contextlib import contextmanager
from time import perf_counter

# module -> wrapped public functions; the span name is "<module>.<function>"
WRAPPED = {
    "cli": ("parse_config", "run_scenario"),
    "formatting": ("write_csv", "write_json"),
    "directions": ("landscape_scan", "optimal_directions"),
    "dynamics": ("integrate", "generator_matrix"),
    "measurement": (
        "decay_exponent",
        "block_transfer_rates",
        "measured_steady_state",
        "discrete_zeno_protocol",
    ),
    "intelligent": ("jump_operator_eigenstates", "initial_sigma_slope"),
    "algebra": ("bloch_to_density", "density_to_bloch"),
}
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in WRAPPED.items() for fn in fns)
OP = "bench.op"
VERIFY = "bench.verify"


def _integrate_steps(args, kwargs) -> int:
    """Step count integrate() takes, worked out from its arguments."""
    names = ("form", "params", "rho0", "t_max", "dt")
    bound = dict(zip(names, args), **kwargs)
    dt = bound.get("dt")
    if dt is None:
        dt = 1e-3 / bound["params"].gamma
    return max(1, round(bound["t_max"] / dt))


def _protocol_cycles(args, kwargs) -> int:
    names = ("params", "direction", "rho0", "delta_t", "n_steps", "dt")
    return int(dict(zip(names, args), **kwargs)["n_steps"])


# work recorded per span: computed from the arguments before the call, or
# from the written file after it (bytes)
WORK_BEFORE = {
    "dynamics.integrate": _integrate_steps,
    "measurement.discrete_zeno_protocol": _protocol_cycles,
}
WORK_AFTER = {"formatting.write_csv", "formatting.write_json"}


class Tracer:
    """Collects spans for one process; ops run one at a time on one thread."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._paused = False
        self.op_id = -1

    def _open(self) -> tuple[int, int]:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        return parent, idx

    def wrap(self, name: str, fn):
        tracer = self
        before = WORK_BEFORE.get(name)
        after = name in WORK_AFTER

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            work = before(args, kwargs) if before else 0
            parent, idx = tracer._open()
            error = ""
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = perf_counter()
                tracer._stack.pop()
                if after and not error:
                    work = os.path.getsize(args[0])
                tracer.spans[idx] = (name, start, end, parent, tracer.op_id, error, work)

        return wrapper

    @contextmanager
    def span(self, name: str, paused: bool = False):
        """Bench-level span; paused=True lets library calls inside run untraced."""
        parent, idx = self._open()
        self._paused = paused
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._paused = False
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.op_id, "", 0)

    def install(self) -> None:
        """Replace every zenobath binding of each wrapped function."""
        modules = [
            m for n, m in list(sys.modules.items())
            if n == "zenobath" or n.startswith("zenobath.")
        ]
        for mod_name, fns in WRAPPED.items():
            home = sys.modules[f"zenobath.{mod_name}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapper = self.wrap(f"{mod_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("name,start,end,parent,op,error,work\n")
            for name, start, end, parent, op, error, work in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent},{op},{error},{work}\n")


def analyse(spans, census: int) -> dict:
    """Per-layer totals over the census ops (ids below ``census``).

    The census is the same fixed prefix of the seeded op stream in every
    run, so counts repeat exactly for a fixed seed.  A call counts as failed
    when it ended by an exception, raised in it or in a call nested inside
    it.  Self time is a span's
    duration minus the durations of its direct children (children of one
    span never overlap: calls nest on a single thread).
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child_time[parent] += end - start

    layer = {
        name: {"calls": 0, "failed": 0, "work": 0, "self_s": 0.0}
        for name in SPAN_NAMES
    }
    op_total = op_covered = 0.0
    ops = set()
    nested_integrate = protocol_cycles = 0
    for idx, (name, start, end, parent, op, error, work) in enumerate(spans):
        if op >= census:
            continue
        if name == OP:
            ops.add(op)
            op_total += end - start
            op_covered += child_time[idx]
            continue
        if name not in layer:
            continue
        entry = layer[name]
        entry["self_s"] += end - start - child_time[idx]
        entry["calls"] += 1
        entry["failed"] += bool(error)
        entry["work"] += work
        if name == "measurement.discrete_zeno_protocol":
            protocol_cycles += work
        elif name == "dynamics.integrate" and parent >= 0:
            if spans[parent][0] == "measurement.discrete_zeno_protocol":
                nested_integrate += 1
    return {
        "layers": layer,
        "census_ops": len(ops),
        "op_s_total": op_total,
        "unattributed_share": (op_total - op_covered) / op_total if op_total else 0.0,
        "nested_integrate": nested_integrate,
        "protocol_cycles": protocol_cycles,
    }
