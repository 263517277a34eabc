"""sha256 digests of the six CLI scenarios' artifacts at three baths and at
the benchmark's `cli-artifacts` configs (seeds 1, 7 and 42), and of the raw
float64 columns of the library trajectories behind the first.

An artifact's bytes reproduce for one numpy build, one BLAS core and one
CPU: another core or SIMD target may round a trajectory's products
differently.  So the table is keyed by the numpy version, the running BLAS
core and numpy's SIMD targets on this CPU, and `test_cli` checks the digests
only where all three match.  The trajectory digests pin the bits the 12-digit
artifacts round away.  After a change that moves artifact bytes on
purpose, regenerate the table with

    PYTHONPATH=src python tests/artifact_digests.py

and name the changed artifacts in CHANGES.md.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from zenobath.algebra import bloch_to_density
from zenobath.cli import main as cli_main
from zenobath.cli import parse_config, run_scenario
from zenobath.dynamics import EXPANDED, integrate, measured_form
from zenobath.measurement import discrete_zeno_protocol

ROOT = Path(__file__).resolve().parents[1]
TABLE = Path(__file__).with_name("artifact_digests.json")
BENCHMARK_SEEDS = (1, 7, 42)  # the seeds of CI's benchmark smoke runs
# README defaults, with the keys each scenario needs
BATHS = ((0.3, 0.0), (1.0, 0.3), (7.5, 4.1))
SCENARIOS = {
    "landscape": ("csv", {}),
    "evolve": ("csv", {"initial_state": "excited"}),
    "zeno": ("csv", {"direction": "optimal-1", "initial_state": "plus-mu"}),
    "discrete-zeno": (
        "csv", {"direction": "optimal-1", "initial_state": "plus-mu", "delta_t": 0.1}
    ),
    "intelligent": ("json", {}),
    "steady-state": ("json", {"direction": "optimal-1"}),
}
CORENAME_SYMBOLS = (
    "scipy_openblas_get_corename64_",
    "scipy_openblas_get_corename",
    "openblas_get_corename64_",
    "openblas_get_corename",
)


def blas_core() -> str:
    """The running OpenBLAS core (for example "SkylakeX"), read from the
    OpenBLAS library this process has loaded, or "unknown"."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line})
    except OSError:
        return "unknown"
    for path in paths:
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in CORENAME_SYMBOLS:
            corename = getattr(library, symbol, None)
            if corename is not None:
                corename.argtypes, corename.restype = [], ctypes.c_char_p
                return corename().decode()
    return "unknown"


def simd_targets() -> list[str]:
    """numpy's baseline and dispatch SIMD targets that this CPU runs."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    features = umath.__cpu_features__
    targets = [*umath.__cpu_baseline__, *umath.__cpu_dispatch__]
    return [name for name in targets if features.get(name)]


def platform_key() -> dict:
    return {"numpy": np.__version__, "blas_core": blas_core(), "simd": simd_targets()}


def artifact_digests(workdir: Path) -> dict[str, str]:
    """Write every scenario at every bath into workdir, and every artifact of
    the `cli-artifacts` workload at each benchmark seed through `cli.main`,
    as the workload writes it; their sha256 by name."""
    digests = {}
    for nbar, psi in BATHS:
        for scenario, (ext, extra) in SCENARIOS.items():
            name = f"{scenario} N={nbar:g} psi={psi:g}"
            path = workdir / f"{scenario}-{nbar:g}-{psi:g}.{ext}"
            config = {"scenario": scenario, "bath": {"N": nbar, "psi": psi}, **extra}
            run_scenario(parse_config(config), path)
            digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    if str(ROOT) not in sys.path:  # the checkout, for perfbench
        sys.path.insert(0, str(ROOT))
    from perfbench.workloads import CliArtifacts

    for seed in BENCHMARK_SEEDS:
        seed_dir = workdir / f"seed-{seed}"
        seed_dir.mkdir()
        workload = CliArtifacts(seed, seed_dir)
        for (scenario, k), argv in workload.argv.items():
            if cli_main(argv) != 0:
                raise RuntimeError(f"cli-artifacts seed {seed}: {scenario} failed")
            name = f"cli-artifacts seed={seed} {scenario} config={k}"
            digests[name] = hashlib.sha256(Path(argv[3]).read_bytes()).hexdigest()
    return digests


def _trajectories(nbar: float, psi: float) -> dict:
    """The scenarios' library runs at one bath, by name: free decay from the
    evolve config, the monitored run and the protocol from the zeno configs."""
    def config(scenario):
        extra = SCENARIOS[scenario][1]
        return parse_config({"scenario": scenario, "bath": {"N": nbar, "psi": psi}, **extra})

    free, zeno, protocol = config("evolve"), config("zeno"), config("discrete-zeno")
    rho0 = bloch_to_density(zeno.initial)
    return {
        "integrate(EXPANDED)": integrate(
            EXPANDED, free.bath, bloch_to_density(free.initial), free.t_max, free.dt
        ),
        "integrate(measured_form(optimal-1))": integrate(
            measured_form(zeno.direction), zeno.bath, rho0, zeno.t_max, zeno.dt
        ),
        "discrete_zeno_protocol": discrete_zeno_protocol(
            protocol.bath, protocol.direction, rho0, protocol.delta_t,
            protocol.n_steps, protocol.dt,
        ),
    }


def trajectory_digests() -> dict[str, str]:
    """sha256 of each library trajectory's raw float64 bytes at every bath:
    times, the C-ordered Bloch columns and each extra column, by name."""
    digests = {}
    for nbar, psi in BATHS:
        for route, series in _trajectories(nbar, psi).items():
            columns = {"times": series.times, "bloch": np.ascontiguousarray(series.bloch)}
            for column, values in {**columns, **series.extras}.items():
                name = f"{route} N={nbar:g} psi={psi:g} {column}"
                digests[name] = hashlib.sha256(values.tobytes()).hexdigest()
    return digests


def main() -> int:
    with tempfile.TemporaryDirectory() as workdir:
        table = {
            "key": platform_key(),
            "digests": artifact_digests(Path(workdir)),
            "trajectories": trajectory_digests(),
        }
    TABLE.write_text(json.dumps(table, indent=1) + "\n")
    count = len(table["digests"]) + len(table["trajectories"])
    print(f"wrote {count} digests to {TABLE}, key {table['key']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
