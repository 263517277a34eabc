"""sha256 digests of the six CLI scenarios' artifacts at three baths.

An artifact's bytes reproduce for one numpy build, one BLAS core and one
CPU: another core or SIMD target may round a trajectory's products
differently.  So the table is keyed by the numpy version, the running BLAS
core and numpy's SIMD targets on this CPU, and `test_cli` checks the digests
only where all three match.  After a change that moves artifact bytes on
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

from zenobath.cli import parse_config, run_scenario

TABLE = Path(__file__).with_name("artifact_digests.json")
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
    """Write every scenario at every bath into workdir; their sha256 by name."""
    digests = {}
    for nbar, psi in BATHS:
        for scenario, (ext, extra) in SCENARIOS.items():
            name = f"{scenario} N={nbar:g} psi={psi:g}"
            path = workdir / f"{scenario}-{nbar:g}-{psi:g}.{ext}"
            config = {"scenario": scenario, "bath": {"N": nbar, "psi": psi}, **extra}
            run_scenario(parse_config(config), path)
            digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def main() -> int:
    with tempfile.TemporaryDirectory() as workdir:
        table = {"key": platform_key(), "digests": artifact_digests(Path(workdir))}
    TABLE.write_text(json.dumps(table, indent=1) + "\n")
    print(f"wrote {len(table['digests'])} digests to {TABLE}, key {table['key']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
