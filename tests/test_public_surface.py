"""The package's public surface: each name is declared once, in its module's
`__all__`, and the package re-exports exactly those names."""

import dataclasses

import zenobath
from zenobath import algebra, bath, directions, dynamics, intelligent, measurement

MODULES = (algebra, bath, directions, dynamics, intelligent, measurement)
PUBLIC = {
    "BathParams",
    "BlochVector",
    "DefectiveMatrixError",
    "DensityMatrix",
    "EXPANDED",
    "IntegrationError",
    "IntelligentStateReport",
    "LandscapeGrid",
    "MeasurementDirection",
    "StateVector2",
    "SuperoperatorForm",
    "TimeSeries",
    "analytic_bloch",
    "bloch_flow",
    "bloch_to_density",
    "block_transfer_rates",
    "decay_exponent",
    "density_to_bloch",
    "direction_eigenstates",
    "disentangling_transform",
    "discrete_zeno_protocol",
    "eigenprojectors",
    "expectation",
    "exponent_over_gamma",
    "generalized_lowering_operator",
    "generator_matrix",
    "initial_sigma_slope",
    "integrate",
    "jump_operator_eigenstates",
    "landscape_scan",
    "lindblad_generator",
    "lindblad_operator",
    "measured_form",
    "measured_steady_state",
    "optimal_directions",
    "phase_aligned_distance",
    "quadrature_rates",
    "quadrature_decay_curves",
    "rotated_quadrature_operators",
    "steady_state_bloch",
}
CONSTANTS = ("IDENTITY", "SIGMA_X", "SIGMA_Y", "SIGMA_Z", "SIGMA_PLUS", "SIGMA_MINUS")
CONSTANTS += ("J_X", "J_Y", "J_Z")


def test_package_exports_the_forty_names():
    assert len(PUBLIC) == 40
    assert set(zenobath.__all__) == PUBLIC
    assert len(zenobath.__all__) == len(PUBLIC)  # no name listed twice


def test_each_name_is_its_defining_modules_object():
    home = {}
    for module in MODULES:
        for name in module.__all__:
            assert name not in home, f"{name} declared in two modules"
            home[name] = module
    assert set(home) == PUBLIC
    for name, module in home.items():
        obj = getattr(module, name)
        assert getattr(zenobath, name) is obj
        assert obj.__module__ == module.__name__, name  # defined there, not imported


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from zenobath import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == PUBLIC


def test_pauli_and_spin_constants_stay_in_algebra():
    namespace = {}
    exec(f"from zenobath.algebra import {', '.join(CONSTANTS)}", namespace)
    for name in CONSTANTS:
        assert name not in zenobath.__all__
        assert namespace[name].shape == (2, 2) and not namespace[name].flags.writeable


def test_a_form_says_only_where_the_meter_points():
    form = zenobath.SuperoperatorForm
    assert [f.name for f in dataclasses.fields(form)] == ["direction"]
    assert form() == zenobath.EXPANDED and form().direction is None
    assert hash(form()) == hash(zenobath.EXPANDED)
    # equal directions give equal, equally hashed forms: the step-cache key
    first = zenobath.measured_form(zenobath.MeasurementDirection(1.1, 0.3))
    second = zenobath.measured_form(zenobath.MeasurementDirection(1.1, 0.3))
    assert first is not second and first == second and hash(first) == hash(second)
    assert first != zenobath.EXPANDED
    params = zenobath.BathParams(nbar=0.7, phase=1.9)
    step = dynamics._rk4_step_matrix(first, params, 1e-3)
    assert dynamics._rk4_step_matrix(second, params, 1e-3) is step
