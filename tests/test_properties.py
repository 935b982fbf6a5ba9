"""Property tests: config parsing, the closed-form stimulus, the box
projections, the hexagon's rotation equivariance, the read-only fields and
the evaluations that share them over generated inputs (hypothesis,
derandomized so every run draws the same examples)."""

import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from morphopt.config import echo_config, load_shipped_config, parse_config
from morphopt.errors import ConfigError
from morphopt.fields import (DesignField, StimulusField, project_design,
                             project_stimulus)
from morphopt.functional import RegularizationParams
from morphopt.materials import Material, PhaseSet
from morphopt.mesh import (build_hexagon_mesh, build_rect_mesh,
                           hexagon_rotation_permutation)
from morphopt.sensitivity import Evaluation
from morphopt.stimulus_update import minimize_stimulus_field
from morphopt.verify import brute_force_stimulus

from test_driver import TINY_CFG

PROPERTY = settings(derandomize=True, deadline=None, max_examples=60)

# keys of removed settings (solver_tol, stimulus_mode, the line-search
# constants, restart_period, the three tolerances, q_weight) stay in the
# draw: they must be rejected as unknown keys
KEYS = (["optimizer." + k for k in (
    "scheme", "solver_tol", "grad_rtol", "grad_atol", "obj_rtol",
    "max_outer_iters", "armijo_c", "backtrack_factor", "max_ls_trials",
    "restart_period", "obj_stall_window", "initial_step", "step_growth",
    "stimulus_mode")]
        + ["regularization." + k for k in (
            "epsilon", "alpha", "nu2", "nu3", "q_weight", "link_weight")])
VALUES = st.one_of(
    st.integers(-3, 10 ** 6).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["0", "1", "0.5", "1e-12", "-0.0", "nodal", "staggered",
                     "monolithic", ""]),
    st.text(max_size=6))


@PROPERTY
@given(st.lists(st.tuples(st.sampled_from(KEYS), VALUES), min_size=1,
                max_size=4))
def test_parse_config_returns_a_spec_or_raises_config_error(overrides):
    try:
        spec = parse_config(text=TINY_CFG,
                            overrides=[f"{k}={v}" for k, v in overrides])
    except ConfigError:
        return
    assert parse_config(text=echo_config(spec)) == spec


PHASES = PhaseSet(Material(5.0, 0.3, 0.0), Material(5.0, 0.3, 1.0))
COARSE = build_rect_mesh(1.0, 1 / 3, 1 / 9, "left", (0.8, 0.1, 1.0, 0.23))
RESOLUTION = 4000


@settings(derandomize=True, deadline=None, max_examples=30)
@given(seed=st.integers(0, 2 ** 32 - 1), n_cases=st.integers(1, 2),
       snap=st.booleans(), scale=st.floats(1e-3, 1e3))
def test_closed_form_stimulus_matches_brute_force(seed, n_cases, snap, scale):
    # snapping to {0, 1/2, 1} reaches pure phases, where B = 0 at rho3 = 1
    rng = np.random.default_rng(seed)
    n = COARSE.n_nodes
    rho = rng.uniform(0.0, 1.0, (2, n))
    if snap:
        rho = np.round(2.0 * rho) / 2.0
    design = DesignField(rho[0], rho[1])
    lambdas = [scale * rng.normal(size=(n, 2)) for _ in range(n_cases)]
    closed = minimize_stimulus_field(COARSE, design, lambdas, PHASES)
    grid = brute_force_stimulus(COARSE, design, lambdas, PHASES,
                                resolution=RESOLUTION)
    assert np.max(np.abs(closed.s - grid.s)) <= 2.0 / RESOLUTION


FIELD = arrays(np.float64, st.integers(1, 40),
               elements=st.floats(allow_nan=False, allow_infinity=True))


@PROPERTY
@given(st.data())
def test_projections_are_idempotent(data):
    rho2 = data.draw(FIELD)
    rho3 = data.draw(arrays(np.float64, rho2.shape,
                            elements=st.floats(allow_nan=False)))
    once = project_design(DesignField(rho2, rho3))
    twice = project_design(once)
    np.testing.assert_array_equal(twice.rho2, once.rho2)
    np.testing.assert_array_equal(twice.rho3, once.rho3)
    assert np.all((once.rho2 >= 0) & (once.rho2 <= 1))
    assert np.all((once.rho3 >= 0) & (once.rho3 <= 1))

    shape = (data.draw(st.integers(1, 3)), len(rho2))
    s = data.draw(arrays(np.float64, shape,
                         elements=st.floats(allow_nan=False)))
    once = project_stimulus(StimulusField(s))
    np.testing.assert_array_equal(project_stimulus(once).s, once.s)
    assert np.all(np.abs(once.s) <= 1)


HEX_PHASES = PhaseSet(Material(5e-2, 0.3, 0.0), Material(5e-3, 0.3, 1.0))
S32 = np.sqrt(3.0) / 2.0
HEX_TARGETS = np.array([[1.0, 0.0], [-0.5, S32], [-0.5, -S32]])


@settings(derandomize=True, deadline=None, max_examples=20)
@given(m=st.integers(3, 12), orientation=st.sampled_from(["odd", "even"]),
       seed=st.integers(0, 2 ** 32 - 1))
@example(m=12, orientation="odd", seed=1)
@example(m=12, orientation="even", seed=2)
def test_design_gradient_is_rotation_equivariant(m, orientation, seed):
    # criterion 8 on a random design that the 2pi/3 rotation maps onto
    # itself: closed-form stimulus step, then the design gradient
    mesh = build_hexagon_mesh(0.35, 0.35 / m, 0.14, orientation)
    perm = hexagon_rotation_permutation(mesh)
    n = mesh.n_nodes
    orbit = np.minimum(np.arange(n), np.minimum(perm, perm[perm]))
    rho = np.random.default_rng(seed).uniform(0.05, 0.45, (2, n))[:, orbit]
    design = DesignField(rho[0], rho[1])
    np.testing.assert_array_equal(design.rho2[perm], design.rho2)
    params = RegularizationParams(2 * mesh.cell_size, 3.5e-4, 0.7, 0.03)
    ev0 = Evaluation(mesh, design, StimulusField.zeros(3, n), HEX_PHASES,
                     params, HEX_TARGETS)
    stim = minimize_stimulus_field(mesh, design, ev0.lambdas, HEX_PHASES)
    assert np.any(stim.s != 0.0)
    grad = ev0.at_stimulus(stim).gradient
    scale = max(np.max(np.abs(grad.g_rho2)), np.max(np.abs(grad.g_rho3)))
    defect = max(np.max(np.abs(grad.g_rho2[perm] - grad.g_rho2)),
                 np.max(np.abs(grad.g_rho3[perm] - grad.g_rho3))) / scale
    assert defect <= 1e-10


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


@settings(derandomize=True, deadline=None, max_examples=15)
@given(seed=st.integers(0, 2 ** 32 - 1), n_cases=st.integers(1, 3),
       link=st.booleans())
def test_at_stimulus_equals_a_fresh_evaluation_bitwise(seed, n_cases, link):
    # at_stimulus shares K, its factor, the link solution and the samples
    # and objective terms kept on the design; none of it may move a bit
    rng = np.random.default_rng(seed)
    n = COARSE.n_nodes
    design = DesignField(*rng.uniform(0.05, 0.6, (2, n)))
    stim = StimulusField(rng.uniform(-1.0, 1.0, (n_cases, n)))
    targets = rng.uniform(-1.0, 1.0, (n_cases, 2))
    params = RegularizationParams(2 / 9, 6e-4, 0.1, 0.3,
                                  link_weight=0.1 if link else 0.0)
    first = Evaluation(COARSE, design, StimulusField.zeros(n_cases, n),
                       PHASES, params, targets)
    first.gradient
    shared = first.at_stimulus(stim)
    fresh = Evaluation(COARSE, DesignField(design.rho2, design.rho3),
                       StimulusField(stim.s), PHASES, params, targets)
    assert np.array_equal(_bits(list(vars(shared.breakdown).values())),
                          _bits(list(vars(fresh.breakdown).values())))
    for name in ("g_rho2", "g_rho3", "g_s"):
        assert np.array_equal(_bits(getattr(shared.gradient, name)),
                              _bits(getattr(fresh.gradient, name)))


@PROPERTY
@given(st.data())
def test_fields_are_read_only_copies(data):
    rho = data.draw(arrays(np.float64, (2, COARSE.n_nodes),
                           elements=st.floats(0.0, 0.5)))
    s = data.draw(arrays(np.float64, (data.draw(st.integers(1, 3)),
                                      COARSE.n_nodes),
                         elements=st.floats(-1.0, 1.0)))
    design, stim = DesignField(rho[0], rho[1]), StimulusField(s)
    kept = [a.copy() for a in (design.rho2, design.rho3, stim.s)]
    rho += 1.0
    s += 1.0
    targets = [design.rho2, design.rho3, stim.s, *design.samples(COARSE),
               *design.phase_samples(COARSE), *stim.samples(COARSE)]
    for array in targets:
        with pytest.raises(ValueError):
            array[0] = 0.5
    for array, before in zip((design.rho2, design.rho3, stim.s), kept):
        np.testing.assert_array_equal(array, before)


class _Captured(Exception):
    pass


def scheme_search(scheme, spec, mesh, targets, stimulus0):
    """The bound_fn and value_fn that ``scheme`` hands its line search."""
    from morphopt import optimizer
    found = {}

    def capture(value_fn, *args, bound_fn=None, **kwargs):
        found.update(bound=bound_fn, value=value_fn)
        raise _Captured
    inner, optimizer.bncg_minimize = optimizer.bncg_minimize, capture
    try:
        scheme(mesh, spec.phases, spec.params, targets, spec.optimizer,
               stimulus0=stimulus0)
    except _Captured:
        pass
    finally:
        optimizer.bncg_minimize = inner
    return found["bound"], found["value"]


@functools.cache
def bound_problem(name):
    """The spec and mesh of the desk cantilever or the h = 0.05 hexagon."""
    spec = load_shipped_config(*{
        "desk": ("cantilever_desk_staggered", ()),
        "hexagon": ("hexagon_contrast5", ["mesh.h=0.05"])}[name])
    return spec, spec.build_mesh()


@settings(derandomize=True, deadline=None, max_examples=40)
@given(seed=st.integers(0, 2 ** 32 - 1),
       problem=st.sampled_from(["desk", "hexagon"]),
       layout=st.sampled_from(["staggered", "monolithic"]),
       kind=st.sampled_from(["uniform", "checkerboard", "vertices"]),
       zero_misfit=st.booleans())
@example(seed=1, problem="desk", layout="staggered", kind="checkerboard",
         zero_misfit=True)
@example(seed=2, problem="hexagon", layout="monolithic",
         kind="checkerboard", zero_misfit=True)
@example(seed=3, problem="desk", layout="monolithic", kind="checkerboard",
         zero_misfit=False)
@example(seed=4, problem="hexagon", layout="staggered", kind="uniform",
         zero_misfit=True)
def test_state_free_bound_never_exceeds_the_total(seed, problem, layout,
                                                  kind, zero_misfit):
    # the schemes' bound at a box-feasible point, against the total of
    # the same point compared with no tolerance; the value after the bound
    # reuses its terms and equals a fresh Evaluation's total to the bit
    from morphopt.optimizer import run_monolithic, run_staggered
    spec, mesh = bound_problem(problem)
    rng = np.random.default_rng(seed)
    n, k = mesh.n_nodes, spec.n_cases
    rho = rng.uniform(0.0, 1.0, (2, n))
    if kind == "checkerboard":
        cells = np.floor(mesh.nodes / mesh.cell_size).astype(int).sum(1) % 2
        rho = np.stack([cells, (1 - cells) * rng.integers(0, 2)])
    elif kind == "vertices":        # pure phases, void included
        rho = np.eye(3)[rng.integers(0, 3, n)].T[1:]
    s = np.zeros((k, n)) if zero_misfit else rng.uniform(-1.0, 1.0, (k, n))
    targets = np.zeros((k, 2)) if zero_misfit else spec.target_array()
    scheme = run_staggered if layout == "staggered" else run_monolithic
    bound_fn, value_fn = scheme_search(scheme, spec, mesh, targets,
                                       StimulusField(s))
    z = np.concatenate([rho[0], rho[1]] + (
        [] if layout == "staggered" else [s.ravel()])).astype(float)
    bound = bound_fn(z)
    value = value_fn(z)
    fresh = Evaluation(mesh, DesignField(rho[0], rho[1]), StimulusField(s),
                       spec.phases, spec.params, targets).breakdown
    assert value == fresh.total
    assert bound <= fresh.total
    if zero_misfit:
        assert fresh.tracking == 0.0 and bound == fresh.total
