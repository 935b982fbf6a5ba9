import pathlib

import numpy as np
import pytest

from morphopt.errors import InvalidParameterError, NonFiniteValueError
from morphopt.fields import DesignField, StimulusField
from morphopt.functional import RegularizationParams
from morphopt.materials import Material, PhaseSet
from morphopt.mesh import build_hexagon_mesh, build_rect_mesh, \
    hexagon_rotation_permutation
from morphopt.optimizer import (MAX_LS_TRIALS, OptimizerConfig,
                                bncg_minimize, run_monolithic, run_staggered)
from morphopt.sensitivity import Evaluation

PHASES = PhaseSet(Material(5.0, 0.3, 0.0), Material(5.0, 0.3, 1.0))
BOX = (1 - 1 / 15, 1 / 6 - 1 / 30, 1.0, 1 / 6 + 1 / 30)


def quadratic(p):
    def f(x):
        return float(np.sum((x - p) ** 2))

    def fg(x):
        return f(x), 2.0 * (x - p)

    return f, fg


def rosenbrock(x):
    return float((1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2)


def rosenbrock_fg(x):
    return rosenbrock(x), np.array([
        -2 * (1 - x[0]) - 400 * x[0] * (x[1] - x[0] ** 2),
        200 * (x[1] - x[0] ** 2)])


def counted_rosenbrock(calls, bound_fn=None):
    """A 200-iterate box Rosenbrock run whose value_fn appends to calls."""
    def value(x):
        calls.append(x.copy())
        return rosenbrock(x)
    return bncg_minimize(value, rosenbrock_fg, np.array([-1.2, 1.0]),
                         np.array([-2.0, -2.0]), np.array([2.0, 2.0]),
                         OptimizerConfig(grad_atol=0.0, grad_rtol=0.0,
                                         obj_rtol=0.0, max_outer_iters=200),
                         bound_fn=bound_fn)


class TestBncg:
    def test_quadratic_interior_minimum_fast(self):
        p = np.array([0.3, 0.6, 0.1])
        f, fg = quadratic(p)
        res = bncg_minimize(f, fg, np.zeros(3), np.zeros(3), np.ones(3),
                            OptimizerConfig())
        assert res.status == "converged-grad"
        assert res.iterations <= 3
        np.testing.assert_allclose(res.x, p, atol=1e-8)

    def test_quadratic_exterior_minimum_projects(self):
        p = np.array([1.7, -0.4])
        f, fg = quadratic(p)
        res = bncg_minimize(f, fg, 0.5 * np.ones(2), np.zeros(2), np.ones(2),
                            OptimizerConfig())
        np.testing.assert_allclose(res.x, [1.0, 0.0], atol=1e-10)

    def test_rosenbrock_in_box(self):
        cfg = OptimizerConfig(grad_atol=1e-9, grad_rtol=0.0, obj_rtol=1e-18,
                              max_outer_iters=3000)
        res = bncg_minimize(rosenbrock, rosenbrock_fg, np.array([-1.2, 1.0]),
                            np.array([-2.0, -2.0]), np.array([2.0, 2.0]), cfg)
        assert res.value <= 1e-8

    def test_bound_rejects_trials_without_value_fn(self):
        # the objective is its own lower bound: every trial the Armijo test
        # rejects is rejected on the bound, so value_fn sees only the
        # accepted ones, and the run is the same to the bit
        plain_calls, bound_calls = [], []
        plain = counted_rosenbrock(plain_calls)
        bounded = counted_rosenbrock(bound_calls, bound_fn=rosenbrock)
        assert (plain.status, plain.iterations) == ("maxiter", 200)
        assert (bounded.status, bounded.iterations) == ("maxiter", 200)
        assert np.array_equal(plain.x, bounded.x)
        assert plain.value == bounded.value
        assert (plain.trials, plain.bound_rejections) == (len(plain_calls), 0)
        assert bounded.trials == len(bound_calls) == bounded.iterations
        assert bounded.bound_rejections > 0
        assert plain.trials == bounded.trials + bounded.bound_rejections
        # the accepted trials, in order
        accepted = [x for x in plain_calls
                    if any(np.array_equal(x, y) for y in bound_calls)]
        assert np.array_equal(accepted, bound_calls)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_bound_falls_through(self, bad):
        plain_calls, bound_calls = [], []
        plain = counted_rosenbrock(plain_calls)
        bounded = counted_rosenbrock(bound_calls, bound_fn=lambda x: bad)
        assert np.array_equal(plain_calls, bound_calls)
        assert (bounded.trials, bounded.bound_rejections) == (plain.trials, 0)
        assert np.array_equal(plain.x, bounded.x)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_bound_keeps_value_fn_errors(self, bad):
        _, fg = quadratic(np.full(3, 0.7))
        with pytest.raises(NonFiniteValueError, match="value_fn"):
            bncg_minimize(lambda x: float("nan"), fg, np.zeros(3),
                          np.zeros(3), np.ones(3), OptimizerConfig(),
                          bound_fn=lambda x: bad)

    def test_monotone_history_and_armijo(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(6, 6))
        A = A @ A.T + np.eye(6)
        b = rng.normal(size=6)

        def f(x):
            return float(0.5 * x @ A @ x - b @ x)

        def fg(x):
            return f(x), A @ x - b

        vals = []
        bncg_minimize(f, fg, np.zeros(6), -np.ones(6), np.ones(6),
                      OptimizerConfig(max_outer_iters=200),
                      on_accept=lambda k, x, fv, g, step: vals.append(fv))
        assert len(vals) > 2
        assert all(v2 < v1 for v1, v2 in zip(vals, vals[1:]))

    def test_iterates_respect_bounds(self):
        p = np.array([5.0, -5.0, 0.5])
        f, fg = quadratic(p)
        seen = []
        res = bncg_minimize(f, fg, 0.5 * np.ones(3), np.zeros(3), np.ones(3),
                            OptimizerConfig(),
                            on_accept=lambda k, x, fv, g, s: seen.append(x.copy()))
        for x in seen:
            assert np.all(x >= 0.0) and np.all(x <= 1.0)

    def test_stall_returns_best_iterate_with_flag(self):
        # deliberately wrong gradient sign: every "descent" trial increases f
        def f(x):
            return float(np.sum(x ** 2))

        def fg(x):
            return f(x), -2.0 * x

        res = bncg_minimize(f, fg, np.array([0.7]), np.array([-1.0]),
                            np.array([1.0]), OptimizerConfig())
        assert res.status == "stalled"
        assert res.value == pytest.approx(0.49)

    def test_steepest_descent_stall_is_not_repeated(self):
        # wrong gradient sign at iterate 1, where the direction already is
        # steepest descent: one line search, not the same one twice
        calls = []

        def f(x):
            calls.append(x.copy())
            return float(np.sum(x ** 2))

        def fg(x):
            return float(np.sum(x ** 2)), -2.0 * x

        res = bncg_minimize(f, fg, np.array([0.7, 0.3, -0.5]), -np.ones(3),
                            np.ones(3), OptimizerConfig())
        assert res.status == "stalled" and res.iterations == 0
        assert res.value == pytest.approx(0.83)
        assert 0 < len(calls) <= MAX_LS_TRIALS

    def test_failed_pr_direction_retries_steepest_descent(self):
        # iterate 2's PR+ direction (beta = 100) leaves the kink at
        # x0 = 0.8 and fails every trial; steepest descent then succeeds
        calls = []

        def value(x):
            return float(x[1] + 0.1 * x[0] + 10.0 * max(0.0, 0.8 - x[0]))

        def f(x):
            calls.append(x.copy())
            return value(x)

        grads = iter([np.array([0.1, 0.0]), np.array([0.0, 1.0]),
                      np.zeros(2)])

        def fg(x):
            return value(x), next(grads)

        res = bncg_minimize(f, fg, np.array([0.9, 0.5]), np.zeros(2),
                            np.ones(2), OptimizerConfig())
        assert res.status == "converged-grad" and res.iterations == 2
        # iterate 1's trial, the failed PR+ search, the retry's first trial
        assert len(calls) == 1 + MAX_LS_TRIALS + 1
        assert all(x[0] < 0.8 for x in calls[1:-1])
        np.testing.assert_allclose(calls[-1], [0.8, 0.0])
        np.testing.assert_allclose(res.x, [0.8, 0.0])

    def test_objective_stall_termination(self):
        # flat function: relative decrease is zero, stall window triggers
        def f(x):
            return 1.0

        def fg(x):
            return 1.0, np.full_like(x, 1e-3)

        res = bncg_minimize(f, fg, np.array([0.5]), np.array([0.0]),
                            np.array([1.0]),
                            OptimizerConfig(grad_atol=1e-12, grad_rtol=0.0))
        assert res.status in ("converged-obj", "stalled")

    def test_nan_region_raises_instead_of_converging(self):
        # NaN wherever x0 >= 0.5: a NaN trial used to count as an Armijo
        # failure, and the run reported converged-obj at the NaN border
        f0, fg0 = quadratic(np.full(3, 0.7))

        def f(x):
            return float("nan") if x[0] >= 0.5 else f0(x)

        def fg(x):
            return f(x), fg0(x)[1]

        with pytest.raises(NonFiniteValueError, match="value_fn"):
            bncg_minimize(f, fg, np.zeros(3), np.zeros(3), np.ones(3),
                          OptimizerConfig())

    def test_nan_trials_raise_instead_of_stalling(self):
        _, fg = quadratic(np.full(3, 0.7))
        with pytest.raises(NonFiniteValueError, match="value_fn"):
            bncg_minimize(lambda x: float("nan"), fg, np.zeros(3),
                          np.zeros(3), np.ones(3), OptimizerConfig())

    @pytest.mark.parametrize("source", ["value_grad_fn", "post_accept"])
    def test_non_finite_gradient_raises(self, source):
        def fg(x):
            return 1.0, np.full_like(x, np.inf if source == "value_grad_fn"
                                     else 1.0)

        with pytest.raises(NonFiniteValueError, match=source):
            bncg_minimize(lambda x: 1.0, fg, np.zeros(2), np.zeros(2),
                          np.ones(2), OptimizerConfig(),
                          post_accept=lambda x, f, g: (np.inf, g))

    def test_gradient_only_where_post_accept_declines(self):
        # every kept point has one gradient: post_accept is offered each
        # accepted trial with g=None first, and value_grad_fn runs only
        # where it declines (and once at the initial point)
        rng = np.random.default_rng(0)
        A = rng.normal(size=(6, 6))
        A = A @ A.T + np.eye(6)
        b = rng.normal(size=6)

        def f(x):
            return float(0.5 * x @ A @ x - b @ x)

        def fg(x):
            return f(x), A @ x - b

        grads, offered = [], []

        def counted_fg(x):
            grads.append(x.copy())
            return fg(x)

        def post_accept(x, fv, g):
            offered.append(g is None)
            # commit the exact (f, g) on every other call
            return fg(x) if len(offered) % 2 else None

        res = bncg_minimize(f, counted_fg, np.zeros(6), -np.ones(6),
                            np.ones(6), OptimizerConfig(max_outer_iters=200),
                            post_accept=post_accept)
        assert res.iterations >= 3
        assert offered == [False] + [True] * res.iterations
        declined = len(offered) // 2
        assert len(grads) == 1 + declined

    @pytest.mark.parametrize("source", ["value_grad_fn", "post_accept"])
    def test_non_finite_after_the_first_iterate_raises(self, source):
        p = np.array([0.3, 0.6, 0.1])
        f, fg = quadratic(p)
        calls = []

        def bad_fg(x):
            calls.append(None)
            value, g = fg(x)
            return value, (g if len(calls) == 1 else np.full_like(x, np.nan))

        def post_accept(x, fv, g):
            if g is None and source == "post_accept":
                return np.inf, np.zeros_like(x)
            return None

        with pytest.raises(NonFiniteValueError, match=source):
            bncg_minimize(f, bad_fg, np.zeros(3), np.zeros(3), np.ones(3),
                          OptimizerConfig(), post_accept=post_accept)

    @pytest.mark.parametrize("field, value", [
        ("max_outer_iters", -1), ("grad_rtol", -1e-9),
        ("grad_atol", float("nan")), ("obj_rtol", -1.0)])
    def test_invalid_config_names_field(self, field, value):
        with pytest.raises(InvalidParameterError, match=f"^{field} "):
            OptimizerConfig(**{field: value})


class TestSchemes:
    def setup_method(self):
        self.mesh = build_rect_mesh(1.0, 1 / 3, 1 / 15, "left", BOX)
        self.params = RegularizationParams(2 / 15, 6e-4, 0.1, 0.3)
        self.targets = np.array([[0.0, 1.0]])
        self.cfg = OptimizerConfig(max_outer_iters=25)

    def test_staggered_history_monotone_and_bounded(self):
        design, stim, history, result = run_staggered(
            self.mesh, PHASES, self.params, self.targets, self.cfg)
        totals = [rec.breakdown.total for rec in history]
        assert all(b <= a + 1e-15 for a, b in zip(totals, totals[1:]))
        assert np.all(design.rho2 >= 0.0) and np.all(design.rho2 <= 1.0)
        assert np.all(design.rho3 >= 0.0) and np.all(design.rho3 <= 1.0)
        assert np.all(np.abs(stim.s) <= 1.0)

    def test_staggered_final_value_is_reduced_objective(self):
        design, stim, history, result = run_staggered(
            self.mesh, PHASES, self.params, self.targets, self.cfg)
        j = Evaluation(self.mesh, design, stim, PHASES, self.params,
                       self.targets).breakdown.total
        assert j == pytest.approx(history[-1].breakdown.total, rel=1e-12)

    def test_initial_record_is_pristine(self):
        _, _, history, _ = run_staggered(
            self.mesh, PHASES, self.params, self.targets,
            OptimizerConfig(max_outer_iters=2))
        b0 = history[0].breakdown
        assert b0.tracking == pytest.approx(1 / 450, rel=1e-10)
        assert b0.stimulus_penalty == 0.0
        assert history[0].vol_frac2 == pytest.approx(0.3, rel=1e-12)

    def test_monolithic_zero_target_collapses(self):
        targets = np.array([[0.0, 0.0]])
        design, stim, history, result = run_monolithic(
            self.mesh, PHASES, self.params, targets,
            OptimizerConfig(max_outer_iters=40))
        assert history[-1].breakdown.total <= history[0].breakdown.total
        assert history[-1].breakdown.tracking <= 1e-8
        assert np.max(np.abs(stim.s)) <= 0.05
        assert history[-1].vol_frac2 < 0.3

    def test_monolithic_deterministic_history(self):
        runs = []
        for _ in range(2):
            _, _, history, _ = run_monolithic(
                self.mesh, PHASES, self.params, self.targets,
                OptimizerConfig(max_outer_iters=8))
            runs.append([(rec.breakdown.total, rec.step,
                          rec.grad_norm_design) for rec in history])
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("scheme", [run_staggered, run_monolithic])
    def test_one_assembly_and_link_solve_per_design(self, scheme, monkeypatch):
        # the line search, the gradient and the stimulus update share the
        # stiffness and the link solution of each design
        from morphopt import elasticity
        seen = {"assemble_stiffness": [], "assemble_link_operator": []}

        def counted(name):
            inner = getattr(elasticity, name)

            def wrapper(mesh, design, *args, **kwargs):
                seen[name].append(design.rho2.tobytes() + design.rho3.tobytes())
                return inner(mesh, design, *args, **kwargs)
            monkeypatch.setattr(elasticity, name, wrapper)

        for name in seen:
            counted(name)
        params = RegularizationParams(2 / 15, 6e-4, 0.1, 0.3, link_weight=0.1)
        _, _, history, result = scheme(self.mesh, PHASES, params, self.targets,
                                       OptimizerConfig(max_outer_iters=6))
        assert result.iterations == 6
        for designs in seen.values():
            assert len(designs) >= len(history)
            assert len(set(designs)) == len(designs)

    @pytest.mark.parametrize("scheme", [run_staggered, run_monolithic])
    @pytest.mark.parametrize("link_weight", [0.0, 0.1])
    def test_one_live_factor(self, scheme, link_weight, monkeypatch):
        # a factor is built only once every earlier one is gone: the
        # accepted point's after its solves, a rejected trial's before the
        # next trial, the link operator's before the state's
        import weakref
        from morphopt import elasticity
        inner = elasticity.BlockCholesky
        built = []

        def guarded(*args, **kwargs):
            assert all(ref() is None for ref in built), "two live factors"
            factor = inner(*args, **kwargs)
            built.append(weakref.ref(factor))
            return factor
        monkeypatch.setattr(elasticity, "BlockCholesky", guarded)
        params = RegularizationParams(2 / 15, 6e-4, 0.1, 0.3,
                                      link_weight=link_weight)
        _, _, history, result = scheme(self.mesh, PHASES, params, self.targets,
                                       OptimizerConfig(max_outer_iters=6))
        assert result.iterations == 6
        assert len(built) >= len(history)
        assert result.evaluation.state.factor is None

    def _observed_staggered(self, monkeypatch, max_outer_iters=8):
        """A staggered run seen through bncg_minimize's callbacks, as
        perfbench's tracer sees it, and through sensitivity.grad_design."""
        from morphopt import optimizer, sensitivity
        seen = {"trials": 0, "post_accept": [], "proposals": [],
                "grad_design": 0, "iterates": []}
        inner_bncg = optimizer.bncg_minimize
        inner_grad = sensitivity.grad_design
        inner_update = optimizer.minimize_stimulus_field

        def observed(value_fn, value_grad_fn, x0, lower, upper, cfg,
                     on_accept=None, post_accept=None, bound_fn=None):
            def counted_value_fn(x):
                seen["trials"] += 1
                return value_fn(x)

            def observed_post_accept(x, f, g):
                revised = post_accept(x, f, g)
                seen["post_accept"].append((g is None, revised is None))
                return revised
            return inner_bncg(counted_value_fn, value_grad_fn, x0, lower,
                              upper, cfg, on_accept=on_accept,
                              post_accept=observed_post_accept,
                              bound_fn=bound_fn)

        def counted_grad(*args, **kwargs):
            seen["grad_design"] += 1
            return inner_grad(*args, **kwargs)

        def recorded_update(*args, **kwargs):
            seen["proposals"].append(inner_update(*args, **kwargs))
            return seen["proposals"][-1]

        def on_iterate(rec, ev):
            seen["iterates"].append((rec, ev.design, ev.stimulus))

        monkeypatch.setattr(optimizer, "bncg_minimize", observed)
        monkeypatch.setattr(sensitivity, "grad_design", counted_grad)
        monkeypatch.setattr(optimizer, "minimize_stimulus_field",
                            recorded_update)
        _, _, history, result = run_staggered(
            self.mesh, PHASES, self.params, self.targets,
            OptimizerConfig(max_outer_iters=max_outer_iters),
            on_iterate=on_iterate)
        monkeypatch.undo()
        return seen, history, result

    def _fresh(self, design, stimulus):
        return Evaluation(self.mesh, DesignField(design.rho2, design.rho3),
                          StimulusField(stimulus.s), PHASES, self.params,
                          self.targets)

    def test_one_gradient_per_kept_point(self, monkeypatch):
        seen, history, result = self._observed_staggered(monkeypatch)
        assert result.iterations == 8
        # the pristine iterate 0, then at most one per post_accept call
        assert seen["grad_design"] <= 1 + len(seen["post_accept"])
        assert seen["grad_design"] == len(history) + sum(
            not declined for _, declined in seen["post_accept"][:1])
        # every logged gradient norm is that of a fresh evaluation at the
        # logged point, bit for bit
        assert len(seen["iterates"]) == len(history)
        for rec, design, stimulus in seen["iterates"]:
            grad = self._fresh(design, stimulus).gradient
            norm_d = np.sqrt(np.sum(np.concatenate(
                [grad.g_rho2, grad.g_rho3]) ** 2))
            norm_s = np.sqrt(np.sum(grad.g_s.ravel() ** 2))
            assert rec.grad_norm_design == float(norm_d)
            assert rec.grad_norm_stimulus == float(norm_s)

    def test_trials_and_commits_as_perfbench_counts_them(self, monkeypatch):
        # perfbench counts line-search trials through value_fn and stimulus
        # commits through post_accept returning a value; pin both
        from morphopt import elasticity
        assembled = []
        inner = elasticity.assemble_stiffness

        def counted(mesh, design, *args, **kwargs):
            assembled.append(design)
            return inner(mesh, design, *args, **kwargs)
        monkeypatch.setattr(elasticity, "assemble_stiffness", counted)
        seen, history, result = self._observed_staggered(monkeypatch)
        # one stiffness per trial design and one for the start: value_fn
        # runs once per trial and no trial is evaluated twice
        assert seen["trials"] >= result.iterations
        assert len(assembled) == seen["trials"] + 1

        calls = seen["post_accept"]
        assert len(calls) == len(history)
        assert [g_none for g_none, _ in calls] == [False] + [True] * (
            len(calls) - 1)
        assert any(declined for _, declined in calls)
        assert not all(declined for _, declined in calls)
        # None exactly when the closed-form update would raise the true
        # objective; the run goes on with the stimulus it kept
        stimulus = StimulusField.zeros(1, self.mesh.n_nodes)
        for k, ((_, declined), proposal) in enumerate(
                zip(calls, seen["proposals"])):
            _, design, kept = seen["iterates"][k]
            before = self._fresh(design, stimulus).breakdown.total
            after = self._fresh(design, proposal).breakdown.total
            assert declined == (after > before)
            if not declined:
                stimulus = proposal
            if k > 0:
                assert np.array_equal(kept.s, stimulus.s)

    def test_staggered_inner_update_degenerate_case(self):
        # without responsive material the inner minimizer returns s = 0
        from morphopt.stimulus_update import minimize_stimulus_field
        rng = np.random.default_rng(1)
        n = self.mesh.n_nodes
        design = DesignField(rng.uniform(0, 1, n), np.zeros(n))
        lam = [rng.normal(size=(n, 2))]
        s = minimize_stimulus_field(self.mesh, design, lam, PHASES)
        assert np.max(np.abs(s.s)) == 0.0


class TestLowerBound:
    """The schemes' state-free lower bound rejects trials without a state
    and changes no decision."""

    @staticmethod
    def _run(name, out, monkeypatch, bound):
        """history.csv and summary.txt bytes, the BncgResult and the
        number of factor builds of a 30-iterate run, with the schemes'
        bound or without it."""
        from morphopt import config, elasticity, optimizer, runner
        results, builds = [], []
        inner_bncg, inner_factor = (optimizer.bncg_minimize,
                                    elasticity.BlockCholesky)

        def searched(*args, bound_fn=None, **kwargs):
            results.append(inner_bncg(
                *args, bound_fn=bound_fn if bound else None, **kwargs))
            return results[-1]

        def counted(*args, **kwargs):
            builds.append(None)
            return inner_factor(*args, **kwargs)
        monkeypatch.setattr(optimizer, "bncg_minimize", searched)
        monkeypatch.setattr(elasticity, "BlockCholesky", counted)
        spec = config.load_shipped_config(
            name, overrides=["optimizer.max_outer_iters=30"])
        artifacts = runner.run(spec, out_dir=str(out))
        monkeypatch.undo()
        files = tuple(pathlib.Path(path).read_bytes() for path in (
            artifacts.history_path, artifacts.summary_path))
        return files, results[0], len(builds)

    @pytest.mark.parametrize("name", ["cantilever_desk_staggered",
                                      "cantilever_desk_monolithic"])
    def test_bound_changes_no_byte_and_saves_a_factor_per_rejection(
            self, name, tmp_path, monkeypatch):
        files_on, on, built_on = self._run(name, tmp_path / "on",
                                           monkeypatch, True)
        files_off, off, built_off = self._run(name, tmp_path / "off",
                                              monkeypatch, False)
        assert files_on == files_off
        assert on.iterations == off.iterations == 30
        assert off.bound_rejections == 0 < on.bound_rejections
        assert off.trials == on.trials + on.bound_rejections
        # one factor per evaluated trial and one at the start
        assert built_on == on.trials + 1
        assert built_off - built_on == on.bound_rejections

    @pytest.mark.parametrize("name", ["cantilever_desk_staggered",
                                      "cantilever_desk_monolithic"])
    def test_rejected_trial_assembles_factors_and_solves_nothing(
            self, name, monkeypatch):
        from morphopt import config, elasticity, optimizer
        events = []

        def logged(event, fn):
            def wrapper(*args, **kwargs):
                events.append(event)
                return fn(*args, **kwargs)
            return wrapper
        for event in ("assemble_stiffness", "assemble_stimulus_load",
                      "BlockCholesky", "solve_spd"):
            monkeypatch.setattr(elasticity, event,
                                logged(event, getattr(elasticity, event)))
        inner = optimizer.bncg_minimize

        def searched(value_fn, *args, bound_fn=None, **kwargs):
            return inner(logged("value", value_fn), *args,
                         bound_fn=logged("bound", bound_fn), **kwargs)
        monkeypatch.setattr(optimizer, "bncg_minimize", searched)
        spec = config.load_shipped_config(
            name, overrides=["optimizer.max_outer_iters=30"])
        scheme = run_staggered if spec.scheme == "staggered" \
            else run_monolithic
        result = scheme(spec.build_mesh(), spec.phases, spec.params,
                        spec.target_array(), spec.optimizer)[3]
        # after each bound comes the trial's value, or the next trial's
        # bound when the bound rejected it: nothing else in between
        after = [events[i + 1] if i + 1 < len(events) else None
                 for i, event in enumerate(events) if event == "bound"]
        assert set(after) <= {"value", "bound", None}
        assert after.count("value") == result.trials
        assert len(after) - after.count("value") == result.bound_rejections
        assert result.bound_rejections > 0

    @pytest.mark.parametrize("scheme, trials", [(run_staggered, 16),
                                                (run_monolithic, 17)])
    def test_link_energy_keeps_every_trial(self, scheme, trials,
                                           monkeypatch):
        # nothing proves the computed link energy >= 0, so the schemes
        # pass no bound and evaluate every trial, as without the bound
        from morphopt import optimizer
        bounds = []
        inner = optimizer.bncg_minimize

        def searched(*args, bound_fn=None, **kwargs):
            bounds.append(bound_fn)
            return inner(*args, bound_fn=bound_fn, **kwargs)
        monkeypatch.setattr(optimizer, "bncg_minimize", searched)
        mesh = build_rect_mesh(1.0, 1 / 3, 1 / 15, "left", BOX)
        params = RegularizationParams(2 / 15, 6e-4, 0.1, 0.3, link_weight=0.1)
        result = scheme(mesh, PHASES, params, np.array([[0.0, 1.0]]),
                        OptimizerConfig(max_outer_iters=12))[3]
        assert bounds == [None]
        assert (result.iterations, result.trials,
                result.bound_rejections) == (12, trials, 0)


class TestEquivariance:
    def test_hexagon_design_gradient_rotation_equivariant(self):
        mesh = build_hexagon_mesh(0.35, 0.35 / 8, 0.1)
        perm = hexagon_rotation_permutation(mesh)
        s32 = np.sqrt(3.0) / 2.0
        targets = np.array([[1.0, 0.0], [-0.5, s32], [-0.5, -s32]])
        params = RegularizationParams(2 * mesh.cell_size, 3.5e-4, 0.7, 0.03)
        phases = PhaseSet(Material(5e-2, 0.3, 0.0), Material(5e-3, 0.3, 1.0))
        from morphopt.elasticity import (element_strains, solve_adjoint,
                                         solve_state)
        from morphopt.sensitivity import grad_design
        from morphopt.stimulus_update import minimize_stimulus_field

        n = mesh.n_nodes
        design = DesignField.constant(n, 0.3, 0.3)
        stim0 = StimulusField.zeros(3, n)
        state0 = solve_state(mesh, design, phases, stim0)
        lams0 = solve_adjoint(mesh, state0, targets)
        stim = minimize_stimulus_field(mesh, design, lams0, phases)
        state = solve_state(mesh, design, phases, stim)
        lams = solve_adjoint(mesh, state, targets)
        g2, g3 = grad_design(mesh, design, stim, state,
                             element_strains(mesh, lams), phases, params)
        scale = max(np.max(np.abs(g2)), np.max(np.abs(g3)))
        assert np.max(np.abs(g2[perm] - g2)) <= 1e-10 * scale
        assert np.max(np.abs(g3[perm] - g3)) <= 1e-10 * scale
