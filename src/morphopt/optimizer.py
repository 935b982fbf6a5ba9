"""Bounded nonlinear conjugate gradients and the two outer schemes.

The minimizer is projected Polak-Ribiere+ CG with Armijo backtracking;
every trial point is projected onto the box, accepted iterates never
increase the objective, and a failed line search returns the best iterate
with a stalled flag instead of raising.  A NaN or infinite value or
gradient raises NonFiniteValueError: it can never pass for a stall or a
convergence.

run_monolithic optimizes (rho2, rho3, s_1..s_n) jointly; run_staggered
optimizes the densities only and re-minimizes the stimulus in closed form
at every accepted design iterate (committing the update only if the true
objective decreased, which keeps the history monotone).
"""

from dataclasses import dataclass

import numpy as np

from . import functional, sensitivity
from .errors import InvalidParameterError, NonFiniteValueError
from .fields import INITIAL_RHO2, INITIAL_RHO3, DesignField, StimulusField
from .stimulus_update import minimize_stimulus_field


# Armijo backtracking: sufficient-decrease constant, step factor per
# trial, trials per search, first step and its growth after an accepted
# one; the relative-decrease test stops after this many stalled iterates
ARMIJO_C = 1e-4
BACKTRACK_FACTOR = 0.5
MAX_LS_TRIALS = 40
INITIAL_STEP = 1.0
STEP_GROWTH = 2.0
OBJ_STALL_WINDOW = 5


@dataclass(frozen=True)
class OptimizerConfig:
    grad_rtol: float = 1e-6
    grad_atol: float = 1e-6
    obj_rtol: float = 1e-6
    max_outer_iters: int = 500

    def __post_init__(self):
        # NaN fails every test; each message starts with the field name,
        # which config.py prefixes with the section
        for name in ("grad_rtol", "grad_atol", "obj_rtol", "max_outer_iters"):
            value = getattr(self, name)
            if not value >= 0:
                raise InvalidParameterError(
                    f"{name} must be >= 0, got {value!r}")


@dataclass
class IterateRecord:
    """One accepted outer iterate, as logged to the CSV history."""

    iteration: int
    breakdown: functional.ObjectiveBreakdown
    grad_norm_design: float
    grad_norm_stimulus: float
    step: float
    vol_frac2: float
    vol_frac3: float


@dataclass
class BncgResult:
    x: np.ndarray
    value: float
    status: str  # converged-grad | converged-obj | maxiter | stalled
    iterations: int
    # the schemes' accepted sensitivity.Evaluation at x
    evaluation: object = None


def _norm(v):
    return float(np.sqrt(np.sum(v * v)))


def _finite(source, f, g=None):
    """``(f, g)`` unchanged; NonFiniteValueError if f or g is NaN or inf."""
    if not (np.isfinite(f) and (g is None or np.all(np.isfinite(g)))):
        raise NonFiniteValueError(
            f"{source} returned a non-finite value ({f!r}) or gradient")
    return f, g


def bncg_minimize(value_fn, value_grad_fn, x0, lower, upper, cfg,
                  on_accept=None, post_accept=None):
    """Minimize over the box [lower, upper].

    ``value_fn(x) -> f`` is called once per line-search trial.
    ``post_accept(x, f, g) -> (f, g) or None`` may replace an accepted
    iterate's objective and gradient (the staggered scheme's inner stimulus
    minimization); it must not increase f, and returns None exactly when it
    keeps them.  At the initial point it gets the gradient; at every later
    accepted trial it is offered the point first, right after that trial's
    ``value_fn`` call, with ``g=None``.  ``value_grad_fn(x) -> (f, g)`` is
    called at the initial point and at an accepted trial only when
    post_accept is absent or returns None there, so every kept point has
    one gradient.  ``on_accept(k, x, f, g, step)`` is called with the kept
    (f, g) of every accepted point, and with the pristine initial point's
    before post_accept (step 0).  A non-finite f or g from any of the three
    raises NonFiniteValueError.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    x = np.clip(np.asarray(x0, dtype=float), lower, upper)
    f, g = _finite("value_grad_fn", *value_grad_fn(x))

    def projected_grad_norm(x, g):
        return _norm(x - np.clip(x - g, lower, upper))

    def revised(x, f, g):
        """post_accept's (f, g) at x, or None."""
        out = None if post_accept is None else post_accept(x, f, g)
        return None if out is None else _finite("post_accept", *out)

    # record the pristine initial point before any inner minimization
    if on_accept is not None:
        on_accept(0, x, f, g, 0.0)
    f, g = revised(x, f, g) or (f, g)

    pg0 = projected_grad_norm(x, g)
    grad_target = max(cfg.grad_atol, cfg.grad_rtol * pg0)
    if pg0 <= grad_target:
        return BncgResult(x, f, "converged-grad", 0)

    def reduced(g, x):
        out = g.copy()
        out[(x <= lower) & (g > 0)] = 0.0
        out[(x >= upper) & (g < 0)] = 0.0
        return out

    g_red = reduced(g, x)
    d = -g_red
    g_red_prev = g_red
    alpha0 = INITIAL_STEP
    stall_count = 0
    beta = 0.0

    for k in range(1, cfg.max_outer_iters + 1):
        accepted = False
        # a failed PR+ direction gets one steepest-descent retry; a failed
        # steepest-descent direction (beta = 0) would only repeat itself
        for attempt in (0,) if beta == 0.0 else (0, 1):
            if attempt == 1:
                d = -reduced(g, x)
            if np.dot(g, d) >= 0.0:
                if attempt == 0:
                    continue
                break
            alpha = alpha0
            for _ in range(MAX_LS_TRIALS):
                x_t = np.clip(x + alpha * d, lower, upper)
                delta = float(np.dot(g, x_t - x))
                if delta < 0.0:
                    f_t, _ = _finite("value_fn", value_fn(x_t))
                    if f_t <= f + ARMIJO_C * delta:
                        accepted = True
                        break
                alpha *= BACKTRACK_FACTOR
            if accepted:
                break
        if not accepted:
            return BncgResult(x, f, "stalled", k - 1)

        x = x_t
        f_prev = f
        f, g = revised(x, f_t, None) or _finite("value_grad_fn",
                                                *value_grad_fn(x))
        pg = projected_grad_norm(x, g)
        if on_accept is not None:
            on_accept(k, x, f, g, alpha)

        if pg <= grad_target:
            return BncgResult(x, f, "converged-grad", k)
        rel_drop = (f_prev - f) / max(abs(f), 1e-300)
        stall_count = stall_count + 1 if rel_drop <= cfg.obj_rtol else 0
        if stall_count >= OBJ_STALL_WINDOW:
            return BncgResult(x, f, "converged-obj", k)

        # PR+: beta = max(0, beta_PR) falls back to steepest descent by itself
        g_red = reduced(g, x)
        denom = float(np.dot(g_red_prev, g_red_prev))
        beta = 0.0 if denom == 0.0 else max(
            0.0, float(np.dot(g_red, g_red - g_red_prev)) / denom)
        d = -g_red + beta * d
        g_red_prev = g_red
        alpha0 = alpha * STEP_GROWTH

    return BncgResult(x, f, "maxiter", cfg.max_outer_iters)


class _Evaluations:
    """A scheme's accepted Evaluation and its latest line-search trial.

    ``value`` serves the line search.  bncg_minimize asks for anything else
    at an accepted trial right after its value, so ``keep(x)`` makes that
    trial's Evaluation the accepted one; ``value_grad`` also forms its
    gradient, and ``accept(ev)`` makes any Evaluation the accepted one and
    forms its gradient.  ``record`` is the on_accept callback: it logs the
    accepted Evaluation and hands it to ``on_iterate(record, evaluation)``.
    ``flat_grad(Gradient)`` is the scheme's gradient vector.
    """

    def __init__(self, mesh, evaluate, flat_grad, on_iterate):
        self.mesh, self.evaluate, self.flat_grad = mesh, evaluate, flat_grad
        self.on_iterate = on_iterate
        self.history = []
        self.accepted = None
        self.trial_x = self.trial = None

    def value(self, x):
        # one factor alive at a time: the accepted point is done with its
        # solves and the previous trial was rejected or accepted
        if self.accepted is not None:
            self.accepted.release()
        self.trial_x = self.trial = None
        self.trial_x, self.trial = x, self.evaluate(x)
        return self.trial.breakdown.total

    def keep(self, x):
        """Make the Evaluation at x the accepted one and return it: the
        latest trial, evaluated here unless it is at x."""
        if self.trial is None or not np.array_equal(self.trial_x, x):
            self.value(x)
        self.accepted = self.trial
        return self.accepted

    def value_grad(self, x):
        return self.accept(self.keep(x))

    def accept(self, ev):
        """Make ``ev`` the accepted point, dropping a trial it replaces;
        returns its (f, g)."""
        if ev is not self.trial:
            self.trial_x = self.trial = None
        self.accepted = ev
        return ev.breakdown.total, self.flat_grad(ev.gradient)

    def record(self, k, x, f, g, step):
        ev, grad = self.accepted, self.accepted.gradient
        f2, f3 = functional.volume_fractions(self.mesh, ev.design)
        rec = IterateRecord(
            iteration=k,
            breakdown=ev.breakdown,
            grad_norm_design=_norm(np.concatenate([grad.g_rho2, grad.g_rho3])),
            grad_norm_stimulus=_norm(grad.g_s.ravel()),
            step=step,
            vol_frac2=f2,
            vol_frac3=f3,
        )
        self.history.append(rec)
        if self.on_iterate is not None:
            self.on_iterate(rec, ev)

    def minimize(self, x0, lower, upper, cfg, post_accept=None):
        """The scheme's (design, stimulus, history, BncgResult)."""
        result = bncg_minimize(self.value, self.value_grad, x0, lower, upper,
                               cfg, on_accept=self.record,
                               post_accept=post_accept)
        self.accepted.release()
        self.trial_x = self.trial = None
        result.evaluation = ev = self.accepted
        return ev.design, ev.stimulus, self.history, result


def run_monolithic(mesh, phases, params, targets, cfg, design0=None,
                   stimulus0=None, on_iterate=None):
    """Joint BNCG over the concatenated (rho2, rho3, s_1..s_n) variable."""
    n_cases = len(np.asarray(targets))
    nn = mesh.n_nodes
    design0 = design0 or DesignField.constant(nn, INITIAL_RHO2, INITIAL_RHO3)
    stimulus0 = stimulus0 or StimulusField.zeros(n_cases, nn)

    def evaluate(z):
        design = DesignField(z[:nn], z[nn:2 * nn])
        stim = StimulusField(z[2 * nn:].reshape(n_cases, nn))
        return sensitivity.Evaluation(mesh, design, stim, phases, params,
                                      targets)

    evals = _Evaluations(mesh, evaluate, lambda grad: np.concatenate(
        [grad.g_rho2, grad.g_rho3, grad.g_s.ravel()]), on_iterate)
    z0 = np.concatenate([design0.rho2, design0.rho3, stimulus0.s.ravel()])
    lower = np.concatenate([np.zeros(2 * nn), -np.ones(n_cases * nn)])
    upper = np.ones(2 * nn + n_cases * nn)
    return evals.minimize(z0, lower, upper, cfg)


def run_staggered(mesh, phases, params, targets, cfg, design0=None,
                  stimulus0=None, on_iterate=None):
    """Outer BNCG over the densities with exact inner stimulus minimization.

    The stimulus is frozen during each line search.  At every accepted
    design the closed-form update is computed from its adjoints, solved on
    its stiffness, and committed only if it does not raise the true
    objective.  The gradient is formed once, at the committed stimulus, or
    at the design's own point when the update is declined.
    """
    n_cases = len(np.asarray(targets))
    nn = mesh.n_nodes
    design0 = design0 or DesignField.constant(nn, INITIAL_RHO2, INITIAL_RHO3)
    stimulus0 = stimulus0 or StimulusField.zeros(n_cases, nn)

    def evaluate(z):
        # a copy of the caller's start field, so the samples kept on it die
        # with the evaluations that share it
        stim = (evals.accepted.stimulus if evals.accepted
                else StimulusField(stimulus0.s))
        design = DesignField(z[:nn], z[nn:])
        return sensitivity.Evaluation(mesh, design, stim, phases, params,
                                      targets)

    evals = _Evaluations(mesh, evaluate, lambda grad: np.concatenate(
        [grad.g_rho2, grad.g_rho3]), on_iterate)

    def update(ev):
        """ev at the closed-form stimulus of its adjoints, or None where
        that raises the objective."""
        candidate = ev.at_stimulus(minimize_stimulus_field(
            mesh, ev.design, ev.lambdas, phases))
        return candidate if candidate.breakdown.total <= ev.breakdown.total \
            else None

    def post_accept(z, f, g):
        # update(ev) has returned when accept forms the gradient, so the
        # design's own point and its stimulus samples are freed first
        candidate = update(evals.keep(z))
        return None if candidate is None else evals.accept(candidate)

    z0 = np.concatenate([design0.rho2, design0.rho3])
    return evals.minimize(z0, np.zeros(2 * nn), np.ones(2 * nn), cfg,
                          post_accept)
