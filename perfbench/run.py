"""morphopt benchmark: time ``morphopt run`` end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load model: closed loop, one client.  Every run is one ``runner.run`` call,
the code path of ``morphopt run``, in a fresh child process (child.py) with
BLAS threads pinned to 1; runs go one at a time.  Interpreter and import
time are excluded.  Inputs: one of VARIANTS uniform initial designs
(rho2, rho3 drawn near the shipped 0.3/0.3); the seed fixes the order in
which a benchmark run visits them, so consecutive runs inside one benchmark
run use different designs.  The program sees only the generated config
text.

``--trace 0`` first times SETUP_RUNS set-up-only runs, then repeats full
runs while another one fits in ``--seconds`` (at least one), and reports
medians over them:

  setup_s      s    config text parsed -> optimizer.bncg_minimize entered
                    (set-up-only and full runs)
  run_s        s    the whole runner.run call, artifacts included
  iterate_ms   ms   time inside bncg_minimize / accepted iterates
  peak_rss_mb  MiB  the child's ru_maxrss

The three timings are wall-clock times scaled to a reference machine speed:
each child times a fixed PCG-like kernel (child.calibrate, no morphopt
code) just before and just after its timed part, and each timing is
multiplied by CAL_REF_S / that kernel time.  On the shared 2-vCPU machine
the bounds were set on, speed drifts by 10-30% over minutes, in CPU time as
much as in wall time.  There, two ten-seed sets of unscaled runs differed
by up to 26% in their medians (hexagon run_s) and setup_s spread by 0.36
of its median; scaled, two sets agreed within 8% on every metric and the
setup_s spread fell to 0.05-0.10.  A change to the library moves the scaled
times as it moves the wall times.
The unscaled medians are printed and kept in result.json.

Each run's final objective (summary ``total``) and ``failed_ratio`` (failed
runs / attempted runs) are printed beside them.  The final objective is
held to the per-design value in reference.json instead of a bound: across
designs it spreads far more than any bound allows, because the desk
trajectories depend on the initial design.

``--trace 1`` makes one untraced and one traced run of the seed's first
design and reports per-layer metrics: ``<layer>.calls``, ``.busy_s`` and
``.self_s`` (busy time minus the time of child spans) for every layer in
tracer.LAYERS, plus the derived counts and ratios of ``per_layer``.  Its
self-test requires byte-identical history.csv from both runs, calls on
every layer the workload uses, and none on the layers it must not use.

Every full run is checked: the status is a BNCG status, the history is
finite and never increasing, the final design and stimulus satisfy the box
exactly, and the final objective matches reference.json for that design
within ``rel_tol``.  A run that raises or fails a check counts as failed.

Workloads (the reason each was chosen):

  desk_staggered   The acceptance-gate problem (h = 1/60, 2,562 dofs, one
                   load case) under an iterate cap.  Bound by Python
                   overhead and PCG; the only desk workload with the
                   post_accept stimulus update and its re-solves.
  desk_monolithic  Same mesh and cap.  Joint line search over 3n variables,
                   grad_stimulus drives the search, minimize_stimulus_field
                   is never called: an optimisation of the stimulus or
                   post_accept path must show no change here.
  hexagon_three_cases
                   hexagon_contrast5 at h = 0.01, epsilon = 0.02 (7,562
                   dofs), run to its own stopping test.  Three load cases
                   share one operator per design; a different mesh generator
                   and sparsity; heavy artifact export (3 composites).

Which end-to-end metric each layer metric should move:

  Solve time (self time of elasticity.solve_state / solve_adjoint,
  linsolve.solve_spd.busy_s and .iters) moves iterate_ms and run_s on all
  three workloads, most on the desk ones.
  Assembly time (elasticity.assemble_stiffness.busy_s, .repeat_ratio)
  moves iterate_ms; a design-keyed cache would shift peak_rss_mb.
  Export time (runner.export_s, render.composite_export, vtk_io.write_vtk)
  moves run_s on hexagon_three_cases, barely on the desk workloads, and
  never iterate_ms.
  Optimizer ratios (ls_trials_per_iterate, stimulus_commit_ratio, ...)
  move run_s through the solve counts; on desk_monolithic the stimulus
  ratios are structurally absent.
  config.parse_config and config.ProblemSpec.build_mesh move setup_s.

A layer or counter the library no longer has (linsolve.solve_spd, its
``callback`` argument, SparseOperator) is reported with value 0 and named
in the ``absent`` list of the descriptor line instead of crashing; solve
cost then stays visible as the self time of solve_state and solve_adjoint.

Outputs go to .perfbench_out/<workload>/ in the checkout; the last stdout
line is the JSON result.
"""

import argparse
import configparser
import io
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time

from tracer import LAYER_NAMES

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

VARIANTS = 16          # initial designs with a recorded reference
SETUP_RUNS = 6         # set-up-only runs per untraced benchmark run
CAL_REF_S = 0.15       # child.calibrate() on the machine the bounds came from
DEADLINE_S = 170.0     # the whole benchmark process ends before this
DESK_CAP = "30"        # outer iterates of the desk workloads

WORKLOADS = {
    "desk_staggered": {
        "config": "cantilever_desk_staggered",
        "set": {"optimizer": {"max_outer_iters": DESK_CAP}},
        "idle_layers": (),
    },
    "desk_monolithic": {
        "config": "cantilever_desk_monolithic",
        "set": {"optimizer": {"max_outer_iters": DESK_CAP}},
        "idle_layers": ("stimulus_update.minimize_stimulus_field",),
    },
    "hexagon_three_cases": {
        "config": "hexagon_contrast5",
        "set": {"mesh": {"h": "0.01"}, "regularization": {"epsilon": "0.02"}},
        "idle_layers": (),
    },
}


def variant_design(variant):
    """(rho2, rho3) of one initial design: uniform fields near 0.3/0.3."""
    rng = random.Random(variant)
    return round(rng.uniform(0.29, 0.31), 4), round(rng.uniform(0.29, 0.31), 4)


def variant_order(seed):
    """The order in which a benchmark run with this seed visits designs."""
    return random.Random(seed).sample(range(VARIANTS), VARIANTS)


def make_config(workload, variant):
    """Config text: the shipped config with the workload's settings."""
    spec = WORKLOADS[workload]
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    path = os.path.join(SRC, "morphopt", "configs", spec["config"] + ".cfg")
    with open(path) as fh:
        cp.read_file(fh)
    rho2, rho3 = variant_design(variant)
    settings = dict(spec["set"], initial={"rho2": repr(rho2),
                                          "rho3": repr(rho3)})
    for section, values in settings.items():
        if not cp.has_section(section):
            cp.add_section(section)
        for key, value in values.items():
            cp.set(section, key, value)
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def run_child(mode, cfg_path, out, timeout):
    """Run child.py once; returns (report, None, wall) or (None, error,
    wall)."""
    os.makedirs(out, exist_ok=True)
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--src", SRC,
           "--config", cfg_path, "--out", out, "--mode", mode]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return None, "timed out", time.perf_counter() - t0
    wall = time.perf_counter() - t0
    with open(os.path.join(out, "stderr.txt"), "w") as fh:
        fh.write(proc.stderr)
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return None, f"exit {proc.returncode}: {tail[0]}", wall
    return json.loads(proc.stdout.strip().splitlines()[-1]), None, wall


class Runner:
    """Starts the child runs of one workload and tallies failures."""

    def __init__(self, workload, work_dir, reference, started):
        self.work_dir = work_dir
        self.started = started
        self.expected = reference["final_objective"][workload]
        self.rel_tol = reference["rel_tol"]
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.configs = {}
        for variant in range(VARIANTS):
            entry = self.expected[str(variant)]
            if (entry["rho2"], entry["rho3"]) != variant_design(variant):
                sys.exit("reference.json was recorded for other designs")
            path = os.path.join(work_dir, f"design{variant}.cfg")
            with open(path, "w") as fh:
                fh.write(make_config(workload, variant))
            self.configs[variant] = path

    def elapsed(self):
        return time.perf_counter() - self.started

    def child(self, mode, name, variant):
        """One child run; returns (report or None, wall seconds)."""
        self.attempted += 1
        report, error, wall = run_child(
            mode, self.configs[variant], os.path.join(self.work_dir, name),
            DEADLINE_S - self.elapsed())
        if error is not None:
            self._fail(f"{name}: {error}")
        return report, wall

    def _fail(self, message):
        self.failed += 1
        self.errors.append(message)

    def check(self, name, report, variant):
        """Count a full run whose checks fail; returns whether it passed."""
        bad = [k for k, ok in report["checks"].items() if not ok]
        ref = self.expected[str(variant)]["value"]
        if abs(report["final_objective"] - ref) > self.rel_tol * abs(ref):
            bad.append(f"final_objective {report['final_objective']!r} vs "
                       f"reference {ref!r}")
        if bad:
            self._fail(f"{name}: failed {', '.join(bad)}")
        return not bad


def machine():
    """L2/L3 sizes as lscpu reports them and the CPUs this process may use."""
    caches = {}
    try:
        text = subprocess.run(["lscpu"], capture_output=True, text=True,
                              env=dict(os.environ, LC_ALL="C"),
                              timeout=10).stdout
    except (OSError, subprocess.TimeoutExpired):
        text = ""
    for line in text.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("L2 cache", "L3 cache"):
            caches[key.strip().replace(" ", "_")] = value.strip()
    return dict(caches, nproc=len(os.sched_getaffinity(0)),
                platform=platform.platform())


def metric(value, unit):
    return {"value": value, "unit": unit}


def scaled(report, key):
    """A timing of a child run at the reference machine speed."""
    return report[key] * CAL_REF_S / report["calibration_s"]


def measure(runner, order, seconds):
    """Untraced runs: end-to-end metrics as medians over the runs."""
    setups, runs, walls = [], [], []
    begin = time.perf_counter()
    for i in range(SETUP_RUNS):
        report, _ = runner.child("setup", f"setup{i}", order[0])
        if report is not None:
            setups.append(report)
    while True:
        variant = order[len(walls) % VARIANTS]
        name = f"run{len(walls)}"
        report, wall = runner.child("run", name, variant)
        walls.append(wall)
        if report is not None and runner.check(name, report, variant):
            report["variant"] = variant
            runs.append(report)
            setups.append(report)
        next_wall = statistics.median(walls)
        if (time.perf_counter() - begin + next_wall > seconds
                or runner.elapsed() + next_wall > DEADLINE_S - 10):
            break
    if not runs:
        return {}, {}
    metrics = {
        "setup_s": metric(statistics.median(
            scaled(r, "setup_s") for r in setups), "s"),
        "run_s": metric(statistics.median(
            scaled(r, "run_s") for r in runs), "s"),
        "iterate_ms": metric(statistics.median(
            scaled(r, "iterate_ms") for r in runs), "ms"),
        "peak_rss_mb": metric(statistics.median(
            r["peak_rss_mb"] for r in runs), "MiB"),
    }
    keep = ("variant", "calibration_s", "run_s", "iterate_ms", "peak_rss_mb",
            "status", "iterates", "final_objective")
    info = {"setup": [{k: r[k] for k in ("setup_s", "calibration_s")}
                      for r in setups],
            "runs": [{k: r[k] for k in keep} for r in runs]}
    return metrics, info


def per_layer(traced, untraced):
    """Per-layer metrics of a traced run, and the names of those absent."""
    absent = set(traced["absent"])   # layers, and "layer(args)" counters
    layers, counts = traced["layers"], traced["counts"]
    iterates = traced["iterates"]
    metrics = {}
    for name in LAYER_NAMES:
        calls, busy, own = layers[name]
        metrics[f"{name}.calls"] = metric(calls, "count")
        metrics[f"{name}.busy_s"] = metric(busy, "s")
        metrics[f"{name}.self_s"] = metric(own, "s")

    def derived(name, unit, num, den=None, needs=()):
        missing = den == 0 or any(n in absent for n in needs)
        if missing:
            absent.add(name)
        value = 0 if missing else num if den is None else num / den
        metrics[name] = metric(value, unit)

    stiff = "elasticity.assemble_stiffness"
    spd = "linsolve.solve_spd"
    bncg = "optimizer.bncg_minimize"
    solver = (spd, f"{spd}(callback)")
    search = (bncg, f"{bncg}(value_fn, post_accept)")
    trials = counts.get("ls_trials", 0)
    updates = counts.get("stimulus_updates", 0)
    for layer in ("elasticity.solve_state", "elasticity.solve_adjoint", stiff):
        derived(f"{layer}.per_iterate", "calls/iterate", layers[layer][0],
                iterates, needs=(layer,))
    derived(f"{stiff}.repeat_ratio", "ratio", counts.get("assemble_repeats", 0),
            layers[stiff][0], needs=(stiff, f"{stiff}(design)"))
    derived(f"{spd}.iters", "count", counts.get("solver_iters", 0),
            needs=solver)
    derived(f"{spd}.iters_per_call", "iters/call",
            counts.get("solver_iters", 0), layers[spd][0], needs=solver)
    derived("optimizer.iterates", "count", iterates)
    derived("optimizer.ls_trials", "count", trials, needs=search)
    derived("optimizer.ls_trials_per_iterate", "trials/iterate", trials,
            iterates, needs=search)
    derived("optimizer.armijo_accept_ratio", "ratio", iterates, trials,
            needs=search)
    derived("optimizer.stimulus_updates", "count", updates, needs=search)
    derived("optimizer.stimulus_commit_ratio", "ratio",
            counts.get("stimulus_commits", 0), updates, needs=search)
    metrics["runner.export_s"] = metric(traced["export_s"], "s")
    metrics["trace_overhead_s"] = metric(
        traced["run_s"] - untraced["run_s"], "s")
    return metrics, sorted(n for n in metrics
                           if n in absent or n.rsplit(".", 1)[0] in absent)


def self_test(workload, traced, work_dir):
    """Tracing changes no output, reaches every layer the workload uses
    and none it must not use; returns the problems found."""
    problems = []
    histories = []
    for name in ("untraced", "traced"):
        with open(os.path.join(work_dir, name, "history.csv"), "rb") as fh:
            histories.append(fh.read())
    if histories[0] != histories[1]:
        problems.append("traced history.csv differs from the untraced one")
    idle = WORKLOADS[workload]["idle_layers"]
    for name in LAYER_NAMES:
        if name in traced["absent"]:
            continue
        calls = traced["layers"][name][0]
        if name in idle and calls != 0:
            problems.append(f"{name}: {calls} calls, expected none")
        elif name not in idle and calls == 0:
            problems.append(f"{name}: no calls recorded")
    return problems


def trace(runner, workload, variant):
    """One untraced and one traced run of a design: per-layer metrics."""
    reports = {}
    for name, mode in (("untraced", "run"), ("traced", "trace")):
        report, _ = runner.child(mode, name, variant)
        if report is not None and runner.check(name, report, variant):
            reports[name] = report
    if len(reports) < 2:
        return {}, [], {}
    metrics, absent = per_layer(reports["traced"], reports["untraced"])
    problems = self_test(workload, reports["traced"], runner.work_dir)
    info = {"absent": absent, "runs": [{
        "variant": variant,
        "final_objective": reports["traced"]["final_objective"]}]}
    return metrics, problems, info


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.perf_counter()

    if not os.path.isfile(os.path.join(SRC, "morphopt", "__init__.py")):
        sys.exit(f"no morphopt sources under {SRC}")
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    work_dir = os.path.join(OUT, args.workload)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    runner = Runner(args.workload, work_dir, reference, started)
    order = variant_order(args.seed)

    described, _ = runner.child("setup", "describe", order[0])
    descriptors = {"workload": args.workload, "seed": args.seed, **machine()}
    if described is not None:
        descriptors.update(described["sizes"], **described["versions"])

    problems = []
    if args.trace:
        metrics, problems, info = trace(runner, args.workload, order[0])
    else:
        metrics, info = measure(runner, order, args.seconds)
    descriptors["designs"] = {
        str(v): variant_design(v)
        for v in sorted({r["variant"] for r in info.get("runs", ())})}
    if "absent" in info:
        descriptors["absent"] = info["absent"]
    failed_ratio = runner.failed / runner.attempted
    correct = runner.failed == 0 and not problems and bool(metrics)

    for message in runner.errors + problems:
        print(f"FAILED {message}")
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']!r} {m['unit']}")
    if not args.trace and metrics:
        print("wall-clock medians: " + ", ".join(
            f"{k} {statistics.median(r[k] for r in info[part])!r}"
            for part, k in (("setup", "setup_s"), ("runs", "run_s"),
                            ("runs", "iterate_ms"), ("runs", "calibration_s"))))
    for r in info.get("runs", ()):
        ref = runner.expected[str(r["variant"])]["value"]
        print(f"{'final_objective':48s} {r['final_objective']!r} "
              f"(design {r['variant']}, reference {ref!r})")
    print(f"{'failed_ratio':48s} {failed_ratio!r} "
          f"({runner.failed}/{runner.attempted} runs)")
    with open(os.path.join(work_dir, "result.json"), "w") as fh:
        json.dump({"descriptors": descriptors, "info": info,
                   "metrics": metrics, "errors": runner.errors + problems},
                  fh, indent=1)
    print(json.dumps({"descriptors": descriptors}))
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
