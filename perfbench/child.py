"""One ``runner.run`` call in a fresh process, timed from outside.

    python3 child.py --src SRC --config CFG --out DIR --mode MODE

MODE is ``run`` (untraced: the only hook is one timestamp wrapper around
``optimizer.bncg_minimize``), ``trace`` (every layer of tracer.LAYERS is
spanned) or ``setup`` (the run is stopped where ``bncg_minimize`` is
entered, so only set-up is timed; the mesh and operator sizes are then
recorded).  Interpreter and import time are outside every timer.

Prints one JSON object: the timings, the run's correctness checks, its
final objective, the process's peak resident memory and ``calibration_s``,
the mean time of a fixed kernel run just before and just after the timed
part (see ``calibrate``).
"""

import argparse
import csv
import json
import math
import os
import platform
import resource
import sys
import time

import numpy
import scipy
import scipy.sparse as sp

from tracer import LAYER_NAMES, Tracer, rebind

STATUSES = ("converged-grad", "converged-obj", "maxiter", "stalled")


def calibrate(n=2562, warmup=500, iters=6000):
    """Seconds for a fixed PCG-like loop (sparse mat-vec and small vector
    operations, the mix that dominates a run).  It tells how fast this
    machine runs at the moment; it uses no morphopt code, so a change to
    the library cannot move it."""
    off = numpy.full(n - 1, -1.0)
    far = numpy.full(n - 50, -1.0)
    A = sp.diags([numpy.full(n, 4.0), off, off, far, far],
                 [0, 1, -1, 50, -50], format="csr")
    x = numpy.zeros(n)
    p = numpy.linspace(0.0, 1.0, n)
    for i in range(warmup + iters):
        if i == warmup:
            t0 = time.perf_counter()
        q = A @ p
        a = float(numpy.sum(p * q))
        x += (1e-9 / a) * p
        p = q / numpy.sqrt(a)
    return time.perf_counter() - t0


class SetupDone(Exception):
    """Raised where bncg_minimize is entered in ``setup`` mode."""


def import_morphopt(src):
    sys.path.insert(0, src)
    import morphopt
    here = os.path.realpath(os.path.dirname(morphopt.__file__))
    if not here.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"imported morphopt from {here}, not from {src}")


def hook_bncg(optimizer, marks, stop):
    """Timestamp the entry and exit of the current bncg_minimize."""
    inner = optimizer.bncg_minimize

    def timed(*args, **kwargs):
        marks["bncg_enter"] = time.perf_counter()
        if stop:
            raise SetupDone
        result = inner(*args, **kwargs)
        marks["bncg_exit"] = time.perf_counter()
        marks["iterates"] = result.iterations
        return result
    rebind(inner, timed)


def check_history(path):
    """History rows are finite and the objective never increases."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    values = [float(v) for row in rows for v in row.values()]
    totals = [float(row["total"]) for row in rows]
    return (bool(rows) and all(math.isfinite(v) for v in values)
            and all(b <= a for a, b in zip(totals, totals[1:])))


def check_box(artifacts):
    """Exact feasibility of the final design and stimulus."""
    rho2, rho3 = artifacts.design.rho2, artifacts.design.rho3
    s = artifacts.stimulus.s
    return bool((rho2 >= 0).all() and (rho3 >= 0).all()
                and (rho2 + rho3 <= 1).all() and (abs(s) <= 1).all())


def csr_sizes(spec):
    """Nodes, dofs, nnz and computed CSR bytes of K at the initial design."""
    from morphopt import elasticity
    from morphopt.fields import DesignField

    mesh = spec.build_mesh()
    out = {"nodes": int(mesh.n_nodes), "dofs": 2 * int(mesh.n_nodes)}
    design = DesignField.constant(mesh.n_nodes, spec.initial_rho2,
                                  spec.initial_rho3)
    try:
        K = elasticity.assemble_stiffness(mesh, design, spec.phases,
                                          fixed_dofs=mesh.dirichlet_dofs())
    except (AttributeError, TypeError):      # assembly API has changed
        return out
    K = getattr(K, "matrix", K)              # SparseOperator or bare CSR
    if sp.issparse(K):
        K = sp.csr_matrix(K)
        out["K_nnz"] = int(K.nnz)
        out["K_csr_bytes_computed"] = int(K.data.nbytes + K.indices.nbytes
                                          + K.indptr.nbytes)
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--mode", choices=("run", "trace", "setup"), required=True)
    args = ap.parse_args()

    import_morphopt(args.src)
    from morphopt import config, optimizer, runner

    with open(args.config) as fh:
        text = fh.read()
    tracer = None
    if args.mode == "trace":
        tracer = Tracer()
        tracer.install()
    marks = {}
    hook_bncg(optimizer, marks, stop=args.mode == "setup")

    cal_before = calibrate()
    t0 = time.perf_counter()
    spec = config.parse_config(text=text)
    t_run = time.perf_counter()
    try:
        if tracer is None:
            artifacts = runner.run(spec, out_dir=args.out)
        else:
            artifacts = tracer.call("runner.run", runner.run, spec,
                                    out_dir=args.out)
    except SetupDone:
        report = {"setup_s": marks["bncg_enter"] - t0,
                  "calibration_s": (cal_before + calibrate()) / 2,
                  "sizes": csr_sizes(spec),
                  "versions": {"python": platform.python_version(),
                               "numpy": numpy.__version__,
                               "scipy": scipy.__version__}}
        print(json.dumps(report))
        return
    t_end = time.perf_counter()
    calibration_s = (cal_before + calibrate()) / 2

    report = {
        "calibration_s": calibration_s,
        "setup_s": marks["bncg_enter"] - t0,
        "run_s": t_end - t_run,
        "iterate_ms": 1e3 * (marks["bncg_exit"] - marks["bncg_enter"])
        / max(marks["iterates"], 1),
        "iterates": marks["iterates"],
        "final_objective": float(artifacts.summary["total"]),
        "status": artifacts.status,
        "checks": {
            "status": artifacts.status in STATUSES,
            "history": check_history(artifacts.history_path),
            "box": check_box(artifacts),
        },
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    if tracer is not None:
        totals = tracer.layer_totals()
        report["layers"] = {name: totals.get(name, (0, 0.0, 0.0))
                            for name in LAYER_NAMES}
        report["counts"] = dict(tracer.counts)
        report["absent"] = tracer.absent
        report["export_s"] = (tracer.first_end("runner.run")
                              - tracer.first_end("optimizer.bncg_minimize"))
        with open(os.path.join(args.out, "spans.json"), "w") as fh:
            json.dump(tracer.spans, fh)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
