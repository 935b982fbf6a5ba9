"""Cost of one state solve on the full-resolution cantilever.

    python3 scripts/probe_full_resolution.py [--src SRC] [--h 0.002]

Builds the shipped ``cantilever_staggered`` mesh, takes the 0.3/0.3 initial
design with a uniform stimulus of 1 (a nonzero load), and times the mesh
build, the first stiffness assembly (which builds any per-mesh data), a
second assembly and one ``solve_state``; ``map_build_s`` is the first
assembly's time less the second's, the cost of the per-mesh operator map,
and ``map_build_rss_mib`` the rise of the peak resident memory across the
first assembly.  The factorization inside the
solve is timed on its own (``factor_s``); ``factor_mib`` gives the bytes
of the factor's inverse level blocks ``sinv``, ``factor_levels``,
``factor_max_level`` and ``factor_sum_n3`` the number, largest size and
sum of cubed sizes of the levels, ``factor_twist`` the level where its two
elimination chains meet, ``factor_steps`` the number of sweep steps that
take a pair of levels and of those that take one, and ``factor_root`` the
root candidate its operator map chose.  ``solve_spd_ms`` is the time of
the ``solve_spd`` call inside the state solve.  After the peak resident
memory is read, ``sweep_ms`` gives the median of five one-column
(``k1``) and five three-column (``k3``) sweeps of the factor on random
loads zero at the fixed dofs, and ``factor_ms`` the median of five more
factorizations of the same operator; then the gradient of one ``sensitivity.Evaluation`` on the same design,
operator and factor is timed (adjoint solve and both gradient kernels;
``gradient_error`` holds the message when the adjoint solve raises
SolverFailureError), and the shipped ``hexagon_contrast5`` mesh is built
at the same h and timed.  Prints one JSON line with the times, the
state solve's ``iterations`` (its callback calls: 1, the factor's
certified answer), its ``relative_residual`` ||K u - f|| / ||f|| and
``backward_error`` ||K u - f|| / (||K||_inf ||u|| + ||f||), the quantity
that ``solve_spd`` certifies, the peak resident memory and
``mesh_cache_mib``: the bytes of every array held in ``Mesh.cache`` after
the gradient step (the gradient operator and the elasticity operator
maps), read from whatever the cache holds, and ``mesh_cache_entries_mib``
the same per cache entry (an array shared by two entries counts in the
first), and ``element_shapes`` the number of distinct triangle gradient
sets, each with one unit-mu and one unit-lambda table in the operator map
(null for a tree whose map keeps per-triangle matrices).  Last,
``snapshot_s`` times one ``vtk_io.write_vtk`` of the densities, the
stimulus, the state and the adjoint, as a run's snapshot writes them
(null when the gradient raised).
``--src`` selects the source tree, so two versions of the library can be
probed with the same script; run with BLAS threads pinned to 1 for
comparable numbers.
"""

import argparse
import json
import os
import resource
import sys
import tempfile
import time

import numpy as np


def _nbytes(obj, seen):
    """Bytes of the numpy arrays reachable from ``obj`` through containers
    and object attributes (scipy.sparse matrices included), each counted
    once."""
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.nbytes if obj.base is None else _nbytes(obj.base, seen)
    if isinstance(obj, dict):
        return sum(_nbytes(v, seen) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(_nbytes(v, seen) for v in obj)
    return sum(_nbytes(v, seen) for v in getattr(obj, "__dict__", {}).values())


def _cache_name(key):
    """A readable name of a ``Mesh.cache`` key: the key itself, or its
    first item and the rule degree or fixed-dof count that follows."""
    if not isinstance(key, tuple):
        return str(key)
    tag, detail = key[0], key[1]
    if isinstance(detail, bytes):
        return f"{tag} {len(detail) // 8} fixed dofs"
    return f"{tag} degree {getattr(detail, 'degree', detail)}"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", default="src")
    ap.add_argument("--h", type=float, default=2e-3)
    args = ap.parse_args()
    sys.path.insert(0, args.src)
    from morphopt import config, elasticity, sensitivity, vtk_io
    from morphopt.errors import SolverFailureError
    from morphopt.fields import DesignField, StimulusField

    spec = config.load_shipped_config("cantilever_staggered",
                                      overrides=[f"mesh.h={args.h!r}"])
    t = time.perf_counter()
    mesh = spec.build_mesh()
    build_mesh_s = time.perf_counter() - t
    design = DesignField.constant(mesh.n_nodes, 0.3, 0.3)
    stim = StimulusField(np.ones((1, mesh.n_nodes)))
    fixed = mesh.dirichlet_dofs()
    out = {"h": args.h, "dofs": 2 * mesh.n_nodes, "build_mesh_s": build_mesh_s}

    rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    t0 = time.perf_counter()
    elasticity.assemble_stiffness(mesh, design, spec.phases, fixed)
    t1 = time.perf_counter()
    rss1 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    K = elasticity.assemble_stiffness(mesh, design, spec.phases, fixed)
    t2 = time.perf_counter()
    out.update(first_assembly_s=t1 - t0, assembly_s=t2 - t1,
               map_build_s=(t1 - t0) - (t2 - t1),
               map_build_rss_mib=(rss1 - rss0) / 1024.0, K_nnz=int(K.nnz))

    iters, solve_spd_s = [], []
    solve = elasticity.solve_spd

    def counted(*a, **kw):
        kw["callback"] = lambda it, r: iters.append(r)
        t = time.perf_counter()
        result = solve(*a, **kw)
        solve_spd_s.append(time.perf_counter() - t)
        return result
    elasticity.solve_spd = counted
    factor_s = []
    factorize = elasticity.factorize

    def timed(*a, **kw):
        t = time.perf_counter()
        result = factorize(*a, **kw)
        factor_s.append(time.perf_counter() - t)
        return result
    elasticity.factorize = timed
    t3 = time.perf_counter()
    state = elasticity.solve_state(mesh, design, spec.phases, stim,
                                   operator=K)
    t4 = time.perf_counter()
    f = elasticity.assemble_stimulus_load(mesh, design, spec.phases,
                                          stim)[:, 0]
    f[fixed] = 0.0
    u = state.u[0].ravel()
    factor = state.factor
    sizes = np.diff(factor.blocks.level_ptr).astype(np.int64)
    steps = factor.blocks.steps
    out.update(factor_mib=_nbytes(factor.sinv, set()) / 2 ** 20,
               factor_levels=len(sizes),
               factor_max_level=int(sizes.max()),
               factor_sum_n3=int(np.sum(sizes ** 3)),
               factor_twist=factor.blocks.twist,
               factor_steps={
                   "pairs": sum(len(step) == 2 for step in steps),
                   "singles": sum(len(step) == 1 for step in steps)},
               factor_root=elasticity._operator_map(mesh, fixed).root)
    out.update(solve_state_s=t4 - t3, factor_s=sum(factor_s),
               solve_spd_ms=1e3 * solve_spd_s[0],
               iterations=len(iters),
               relative_residual=float(np.linalg.norm(K @ u - f)
                                       / np.linalg.norm(f)),
               backward_error=float(np.linalg.norm(K @ u - f) / (
                   abs(K).sum(axis=1).max() * np.linalg.norm(u)
                   + np.linalg.norm(f))),
               peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
               / 1024.0)
    B = np.random.default_rng(0).normal(size=(K.shape[0], 3))
    B[fixed] = 0.0
    out["sweep_ms"] = {}
    for k in (1, 3):
        times = []
        for _ in range(5):
            t = time.perf_counter()
            factor.solve(B[:, :k])
            times.append(time.perf_counter() - t)
        out["sweep_ms"][f"k{k}"] = 1e3 * float(np.median(times))
    times = []
    for _ in range(5):
        t = time.perf_counter()
        factorize(mesh, K, fixed)
        times.append(time.perf_counter() - t)
    out["factor_ms"] = 1e3 * float(np.median(times))
    evaluation = sensitivity.Evaluation(
        mesh, design, stim, spec.phases, spec.params, spec.target_array(),
        operator=K, factor=state.factor)
    t = time.perf_counter()
    try:
        evaluation.gradient
        out["gradient_error"] = None
    except SolverFailureError as exc:
        out["gradient_error"] = str(exc)
    out["gradient_s"] = time.perf_counter() - t
    out["mesh_cache_mib"] = _nbytes(mesh.cache, set()) / 2 ** 20
    seen = set()
    out["mesh_cache_entries_mib"] = {
        _cache_name(key): _nbytes(value, seen) / 2 ** 20
        for key, value in mesh.cache.items()}
    tables = getattr(elasticity._operator_map(mesh, fixed), "tables", None)
    out["element_shapes"] = None if tables is None else tables.shape[1]
    hexagon = config.load_shipped_config("hexagon_contrast5",
                                         overrides=[f"mesh.h={args.h!r}"])
    t = time.perf_counter()
    hexagon.build_mesh()
    out["hexagon_build_mesh_s"] = time.perf_counter() - t
    out["snapshot_s"] = None          # no adjoint to write without a gradient
    if out["gradient_error"] is None:
        with tempfile.TemporaryDirectory() as tmp:
            t = time.perf_counter()
            vtk_io.write_vtk(
                os.path.join(tmp, "snapshot.vtk"), mesh,
                {"rho2": design.rho2, "rho3": design.rho3, "s1": stim.s[0]},
                {"u1": state.u[0], "lambda1": evaluation.lambdas[0]})
            out["snapshot_s"] = time.perf_counter() - t
    print(json.dumps(out))


if __name__ == "__main__":
    main()
