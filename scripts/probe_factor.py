"""A/B timing of the block Cholesky factor of two source trees.

    python3 scripts/probe_factor.py --base OLD/src --change src [--pairs 40]

Starts one child process per tree, with BLAS pinned to one thread.  Each
child builds two operators at the 0.3/0.3 initial design: the desk mesh
of the shipped ``cantilever_desk_staggered`` config (h = 1/60, 61 levels
of 42 unknowns) and the shipped ``hexagon_contrast5`` mesh at h = 0.01
(levels of up to 142 unknowns).  It factors each a few times to warm up,
then times one ``elasticity.factorize`` (a ``BlockCholesky`` build in the
mesh's cached level order) per request.  For each operator, the parent
asks both children for ``--pairs`` builds, one from each tree per pair,
and alternates which tree goes first from pair to pair.  It prints one
JSON line per operator with:

- ``base_ms`` and ``change_ms``: the median build of each tree;
- ``base_iqr_ms``: the distance between the quartiles of the base's
  builds, the spread a change in the median has to exceed;
- ``change_faster``: the share of pairs in which the change was faster;
- ``change_faster_p``: the two-sided sign-test probability of a share at
  least that far from one half when neither tree is faster, each pair a
  fair coin flip;
- ``solve_rel_diff``: the largest difference between the two trees'
  certified ``solve_spd`` answers for the operator's stimulus load (a
  uniform stimulus of 1 in every load case), relative to the largest
  entry of the base answer.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time

import numpy as np

OPERATORS = {
    "desk": ("cantilever_desk_staggered", []),
    "hexagon": ("hexagon_contrast5", ["mesh.h=0.01"]),
}
WARMUP = 3


def child(src):
    """Serve requests on stdin: ``factor NAME`` answers with the seconds
    of one factorization, ``solve NAME`` with the hex bytes of the
    certified answer for the operator's stimulus load."""
    sys.path.insert(0, src)
    from morphopt import config, elasticity
    from morphopt.fields import DesignField, StimulusField
    from morphopt.linsolve import solve_spd

    systems = {}
    for name, (config_name, overrides) in OPERATORS.items():
        spec = config.load_shipped_config(config_name, overrides=overrides)
        mesh = spec.build_mesh()
        design = DesignField.constant(mesh.n_nodes, 0.3, 0.3)
        fixed = mesh.dirichlet_dofs()
        K = elasticity.assemble_stiffness(mesh, design, spec.phases, fixed)
        f = elasticity.assemble_stimulus_load(
            mesh, design, spec.phases,
            StimulusField(np.ones((spec.n_cases, mesh.n_nodes))))
        f[fixed] = 0.0
        for _ in range(WARMUP):
            elasticity.factorize(mesh, K, fixed)
        systems[name] = (mesh, K, fixed, f)
    print("ready", flush=True)
    for line in sys.stdin:
        command, name = line.split()
        mesh, K, fixed, f = systems[name]
        if command == "factor":
            t = time.perf_counter()
            elasticity.factorize(mesh, K, fixed)
            print(repr(time.perf_counter() - t), flush=True)
        else:
            x = solve_spd(K, f, factor=elasticity.factorize(mesh, K, fixed))
            print(x.tobytes().hex(), flush=True)


def sign_test(wins, n):
    """Two-sided probability that n fair coin flips give a count of
    heads at least as far from n / 2 as ``wins``."""
    k = min(wins, n - wins)
    return min(1.0, 2 * sum(math.comb(n, i) for i in range(k + 1)) / 2 ** n)


class Tree:
    """A child process serving one source tree."""

    def __init__(self, src):
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--child",
             os.path.abspath(src)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env)
        if self.proc.stdout.readline().strip() != "ready":
            sys.exit(f"{src}: the child failed to set up its operators")

    def ask(self, command, name):
        self.proc.stdin.write(f"{command} {name}\n")
        self.proc.stdin.flush()
        answer = self.proc.stdout.readline().strip()
        if not answer:
            sys.exit(f"the child stopped on: {command} {name}")
        return answer

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--base", help="src directory of the base")
    ap.add_argument("--change", help="src directory of the change")
    ap.add_argument("--pairs", type=int, default=40)
    ap.add_argument("--child", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        child(args.child)
        return
    if not (args.base and args.change):
        ap.error("--base and --change are required")
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    base, change = Tree(args.base), Tree(args.change)
    try:
        for name in OPERATORS:
            times = {base: [], change: []}
            for p in range(args.pairs):
                for tree in ((base, change) if p % 2 == 0 else (change, base)):
                    times[tree].append(float(tree.ask("factor", name)))
            a, b = np.array(times[base]), np.array(times[change])
            xa, xb = (np.frombuffer(bytes.fromhex(tree.ask("solve", name)))
                      for tree in (base, change))
            print(json.dumps({
                "operator": name, "pairs": args.pairs,
                "base_ms": 1e3 * float(np.median(a)),
                "change_ms": 1e3 * float(np.median(b)),
                "base_iqr_ms": 1e3 * float(np.subtract(
                    *np.percentile(a, [75, 25]))),
                "change_faster": float(np.mean(b < a)),
                "change_faster_p": sign_test(int(np.sum(b < a)), args.pairs),
                "solve_rel_diff": float(np.max(np.abs(xb - xa))
                                        / np.max(np.abs(xa)))}))
    finally:
        base.close()
        change.close()


if __name__ == "__main__":
    main()
