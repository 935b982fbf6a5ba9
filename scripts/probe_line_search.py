"""Line-search counts of perfbench's designs of one workload.

    python3 scripts/probe_line_search.py --workload NAME [--src SRC]

Runs every one of perfbench's ``VARIANTS`` initial designs of the workload
through ``runner.run`` in this process, one after the other, with the
config text that ``make_config`` in ``perfbench/run.py`` writes for it and
the artifacts in a temporary directory.  Prints one JSON line per design
and one with the totals over the designs:

- ``iterates``: the accepted outer iterates (``BncgResult.iterations``);
- ``evaluated``: the line-search trials that reached ``value_fn``, the
  count perfbench's tracer reports as ``optimizer.ls_trials``;
- ``bound_rejections``: the trials that ``bncg_minimize`` rejected on the
  state-free lower bound without calling ``value_fn`` (null on a tree
  whose ``BncgResult`` does not count them);
- ``factorizations``: the ``BlockCholesky`` builds of the run.

The counts are exact and the same on every run of a tree.  ``--src``
selects the source tree, so two versions of the library can be counted
with the same script; the configs always come from this checkout.
"""

import argparse
import importlib.util
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.join(os.path.dirname(HERE), "perfbench")


def perfbench_run():
    """perfbench/run.py as a module (it imports its sibling tracer.py)."""
    sys.path.insert(0, PERFBENCH)
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(PERFBENCH, "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def count_runs(bench, workload):
    """The per-design counts of ``workload``, one dict per design."""
    from morphopt import config, linsolve, optimizer, runner

    counts = {}
    factor_init = linsolve.BlockCholesky.__init__

    def counted_init(self, *a, **kw):
        counts["factorizations"] += 1
        factor_init(self, *a, **kw)
    linsolve.BlockCholesky.__init__ = counted_init

    inner = optimizer.bncg_minimize

    def counted_bncg(value_fn, *a, **kw):
        def counted_value_fn(x):
            counts["evaluated"] += 1
            return value_fn(x)
        result = inner(counted_value_fn, *a, **kw)
        counts["iterates"] = result.iterations
        counts["bound_rejections"] = getattr(result, "bound_rejections",
                                             None)
        return result
    optimizer.bncg_minimize = counted_bncg

    rows = []
    for variant in range(bench.VARIANTS):
        counts.update(factorizations=0, evaluated=0)
        spec = config.parse_config(text=bench.make_config(workload, variant))
        with tempfile.TemporaryDirectory() as tmp:
            runner.run(spec, out_dir=tmp)
        rows.append({"design": variant,
                     "rho2_rho3": bench.variant_design(variant), **counts})
    return rows


def main():
    bench = perfbench_run()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(bench.WORKLOADS),
                    required=True)
    ap.add_argument("--src", default=os.path.join(os.path.dirname(HERE),
                                                  "src"))
    args = ap.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))
    rows = count_runs(bench, args.workload)
    for row in rows:
        print(json.dumps(row))
    keys = ("iterates", "evaluated", "bound_rejections", "factorizations")
    print(json.dumps({"workload": args.workload, "designs": len(rows), **{
        key: None if any(row[key] is None for row in rows)
        else sum(row[key] for row in rows) for key in keys}}))


if __name__ == "__main__":
    main()
