"""Record reference.json: the final objective of every workload and
initial design, from one untraced run each (two runs at a time).

    python3 perfbench/record_reference.py

Re-record only when the workloads themselves change; a change to the
library must match the recorded values.
"""

import json
import os
from concurrent.futures import ThreadPoolExecutor

import run

REL_TOL = 1e-3


def record(workload, variant):
    work_dir = os.path.join(run.OUT, "reference", f"{workload}-{variant}")
    os.makedirs(work_dir, exist_ok=True)
    cfg_path = os.path.join(work_dir, "problem.cfg")
    with open(cfg_path, "w") as fh:
        fh.write(run.make_config(workload, variant))
    report, error, _ = run.run_child("run", cfg_path,
                                     os.path.join(work_dir, "run"),
                                     run.DEADLINE_S)
    if report is None or not all(report["checks"].values()):
        raise RuntimeError(f"{workload} design {variant}: "
                           f"{error or report['checks']}")
    rho2, rho3 = run.variant_design(variant)
    return {"rho2": rho2, "rho3": rho3, "value": report["final_objective"],
            "status": report["status"], "iterates": report["iterates"]}


def main():
    jobs = [(w, v) for w in run.WORKLOADS for v in range(run.VARIANTS)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(lambda job: record(*job), jobs))
    table = {w: {} for w in run.WORKLOADS}
    for (w, v), entry in zip(jobs, results):
        table[w][str(v)] = entry
    with open(os.path.join(run.HERE, "reference.json"), "w") as fh:
        json.dump({"rel_tol": REL_TOL, "final_objective": table}, fh,
                  indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
