"""Run orchestration: execute a ProblemSpec and write the artifact bundle.

Artifacts: per-iteration history CSV, resolved-config echo, VTK snapshots
at the export cadence (iterations 0, k, 2k, ..., final), final fields as
VTK + npz, one composite PPM per load case (deformed at the largest scale
up to 1 that folds no triangle), and a summary file whose totals equal
the last CSV row.
"""

import csv
import os
from dataclasses import dataclass

import numpy as np

from .config import echo_config
from .errors import MorphoptError
from .fields import DesignField, StimulusField
from .optimizer import run_monolithic, run_staggered
from .render import composite_export, fold_free_scale
from .vtk_io import write_vtk

HISTORY_COLUMNS = ("iter", "total", "tracking", "perimeter", "volume_penalty",
                   "stimulus_penalty", "|g_rho|", "|g_s|", "step",
                   "vol_frac2", "vol_frac3")


@dataclass
class RunArtifacts:
    out_dir: str
    history_path: str
    config_path: str
    summary_path: str
    snapshot_paths: list
    composite_paths: list
    # deformation scale of each composite: 1, or less where 1 folds triangles
    composite_scales: list
    fields_path: str
    history: list
    status: str
    design: DesignField
    stimulus: StimulusField
    summary: dict


def _history_row(rec):
    b = rec.breakdown
    return (rec.iteration, b.total, b.tracking, b.perimeter, b.volume_penalty,
            b.stimulus_penalty, rec.grad_norm_design, rec.grad_norm_stimulus,
            rec.step, rec.vol_frac2, rec.vol_frac3)


def write_history_csv(path, history):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, quoting=csv.QUOTE_MINIMAL)
        writer.writerow(HISTORY_COLUMNS)
        for rec in history:
            row = _history_row(rec)
            writer.writerow([row[0]] + [repr(float(v)) for v in row[1:]])
    return path


def run(spec, out_dir=None):
    """Execute the problem and write all artifacts; returns RunArtifacts."""
    out_dir = out_dir or spec.output_dir
    # a mesh error leaves no output directory behind
    mesh = spec.build_mesh()
    spec.params.warn_if_unresolved(mesh.cell_size)
    os.makedirs(out_dir, exist_ok=True)

    nn = mesh.n_nodes
    design0 = DesignField.constant(nn, spec.initial_rho2, spec.initial_rho3)
    stimulus0 = StimulusField(
        np.full((spec.n_cases, nn), spec.initial_stimulus))
    targets = spec.target_array()

    snapshots = []
    records = []

    def snapshot(iteration, ev):
        """VTK snapshot of an Evaluation: fields, states and adjoints."""
        scalars = {"rho2": ev.design.rho2, "rho3": ev.design.rho3}
        vectors = {}
        for j in range(ev.stimulus.n_cases):
            scalars[f"s{j + 1}"] = ev.stimulus.s[j]
            vectors[f"u{j + 1}"] = ev.state.u[j]
            vectors[f"lambda{j + 1}"] = ev.lambdas[j]
        snapshots.append(write_vtk(
            os.path.join(out_dir, f"snapshot_{iteration:06d}.vtk"), mesh,
            scalars, vectors))

    def on_iterate(rec, ev):
        records.append(rec)
        if rec.iteration % spec.export_every == 0:
            snapshot(rec.iteration, ev)

    runner = run_staggered if spec.scheme == "staggered" else run_monolithic
    try:
        design, stim, history, result = runner(
            mesh, spec.phases, spec.params, targets, spec.optimizer,
            design0=design0, stimulus0=stimulus0, on_iterate=on_iterate)
    except MorphoptError as exc:
        # keep the artifacts gathered so far plus an error report
        write_history_csv(os.path.join(out_dir, "history.csv"), records)
        with open(os.path.join(out_dir, "error_report.txt"), "w") as fh:
            fh.write(f"{type(exc).__name__}: {exc}\n")
        raise

    # the accepted point the scheme returned, after any stimulus update
    final_ev = result.evaluation
    last_iter = history[-1].iteration
    if last_iter % spec.export_every != 0:
        snapshot(last_iter, final_ev)

    history_path = write_history_csv(os.path.join(out_dir, "history.csv"),
                                     history)
    config_path = os.path.join(out_dir, "config_resolved.cfg")
    with open(config_path, "w") as fh:
        fh.write(echo_config(spec))

    fields_path = os.path.join(out_dir, "final_fields.npz")
    np.savez(fields_path, nodes=mesh.nodes, triangles=mesh.triangles,
             dirichlet_nodes=mesh.dirichlet_nodes,
             target_elements=mesh.target_elements, cell_size=mesh.cell_size,
             rho2=design.rho2, rho3=design.rho3, s=stim.s,
             u=final_ev.state.u, lam=final_ev.lambdas)

    composites, scales = [], []
    for j in range(stim.n_cases):
        path = os.path.join(out_dir, f"composite_case{j + 1}.ppm")
        u_j = final_ev.state.u[j]
        scales.append(fold_free_scale(mesh, u_j))
        composite_export(mesh, design, stim.s[j], u_j, scale=scales[-1],
                         path=path)
        composites.append(path)

    final = history[-1]
    last = dict(zip(HISTORY_COLUMNS, _history_row(final)))
    summary = {"iterations": final.iteration, "status": result.status, **{
        key: last[key] for key in ("total", "tracking", "perimeter",
                                   "volume_penalty", "stimulus_penalty",
                                   "vol_frac2", "vol_frac3")}}
    summary_path = os.path.join(out_dir, "summary.txt")
    with open(summary_path, "w") as fh:
        for key, value in summary.items():
            fh.write(f"{key} = {value!r}\n" if isinstance(value, float)
                     else f"{key} = {value}\n")

    return RunArtifacts(
        out_dir=out_dir, history_path=history_path, config_path=config_path,
        summary_path=summary_path, snapshot_paths=snapshots,
        composite_paths=composites, composite_scales=scales,
        fields_path=fields_path, history=history,
        status=result.status, design=design, stimulus=stim, summary=summary,
    )
