"""Command-line interface.

Subcommands: run, check-gradient, profile-oracle, render, mesh-info.
"""

import argparse
import contextlib
import sys

import numpy as np

from . import verify
from .config import (load_shipped_config, parse_config, shipped_config_names)
from .errors import MorphoptError
from .fields import DesignField
from .mesh import Mesh
from .render import composite_export, fold_free_scale


@contextlib.contextmanager
def forbid_numpy_random():
    """Assert that no numpy randomness is drawn inside the block: every
    callable of ``numpy.random.__all__`` raises until the block exits."""
    def raiser(*args, **kwargs):
        raise MorphoptError("randomness requested during a run")

    saved = {name: getattr(np.random, name) for name in np.random.__all__}
    for name in saved:
        setattr(np.random, name, raiser)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(np.random, name, value)


def _load_spec(args):
    overrides = args.override or ()
    if args.config in shipped_config_names():
        return load_shipped_config(args.config, overrides=overrides)
    return parse_config(args.config, overrides=overrides)


def _cmd_run(args):
    from . import runner

    spec = _load_spec(args)
    with forbid_numpy_random():
        artifacts = runner.run(spec, out_dir=args.out)
    print(f"status,{artifacts.status}")
    print(f"iterations,{artifacts.summary['iterations']}")
    print(f"total,{artifacts.summary['total']!r}")
    print(f"out_dir,{artifacts.out_dir}")
    for j, scale in enumerate(artifacts.composite_scales):
        print(f"composite_scale_case{j + 1},{scale!r}")
    return 0


def _cmd_check_gradient(args):
    if args.config:
        spec = _load_spec(args)
    else:
        # the desk cantilever at cell size h, interface width 2h, then --override
        h = args.h
        if not 0 < h < np.inf:
            raise MorphoptError(f"--h must be finite and > 0, got {h!r}")
        spec = load_shipped_config("cantilever_desk_staggered", overrides=[
            f"mesh.h={h!r}", f"regularization.epsilon={2 * h!r}",
            *(args.override or ())])
    result = verify.fd_gradient_check(spec.build_mesh(), spec.phases,
                                      spec.params, spec.target_array(),
                                      trials=args.trials, delta=args.delta,
                                      seed=args.seed)
    print("block,max_relative_error")
    print(f"design,{result.design_error!r}")
    print(f"stimulus,{result.stimulus_error!r}")
    return 0 if result.max_error <= 1e-5 else 1


def _cmd_profile_oracle(args):
    try:
        epsilons = [float(tok) for tok in args.epsilons.split(",") if tok]
    except ValueError as exc:
        raise MorphoptError(f"--epsilons: {exc}") from None
    rows = verify.profile_coefficient(epsilons, n_intervals=args.intervals,
                                      span_factor=args.span,
                                      potential=args.potential)
    print("epsilon,energy_per_unit_interface")
    for eps, energy in rows:
        print(f"{eps!r},{energy!r}")
    return 0


# the final_fields.npz arrays render reads
RENDER_KEYS = ("nodes", "triangles", "dirichlet_nodes", "target_elements",
               "cell_size", "rho2", "rho3", "s", "u")


def _load_artifacts(path):
    """The arrays of a run's final_fields.npz that render reads."""
    try:
        archive = np.load(path)
    except (OSError, ValueError) as exc:
        raise MorphoptError(f"cannot read artifacts {path}: {exc}") from None
    if not isinstance(archive, np.lib.npyio.NpzFile):
        raise MorphoptError(f"artifacts {path} are not an .npz archive")
    with archive:
        found = {key: archive[key] for key in RENDER_KEYS
                 if key in archive.files}
    missing = [key for key in RENDER_KEYS if key not in found]
    if missing:
        raise MorphoptError(
            f"artifacts {path} lack the key(s) {', '.join(missing)}")
    return found


def _cmd_render(args):
    data = _load_artifacts(args.artifacts)
    mesh = Mesh(data["nodes"], data["triangles"], data["dirichlet_nodes"],
                data["target_elements"], data["cell_size"])
    design = DesignField(data["rho2"], data["rho3"])
    j = args.case - 1
    s = data["s"]
    u = data["u"]
    if s.ndim != 2:
        raise MorphoptError(f"s has shape {s.shape}, not (cases, nodes)")
    if u.ndim != 3 or u.shape[0] != s.shape[0] or u.shape[2] != 2:
        raise MorphoptError(
            f"u has shape {u.shape}, not ({s.shape[0]}, nodes, 2)")
    if not 0 <= j < s.shape[0]:
        raise MorphoptError(f"case {args.case} out of range (1..{s.shape[0]})")
    # the scale rule of `morphopt run`, unless the user names one
    scale = fold_free_scale(mesh, u[j]) if args.scale is None else args.scale
    composite_export(mesh, design, s[j], u[j], scale=scale, path=args.out,
                     width=args.width)
    print(f"written,{args.out}")
    return 0


def _cmd_mesh_info(args):
    spec = _load_spec(args)
    mesh = spec.build_mesh()
    print("key,value")
    print(f"nodes,{mesh.n_nodes}")
    print(f"triangles,{mesh.n_triangles}")
    print(f"area,{mesh.area!r}")
    print(f"cell_size,{mesh.cell_size!r}")
    print(f"dirichlet_nodes,{len(mesh.dirichlet_nodes)}")
    print(f"target_elements,{len(mesh.target_elements)}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="morphopt",
        description="Phase-field co-design of material layout and stimulus "
                    "for compliant morphing structures.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an optimization problem")
    p_run.add_argument("--config", required=True,
                       help="config file path or shipped config name")
    p_run.add_argument("--override", action="append", metavar="KEY=VALUE",
                       help="override a config value (section.key=value)")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.set_defaults(func=_cmd_run)

    p_chk = sub.add_parser("check-gradient",
                           help="finite-difference check of both gradients")
    p_chk.add_argument("--config", default=None,
                       help="optional config (default: desk cantilever)")
    p_chk.add_argument("--override", action="append", metavar="KEY=VALUE")
    p_chk.add_argument("--h", type=float, default=1.0 / 20.0,
                       help="cell size of the default problem")
    p_chk.add_argument("--trials", type=int, default=20)
    p_chk.add_argument("--delta", type=float, default=1e-6)
    p_chk.add_argument("--seed", type=int, default=0)
    p_chk.set_defaults(func=_cmd_check_gradient)

    p_prof = sub.add_parser("profile-oracle",
                            help="1D optimal-profile perimeter coefficient")
    p_prof.add_argument("--epsilons", default="0.08,0.04,0.02")
    p_prof.add_argument("--intervals", type=int, default=4000)
    p_prof.add_argument("--span", type=float, default=40.0)
    p_prof.add_argument("--potential", choices=("triple", "double"),
                        default="triple")
    p_prof.set_defaults(func=_cmd_profile_oracle)

    p_rnd = sub.add_parser("render",
                           help="composite plot from saved run artifacts")
    p_rnd.add_argument("--artifacts", required=True,
                       help="final_fields.npz from a run")
    p_rnd.add_argument("--case", type=int, default=1)
    p_rnd.add_argument("--scale", type=float, default=None,
                       help="deformation scale (default: the largest scale "
                            "up to 1 that folds no triangle, as in run)")
    p_rnd.add_argument("--width", type=int, default=480)
    p_rnd.add_argument("--out", required=True, help="output .ppm path")
    p_rnd.set_defaults(func=_cmd_render)

    p_info = sub.add_parser("mesh-info", help="mesh statistics for a config")
    p_info.add_argument("--config", required=True)
    p_info.add_argument("--override", action="append", metavar="KEY=VALUE")
    p_info.set_defaults(func=_cmd_mesh_info)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MorphoptError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
