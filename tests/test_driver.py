import configparser
import contextlib
import io
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from morphopt import cli, optimizer, render, runner, sensitivity, vtk_io
from morphopt.config import (echo_config, load_shipped_config, parse_config,
                             shipped_config_names, shipped_config_text)
from morphopt.elasticity import solve_adjoint, solve_state
from morphopt.errors import ConfigError, MorphoptError, NonFiniteValueError
from morphopt.fields import DesignField
from morphopt.mesh import build_hexagon_mesh, build_rect_mesh
from morphopt.render import (BACKGROUND, PPM_BLOCK_ROWS, composite_image,
                             fold_free_scale, stimulus_color, write_ppm)
from morphopt.vtk_io import LINES_PER_WRITE, write_vtk

SRC = Path(__file__).resolve().parent.parent / "src"

TINY_CFG = """[domain]
type = rect
lx = 1.0
ly = 0.3333333333333333
dirichlet_side = left

[mesh]
h = 0.1

[target]
x0 = 0.8
y0 = 0.1
x1 = 1.0
y1 = 0.23333333333333334

[displacements]
count = 1
u1 = 0.0 1.0

[phases]
eta = 0.0001

[phases.passive]
young = 5.0
poisson = 0.3

[phases.responsive]
young = 5.0
poisson = 0.3
beta = 1.0

[regularization]
epsilon = 0.2
alpha = 0.0006
nu2 = 0.1
nu3 = 0.3

[optimizer]
scheme = staggered
max_outer_iters = 6

[output]
directory = out
export_every = 2
"""


def _ini(text):
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    cp.read_string(text)
    return cp


@pytest.fixture
def tiny_cfg(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CFG)
    return path


class TestConfigParsing:
    def test_shipped_cantilever_matches_reference_values(self):
        spec = load_shipped_config("cantilever_staggered")
        assert spec.domain_type == "rect"
        assert spec.lx == 1.0 and spec.ly == pytest.approx(1 / 3)
        assert spec.h == 2e-3
        assert spec.params.epsilon == 2e-3
        assert spec.params.alpha == 6e-4
        assert spec.params.nu2 == 0.1 and spec.params.nu3 == 0.3
        assert spec.targets == ((0.0, 1.0),)
        assert spec.phases.passive.young == 5.0
        assert spec.phases.responsive.young == 5.0
        assert spec.phases.responsive.beta == 1.0
        x0, y0, x1, y1 = spec.target_box
        assert x0 == pytest.approx(1 - 1 / 15)
        assert (y0, y1) == (pytest.approx(1 / 6 - 1 / 30), pytest.approx(0.2))

    def test_shipped_hexagon_matches_reference_values(self):
        spec = load_shipped_config("hexagon_contrast10")
        assert spec.domain_type == "hexagon"
        assert spec.edge == 0.35 and spec.target_edge == 0.035
        assert spec.params.alpha == 3.5e-4
        assert spec.params.nu2 == 0.7 and spec.params.nu3 == 0.03
        assert spec.phases.passive.young == 5e-2
        assert spec.phases.responsive.young == 5e-3
        t = spec.target_array()
        s32 = np.sqrt(3.0) / 2.0
        np.testing.assert_allclose(
            t, [[1.0, 0.0], [-0.5, s32], [-0.5, -s32]], atol=1e-15)

    def test_poisson_out_of_range_names_key(self, tmp_path):
        bad = TINY_CFG.replace("poisson = 0.3\nbeta = 1.0", "poisson = 0.7\nbeta = 1.0")
        with pytest.raises(ConfigError, match="phases.responsive.poisson"):
            parse_config(text=bad)

    # q_weight, armijo_c and solver_tol are removed settings, rejected as
    # unknown keys
    @pytest.mark.parametrize("override", [
        "regularization.alpha=nan", "regularization.epsilon=inf",
        "regularization.nu2=nan", "regularization.q_weight=-inf",
        "mesh.h=inf", "phases.eta=nan", "phases.passive.young=inf",
        "displacements.u1=nan 1.0", "target.x0=nan", "initial.rho2=nan",
        "optimizer.armijo_c=nan", "optimizer.solver_tol=inf"])
    def test_non_finite_number_names_key(self, tiny_cfg, override, capsys):
        key = override.split("=")[0]
        with pytest.raises(ConfigError, match=key):
            parse_config(text=TINY_CFG, overrides=[override])
        code = cli.main(["run", "--config", str(tiny_cfg), "--override",
                         override, "--out", str(tiny_cfg.parent / "out")])
        assert code == 2
        assert key in capsys.readouterr().err
        assert not (tiny_cfg.parent / "out").exists()

    # the removed line-search settings, restart_period, solver_tol and the
    # three tolerances (grad_rtol, grad_atol, obj_rtol) stay listed: as
    # unknown keys they must still exit 2 naming the key
    @pytest.mark.parametrize("override", [
        "optimizer.max_outer_iters=-3", "optimizer.restart_period=0",
        "optimizer.max_ls_trials=0", "optimizer.obj_stall_window=0",
        "optimizer.backtrack_factor=1", "optimizer.armijo_c=0",
        "optimizer.initial_step=0", "optimizer.step_growth=-2",
        "optimizer.grad_rtol=-1e-6", "optimizer.grad_atol=-1",
        "optimizer.obj_rtol=-1e-9", "optimizer.solver_tol=-1",
        "optimizer.solver_tol=0", "regularization.nu3=-0.1",
        "phases.eta=-1", "phases.eta=0.5", "phases.passive.young=-1",
        "phases.passive.poisson=0.5", "phases.responsive.beta=-1"])
    def test_invalid_setting_names_key(self, tiny_cfg, override, capsys):
        key = override.split("=")[0]
        with pytest.raises(ConfigError, match=key):
            parse_config(text=TINY_CFG, overrides=[override])
        code = cli.main(["run", "--config", str(tiny_cfg), "--override",
                         override, "--out", str(tiny_cfg.parent / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err
        assert not (tiny_cfg.parent / "out").exists()

    @pytest.mark.parametrize("override", [
        "optimizer.armijo_c=0.1", "optimizer.backtrack_factor=0.5",
        "optimizer.max_ls_trials=40", "optimizer.obj_stall_window=5",
        "optimizer.initial_step=1", "optimizer.step_growth=2",
        "regularization.q_weight=1", "phases.passive.beta=0",
        "optimizer.solver_tol=1e-12"])
    def test_removed_setting_is_an_unknown_key(self, tiny_cfg, override,
                                               capsys):
        # line-search constants, the stimulus-penalty scale, the passive
        # beta and the solver tolerance have one value on every path; no
        # key sets them
        key = override.split("=")[0]
        with pytest.raises(ConfigError, match=f"unknown key.*{key}"):
            parse_config(text=TINY_CFG, overrides=[override])
        code = cli.main(["run", "--config", str(tiny_cfg), "--override",
                         override, "--out", str(tiny_cfg.parent / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err

    def test_zero_iterations_stay_valid(self):
        spec = parse_config(text=TINY_CFG,
                            overrides=["optimizer.max_outer_iters=0"])
        assert spec.optimizer.max_outer_iters == 0

    def test_stimulus_mode_is_an_unknown_key(self, tiny_cfg, capsys):
        # the nodal closed form is the only stimulus update
        with pytest.raises(ConfigError, match="unknown key.*stimulus_mode"):
            parse_config(text=TINY_CFG,
                         overrides=["optimizer.stimulus_mode=nodal"])
        code = cli.main(["run", "--config", str(tiny_cfg), "--override",
                         "optimizer.stimulus_mode=nodal",
                         "--out", str(tiny_cfg.parent / "out")])
        assert code == 2
        assert "optimizer.stimulus_mode" in capsys.readouterr().err

    def test_unknown_key_rejected(self):
        bad = TINY_CFG.replace("h = 0.1", "h = 0.1\nhh = 2")
        with pytest.raises(ConfigError, match="mesh.hh"):
            parse_config(text=bad)

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="extras"):
            parse_config(text=TINY_CFG + "\n[extras]\nfoo = 1\n")

    def test_missing_required_key(self):
        bad = TINY_CFG.replace("count = 1\nu1 = 0.0 1.0", "count = 1")
        with pytest.raises(ConfigError, match="displacements.u1"):
            parse_config(text=bad)

    @pytest.mark.parametrize("text,named", [
        pytest.param(TINY_CFG.replace("[mesh]\nh = 0.1\n", ""),
                     r"missing required section \[mesh\]",
                     id="missing-section"),
        pytest.param(TINY_CFG.replace("h = 0.1", "h = 0.1\nh = 0.2"),
                     "option 'h' in section 'mesh'", id="repeated-key"),
        pytest.param(TINY_CFG + "\n[mesh]\nh = 0.2\n", "section 'mesh'",
                     id="repeated-section")])
    def test_malformed_layout_names_its_place(self, tmp_path, capsys, text,
                                              named):
        with pytest.raises(ConfigError, match=named):
            parse_config(text=text)
        bad = tmp_path / "bad.cfg"
        bad.write_text(text)
        assert cli.main(["mesh-info", "--config", str(bad)]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert re.search(named, lines[0])

    def test_bad_scheme_rejected(self):
        bad = TINY_CFG.replace("scheme = staggered", "scheme = parallel")
        with pytest.raises(ConfigError, match="scheme"):
            parse_config(text=bad)

    @pytest.mark.parametrize("name", sorted(shipped_config_names()))
    def test_every_shipped_config_round_trips(self, name):
        spec = load_shipped_config(name)
        assert parse_config(text=echo_config(spec)) == spec

    @pytest.mark.parametrize("name", sorted(shipped_config_names()))
    def test_echo_holds_every_shipped_key(self, name):
        # each key of the file is echoed, and its echoed text parses to the
        # value the file gives it
        text = shipped_config_text(name)
        spec = parse_config(text=text)
        shipped, echoed = _ini(text), _ini(echo_config(spec))
        for section in shipped.sections():
            for key in shipped[section]:
                assert key in echoed[section], f"{section}.{key}"
                value = echoed[section][key]
                assert parse_config(text=text, overrides=[
                    f"{section}.{key}={value}"]) == spec, f"{section}.{key}"

    def test_overrides(self):
        spec = parse_config(text=TINY_CFG,
                            overrides=["regularization.nu2=0.5",
                                       "optimizer.max_outer_iters=3"])
        assert spec.params.nu2 == 0.5
        assert spec.optimizer.max_outer_iters == 3

    def test_bad_override_format(self):
        with pytest.raises(ConfigError, match="override"):
            parse_config(text=TINY_CFG, overrides=["nonsense"])

    def test_readme_grammar_parses(self):
        # the documented grammar lists no key the parser rejects
        readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
        with open(readme) as fh:
            block = fh.read().split("```ini\n", 1)[1].split("```", 1)[0]
        text = "\n".join(line.split(";", 1)[0].rstrip()
                         for line in block.splitlines())
        spec = parse_config(text=text)
        assert spec.scheme == "staggered" and spec.export_every == 50


class TestRunner:
    def test_artifacts_written(self, tiny_cfg, tmp_path):
        spec = parse_config(tiny_cfg)
        out = tmp_path / "run1"
        art = runner.run(spec, out_dir=str(out))
        assert os.path.exists(art.history_path)
        assert os.path.exists(art.config_path)
        assert os.path.exists(art.summary_path)
        assert os.path.exists(art.fields_path)
        for p in art.snapshot_paths + art.composite_paths:
            assert os.path.exists(p)
        # resolved config parses back to the same spec
        assert parse_config(art.config_path) == spec

    def test_snapshot_cadence_exact(self, tiny_cfg, tmp_path):
        spec = parse_config(tiny_cfg)
        art = runner.run(spec, out_dir=str(tmp_path / "run2"))
        last = art.history[-1].iteration
        expected = {it for it in range(0, last + 1, spec.export_every)}
        expected.add(last)
        got = {int(os.path.basename(p)[len("snapshot_"):-4])
               for p in art.snapshot_paths}
        assert got == expected

    def test_rerun_byte_identical_history(self, tiny_cfg, tmp_path):
        spec = parse_config(tiny_cfg)
        a = runner.run(spec, out_dir=str(tmp_path / "a"))
        b = runner.run(spec, out_dir=str(tmp_path / "b"))
        with open(a.history_path, "rb") as fa, open(b.history_path, "rb") as fb:
            assert fa.read() == fb.read()

    def test_summary_equals_last_csv_row(self, tiny_cfg, tmp_path):
        spec = parse_config(tiny_cfg)
        art = runner.run(spec, out_dir=str(tmp_path / "run3"))
        lines = open(art.history_path).read().strip().splitlines()
        header = lines[0].split(",")
        last = lines[-1].split(",")
        row = dict(zip(header, last))
        assert int(row["iter"]) == art.summary["iterations"]
        assert float(row["total"]) == art.summary["total"]
        assert float(row["tracking"]) == art.summary["tracking"]
        assert float(row["vol_frac2"]) == art.summary["vol_frac2"]

    @pytest.mark.parametrize("overrides, status", [
        ((), "maxiter"),
        # the stimulus update at iterate 0 is committed after its record
        (("optimizer.max_outer_iters=0",), "maxiter"),
        # the last evaluation made is a rejected line-search trial: one
        # trial per search at a huge first step forces the stall
        ((), "stalled")])
    def test_final_fields_are_fresh_solves(self, tiny_cfg, tmp_path,
                                           monkeypatch, overrides, status):
        if status == "stalled":
            monkeypatch.setattr(optimizer, "MAX_LS_TRIALS", 1)
            monkeypatch.setattr(optimizer, "INITIAL_STEP", 1e6)
        spec = parse_config(tiny_cfg, overrides=overrides)
        art = runner.run(spec, out_dir=str(tmp_path / "run"))
        assert art.status == status
        assert np.any(art.stimulus.s != spec.initial_stimulus)
        mesh = spec.build_mesh()
        state = solve_state(mesh, art.design, spec.phases, art.stimulus)
        lams = solve_adjoint(mesh, state, spec.target_array())
        data = np.load(art.fields_path)
        np.testing.assert_array_equal(data["s"], art.stimulus.s)
        np.testing.assert_array_equal(data["u"], np.stack(state.u))
        np.testing.assert_array_equal(data["lam"], np.stack(lams))

    def test_non_finite_objective_fails_loudly(self, tiny_cfg, tmp_path,
                                               monkeypatch, capsys):
        # a NaN total from the third evaluation on (a line-search trial)
        real, calls = sensitivity.total, []

        def nan_total(*args, **kwargs):
            calls.append(None)
            b = real(*args, **kwargs)
            return b if len(calls) < 3 else replace(b, total=float("nan"))
        monkeypatch.setattr(sensitivity, "total", nan_total)
        spec = parse_config(tiny_cfg)
        with pytest.raises(NonFiniteValueError):
            runner.run(spec, out_dir=str(tmp_path / "run"))
        report = (tmp_path / "run" / "error_report.txt").read_text()
        assert report.startswith("NonFiniteValueError")
        assert (tmp_path / "run" / "history.csv").exists()
        calls.clear()
        code = cli.main(["run", "--config", str(tiny_cfg),
                         "--out", str(tmp_path / "cli")])
        assert code == 2
        assert "non-finite" in capsys.readouterr().err
        assert (tmp_path / "cli" / "error_report.txt").exists()

    def test_hexagon_multicase_run(self, tmp_path):
        from morphopt.config import load_shipped_config

        spec = load_shipped_config(
            "hexagon_contrast10",
            overrides=["mesh.h=0.05", "regularization.epsilon=0.1",
                       "optimizer.max_outer_iters=3",
                       "output.export_every=2"])
        art = runner.run(spec, out_dir=str(tmp_path / "hex"))
        assert len(art.composite_paths) == 3          # one per load case
        text = open(art.snapshot_paths[0]).read()
        for name in ("s1", "s2", "s3", "u1", "u3", "lambda2"):
            assert name in text

    def test_history_columns(self, tiny_cfg, tmp_path):
        spec = parse_config(tiny_cfg)
        art = runner.run(spec, out_dir=str(tmp_path / "run4"))
        header = open(art.history_path).readline().strip()
        assert header == ("iter,total,tracking,perimeter,volume_penalty,"
                          "stimulus_penalty,|g_rho|,|g_s|,step,"
                          "vol_frac2,vol_frac3")


class TestVtk:
    def test_export_structure(self, tmp_path):
        mesh = build_rect_mesh(1.0, 0.5, 0.25, "left", None)
        path = tmp_path / "m.vtk"
        write_vtk(path, mesh, {"rho2": np.zeros(mesh.n_nodes)},
                  {"u1": np.zeros((mesh.n_nodes, 2))})
        text = path.read_text().splitlines()
        assert text[0] == "# vtk DataFile Version 3.0"
        assert "DATASET UNSTRUCTURED_GRID" in text
        assert f"POINTS {mesh.n_nodes} double" in text
        assert f"CELLS {mesh.n_triangles} {4 * mesh.n_triangles}" in text
        idx = text.index(f"CELL_TYPES {mesh.n_triangles}")
        assert text[idx + 1] == "5"
        assert f"POINT_DATA {mesh.n_nodes}" in text
        assert "SCALARS rho2 double 1" in text
        assert "VECTORS u1 double" in text

    @pytest.mark.parametrize("lines_per_write", [1, 7, LINES_PER_WRITE])
    def test_chunked_writes_equal_one_join_per_section(self, tmp_path,
                                                       lines_per_write):
        mesh = build_rect_mesh(1.0, 1.0, 1.0 / 70.0, "left", None)
        assert mesh.n_nodes > LINES_PER_WRITE
        rng = np.random.default_rng(2)
        scalars = {"rho2": rng.normal(size=mesh.n_nodes),
                   "s1": np.r_[-0.0, 1e-300, np.zeros(mesh.n_nodes - 2)]}
        vectors = {"u1": rng.normal(size=(mesh.n_nodes, 2))}
        with mock.patch.object(vtk_io, "LINES_PER_WRITE", lines_per_write):
            write_vtk(tmp_path / "m.vtk", mesh, scalars, vectors)
        assert (tmp_path / "m.vtk").read_text() == reference_vtk_text(
            mesh, scalars, vectors)

    @pytest.mark.parametrize("lines_per_write", [5, LINES_PER_WRITE])
    def test_hexagon_sections_equal_one_join_per_section(self, tmp_path,
                                                         lines_per_write):
        mesh = build_hexagon_mesh(0.35, 0.01, 0.035)
        assert mesh.n_triangles > LINES_PER_WRITE
        rng = np.random.default_rng(3)
        scalars = {"rho3": rng.uniform(size=mesh.n_nodes) ** 7}
        vectors = {"u2": rng.normal(size=(mesh.n_nodes, 2)) * 1e-9,
                   "s": np.zeros((mesh.n_nodes, 2))}
        with mock.patch.object(vtk_io, "LINES_PER_WRITE", lines_per_write):
            write_vtk(tmp_path / "h.vtk", mesh, scalars, vectors)
        assert (tmp_path / "h.vtk").read_text() == reference_vtk_text(
            mesh, scalars, vectors)


def reference_vtk_text(mesh, scalars, vectors):
    """The VTK file as one str.format per line and one join per section:
    the oracle of write_vtk."""
    ref = ["# vtk DataFile Version 3.0", "morphopt fields", "ASCII",
           "DATASET UNSTRUCTURED_GRID", f"POINTS {mesh.n_nodes} double",
           "\n".join(f"{x!r} {y!r} 0.0" for x, y in mesh.nodes.tolist()),
           f"CELLS {mesh.n_triangles} {4 * mesh.n_triangles}",
           "\n".join(f"3 {a} {b} {c}"
                     for a, b, c in mesh.triangles.tolist()),
           "\n".join([f"CELL_TYPES {mesh.n_triangles}"]
                     + ["5"] * mesh.n_triangles),
           f"POINT_DATA {mesh.n_nodes}"]
    for name, arr in scalars.items():
        ref += [f"SCALARS {name} double 1", "LOOKUP_TABLE default",
                "\n".join(map(repr, arr.tolist()))]
    for name, arr in vectors.items():
        ref += [f"VECTORS {name} double",
                "\n".join(f"{x!r} {y!r} 0.0" for x, y in arr.tolist())]
    return "\n".join(ref) + "\n"


class TestRender:
    def setup_method(self):
        self.mesh = build_rect_mesh(1.0, 0.5, 0.25, "left", None)
        self.n = self.mesh.n_nodes
        self.u = np.zeros((self.n, 2))
        self.s = np.zeros(self.n)

    def test_all_void_is_blank(self):
        img = composite_image(self.mesh, DesignField.constant(self.n, 0, 0),
                              self.s, self.u, width=60)
        assert np.all(img == 255)

    def test_passive_is_black_silhouette(self):
        img = composite_image(self.mesh, DesignField.constant(self.n, 1, 0),
                              self.s, self.u, width=60)
        interior = img[img.shape[0] // 2, img.shape[1] // 2]
        np.testing.assert_array_equal(interior, [0, 0, 0])
        assert np.all((img == 255).all(axis=2) | (img == 0).all(axis=2))

    def test_responsive_saturated_is_red(self):
        img = composite_image(self.mesh, DesignField.constant(self.n, 0, 1),
                              np.ones(self.n), self.u, width=60)
        interior = img[img.shape[0] // 2, img.shape[1] // 2]
        np.testing.assert_array_equal(interior, [255, 0, 0])

    def test_colormap_endpoints(self):
        np.testing.assert_array_equal(stimulus_color(1.0), [255, 0, 0])
        np.testing.assert_array_equal(stimulus_color(-1.0), [0, 0, 255])
        np.testing.assert_array_equal(stimulus_color(0.0), [255, 255, 255])

    def test_inverted_triangle_warns_not_fatal(self):
        u = self.u.copy()
        u[:, 0] = -2.0 * self.mesh.nodes[:, 0]   # fold the domain over
        with pytest.warns(RuntimeWarning):
            composite_image(self.mesh, DesignField.constant(self.n, 1, 0),
                            self.s, u, width=40)

    def test_fold_free_scale(self):
        u = self.u.copy()
        u[:, 0] = -2.0 * self.mesh.nodes[:, 0]   # x (1 - 2 s): folds at 1/2
        scale = fold_free_scale(self.mesh, u)
        assert 0.5 * (1 - 1e-5) < scale < 0.5
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            composite_image(self.mesh, DesignField.constant(self.n, 1, 0),
                            self.s, u, scale=scale, width=40)
        assert fold_free_scale(self.mesh, 0.1 * u) == 1.0
        assert fold_free_scale(self.mesh, self.u) == 1.0

    def test_ppm_format(self, tmp_path):
        img = composite_image(self.mesh, DesignField.constant(self.n, 1, 0),
                              self.s, self.u, width=30)
        path = tmp_path / "img.ppm"
        write_ppm(path, img)
        lines = path.read_text().splitlines()
        assert lines[0] == "P3"
        w, h = (int(t) for t in lines[1].split())
        assert (h, w) == img.shape[:2]
        assert lines[2] == "255"
        assert len(lines) == 3 + w * h


def reference_composite_image(mesh, design, stimulus_j, displacement,
                              scale=1.0, width=480):
    """The per-triangle rasterizer the vectorized one replaced: one numpy
    pass over each triangle's pixel box, later triangles overwrite."""
    pts = mesh.nodes + scale * np.asarray(displacement, dtype=float)
    tri = mesh.triangles
    p = pts[tri]
    d1, d2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]

    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = np.maximum(hi - lo, 1e-12)
    pad = 0.02 * span.max()
    lo, hi = lo - pad, hi + pad
    span = hi - lo
    height = max(2, int(round(width * span[1] / span[0])))
    px = span[0] / width

    img = np.tile(BACKGROUND, (height, width, 1))
    r1 = np.asarray(design.rho1())
    node_color = (np.clip(r1, 0.0, 1.0)[:, None] * BACKGROUND[None, :]
                  + design.rho3[:, None] * stimulus_color(stimulus_j))
    node_weight = np.clip(r1, 0.0, 1.0) + design.rho2 + design.rho3

    for m in range(mesh.n_triangles):
        tp = p[m]
        i0 = max(0, int((tp[:, 0].min() - lo[0]) / px))
        i1 = min(width - 1, int((tp[:, 0].max() - lo[0]) / px) + 1)
        j0 = max(0, int((tp[:, 1].min() - lo[1]) / px))
        j1 = min(height - 1, int((tp[:, 1].max() - lo[1]) / px) + 1)
        if i1 < i0 or j1 < j0:
            continue
        xs = lo[0] + (np.arange(i0, i1 + 1) + 0.5) * px
        ys = lo[1] + (np.arange(j0, j1 + 1) + 0.5) * px
        gx, gy = np.meshgrid(xs, ys, indexing="xy")
        det = d1[m, 0] * d2[m, 1] - d1[m, 1] * d2[m, 0]
        if det == 0.0:
            continue
        rx = gx - tp[0, 0]
        ry = gy - tp[0, 1]
        l1 = (rx * d2[m, 1] - ry * d2[m, 0]) / det
        l2 = (-rx * d1[m, 1] + ry * d1[m, 0]) / det
        l0 = 1.0 - l1 - l2
        inside = (l0 >= -1e-9) & (l1 >= -1e-9) & (l2 >= -1e-9)
        if not inside.any():
            continue
        bary = np.stack([l0, l1, l2], axis=-1)
        cols = bary @ node_color[tri[m]]
        wts = bary @ node_weight[tri[m]]
        wts = np.maximum(wts, 1.0)[..., None]
        jj, ii = np.nonzero(inside)
        img[height - 1 - (j0 + jj), i0 + ii] = cols[jj, ii] / wts[jj, ii]
    np.round(img, out=img)
    np.clip(img, 0, 255, out=img)
    return img.astype(np.uint8)


def reference_write_ppm(path, image):
    """The P3 writer the blocked one replaced: one write per pixel."""
    h, w, _ = image.shape
    with open(path, "w") as fh:
        fh.write(f"P3\n{w} {h}\n255\n")
        for row in image.reshape(-1, 3):
            fh.write(f"{row[0]} {row[1]} {row[2]}\n")


def _right_box_clipped(pts, width):
    """True if the pixel box of the rightmost vertex, computed as the
    reference computes it, ends past the last column."""
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    pad = 0.02 * np.maximum(hi - lo, 1e-12).max()
    px = (hi[0] - lo[0] + 2 * pad) / width
    return int((hi[0] - lo[0] + pad) / px) + 1 > width - 1


def render_case(kind, cells, seed, scale, fold, noise, collapse, width):
    """A perturbed rect or hexagon mesh with random fields.

    ``fold`` > 1 reflects the right half back over the left, so deformed
    triangles overlap; ``collapse`` moves the three vertices of one triangle
    onto x = 0, leaving it exactly zero-area; a width of 5 pixels clips the
    box of the rightmost triangle at the image border.
    """
    if kind == "rect":
        mesh = build_rect_mesh(1.0, 0.5, 1.0 / cells)
    else:
        mesh = build_hexagon_mesh(0.35, 0.35 / cells, 0.2)
    rng = np.random.default_rng(seed)
    n = mesh.n_nodes
    design = DesignField(rng.random(n), rng.random(n))
    stimulus = rng.uniform(-1.5, 1.5, n)
    x = mesh.nodes[:, 0]
    u = noise / cells * rng.standard_normal((n, 2))
    u[:, 0] -= fold / scale * np.maximum(x - 0.5 * (x.min() + x.max()), 0.0)
    collapsed = None
    if collapse:
        collapsed = int(rng.integers(mesh.n_triangles))
        corners = mesh.triangles[collapsed]
        u[corners, 0] = -x[corners] / scale
    return mesh, design, stimulus, u, scale, width, fold, collapsed


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.builds(render_case, st.sampled_from(["rect", "hexagon"]),
                 st.integers(2, 9), st.integers(0, 2 ** 16),
                 st.sampled_from([0.5, 1.0, 2.0]),
                 st.sampled_from([0.0, 0.5, 2.0, 3.0]),
                 st.sampled_from([0.0, 0.02, 0.3]), st.booleans(),
                 st.sampled_from([5, 9, 24, 61])),
       st.sampled_from([render.PAIR_BUDGET, 64, 1]))
@example(render_case("rect", 8, 0, 1.0, 2.0, 0.0, True, 5), 64)
@example(render_case("hexagon", 6, 1, 2.0, 3.0, 0.02, False, 61), 1)
def test_composite_image_equals_per_triangle_reference(case, budget):
    # small pair budgets split these meshes into many blocks, so overlaps
    # between blocks are resolved too
    mesh, design, stimulus, u, scale, width, fold, collapsed = case
    pts = mesh.nodes + scale * u
    p = pts[mesh.triangles]
    d1, d2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    # a collapse may flatten a coarse mesh onto x = 0, so the fold and
    # clip checks skip it
    if collapsed is not None:
        assert det[collapsed] == 0.0
    else:
        assert fold <= 1.0 or np.any(det < 0.0)   # overlapping halves
        assert width > 5 or _right_box_clipped(pts, width)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        ref = reference_composite_image(mesh, design, stimulus, u, scale,
                                        width)
        with mock.patch.object(render, "PAIR_BUDGET", budget):
            img = composite_image(mesh, design, stimulus, u, scale, width)
    assert img.dtype == np.uint8
    assert np.array_equal(img, ref)


PPM_VALUES = st.one_of(st.sampled_from([0, 9, 10, 99, 100, 255]),
                       st.integers(0, 255))
PPM_HEIGHTS = [1, PPM_BLOCK_ROWS, 2 * PPM_BLOCK_ROWS + 3]


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.sampled_from(PPM_HEIGHTS).flatmap(
    lambda h: st.integers(1, 12).flatmap(
        lambda w: arrays(np.uint8, (h, w, 3), elements=PPM_VALUES))))
@example(np.array([0, 9, 10, 99, 100, 255], dtype=np.uint8).reshape(1, 2, 3))
@example(np.tile(np.array([255, 100, 99, 10, 9, 0], dtype=np.uint8),
                 PPM_BLOCK_ROWS).reshape(PPM_BLOCK_ROWS, 2, 3))
@example(np.arange(3 * 7 * (2 * PPM_BLOCK_ROWS + 3), dtype=np.uint64)
         .astype(np.uint8).reshape(2 * PPM_BLOCK_ROWS + 3, 7, 3))
def test_write_ppm_equals_per_pixel_reference(tmp_path_factory, image):
    out = tmp_path_factory.mktemp("ppm")
    write_ppm(out / "new.ppm", image)
    reference_write_ppm(out / "ref.ppm", image)
    assert (out / "new.ppm").read_bytes() == (out / "ref.ppm").read_bytes()


def render_mesh():
    """The mesh of the render input tests: 5 x 3 nodes, clamped left."""
    return build_rect_mesh(1.0, 0.5, 0.25, "left", None)


def write_render_artifacts(path, u_value=0.1, bad=None):
    """A final_fields.npz of one case on render_mesh, ``u_value`` the y
    displacement of the last node; ``bad`` maps keys to makers of
    replacement arrays, called with the node count."""
    mesh = render_mesh()
    n = mesh.n_nodes
    u = np.zeros((1, n, 2))
    u[0, -1, 1] = u_value
    arrays = dict(nodes=mesh.nodes, triangles=mesh.triangles,
                  dirichlet_nodes=mesh.dirichlet_nodes,
                  target_elements=mesh.target_elements,
                  cell_size=mesh.cell_size, rho2=np.full(n, 0.5),
                  rho3=np.full(n, 0.5), s=np.zeros((1, n)), u=u)
    arrays.update({key: make(n) for key, make in (bad or {}).items()})
    np.savez(path, **arrays)
    return path


def nan_last_node(n):
    nodes = render_mesh().nodes.copy()
    nodes[n - 1] = np.nan
    return nodes


class TestCli:
    def test_run_subcommand(self, tiny_cfg, tmp_path, capsys):
        out = tmp_path / "cli_out"
        code = cli.main(["run", "--config", str(tiny_cfg), "--out", str(out)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "status," in captured
        scale = float(captured.split("composite_scale_case1,")[1].split()[0])
        assert 0.0 < scale <= 1.0
        assert (out / "history.csv").exists()

    def test_run_forbids_numpy_random(self, tiny_cfg, tmp_path, capsys,
                                      monkeypatch):
        # run is always guarded: a stage that draws randomness fails it
        inner = optimizer.minimize_stimulus_field

        def drawing(*args):
            np.random.default_rng(0)
            return inner(*args)
        monkeypatch.setattr(optimizer, "minimize_stimulus_field", drawing)
        out = tmp_path / "cli_out"
        code = cli.main(["run", "--config", str(tiny_cfg), "--out", str(out)])
        assert code == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "randomness" in lines[0]
        # the guard is lifted after the run
        np.random.default_rng(0)

    def test_run_with_override(self, tiny_cfg, tmp_path, capsys):
        out = tmp_path / "cli_out2"
        code = cli.main(["run", "--config", str(tiny_cfg), "--out", str(out),
                         "--override", "optimizer.max_outer_iters=2"])
        assert code == 0
        lines = (out / "history.csv").read_text().strip().splitlines()
        assert len(lines) <= 4  # header + iterations 0..2

    def test_run_pins_blas_to_one_thread(self, tmp_path):
        # a CLI run with no thread counts in its environment writes the
        # bytes of one with one BLAS thread; on two or more CPUs, threaded
        # BLAS reduces in another order from the first iterate on
        names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        free = {k: v for k, v in os.environ.items() if k not in names}
        histories = []
        for label, env in (("free", free), ("pinned", dict(
                free, **{name: "1" for name in names}))):
            out = tmp_path / label
            proc = subprocess.run(
                [sys.executable, "-m", "morphopt.cli", "run", "--config",
                 "hexagon_contrast5", "--override", "mesh.h=0.01",
                 "--override", "regularization.epsilon=0.02",
                 "--override", "optimizer.max_outer_iters=3",
                 "--out", str(out)],
                env=dict(env, PYTHONPATH=str(SRC)), capture_output=True,
                text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            histories.append((out / "history.csv").read_bytes())
        assert histories[0] == histories[1]

    def test_check_gradient_subcommand(self, capsys):
        code = cli.main(["check-gradient", "--h", "0.1", "--trials", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("block,max_relative_error")
        assert "design," in out and "stimulus," in out

    @pytest.mark.parametrize("arg", [
        "--trials=0", "--trials=-3", "--delta=0", "--delta=-1e-6",
        "--delta=inf", "--delta=nan", "--seed=-1", "--h=0", "--h=-0.05",
        "--h=nan", "--h=inf"])
    def test_check_gradient_cannot_pass_vacuously(self, capsys, arg):
        code = cli.main(["check-gradient", "--h", "0.1", arg])
        assert code == 2
        captured = capsys.readouterr()
        name = arg[2:].split("=")[0]
        assert name in captured.err and "Traceback" not in captured.err
        # --h is named itself, not the epsilon = 2h it would set
        assert "epsilon" not in captured.err
        assert "design," not in captured.out

    @pytest.mark.parametrize("argv,out", [
        pytest.param(["render", "--artifacts", "fields.npz"],
                     os.path.join("missing", "render.ppm"),
                     id="render-into-missing-directory"),
        pytest.param(["render", "--artifacts", "fields.npz"], "a_directory",
                     id="render-onto-directory"),
        pytest.param(["run", "--config", "tiny.cfg"], "a_file",
                     id="run-into-file")])
    def test_output_path_errors_exit_2(self, tiny_cfg, tmp_path, monkeypatch,
                                       capsys, argv, out):
        monkeypatch.chdir(tmp_path)
        write_render_artifacts("fields.npz")
        (tmp_path / "a_directory").mkdir()
        (tmp_path / "a_file").write_text("")
        assert cli.main([*argv, "--out", out]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert out in lines[0]
        assert (tmp_path / "a_file").read_text() == ""

    @pytest.mark.parametrize("overrides,name", [
        pytest.param(["mesh.h=junk", "nosuch.key=1"], "nosuch",
                     id="unknown-section"),
        pytest.param(["optimizer.nosuch=1"], "optimizer.nosuch",
                     id="unknown-key"),
        pytest.param(["mesh.h=junk"], "mesh.h", id="bad-value")])
    def test_check_gradient_applies_overrides(self, capsys, overrides, name):
        argv = ["check-gradient", "--h", "0.1", "--trials", "1"]
        for ov in overrides:
            argv += ["--override", ov]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert name in captured.err and "Traceback" not in captured.err
        assert "design," not in captured.out

    def test_profile_oracle_subcommand(self, capsys):
        code = cli.main(["profile-oracle", "--epsilons", "0.05",
                         "--intervals", "400"])
        assert code == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "epsilon,energy_per_unit_interface"
        eps, energy = out[1].split(",")
        assert float(eps) == 0.05
        assert 0.5 < float(energy) < 0.7

    @pytest.mark.parametrize("args,name", [
        pytest.param(["--epsilons", "abc"], "--epsilons", id="unparsable-eps"),
        pytest.param(["--epsilons", "nan"], "epsilon", id="nan-eps"),
        pytest.param(["--intervals", "0"], "n_intervals", id="zero-intervals"),
        pytest.param(["--intervals", "-3"], "n_intervals",
                     id="negative-intervals"),
        pytest.param(["--span", "nan"], "span_factor", id="nan-span"),
        pytest.param(["--span", "0"], "span_factor", id="zero-span"),
        pytest.param(["--epsilons", ","], "epsilon", id="empty-eps")])
    def test_profile_oracle_rejects_bad_input(self, capsys, args, name):
        code = cli.main(["profile-oracle", "--epsilons", "0.05", *args])
        assert code == 2
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert name in err[0] and "non-finite" not in err[0]
        assert "energy" not in captured.out

    def test_render_subcommand(self, tiny_cfg, tmp_path, capsys):
        out = tmp_path / "cli_out3"
        cli.main(["run", "--config", str(tiny_cfg), "--out", str(out)])
        img = tmp_path / "render.ppm"
        code = cli.main(["render", "--artifacts", str(out / "final_fields.npz"),
                         "--case", "1", "--out", str(img)])
        assert code == 0
        assert img.read_text().startswith("P3")

    def test_render_reproduces_the_run_composite(self, tiny_cfg, tmp_path):
        out = tmp_path / "cli_out4"
        cli.main(["run", "--config", str(tiny_cfg), "--out", str(out)])
        img = tmp_path / "render.ppm"
        with warnings.catch_warnings():
            warnings.simplefilter("error")     # the fold-free scale folds none
            code = cli.main(["render", "--artifacts",
                             str(out / "final_fields.npz"), "--case", "1",
                             "--out", str(img)])
        assert code == 0
        assert img.read_bytes() == (out / "composite_case1.ppm").read_bytes()

    @pytest.mark.parametrize("u_value,args,name,bad", [
        pytest.param(np.nan, [], "displacement", {}, id="nan-displacement"),
        pytest.param(np.inf, [], "displacement", {}, id="inf-displacement"),
        pytest.param(np.nan, ["--scale", "0.5"], "displacement", {},
                     id="nan-displacement-given-scale"),
        pytest.param(0.1, ["--scale", "nan"], "scale", {}, id="nan-scale"),
        pytest.param(0.1, ["--width", "-3"], "width", {}, id="negative-width"),
        pytest.param(0.1, ["--width", "0"], "width", {}, id="zero-width"),
        # a 10^8 x 5 10^7 image would take 15 PiB, a 10^4 x 5 10^3 one
        # more than render.MAX_PIXELS: refused before allocation
        pytest.param(0.1, ["--width", "100000000"], "width", {},
                     id="huge-width"),
        pytest.param(0.1, ["--width", "10000"], "width", {},
                     id="width-beyond-pixel-ceiling"),
        pytest.param(0.1, ["--width", "9" * 400], "width", {},
                     id="width-beyond-float"),
        pytest.param(0.1, [], "rho2", {"rho2": lambda n: np.full(n - 1, 0.5)},
                     id="short-rho2"),
        pytest.param(0.1, [], "rho3", {"rho3": lambda n: np.full(n - 1, 0.5)},
                     id="short-rho3"),
        pytest.param(0.1, [], "rho2", {"rho2": lambda n: np.full(n - 1, 0.5),
                                       "rho3": lambda n: np.full(n - 1, 0.5)},
                     id="short-design"),
        pytest.param(0.1, [], "stimulus", {"s": lambda n: np.zeros((1, n - 1))},
                     id="short-s"),
        pytest.param(0.1, [], "s has shape", {"s": lambda n: np.zeros(n)},
                     id="one-dimensional-s"),
        pytest.param(0.1, [], "displacement",
                     {"u": lambda n: np.zeros((1, n - 1, 2))}, id="short-u"),
        pytest.param(0.1, [], "u has shape", {"u": lambda n: np.zeros((n, 2))},
                     id="u-without-case-axis"),
        pytest.param(0.1, [], "u has shape",
                     {"u": lambda n: np.zeros((0, n, 2))}, id="zero-case-u"),
        pytest.param(0.1, [], "nodes", {"nodes": nan_last_node},
                     id="nan-node"),
        pytest.param(0.1, [], "nodes", {"nodes": lambda n: np.zeros((n, 3))},
                     id="three-column-nodes"),
        pytest.param(0.1, [], "cell_size",
                     {"cell_size": lambda n: np.array([0.25, 0.25])},
                     id="two-cell-sizes"),
        pytest.param(0.1, [], "triangles",
                     {"triangles": lambda n: render_mesh().triangles + 0.5},
                     id="half-integer-triangles"),
        pytest.param(0.1, [], "dirichlet_nodes",
                     {"dirichlet_nodes":
                      lambda n: render_mesh().dirichlet_nodes + 0.5},
                     id="half-integer-dirichlet-nodes")])
    def test_render_rejects_bad_input(self, tmp_path, u_value, args, name,
                                      bad):
        # in a child process with a timeout: a rejection that turns into a
        # hang fails here instead of stalling the suite
        fields = write_render_artifacts(tmp_path / "final_fields.npz",
                                        u_value, bad)
        img = tmp_path / "render.ppm"
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-m", "morphopt.cli", "render", "--artifacts",
             str(fields), "--out", str(img), *args],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2, proc.stderr
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert name in lines[0]
        assert not img.exists()

    @pytest.mark.parametrize("kind,named", [
        pytest.param("missing", "missing.npz", id="missing-file"),
        pytest.param("missing-directory", "nowhere", id="missing-directory"),
        pytest.param("directory", "a_directory", id="directory"),
        pytest.param("nodes-only", "triangles", id="archive-without-keys")])
    def test_render_rejects_unreadable_artifacts(self, tmp_path, capsys, kind,
                                                 named):
        fields = tmp_path / "missing.npz"
        if kind == "nodes-only":
            fields = tmp_path / "nodes_only.npz"
            np.savez(fields, nodes=np.zeros((3, 2)))
        elif kind == "missing-directory":
            fields = tmp_path / "nowhere" / "missing.npz"
        elif kind == "directory":
            fields = tmp_path / "a_directory"
            fields.mkdir()
        img = tmp_path / "render.ppm"
        code = cli.main(["render", "--artifacts", str(fields), "--out",
                         str(img)])
        assert code == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert named in lines[0] and str(fields) in lines[0]
        assert not img.exists()

    def test_mesh_info_subcommand(self, capsys):
        code = cli.main(["mesh-info", "--config", "cantilever_desk_staggered"])
        assert code == 0
        out = capsys.readouterr().out
        assert "nodes,1281" in out
        assert "triangles,2400" in out

    @pytest.mark.parametrize("argv,named", [
        pytest.param(["check-gradient", "--config", "missing.cfg"],
                     "missing.cfg", id="check-gradient-missing-config"),
        pytest.param(["mesh-info", "--config", "notes.txt"], "notes.txt",
                     id="mesh-info-text-file"),
        pytest.param(["mesh-info", "--config", "fields.npz"], "decode",
                     id="mesh-info-binary-file")])
    def test_unreadable_config_exits_2(self, tmp_path, monkeypatch, capsys,
                                       argv, named):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "notes.txt").write_text("no section here\n")
        write_render_artifacts("fields.npz")
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "cannot read configuration" in lines[0] and named in lines[0]
        assert captured.out == ""

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[domain]\ntype = blob\n")
        code = cli.main(["mesh-info", "--config", str(bad)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["mesh-info", "run"])
    def test_target_box_without_centroid_exits_2(self, tiny_cfg, command,
                                                 capsys):
        # x0 = x1 = 0.8 lies on a grid line: no target triangle, so a run
        # would optimize an objective with no tracking term
        argv = [command, "--config", str(tiny_cfg), "--override",
                "target.x1=0.8"]
        if command == "run":
            argv += ["--out", str(tiny_cfg.parent / "out")]
        assert cli.main(argv) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "centroid" in lines[0]
        assert not (tiny_cfg.parent / "out").exists()

    # grids above mesh.MAX_NODES fail before any array is allocated
    @pytest.mark.parametrize("command", ["mesh-info", "run"])
    @pytest.mark.parametrize("name, override", [
        ("cantilever_desk_staggered", "domain.lx=1e300"),
        ("cantilever_desk_staggered", "mesh.h=1e-300"),
        ("hexagon_contrast5", "domain.edge=1e300"),
        ("hexagon_contrast5", "mesh.h=1e-300")])
    def test_oversized_grid_exits_2(self, tmp_path, capsys, command, name,
                                    override):
        argv = [command, "--config", name, "--override", override]
        if command == "run":
            argv += ["--override", "optimizer.max_outer_iters=1", "--out",
                     str(tmp_path / "out")]
        assert cli.main(argv) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "ceiling" in lines[0]
        assert not (tmp_path / "out").exists()

    def test_seed_free_context_blocks_rng(self):
        with pytest.raises(MorphoptError):
            with cli.forbid_numpy_random():
                np.random.default_rng(0)
        # restored afterwards
        np.random.default_rng(0)

    # the module-level legacy draws are guarded too
    @pytest.mark.parametrize("draw", [
        lambda: np.random.rand(2), lambda: np.random.uniform(),
        lambda: np.random.normal(), lambda: np.random.random(),
        lambda: np.random.choice(3)],
        ids=["rand", "uniform", "normal", "random", "choice"])
    def test_guard_blocks_legacy_draws(self, draw):
        with pytest.raises(MorphoptError, match="randomness"):
            with cli.forbid_numpy_random():
                draw()
        # restored afterwards
        draw()

    # sizes, the clamped side or orientation and the target are checked
    # once, by the mesh builders and RegularizationParams, before any
    # output is written
    @pytest.mark.parametrize("command", ["mesh-info", "run"])
    @pytest.mark.parametrize("name, override", [
        ("cantilever_desk_staggered", "domain.dirichlet_side=middle"),
        ("cantilever_desk_staggered", "target.x1=2.0"),
        ("cantilever_desk_staggered", "target.x0=-0.1"),
        ("cantilever_desk_staggered", "mesh.h=0"),
        ("cantilever_desk_staggered", "mesh.h=-0.5"),
        ("cantilever_desk_staggered", "domain.lx=0"),
        ("cantilever_desk_staggered", "domain.ly=-1"),
        ("cantilever_desk_staggered", "regularization.epsilon=0"),
        ("cantilever_desk_staggered", "regularization.alpha=-1"),
        ("hexagon_contrast5", "domain.clamp_orientation=both"),
        ("hexagon_contrast5", "target.edge=0.35"),
        ("hexagon_contrast5", "target.edge=0"),
        ("hexagon_contrast5", "domain.edge=-1"),
        ("hexagon_contrast5", "mesh.h=0")])
    def test_bad_geometry_or_size_exits_2(self, tmp_path, capsys, command,
                                          name, override):
        argv = [command, "--config", name, "--override", override]
        if command == "run":
            argv += ["--override", "optimizer.max_outer_iters=1", "--out",
                     str(tmp_path / "out")]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()


# The grammar sweep: every resolved key of two shipped configs, at a coarse
# cell size, set to each of SWEEP_VALUES.  Every call exits 0, or 2 with
# one error: line and no output directory.
SWEEP_BASES = {
    "cantilever_desk_staggered": ("mesh.h=0.1", "regularization.epsilon=0.2"),
    "hexagon_contrast5": ("mesh.h=0.05", "regularization.epsilon=0.1")}
SWEEP_VALUES = ("nan", "inf", "-inf", "-1", "0", "1e300", "1e-300", "abc", "",
                "2", "0.5", "-0.5", "3")


def sweep_overrides(name):
    """section.key=value for every resolved key of the base problem and
    every sweep value."""
    spec = load_shipped_config(name, overrides=SWEEP_BASES[name])
    return [f"{section}.{key}={value}"
            for section, values in spec.resolved.items()
            for key in values for value in SWEEP_VALUES]


SWEEP = {name: sweep_overrides(name) for name in SWEEP_BASES}


def exit_fault(command, name, overrides, out=None):
    """None if ``morphopt COMMAND`` on the shipped problem ``name`` exits
    0, or 2 with one error: line and ``out`` not created; else the fault."""
    argv = [command, "--config", name]
    for item in overrides:
        argv += ["--override", item]
    if out is not None:
        argv += ["--out", str(out)]
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(stderr), warnings.catch_warnings():
        warnings.simplefilter("ignore")     # unresolved-interface warnings
        code = cli.main(argv)
    lines = stderr.getvalue().strip().splitlines()
    if code == 0 or (code == 2 and len(lines) == 1
                     and lines[0].startswith("error:")
                     and not (out is not None and out.exists())):
        return None
    return f"{overrides[-1]}: exit {code}, stderr {stderr.getvalue()!r}"


@pytest.mark.parametrize("name", sorted(SWEEP))
def test_grammar_sweep_mesh_info(name):
    faults = [exit_fault("mesh-info", name, [*SWEEP_BASES[name], item])
              for item in SWEEP[name]]
    assert [f for f in faults if f] == []


@pytest.mark.parametrize("name", sorted(SWEEP))
@settings(derandomize=True, deadline=None, max_examples=40)
@given(data=st.data())
def test_grammar_sweep_run(name, tmp_path_factory, data):
    # the swept value comes last, so it wins over the one-iterate cap
    item = data.draw(st.sampled_from(SWEEP[name]))
    out = tmp_path_factory.mktemp("sweep") / "out"
    assert exit_fault("run", name, [*SWEEP_BASES[name],
                                    "optimizer.max_outer_iters=1", item],
                      out) is None
