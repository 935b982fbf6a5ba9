"""Compare the artifacts two source trees write on three reference runs.

    python3 scripts/same_numbers.py --base SRC --change SRC [--out DIR]

SRC is the ``src`` directory of a tree.  For each tree, one subprocess per
run (BLAS pinned to one thread) executes the 30-iterate
``cantilever_desk_staggered`` and ``cantilever_desk_monolithic`` runs and
``hexagon_contrast5`` at h = 0.01, epsilon = 0.02.  Every artifact file of
the two trees is then compared: the script prints ``identical`` or, where
the bytes differ, the largest relative difference of the numbers in
``history.csv`` and of every array in ``final_fields.npz``, the lines
found on one side only of a text artifact (``config_resolved.cfg``,
``summary.txt``; ``-`` base, ``+`` change), or ``differs`` for any other
file.  The standard output of ``morphopt profile-oracle`` (with its
defaults and with ``--potential double``), of ``morphopt check-gradient
--h 0.1 --trials 2`` and of ``morphopt mesh-info`` on every config shipped
with the change, at its shipped cell size, is compared the same way, line
by line.  Exit status 1 when an artifact or an output differs or is
missing on one side.
"""

import argparse
import csv
import difflib
import os
import subprocess
import sys
import tempfile

import numpy as np

RUNS = {
    "desk_staggered": ("cantilever_desk_staggered",
                       ["optimizer.max_outer_iters=30"]),
    "desk_monolithic": ("cantilever_desk_monolithic",
                        ["optimizer.max_outer_iters=30"]),
    "hexagon_contrast5": ("hexagon_contrast5",
                          ["mesh.h=0.01", "regularization.epsilon=0.02"]),
}


# commands whose standard output is compared byte for byte
OUTPUTS = (["profile-oracle"], ["profile-oracle", "--potential", "double"],
           ["check-gradient", "--h", "0.1", "--trials", "2"])


def morphopt(src, args):
    """Standard output of ``morphopt ARGS`` run on the tree ``src``."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-m", "morphopt.cli", *args],
                          env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{src}: morphopt {' '.join(args)} failed:\n{proc.stderr}")
    return proc.stdout


def run(src, config, overrides, out):
    args = ["run", "--config", config, "--out", out]
    for item in overrides:
        args += ["--override", item]
    morphopt(src, args)


def relative_difference(a, b):
    """max |a - b| / max(|a|, |b|) over the entries, 0 where both are 0."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return f"shapes {a.shape} and {b.shape}"
    scale = np.maximum(np.abs(a), np.abs(b))
    diff = np.abs(a - b)
    rel = np.divide(diff, scale, out=np.zeros_like(diff), where=scale > 0)
    return f"{float(rel.max(initial=0.0)):.3g}"


def read_history(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return [[float(v) for v in row] for row in rows]


def describe(name, base, change):
    """One line per differing artifact: what differs and by how much."""
    if name == "history.csv":
        return [f"history.csv max rel diff "
                f"{relative_difference(read_history(base), read_history(change))}"]
    if name.endswith(".npz"):
        with np.load(base) as a, np.load(change) as b:
            lines = []
            for key in sorted(set(a.files) | set(b.files)):
                if key not in a.files or key not in b.files:
                    lines.append(f"{name}[{key}] missing on one side")
                elif a[key].tobytes() != b[key].tobytes() \
                        or a[key].shape != b[key].shape:
                    lines.append(f"{name}[{key}] max rel diff "
                                 f"{relative_difference(a[key], b[key])}")
            return lines or [f"{name} differs in its .npy headers only"]
    if name.endswith((".cfg", ".txt")):
        with open(base) as fa, open(change) as fb:
            diff = difflib.ndiff(fa.read().splitlines(),
                                 fb.read().splitlines())
        return [f"{name}: {line}" for line in diff
                if line.startswith(("- ", "+ "))]
    return [f"{name} differs"]


def compare(base_dir, change_dir):
    """Print the comparison of two artifact directories; True if equal."""
    names = sorted(set(os.listdir(base_dir)) | set(os.listdir(change_dir)))
    same = True
    for name in names:
        base, change = (os.path.join(d, name) for d in (base_dir, change_dir))
        if not (os.path.exists(base) and os.path.exists(change)):
            print(f"  {name}: missing on one side")
            same = False
            continue
        with open(base, "rb") as fa, open(change, "rb") as fb:
            if fa.read() == fb.read():
                print(f"  {name}: identical")
                continue
        same = False
        for line in describe(name, base, change):
            print(f"  {line}")
    return same


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="src directory of the base")
    ap.add_argument("--change", required=True,
                    help="src directory of the change")
    ap.add_argument("--out", default=None,
                    help="directory for the artifacts (default: a new "
                         "temporary directory)")
    args = ap.parse_args()
    out = args.out or tempfile.mkdtemp(prefix="same_numbers_")
    same = True
    for label, (config, overrides) in RUNS.items():
        dirs = []
        for side, src in (("base", args.base), ("change", args.change)):
            dirs.append(os.path.join(out, label, side))
            run(src, config, overrides, dirs[-1])
        print(f"{label}:")
        same = compare(*dirs) and same
    shipped = os.path.join(args.change, "morphopt", "configs")
    mesh_info = [["mesh-info", "--config", name[:-4]]
                 for name in sorted(os.listdir(shipped))
                 if name.endswith(".cfg")]
    for cmd in [*OUTPUTS, *mesh_info]:
        base, change = (morphopt(src, cmd) for src in (args.base, args.change))
        if base == change:
            print(f"{' '.join(cmd)}: identical")
            continue
        same = False
        print(f"{' '.join(cmd)}:")
        for line in difflib.ndiff(base.splitlines(), change.splitlines()):
            if line.startswith(("- ", "+ ")):
                print(f"  {line}")
    print("all artifacts and outputs identical" if same
          else "artifacts or outputs differ")
    print(f"artifacts in {out}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
