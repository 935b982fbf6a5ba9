"""Composite raster export: material layout plus stimulus in the deformed
configuration, written as a plain (P3) portable pixel map.

Passive material renders black, responsive material is colored by its
stimulus (blue at -1, white at 0, red at +1), void is background.
"""

import warnings

import numpy as np

BACKGROUND = np.array([255.0, 255.0, 255.0])


def stimulus_color(s):
    """Diverging blue-white-red map on [-1, 1] for scalar or array s."""
    s = np.clip(np.asarray(s, dtype=float), -1.0, 1.0)
    pos = np.clip(s, 0.0, 1.0)
    neg = np.clip(-s, 0.0, 1.0)
    r = 255.0 * (1.0 - neg)
    g = 255.0 * (1.0 - np.maximum(pos, neg))
    b = 255.0 * (1.0 - pos)
    return np.stack([r, g, b], axis=-1)


def _edges(points, triangles):
    p = points[triangles]
    return p, p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]


def _cross(a, b):
    return a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]


def fold_free_scale(mesh, displacement, limit=1.0):
    """Largest scale <= ``limit`` at which every triangle deformed by
    scale * displacement keeps a positive signed area.

    A triangle's doubled area is quadratic in the scale s,
    A0 + B s + C s^2 with A0 > 0; the scale stops short of the smallest
    positive root over all triangles.
    """
    u = np.asarray(displacement, dtype=float)
    _, d1, d2 = _edges(mesh.nodes, mesh.triangles)
    _, e1, e2 = _edges(u, mesh.triangles)
    a0 = _cross(d1, d2)
    b = _cross(d1, e2) + _cross(e1, d2)
    c = _cross(e1, e2)
    with np.errstate(divide="ignore", invalid="ignore"):
        disc = np.sqrt(b * b - 4.0 * a0 * c)
        roots = np.concatenate([(-b - disc) / (2.0 * c), (-b + disc) / (2.0 * c),
                                np.where(c == 0.0, -a0 / b, np.nan)])
    roots = roots[np.isfinite(roots) & (roots > 0.0)]
    scale = min(float(limit), float(roots.min()) if roots.size else np.inf)
    # just below a root the rounded area may still read zero
    while True:
        _, d1, d2 = _edges(mesh.nodes + scale * u, mesh.triangles)
        if np.all(_cross(d1, d2) > 0.0):
            return scale
        scale *= 1.0 - 1e-6


def composite_image(mesh, design, stimulus_j, displacement, scale=1.0,
                    width=480):
    """Rasterize the deformed mesh; returns a (height, width, 3) uint8 image."""
    pts = mesh.nodes + scale * np.asarray(displacement, dtype=float)
    tri = mesh.triangles
    p, d1, d2 = _edges(pts, tri)
    signed = 0.5 * _cross(d1, d2)
    if np.any(signed <= 0.0):
        warnings.warn(f"{int(np.sum(signed <= 0.0))} deformed triangle(s) are "
                      "degenerate or inverted; rendering anyway", RuntimeWarning)

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
        # barycentric coordinates via the 2x2 edge matrix
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
        cols = bary @ node_color[tri[m]]          # (..., 3)
        wts = bary @ node_weight[tri[m]]
        wts = np.maximum(wts, 1.0)[..., None]
        jj, ii = np.nonzero(inside)
        # image row 0 is the top of the domain
        img[height - 1 - (j0 + jj), i0 + ii] = cols[jj, ii] / wts[jj, ii]
    np.round(img, out=img)
    np.clip(img, 0, 255, out=img)
    return img.astype(np.uint8)


def write_ppm(path, image):
    """Plain (ASCII, P3) portable pixel map."""
    h, w, _ = image.shape
    with open(path, "w") as fh:
        fh.write(f"P3\n{w} {h}\n255\n")
        flat = image.reshape(-1, 3)
        for row in flat:
            fh.write(f"{row[0]} {row[1]} {row[2]}\n")
    return path


def composite_export(mesh, design, stimulus_j, displacement, scale, path,
                     width=480):
    """Render and write the composite plot; returns the path."""
    img = composite_image(mesh, design, stimulus_j, displacement,
                          scale=scale, width=width)
    return write_ppm(path, img)
