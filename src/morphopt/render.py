"""Composite raster export: material layout plus stimulus in the deformed
configuration, written as a plain (P3) portable pixel map.

Passive material renders black, responsive material is colored by its
stimulus (blue at -1, white at 0, red at +1), void is background.
"""

import warnings

import numpy as np

from .errors import InvalidParameterError
from .fields import check_nodal

BACKGROUND = np.array([255.0, 255.0, 255.0])

# (triangle, pixel) candidate pairs rasterized at once; bounds the
# temporaries at about a MiB, below a desk run's solve-phase peak RSS
PAIR_BUDGET = 1 << 12

# pixels of one image, 4096 x 4096: 176 MiB with its winner array
MAX_PIXELS = 1 << 24

# image rows formatted at once by write_ppm (about 1 MiB of temporaries at
# the default width)
PPM_BLOCK_ROWS = 32


def _ppm_table(sep):
    """Text of each byte value 0..255 and ``sep``, zero-padded to 4 bytes."""
    table = np.zeros((256, 4), dtype=np.uint8)
    for v in range(256):
        text = f"{v}{sep}".encode()
        table[v, :len(text)] = list(text)
    return table


_PPM_SPACE = _ppm_table(" ")
_PPM_NEWLINE = _ppm_table("\n")


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


def _finite_displacement(mesh, displacement):
    u = check_nodal(mesh, np.asarray(displacement, dtype=float), "displacement")
    if not np.all(np.isfinite(u)):
        raise InvalidParameterError("displacement must be finite")
    return u


def fold_free_scale(mesh, displacement):
    """Largest scale <= 1 at which every triangle deformed by
    scale * displacement keeps a positive signed area.

    A triangle's doubled area is quadratic in the scale s,
    A0 + B s + C s^2 with A0 > 0; the scale stops short of the smallest
    positive root over all triangles.
    """
    u = _finite_displacement(mesh, displacement)
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
    scale = min(1.0, float(roots.min()) if roots.size else np.inf)
    # just below a root the rounded area may still read zero
    while True:
        _, d1, d2 = _edges(mesh.nodes + scale * u, mesh.triangles)
        if np.all(_cross(d1, d2) > 0.0):
            return scale
        scale *= 1.0 - 1e-6


def _pair_blocks(count):
    """Contiguous triangle ranges [a, b) with at most PAIR_BUDGET candidate
    pairs each; a triangle with more pairs forms a range alone."""
    ends = np.cumsum(count)
    a = 0
    while a < len(count):
        b = max(a + 1, int(np.searchsorted(
            ends, ends[a] - count[a] + PAIR_BUDGET, side="right")))
        yield a, b
        a = b


def composite_image(mesh, design, stimulus_j, displacement, scale=1.0,
                    width=480):
    """Rasterize the deformed mesh; returns a (height, width, 3) uint8 image.

    A pixel whose center lies in a triangle (all barycentric coordinates
    >= -1e-9) takes the barycentric blend of the node colors divided by
    the blended node weight (at least 1); where triangles overlap, the
    highest-numbered one wins.
    """
    if not np.isfinite(scale):
        raise InvalidParameterError(f"scale must be finite, got {scale!r}")
    if not 1 <= width <= MAX_PIXELS:
        raise InvalidParameterError(
            f"width must be in 1..{MAX_PIXELS}, got {width!r}")
    pts = mesh.nodes + scale * _finite_displacement(mesh, displacement)
    check_nodal(mesh, design.rho2, "rho2")
    check_nodal(mesh, stimulus_j, "stimulus")
    tri = mesh.triangles
    p, d1, d2 = _edges(pts, tri)
    det = _cross(d1, d2)
    if np.any(det <= 0.0):
        warnings.warn(f"{int(np.sum(det <= 0.0))} deformed triangle(s) are "
                      "degenerate or inverted; rendering anyway", RuntimeWarning)

    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = np.maximum(hi - lo, 1e-12)
    pad = 0.02 * span.max()
    lo, hi = lo - pad, hi + pad
    span = hi - lo
    height = max(2, int(round(width * span[1] / span[0])))
    if height * width > MAX_PIXELS:
        raise InvalidParameterError(
            f"width {width} makes a {width} x {height} image, above the "
            f"{MAX_PIXELS} pixels of MAX_PIXELS")
    px = span[0] / width

    r1 = np.clip(np.asarray(design.rho1()), 0.0, 1.0)
    node_color = (r1[:, None] * BACKGROUND[None, :]
                  + design.rho3[:, None] * stimulus_color(stimulus_j))
    node_weight = r1 + design.rho2 + design.rho3

    # each triangle's pixel bounding box, truncated and clipped to the image
    lo_px = ((p.min(axis=1) - lo) / px).astype(np.int64)
    hi_px = ((p.max(axis=1) - lo) / px).astype(np.int64) + 1
    i0 = np.maximum(0, lo_px[:, 0])
    j0 = np.maximum(0, lo_px[:, 1])
    nx = np.maximum(np.minimum(width - 1, hi_px[:, 0]) - i0 + 1, 0)
    ny = np.maximum(np.minimum(height - 1, hi_px[:, 1]) - j0 + 1, 0)
    count = np.where(det == 0.0, 0, nx * ny)

    img = np.full((height * width, 3), 255, dtype=np.uint8)
    # the highest-numbered triangle that covers each pixel so far; blocks
    # run in triangle order, so a later block's winner overwrites
    winner = np.full(height * width, -1, dtype=np.int64)
    for a, b in _pair_blocks(count):
        c = count[a:b]
        t = np.repeat(np.arange(a, b), c)
        k = np.arange(t.size) - np.repeat(np.cumsum(c) - c, c)
        dj, di = np.divmod(k, nx[t])
        ii = i0[t] + di
        jj = j0[t] + dj
        rx = lo[0] + (ii + 0.5) * px - p[t, 0, 0]
        ry = lo[1] + (jj + 0.5) * px - p[t, 0, 1]
        l1 = (rx * d2[t, 1] - ry * d2[t, 0]) / det[t]
        l2 = (-rx * d1[t, 1] + ry * d1[t, 0]) / det[t]
        l0 = 1.0 - l1 - l2
        keep = np.flatnonzero((l0 >= -1e-9) & (l1 >= -1e-9) & (l2 >= -1e-9))
        # image row 0 is the top of the domain
        pix = (height - 1 - jj[keep]) * width + ii[keep]
        np.maximum.at(winner, pix, t[keep])
        won = winner[pix] == t[keep]
        keep, pix = keep[won], pix[won]
        bary = (l0[keep], l1[keep], l2[keep])
        corners = tri[t[keep]].T
        rgb = sum(l[:, None] * node_color[v] for l, v in zip(bary, corners))
        wt = sum(l * node_weight[v] for l, v in zip(bary, corners))
        img[pix] = np.clip(np.round(rgb / np.maximum(wt, 1.0)[:, None]),
                           0, 255).astype(np.uint8)
    return img.reshape(height, width, 3)


def write_ppm(path, image):
    """Plain (ASCII, P3) portable pixel map: one "r g b" line per pixel."""
    h, w, _ = image.shape
    with open(path, "wb") as fh:
        fh.write(f"P3\n{w} {h}\n255\n".encode())
        for r in range(0, h, PPM_BLOCK_ROWS):
            vals = image[r:r + PPM_BLOCK_ROWS].reshape(-1, 3)
            text = np.empty((len(vals), 3, 4), dtype=np.uint8)
            text[:, :2] = _PPM_SPACE[vals[:, :2]]
            text[:, 2] = _PPM_NEWLINE[vals[:, 2]]
            fh.write(text[text != 0].tobytes())
    return path


def composite_export(mesh, design, stimulus_j, displacement, scale, path,
                     width=480):
    """Render and write the composite plot; returns the path."""
    img = composite_image(mesh, design, stimulus_j, displacement,
                          scale=scale, width=width)
    return write_ppm(path, img)
