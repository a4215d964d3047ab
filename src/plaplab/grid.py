"""Structured triangulated rectangles and piecewise-linear nodal fields.

A cylinder section (-ell, ell) x (y0, y1) carries a uniform node lattice;
every rectangular cell is split along its southwest-northeast diagonal
into two triangles, so the gradient of the affine interpolant is constant
per triangle and exactly reproduces affine data.  Windowed L^p norms of
the gradient weight triangles by their exact overlap area with the
window, which removes the O(h) staircase noise a containment threshold
would inject into convergence-rate measurements.  The split makes that
overlap a closed form in each cell's unit coordinates, evaluated at once
for the block of cells that meets the window (:func:`lp_norm_gradient`),
or for every cell of the mesh (:func:`triangle_window_weights`).
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .ode1d import CrossProfile

__all__ = [
    "RectGrid",
    "GridFunction",
    "Window",
    "build_grid",
    "tied_nx",
    "gradient_per_cell",
    "lp_norm_gradient",
    "embed_cross_section",
    "distance_profile_start",
    "cutoff_function",
    "write_grid_function",
]


@dataclass(frozen=True)
class RectGrid:
    """Uniform node lattice on (-ell, ell) x (y0, y1) with SW-NE split cells.

    Node (i, j) has index ``j * nx + i`` (row-major over y rows).
    """

    ell: float
    cross: tuple
    nx: int
    ny: int

    def __post_init__(self):
        if self.ell <= 0:
            raise ValueError(f"half-length must be positive, got ell={self.ell}")
        y0, y1 = self.cross
        if y1 <= y0:
            raise ValueError(f"degenerate cross-section {self.cross}")
        if self.nx < 3 or self.ny < 3:
            raise ValueError(
                f"need at least 3 nodes per axis, got nx={self.nx}, ny={self.ny}")

    @property
    def hx(self) -> float:
        return 2.0 * self.ell / (self.nx - 1)

    @property
    def hy(self) -> float:
        return (self.cross[1] - self.cross[0]) / (self.ny - 1)

    @property
    def n_nodes(self) -> int:
        return self.nx * self.ny

    @property
    def n_triangles(self) -> int:
        return 2 * (self.nx - 1) * (self.ny - 1)

    @property
    def x(self) -> np.ndarray:
        return np.linspace(-self.ell, self.ell, self.nx)

    @property
    def y(self) -> np.ndarray:
        return np.linspace(self.cross[0], self.cross[1], self.ny)

    def node_coords(self):
        """(X, Y) arrays of length nx*ny in node-index order."""
        X, Y = np.meshgrid(self.x, self.y)  # Y rows
        return X.ravel(), Y.ravel()

    def lower_triangles(self) -> np.ndarray:
        """(n_triangles // 2, 3) node indices (n00, n10, n11) of the lower
        triangle of every cell (i, j), j-major: the first half of
        :meth:`triangles`."""
        i = np.arange(self.nx - 1)
        j = np.arange(self.ny - 1)
        J, I = np.meshgrid(j, i, indexing="ij")
        n00 = (J * self.nx + I).ravel()
        return np.stack([n00, n00 + 1, n00 + self.nx + 1], axis=1)

    def triangles(self) -> np.ndarray:
        """(n_triangles, 3) node indices; cell (i,j) yields the lower
        triangle (n00, n10, n11) and the upper triangle (n00, n11, n01)."""
        lower = self.lower_triangles()
        n00, n11 = lower[:, 0], lower[:, 2]
        upper = np.stack([n00, n11, n11 - 1], axis=1)  # n01 = n11 - 1
        return np.concatenate([lower, upper], axis=0)

    def triangle_area(self) -> float:
        return 0.5 * self.hx * self.hy

    def lower_shape(self) -> np.ndarray:
        """(3, 2) coefficients b of the lower triangle (n00, n10, n11) of
        every cell, grad u|_T = sum_k u_k b_k.  The upper triangle (n00,
        n11, n01) is its half-turn about the cell centre: read with the
        nodes (n11, n01, n00) it has the coefficients -b, so the lattice
        holds this one shape."""
        hx, hy = self.hx, self.hy
        return np.array([[-1.0 / hx, 0.0],
                         [1.0 / hx, -1.0 / hy],
                         [0.0, 1.0 / hy]])

    def gradient_coefficients(self) -> np.ndarray:
        """(n_triangles, 3, 2) coefficients b with grad u|_T = sum_k u_k b_k,
        per triangle in :meth:`triangles` order: the whole-mesh reference
        that the tests check the one-shape kernels against."""
        shape = self.lower_shape()
        half = (self.nx - 1) * (self.ny - 1)
        out = np.empty((2 * half, 3, 2))
        out[:half] = shape
        # (n00, n11, n01) is the half-turned shape's (n11, n01, n00)
        out[half:] = -shape[[2, 0, 1]]
        return out

    def lumped_mass(self) -> np.ndarray:
        """Per-node lumped area (each triangle spreads area/3 to its nodes)."""
        tri = self.triangles()
        third = self.triangle_area() / 3.0
        return np.bincount(tri.ravel(), minlength=self.n_nodes) * third

    def boundary_mask(self) -> np.ndarray:
        mask = np.zeros((self.ny, self.nx), dtype=bool)
        mask[0, :] = mask[-1, :] = True
        mask[:, 0] = mask[:, -1] = True
        return mask.ravel()

    def interior_mask(self) -> np.ndarray:
        return ~self.boundary_mask()


def build_grid(ell: float, cross, nx: int, ny: int) -> RectGrid:
    """Structured triangulated mesh on (-ell, ell) x cross."""
    return RectGrid(ell=float(ell), cross=(float(cross[0]), float(cross[1])),
                    nx=int(nx), ny=int(ny))


def tied_nx(ell: float, cross, ny: int) -> int:
    """The node count along (-ell, ell) that ties the spacing hx to the
    transverse spacing hy of ``ny`` nodes on ``cross`` (hx = hy, rounded
    to the nearest node count)."""
    hy = (cross[1] - cross[0]) / (ny - 1)
    return int(round(2.0 * ell / hy)) + 1


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Piecewise-linear nodal field over a RectGrid."""

    grid: RectGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n_nodes,):
            raise ValueError(
                f"expected {self.grid.n_nodes} nodal values, got {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("nodal values must be finite")
        object.__setattr__(self, "values", vals)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        if other.grid != self.grid:
            raise ValueError("grid mismatch in GridFunction arithmetic")
        return GridFunction(self.grid, self.values - other.values)

    def as_rows(self) -> np.ndarray:
        """Values reshaped to (ny, nx)."""
        return self.values.reshape(self.grid.ny, self.grid.nx)

    @classmethod
    def from_callable(cls, grid: RectGrid, fn) -> "GridFunction":
        X, Y = grid.node_coords()
        return cls(grid, np.asarray(fn(X, Y), dtype=float))

    @classmethod
    def constant(cls, grid: RectGrid, c: float) -> "GridFunction":
        return cls(grid, np.full(grid.n_nodes, float(c)))


@dataclass(frozen=True)
class Window:
    """Axis-aligned measurement rectangle, strictly inside the grid."""

    x_lo: float
    x_hi: float
    y_lo: float
    y_hi: float

    def __post_init__(self):
        if not (self.x_lo < self.x_hi and self.y_lo < self.y_hi):
            raise ValueError(f"degenerate window {self}")

    @property
    def area(self) -> float:
        return (self.x_hi - self.x_lo) * (self.y_hi - self.y_lo)

    def margins_to(self, outer: "Window") -> tuple:
        """(left, right, bottom, top) gaps from self inside outer."""
        return (self.x_lo - outer.x_lo, outer.x_hi - self.x_hi,
                self.y_lo - outer.y_lo, outer.y_hi - self.y_hi)


def require_window_inside(grid: RectGrid, w: Window):
    """Window boundary must keep at least one cell of margin to the grid."""
    tiny = 1e-12 * max(grid.hx, grid.hy)
    if not (w.x_lo >= -grid.ell + grid.hx - tiny and
            w.x_hi <= grid.ell - grid.hx + tiny and
            w.y_lo >= grid.cross[0] + grid.hy - tiny and
            w.y_hi <= grid.cross[1] - grid.hy + tiny):
        raise ValueError(
            f"window {w} is not interior to the grid by one cell "
            f"(ell={grid.ell}, cross={grid.cross}, hx={grid.hx}, hy={grid.hy})")


def gradient_per_cell(u: GridFunction) -> np.ndarray:
    """Constant gradient of the affine interpolant, per triangle (T, 2),
    over the whole mesh in :meth:`RectGrid.triangles` order."""
    grid = u.grid
    tri = grid.triangles()
    b = grid.gradient_coefficients()
    return np.einsum("tk,tkd->td", u.values[tri], b)


def _unit_span(nodes: np.ndarray, lo: float, hi: float):
    """[lo, hi] clipped to each cell [nodes[k], nodes[k+1]], as the pair
    (start, end) in that cell's unit coordinate.  A cell edge covered by
    the interval maps to exactly 0 or 1, so a covered cell weighs exactly
    the triangle area, and a missed cell to start == end.
    """
    left, right = nodes[:-1], nodes[1:]
    width = right - left
    return ((np.clip(lo, left, right) - left) / width,
            (np.clip(hi, left, right) - left) / width)


def _overlap_areas(grid: RectGrid, u0, u1, v0, v1):
    """Overlap areas with the window of the lower and of the upper
    triangles of the cells (rows x columns) whose unit spans are (u0, u1)
    across and (v0, v1) up (:func:`_unit_span`).

    In the unit coordinates (u, v) of a cell the lower triangle is v <= u.
    With the window clipped to the cell as [u0, u1] x [v0, v1], the lower
    overlap is hx hy (R(u1 - v0) - R(u0 - v0)), where R(t) = int_0^t
    clip(s, 0, v1 - v0) ds = c (t - c/2) with c = clip(t, 0, v1 - v0);
    the upper overlap is the rest of the clipped rectangle.
    """
    v0, v1 = v0[:, None], v1[:, None]
    span = v1 - v0

    def ramp_integral(t):
        c = np.clip(t, 0.0, span)
        return c * (t - 0.5 * c)

    cell = grid.hx * grid.hy
    lower = cell * (ramp_integral(u1 - v0) - ramp_integral(u0 - v0))
    # where the window misses the upper triangle, rounding can leave the
    # difference an ulp below zero
    upper = np.maximum(cell * ((u1 - u0) * span) - lower, 0.0)
    return lower, upper


def triangle_window_weights(grid: RectGrid, w: Window) -> np.ndarray:
    """Overlap area with the window, per triangle, in ``triangles()`` order
    (every lower triangle, j-major, then every upper one), over the whole
    mesh: the tests' reference for :func:`lp_norm_gradient`."""
    u0, u1 = _unit_span(grid.x, w.x_lo, w.x_hi)
    v0, v1 = _unit_span(grid.y, w.y_lo, w.y_hi)
    lower, upper = _overlap_areas(grid, u0, u1, v0, v1)
    return np.concatenate([lower.ravel(), upper.ravel()])


def _meeting(start, end) -> slice:
    """The cells whose unit spans (start, end) are not empty: one run,
    since the window is an interval."""
    met = np.flatnonzero(end > start)
    return slice(met[0], met[-1] + 1) if met.size else slice(0, 0)


def lp_norm_gradient(u: GridFunction, p: float, w: Window) -> float:
    """|| grad u ||_{L^p(w)} with exact partial-cell area weighting.

    Only the block of cells that meets the window is read: every triangle
    outside it weighs exactly 0.  On the block the weights are those of
    :func:`triangle_window_weights` and the gradients those of
    :func:`gradient_per_cell`, each upper triangle (n00, n11, n01) read
    as the lower shape turned by a half-turn, with the nodes (n11, n01,
    n00), which flips the sign of its gradient and leaves its magnitude.
    """
    grid = u.grid
    require_window_inside(grid, w)
    u0, u1 = _unit_span(grid.x, w.x_lo, w.x_hi)
    v0, v1 = _unit_span(grid.y, w.y_lo, w.y_hi)
    cols, rows = _meeting(u0, u1), _meeting(v0, v1)
    areas = _overlap_areas(grid, u0[cols], u1[cols], v0[rows], v1[rows])
    vals = u.as_rows()[rows.start:rows.stop + 1, cols.start:cols.stop + 1]
    n00, n10 = vals[:-1, :-1], vals[:-1, 1:]
    n01, n11 = vals[1:, :-1], vals[1:, 1:]
    shape = grid.lower_shape()
    total = 0.0
    for area, nodes in zip(areas, ((n00, n10, n11), (n11, n01, n00))):
        g = np.einsum("kij,kd->dij", np.stack(nodes), shape)
        total += np.sum(area * np.hypot(g[0], g[1]) ** p)
    return float(total ** (1.0 / p))


def window_node_mask(grid: RectGrid, w: Window) -> np.ndarray:
    """Boolean mask of nodes lying in the closed window."""
    X, Y = grid.node_coords()
    tiny = 1e-12 * max(grid.hx, grid.hy)
    return ((X >= w.x_lo - tiny) & (X <= w.x_hi + tiny) &
            (Y >= w.y_lo - tiny) & (Y <= w.y_hi + tiny))


def embed_cross_section(prof: "CrossProfile", g: RectGrid) -> GridFunction:
    """Extend a cross-sectional profile constantly along the cylinder axis.

    The profile interval must coincide with the grid cross-section; nodal
    ordinates that differ from the profile's grid are filled by linear
    interpolation.
    """
    y0, y1 = prof.interval
    gy0, gy1 = g.cross
    if abs(y0 - gy0) > 1e-12 * (1 + abs(gy0)) or \
            abs(y1 - gy1) > 1e-12 * (1 + abs(gy1)):
        raise ValueError(
            f"profile interval ({y0}, {y1}) does not match the grid "
            f"cross-section {g.cross}")
    column = np.interp(g.y, prof.y, prof.values)
    return GridFunction(g, np.repeat(column, g.nx))


def distance_profile_start(prof: "CrossProfile", g: RectGrid) -> GridFunction:
    """The start of a cylinder solve from its cross-sectional profile P on
    (y0, y1): max(P(y), P(y0 + min(ell - |x|, (y1 - y0)/2))) at node (x, y),
    the profile of the distance to the nearer boundary side.

    Away from the ends this is :func:`embed_cross_section`; within half
    the width of an end it also carries the end's boundary layer, which P
    at the distance to that end approximates.  On the SW-NE split with
    hx = hy, a P1 field of y alone or of x alone has the 1D segment
    gradient on every triangle, so each piece solves the cylinder's
    interior equations away from where the two meet (the x piece within
    half the width of its end).  The distance to the end is taken from
    the column index, so the start is as symmetric under x -> -x as the
    nodes are.
    """
    rows = embed_cross_section(prof, g).as_rows().copy()
    i = np.arange(g.nx)
    dist = np.minimum(i, g.nx - 1 - i) * g.hx
    near = dist < 0.5 * (g.cross[1] - g.cross[0])
    rows[:, near] = np.maximum(rows[:, near],
                               prof.value_at(g.cross[0] + dist[near]))
    return GridFunction(g, rows.ravel())


def cutoff_function(inner: Window, outer: Window, g: RectGrid) -> GridFunction:
    """Piecewise-linear cutoff: 1 on inner, 0 outside outer.

    Nodal values sample the ramp ``min over sides of (distance to the
    outer side) / (margin of that side)``, clipped to [0, 1]; the
    interpolant's gradient is bounded by 2/gap, where gap is the smallest
    margin (the exact ramp slope is 1/margin per side, and triangles
    straddling the two anti-diagonal ramp corners reach sqrt(2) times
    that).
    """
    margins = inner.margins_to(outer)
    if min(margins) <= 0:
        raise ValueError(
            f"inner window must be strictly inside outer; margins {margins}")
    require_window_inside(g, outer)
    ml, mr, mb, mt = margins
    X, Y = g.node_coords()
    ramp = np.minimum.reduce([(X - outer.x_lo) / ml, (outer.x_hi - X) / mr,
                              (Y - outer.y_lo) / mb, (outer.y_hi - Y) / mt])
    return GridFunction(g, np.clip(ramp, 0.0, 1.0))


@contextlib.contextmanager
def replacing_file(path, newline=None):
    """A text file to write ``path`` through: a temporary file in the same
    directory that replaces ``path`` (``os.replace``) only once the block
    has finished, and is removed if it raises, so that no file is ever
    half-written."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_grid_function(u: GridFunction, path, sidecar_path=None):
    """CSV (x, y, value) in row-major node order, plus a JSON sidecar, each
    written through :func:`replacing_file`."""
    X, Y = u.grid.node_coords()
    with replacing_file(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "value"])
        for x, y, v in zip(X, Y, u.values):
            writer.writerow([repr(float(x)), repr(float(y)), repr(float(v))])
    if sidecar_path is not None:
        meta = {"ell": u.grid.ell, "cross": list(u.grid.cross),
                "nx": u.grid.nx, "ny": u.grid.ny}
        with replacing_file(sidecar_path) as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
            fh.write("\n")
