"""Mesh construction, per-cell gradients, windowed norms, cutoffs."""

import csv
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from plaplab import (GridFunction, Nonlinearity, SolverConfig, Window,
                     build_grid, check_a1, cutoff_function,
                     distance_profile_start, embed_cross_section,
                     gradient_per_cell, lp_norm_gradient, solve_cross_finite,
                     solve_cross_large, write_grid_function)
from plaplab.grid import tied_nx, triangle_window_weights


class TestBuildGrid:
    def test_counting(self):
        g = build_grid(1.0, (0.0, 1.0), 3, 3)
        assert g.n_triangles == 8
        assert g.hx == 1.0 and g.hy == 0.5
        assert g.triangle_area() == 0.25

    def test_spacings(self):
        g = build_grid(4.0, (0.0, 1.0), 9, 5)
        assert g.hx == 1.0 and g.hy == 0.25

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            build_grid(1.0, (0.0, 1.0), 2, 3)
        with pytest.raises(ValueError):
            build_grid(1.0, (1.0, 0.0), 5, 5)
        with pytest.raises(ValueError):
            build_grid(0.0, (0.0, 1.0), 5, 5)

    @pytest.mark.parametrize("ell, cross, ny, nx", [
        (2.0, (-2.0, 2.0), 33, 33),
        (16.0, (-2.0, 2.0), 65, 513),
        (1.0, (0.0, 1.0), 9, 17),
        # 2 ell / hy = 5.2: the nearest node count, hx = 2.6 / 5 ~ hy
        (1.3, (0.0, 1.0), 3, 6),
    ])
    def test_tied_spacing(self, ell, cross, ny, nx):
        assert tied_nx(ell, cross, ny) == nx

    def test_lumped_mass_partitions_area(self):
        g = build_grid(1.5, (0.0, 2.0), 7, 9)
        assert np.sum(g.lumped_mass()) == pytest.approx(3.0 * 2.0, rel=1e-14)

    def test_non_finite_values_rejected(self):
        g = build_grid(1.0, (0.0, 1.0), 3, 3)
        with pytest.raises(ValueError):
            GridFunction(g, np.full(9, np.inf))


class TestGradients:
    def test_affine_reproduction(self):
        g = build_grid(2.0, (0.0, 1.0), 17, 13)
        u = GridFunction.from_callable(g, lambda X, Y: 3.0 * X - 2.0 * Y)
        gu = gradient_per_cell(u)
        assert np.max(np.abs(gu[:, 0] - 3.0)) < 1e-13
        assert np.max(np.abs(gu[:, 1] + 2.0)) < 1e-13

    def test_constant_field(self):
        g = build_grid(1.0, (0.0, 1.0), 5, 5)
        gu = gradient_per_cell(GridFunction.constant(g, 7.0))
        assert np.max(np.abs(gu)) == 0.0

    def test_quadratic_taylor_bound(self):
        g = build_grid(1.0, (0.0, 1.0), 21, 5)
        h = g.hx
        u = GridFunction.from_callable(g, lambda X, Y: X ** 2)
        gu = gradient_per_cell(u)
        X, Y = g.node_coords()
        centers = X[g.triangles()].mean(axis=1)
        assert np.max(np.abs(gu[:, 0] - 2.0 * centers)) <= h


@st.composite
def windowed_fields(draw):
    """A random field on a grid of 4 to 33 nodes across, cells of aspect
    hx / hy in [1, 4], p in [1.1, 4], and a window one cell inside the
    grid whose edges lie on node lines or between them.  (Three nodes
    across leave no room for a window.)"""
    ny, nx = draw(st.integers(4, 33)), draw(st.integers(4, 40))
    hy = 2.0 / (ny - 1)
    g = build_grid(0.5 * (nx - 1) * draw(st.floats(1.0, 4.0)) * hy,
                   (-1.0, 1.0), nx, ny)

    def edges(nodes):
        inner = nodes[1:-1]
        edge = st.one_of(st.sampled_from(list(inner)),
                         st.floats(inner[0], inner[-1]))
        lo, hi = sorted(draw(st.tuples(edge, edge)))
        assume(hi > lo)
        return lo, hi

    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return (GridFunction(g, rng.standard_normal(g.n_nodes)),
            draw(st.floats(1.1, 4.0)), Window(*edges(g.x), *edges(g.y)))


class TestLpNorms:
    def test_constant_integrand(self):
        g = build_grid(2.0, (0.0, 1.0), 33, 17)
        u = GridFunction.from_callable(g, lambda X, Y: 3.0 * X - 2.0 * Y)
        w = Window(-1.0, 1.0, 0.25, 0.75)
        assert lp_norm_gradient(u, 2.0, w) == pytest.approx(
            math.sqrt(13.0 * w.area), rel=1e-13)

    def test_zero_for_constants(self):
        g = build_grid(2.0, (0.0, 1.0), 9, 9)
        u = GridFunction.constant(g, 5.0)
        assert lp_norm_gradient(u, 2.5, Window(-1, 1, 0.25, 0.75)) == 0.0

    def test_unit_slope_pcubed(self):
        g = build_grid(2.0, (0.0, 1.0), 21, 11)
        u = GridFunction.from_callable(g, lambda X, Y: X)
        w = Window(-0.625, 0.625, 0.1, 0.9)  # unit area
        assert lp_norm_gradient(u, 3.0, w) == pytest.approx(1.0, rel=1e-13)

    def test_homogeneity(self):
        g = build_grid(2.0, (0.0, 1.0), 17, 9)
        rng = np.random.default_rng(3)
        vals = rng.standard_normal(g.n_nodes)
        w = Window(-1.0, 1.0, 0.25, 0.75)
        base = lp_norm_gradient(GridFunction(g, vals), 1.7, w)
        scaled = lp_norm_gradient(GridFunction(g, -4.0 * vals), 1.7, w)
        assert scaled == pytest.approx(4.0 * base, rel=1e-13)

    def test_window_additivity_on_cell_lines(self):
        g = build_grid(2.0, (0.0, 1.0), 17, 9)
        rng = np.random.default_rng(5)
        u = GridFunction(g, rng.standard_normal(g.n_nodes))
        p = 2.5
        left = lp_norm_gradient(u, p, Window(-1.0, 0.0, 0.25, 0.75))
        right = lp_norm_gradient(u, p, Window(0.0, 1.0, 0.25, 0.75))
        union = lp_norm_gradient(u, p, Window(-1.0, 1.0, 0.25, 0.75))
        assert (left ** p + right ** p) ** (1 / p) == pytest.approx(
            union, rel=1e-13)

    def test_partial_overlap_weights(self):
        g = build_grid(2.0, (0.0, 1.0), 21, 11)
        w = Window(-0.953, 0.9271, 0.2135, 0.7862)  # not cell-aligned
        weights = triangle_window_weights(g, w)
        assert np.sum(weights) == pytest.approx(w.area, rel=1e-12)

    def test_window_must_keep_margin(self):
        g = build_grid(1.0, (0.0, 1.0), 11, 11)
        u = GridFunction.constant(g, 0.0)
        with pytest.raises(ValueError, match="one cell"):
            lp_norm_gradient(u, 2.0, Window(-0.99, 0.5, 0.2, 0.8))

    @settings(max_examples=100, deadline=None)
    @given(case=windowed_fields())
    def test_block_matches_the_whole_mesh(self, case):
        # the norm reads only the cells that meet the window; weighting
        # every triangle of the mesh gives it to the order of the sums
        u, p, w = case
        mag = np.hypot(*gradient_per_cell(u).T)
        whole = np.sum(triangle_window_weights(u.grid, w) * mag ** p) ** (
            1.0 / p)
        assert abs(lp_norm_gradient(u, p, w) - whole) <= (
            4.0 * np.finfo(float).eps * whole)


def cell_weights(g, w):
    """Triangle weights as (lower, upper) arrays of shape (ny-1, nx-1)."""
    lower, upper = np.split(triangle_window_weights(g, w), 2)
    shape = (g.ny - 1, g.nx - 1)
    return lower.reshape(shape), upper.reshape(shape)


@st.composite
def grids_and_windows(draw):
    """A grid and a window inside it whose edges are grid lines or
    arbitrary abscissae and ordinates."""
    y0 = draw(st.floats(-4.0, 4.0))
    cross = (y0, y0 + draw(st.floats(0.1, 8.0)))
    g = build_grid(draw(st.floats(0.25, 8.0)), cross,
                   draw(st.integers(3, 40)), draw(st.integers(3, 40)))

    def edges(nodes):
        edge = st.one_of(st.sampled_from(list(nodes)),
                         st.floats(nodes[0], nodes[-1]))
        lo, hi = sorted(draw(st.tuples(edge, edge)))
        assume(hi - lo > 1e-9 * (nodes[-1] - nodes[0]))
        return lo, hi

    return g, Window(*edges(g.x), *edges(g.y))


class TestWindowWeights:
    @pytest.mark.parametrize("window, share", [
        ((0.0, 0.5, 0.25, 0.375), (3 / 8, 1 / 8)),
        ((0.0, 0.5, 0.375, 0.5), (1 / 8, 3 / 8)),
        ((0.0, 0.25, 0.25, 0.5), (1 / 8, 3 / 8)),
        ((0.25, 0.5, 0.25, 0.5), (3 / 8, 1 / 8)),
    ], ids=["bottom", "top", "left", "right"])
    def test_half_of_one_cell(self, window, share):
        # in unit coordinates the lower triangle is v <= u: below v = 1/2
        # it covers int_0^1 min(u, 1/2) du = 3/8 of the cell, above it 1/8
        g = build_grid(2.0, (0.0, 1.0), 9, 5)   # hx = 0.5, hy = 0.25
        lower, upper = cell_weights(g, Window(*window))
        cell = g.hx * g.hy
        assert lower[1, 4] == pytest.approx(share[0] * cell, rel=1e-15)
        assert upper[1, 4] == pytest.approx(share[1] * cell, rel=1e-15)
        lower[1, 4] = upper[1, 4] = 0.0
        assert not np.any(lower) and not np.any(upper)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(3, 30),
           edges=st.tuples(*[st.floats(-1.0, 1.0)] * 4))
    def test_transposition_swaps_lower_and_upper(self, n, edges):
        # on a square lattice the reflection x <-> y maps the lower
        # triangle of cell (j, i) onto the upper triangle of cell (i, j)
        a, b = sorted(edges[:2])
        c, d = sorted(edges[2:])
        assume(b > a and d > c)
        g = build_grid(1.0, (-1.0, 1.0), n, n)
        lower, upper = cell_weights(g, Window(a, b, c, d))
        lower_t, upper_t = cell_weights(g, Window(c, d, a, b))
        tol = 1e-14 * g.hx * g.hy
        assert np.max(np.abs(lower - upper_t.T)) <= tol
        assert np.max(np.abs(upper - lower_t.T)) <= tol

    @settings(max_examples=100, deadline=None)
    @given(case=grids_and_windows())
    def test_cells_partition_the_window(self, case):
        g, w = case
        lower, upper = cell_weights(g, w)
        assert np.all(lower >= 0.0) and np.all(upper >= 0.0)
        # per cell, the two triangles share the window clipped to the cell;
        # the nodes sit hx, hy apart only to the roundoff of coordinates
        # of their size, which moves a cell's area by that times a side
        x, y = g.x, g.y
        dx = np.clip(w.x_hi, x[:-1], x[1:]) - np.clip(w.x_lo, x[:-1], x[1:])
        dy = np.clip(w.y_hi, y[:-1], y[1:]) - np.clip(w.y_lo, y[:-1], y[1:])
        clipped = dy[:, None] * dx[None, :]
        roundoff = np.finfo(float).eps * max(g.ell, *np.abs(g.cross))
        tol = 1e-13 * g.hx * g.hy + 4.0 * roundoff * (g.hx + g.hy)
        assert np.max(np.abs(lower + upper - clipped)) <= tol
        assert abs(np.sum(lower + upper) - w.area) <= (
            1e-12 * w.area + tol * (g.nx + g.ny))
        # fully covered cells carry exactly the triangle area
        inside = (((w.y_lo <= y[:-1]) & (y[1:] <= w.y_hi))[:, None] &
                  ((w.x_lo <= x[:-1]) & (x[1:] <= w.x_hi))[None, :])
        assert np.all(lower[inside] == g.triangle_area())
        assert np.all(upper[inside] == g.triangle_area())


class TestEmbed:
    def test_constant_profile(self):
        prof = solve_cross_finite(Nonlinearity.zero(), SolverConfig(p=2.0),
                                  (0, 1), 2.5, 2.5, 41)
        g = build_grid(3.0, (0.0, 1.0), 13, 21)
        gf = embed_cross_section(prof, g)
        assert np.max(np.abs(gf.values - 2.5)) < 1e-12

    def test_embedded_field_has_no_axial_derivative(self):
        prof = solve_cross_finite(Nonlinearity.power(1, 1),
                                  SolverConfig(p=2.0), (0, 1), 1.0, 1.0, 401)
        g = build_grid(2.0, (0.0, 1.0), 9, 101)
        gf = embed_cross_section(prof, g)
        gu = gradient_per_cell(gf)
        assert np.max(np.abs(gu[:, 0])) == 0.0

    def test_resampling_interpolation_bound(self):
        # embed a 401-node analytic table into a grid with unrelated
        # ordinates; the linear-interp error obeys max|u''| h^2 / 8
        y = np.linspace(0.0, 1.0, 401)
        table = np.cosh(y - 0.5) / np.cosh(0.5)

        class FakeProfile:
            interval = (0.0, 1.0)
            y = None
            values = None
        prof = FakeProfile()
        prof.y = y
        prof.values = table
        g = build_grid(1.0, (0.0, 1.0), 5, 100)   # ordinates j/99
        gf = embed_cross_section(prof, g)
        exact = np.cosh(g.y - 0.5) / np.cosh(0.5)
        h_table = 1.0 / 400.0
        bound = np.max(np.abs(exact)) * h_table ** 2 / 8.0
        err = np.max(np.abs(gf.as_rows()[:, 0] - exact))
        assert err <= bound * 1.01
        # shared ordinates reproduce the table exactly
        g2 = build_grid(1.0, (0.0, 1.0), 5, 101)  # ordinates j/100 = 4j/400
        gf2 = embed_cross_section(prof, g2)
        assert np.max(np.abs(gf2.as_rows()[:, 0] - table[::4])) == 0.0

    def test_interval_mismatch_rejected(self):
        prof = solve_cross_finite(Nonlinearity.zero(), SolverConfig(p=2.0),
                                  (0, 1), 1.0, 1.0, 11)
        g = build_grid(1.0, (0.0, 2.0), 5, 5)
        with pytest.raises(ValueError, match="does not match"):
            embed_cross_section(prof, g)


class TestDistanceProfileStart:
    """The start of a cylinder solve from its cross-sectional reference P:
    max(P(y), P(y0 + min(ell - |x|, width / 2))) on a grid with hx = hy."""

    @settings(max_examples=40, deadline=None)
    @given(p=st.floats(1.5, 3.0),
           nl=st.one_of(
               st.builds(Nonlinearity.power, st.floats(0.5, 4.0),
                         st.floats(1.0, 5.0)),
               st.builds(Nonlinearity.exp_minus_one, st.floats(0.5, 2.0))),
           y0=st.floats(-2.0, 1.0), width=st.sampled_from([1.0, 2.0, 4.0]),
           ny=st.sampled_from([5, 9, 17]), cells=st.integers(2, 80),
           level=st.one_of(st.floats(0.25, 4.0), st.just("blowup")))
    def test_ends_carry_the_boundary_level_and_the_middle_the_profile(
            self, p, nl, y0, width, ny, cells, level):
        cross = (y0, y0 + width)
        cfg = SolverConfig(p=p, tol=1e-11)
        if level == "blowup":
            assume(check_a1(nl, p))
            level = 100.0
            prof = solve_cross_large(nl, cfg, cross, (10.0, level), ny)[0][-1]
        else:
            prof = solve_cross_finite(nl, cfg, cross, level, level, ny)
        # cells columns of the transverse spacing: hx = hy
        g = build_grid(0.5 * cells * width / (ny - 1), cross, cells + 1, ny)
        assert g.nx == tied_nx(g.ell, cross, ny)
        start = distance_profile_start(prof, g)
        rows = start.as_rows()
        embedded = embed_cross_section(prof, g).as_rows()
        # columns at least half the width from both ends: the profile alone
        i = np.arange(g.nx)
        middle = 2 * np.minimum(i, g.nx - 1 - i) >= ny - 1
        assert np.array_equal(rows[:, middle], embedded[:, middle])
        # the end columns: the boundary level, as on the fixed nodes
        assert np.all(rows[:, [0, -1]] == level)
        assert np.all(rows >= embedded)
        # the half-turn n -> N - 1 - n, whose kept half the solver reads
        values = start.values
        assert np.max(np.abs(values - values[::-1])) <= \
            4.0 * np.finfo(float).eps * np.max(np.abs(values))

    def test_near_an_end_the_profile_at_the_distance_to_it(self):
        prof = solve_cross_finite(Nonlinearity.power(2, 3),
                                  SolverConfig(p=2.0), (0.0, 2.0), 1.0, 1.0,
                                  9)
        g = build_grid(2.0, (0.0, 2.0), 17, 9)  # hx = hy = 1/4
        rows = distance_profile_start(prof, g).as_rows()
        # column 1 lies one cell from its end: P at y0 + h, a row-1 value,
        # above every row but the two next to the boundary
        expected = np.maximum(prof.values, prof.values[1])
        assert np.array_equal(rows[:, 1], expected)
        assert np.array_equal(rows[:, -2], expected)
        assert np.all(expected[2:-2] == prof.values[1])


class TestCutoff:
    def test_plateau_and_support(self):
        g = build_grid(2.0, (0.0, 2.0), 81, 81)
        inner = Window(-1.0, 1.0, 0.5, 1.5)
        outer = Window(-1.5, 1.5, 0.25, 1.75)
        chi = cutoff_function(inner, outer, g)
        X, Y = g.node_coords()
        on_inner = (np.abs(X) <= 1.0) & (Y >= 0.5) & (Y <= 1.5)
        off_outer = (np.abs(X) >= 1.5) | (Y <= 0.25) | (Y >= 1.75)
        assert np.all(chi.values[on_inner] == 1.0)
        assert np.all(chi.values[off_outer] == 0.0)
        assert chi.values.min() >= 0.0 and chi.values.max() <= 1.0

    def test_ramp_slope_with_uniform_margin(self):
        # equal margins d: the exact ramp slope is 1/d; triangles straddling
        # the two anti-diagonal ramp corners reach sqrt(2)/d, still within
        # the contract bound 2/d
        g = build_grid(2.0, (0.0, 2.0), 65, 65)
        d = 0.5
        outer = Window(-1.5, 1.5, 0.25, 1.75)
        inner = Window(-1.5 + d, 1.5 - d, 0.25 + d, 1.75 - d)
        chi = cutoff_function(inner, outer, g)
        mag = np.hypot(*gradient_per_cell(chi).T)
        assert mag.max() <= 2.0 / d + 1e-12
        assert mag.max() <= math.sqrt(2.0) / d + 1e-12
        # away from the breakline cells the slope is exactly 1/d
        active = mag[mag > 1e-9]
        assert np.median(active) == pytest.approx(1.0 / d, rel=1e-12)
        exact_fraction = np.mean(np.abs(active - 1.0 / d) < 1e-9 / d)
        assert exact_fraction > 0.8

    def test_ramp_energy_matches_analytic(self):
        # |grad chi| = 1/d a.e. on the ramp annulus, so the p = 2 energy is
        # (outer area - inner area) / d^2; corner cells account for the
        # small surplus, within 5 percent at d = 10 cells
        g = build_grid(2.0, (0.0, 2.0), 161, 161)
        d = 10 * g.hx
        outer = Window(-1.5, 1.5, 0.25, 1.75)
        inner = Window(-1.5 + d, 1.5 - d, 0.25 + d, 1.75 - d)
        chi = cutoff_function(inner, outer, g)
        energy = lp_norm_gradient(chi, 2.0, outer) ** 2
        analytic = (outer.area - inner.area) / d ** 2
        assert abs(energy - analytic) <= 0.05 * analytic

    def test_nesting_violations_rejected(self):
        g = build_grid(2.0, (0.0, 2.0), 33, 33)
        w = Window(-1.0, 1.0, 0.5, 1.5)
        with pytest.raises(ValueError):
            cutoff_function(w, w, g)
        with pytest.raises(ValueError):
            cutoff_function(Window(-1.6, 1.0, 0.5, 1.5),
                            Window(-1.5, 1.5, 0.25, 1.75), g)


class TestSerialization:
    def test_csv_layout_and_sidecar(self, tmp_path):
        g = build_grid(1.0, (0.0, 1.0), 3, 3)
        u = GridFunction.from_callable(g, lambda X, Y: X + 10.0 * Y)
        csv_path = tmp_path / "u.csv"
        meta_path = tmp_path / "u.meta.json"
        write_grid_function(u, csv_path, meta_path)
        with open(csv_path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x", "y", "value"]
        assert len(rows) == 1 + g.n_nodes
        # row-major: first row of nodes sweeps x at the lowest y
        assert [float(v) for v in rows[1]] == [-1.0, 0.0, -1.0]
        assert [float(v) for v in rows[2]] == [0.0, 0.0, 0.0]
        meta = json.loads(meta_path.read_text())
        assert meta == {"ell": 1.0, "cross": [0.0, 1.0], "nx": 3, "ny": 3}
