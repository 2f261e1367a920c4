"""The hot loops against their textbook expressions, bit for bit.

The semi-wave operator, both explicit steps, the lattice convolution and the
reaction extension update their temporaries in place.  Each must still do
the same floating-point operations in the same order as the plain
expression written out here, which is what keeps artifacts byte-identical
across refactors; ``np.array_equal`` on fixed random inputs checks it.
The diffusion rate is d = 0.7, not 1, and the time steps are as long as
stability allows, so that a reordered operation shows in the last bits.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from scipy.fft import irfft, next_fast_len, rfft
from scipy.linalg.blas import dtbsv
from scipy.linalg.lapack import dpttrs

from frontlab import (
    SemiWaveParams,
    apply_A,
    choose_M,
    make_gaussian,
    make_laplace,
    make_polynomial,
    make_power,
    make_uniform,
    trapezoid_weights,
    truncate,
)
from frontlab.cauchy import CauchyState, cauchy_step
from frontlab.fbsim import FieldState, _active_range, _quad_weighted, step
from frontlab.numerics import FFT_MIN_NODES, LatticeConvolution, UniformGrid
from frontlab.semiwave import _exp_cell_weights, _Operator, _workspace


def _reference_apply(phi, c, d, r, M, sigma, ws):
    w_tilde = (
        d * (ws.row_scale * ws.lattice(ws.trap_w * phi) + ws.far)
        + d * sigma * ws.a_x
        + (c * M - d) * phi
        + r.f(phi)
    )
    alpha, beta, E = _exp_cell_weights(M, ws.h)
    cell = alpha * w_tilde[:-1] + beta * w_tilde[1:]
    # I[j] = cell[j] + E*I[j+1]: back substitution on the unit upper
    # bidiagonal band with superdiagonal -E
    band = np.zeros((2, cell.size), order="F")
    band[0, 1:] = -E
    acc = dtbsv(1, band, cell, lower=0, diag=1)
    out = np.empty_like(phi)
    out[:-1] = acc / c
    out[-1] = 0.0
    if sigma != 0.0:
        out[:-1] += sigma * np.exp(M * ws.x[:-1])
        out[-1] = sigma
    return out


@pytest.mark.parametrize("sigma", [0.0, 0.3])
@pytest.mark.parametrize(
    "kname, n_cells", [("uniform", 1200), ("laplace", 1200), ("gaussian", 300)]
)
def test_semiwave_operator(logistic, kname, n_cells, sigma):
    make = {"uniform": make_uniform, "laplace": make_laplace, "gaussian": make_gaussian}[kname]
    k = make() if kname == "laplace" else make(1.0)
    params = SemiWaveParams(depth=30.0, n_cells=n_cells)
    ws = _workspace(k, 30.0, n_cells)
    phi = np.random.default_rng(n_cells).uniform(0.0, 1.0, n_cells + 1)
    d = 0.7
    for c in (0.5, 0.9):
        M = choose_M(c, d, logistic)
        out = apply_A(phi, c, d, k, logistic, M, sigma, params)
        assert np.array_equal(out, _reference_apply(phi, c, d, logistic, M, sigma, ws))


@pytest.mark.parametrize("sigma", [0.0, 0.3])
@pytest.mark.parametrize("start", [0, 1, 600, 1199])
def test_semiwave_integrate_on_a_suffix(logistic, start, sigma):
    # the pinned phase integrates only the nodes from -L/2 to the front
    ws = _workspace(make_laplace(), 30.0, 1200)
    w = np.random.default_rng(start).uniform(0.0, 3.0, 1201)
    kept = w.copy()
    A = _Operator(0.9, 0.7, logistic, choose_M(0.9, 0.7, logistic), sigma, ws)
    full = A.integrate(w)
    assert np.array_equal(A.integrate(w[start:]), full[start:])
    assert np.array_equal(w, kept)


def _reference_weighted(s, x_0, x_last):
    n = s.u.size
    if n == 1:
        w = np.array([0.5 * (s.h - s.g)])
    else:
        w = trapezoid_weights(n, s.dx)
        w[0] += 0.5 * (x_0 - s.g)
        w[-1] += 0.5 * (s.h - x_last)
    return w * s.u


# the tail table's 16 Chebyshev points of one cell, in cells
_TABLE_NODES = np.sin(0.5 * np.pi * np.arange(16) / 15) ** 2


def _reference_barycentric(t, values):
    """The second barycentric formula on the table's points, value by value."""
    num = den = 0.0
    for j, (node, v) in enumerate(zip(_TABLE_NODES.tolist(), values)):
        if t == node:
            return v
        c = (-1.0) ** j * (0.5 if j in (0, 15) else 1.0) / (t - node)
        num += c * v
        den += c
    return num / den


def _reference_table_fluxes(k, dx, wu, j0, g, h):
    """Both fluxes off a tail table sampled for this window alone: the
    (16 x n) table of a(-(m*dx + theta)) times the (n x 2) operand [wu
    reversed, wu], each column interpolated at its boundary's offset."""
    n = wu.size
    checks = np.sin(0.5 * np.pi * (np.arange(15) + 0.5) / 15) ** 2
    points = np.concatenate((_TABLE_NODES, checks))[:, None] * dx
    table = np.asarray(k.tail_mass(-(np.arange(n) * dx + points)), dtype=float)[:16]
    pair = np.empty((n, 2))
    pair[:, 0] = wu[::-1]
    pair[:, 1] = wu
    sums_h, sums_g = (table @ pair).T.tolist()
    x_0, x_last = j0 * dx, (j0 + n - 1) * dx
    return (
        _reference_barycentric((h - x_last) / dx, sums_h),
        _reference_barycentric((x_0 - g) / dx, sums_g),
    )


def _reference_step(s, dt, d, mu, k, r, conv, table):
    u, dx = s.u, s.dx
    n = u.size
    x_0, x_last = s.j0 * dx, (s.j0 + n - 1) * dx
    wu = _reference_weighted(s, x_0, x_last)
    Ju = conv(wu)
    lam = k.exp_rate
    if lam is not None:
        flux_h = math.exp(-lam * (s.h - x_last)) / lam * float(Ju[-1])
        flux_g = math.exp(-lam * (x_0 - s.g)) / lam * float(Ju[0])
    elif table:
        flux_h, flux_g = _reference_table_fluxes(k, dx, wu, s.j0, s.g, s.h)
    else:
        x = s.positions()
        flux_h = float(np.dot(wu, np.asarray(k.tail_mass(x - s.h), dtype=float)))
        flux_g = float(np.dot(wu, np.asarray(k.tail_mass(s.g - x), dtype=float)))
    u_new = u + dt * (d * Ju - d * u + r.f(u))
    clamps = int(np.count_nonzero(u_new < 0.0))
    if clamps:
        u_new = np.maximum(u_new, 0.0)
    h_new = s.h + dt * mu * flux_h
    g_new = s.g - dt * mu * flux_g
    j_lo, j_hi = _active_range(g_new, h_new, dx)
    grow_left = s.j0 - j_lo
    grow_right = j_hi - (s.j0 + n - 1)
    if grow_left or grow_right:
        u_new = np.concatenate(
            [np.zeros(max(grow_left, 0)), u_new, np.zeros(max(grow_right, 0))]
        )
    return u_new, g_new, h_new, j_lo, clamps


def _field(n, dx, rng, *, negatives=False, edge_gap=0.5):
    """A window of n nodes centred on 0; the boundaries sit ``edge_gap``
    cells beyond the end nodes."""
    j0 = -(n // 2)
    u = rng.uniform(0.0, 1.0, n)
    if negatives:
        u[::5] = -rng.uniform(0.0, 0.1, u[::5].size)
    return FieldState(
        t=0.0, g=(j0 - edge_gap) * dx, h=(j0 + n - 1 + edge_gap) * dx, dx=dx, j0=j0, u=u,
        m0star=1.0,
    )


@pytest.mark.parametrize("n", [1, 2, 139])
def test_free_boundary_quadrature(n):
    rng = np.random.default_rng(n)
    for _ in range(20):
        s = _field(n, 0.05, rng, edge_gap=rng.uniform(0.0, 1.0))
        x_0, x_last = s.j0 * s.dx, (s.j0 + n - 1) * s.dx
        assert np.array_equal(_quad_weighted(s, x_0, x_last), _reference_weighted(s, x_0, x_last))


# the Gaussian takes its fluxes from the tail table; the uniform kernel's tail
# kinks 0.6 of a cell past node 20, fails the table's check and is summed
# directly
_STEP_KERNELS = {
    "laplace": make_laplace, "gaussian": make_gaussian, "uniform": lambda: make_uniform(1.03)
}


@pytest.mark.parametrize("case", ["plain", "clamps", "grows"])
@pytest.mark.parametrize(
    "kname, n",
    [("laplace", 139), ("laplace", 1601), ("gaussian", 139), ("gaussian", 601), ("gaussian", 1),
     ("uniform", 139), ("uniform", 601)],
)
def test_free_boundary_step(logistic, kname, n, case):
    k = _STEP_KERNELS[kname]()
    d, dx, mu, v_cap = 0.7, 0.05, 0.1, 0.2
    rng = np.random.default_rng(n)
    # an end node one part in 1e7 of a cell inside the boundary: any outward
    # motion brings a new node into the window
    gap = 1.0 - 1e-7 if case == "grows" else 0.5
    s = _field(n, dx, rng, negatives=case == "clamps", edge_gap=gap)
    dt = min(0.2 / (d + logistic.lipschitz_K), 0.25 * dx / v_cap)
    out = step(s, dt, d, mu, logistic, conv=LatticeConvolution(k, dx))
    u_ref, g_ref, h_ref, j0_ref, clamps = _reference_step(
        s, dt, d, mu, k, logistic, LatticeConvolution(k, dx), kname == "gaussian"
    )
    assert np.array_equal(out.u, u_ref)
    assert (out.g, out.h, out.j0, out.clamp_count) == (g_ref, h_ref, j0_ref, clamps)
    assert (clamps > 0) == (case == "clamps")
    assert (out.u.size > n) == (case == "grows")
    # after its first call, a convolution evaluates the tail only where the
    # table failed its check: twice per call, at every node
    conv = LatticeConvolution(k, dx)
    conv.boundary_fluxes(s.u, conv(s.u), s.j0, s.g, s.h)
    tail, calls = conv.tail_mass, []
    conv.tail_mass = lambda y: calls.append(y) or tail(y)
    conv.boundary_fluxes(s.u, conv(s.u), s.j0, s.g, s.h)
    assert len(calls) == (2 if kname == "uniform" else 0)


@pytest.mark.parametrize("theta_h, theta_g", [(1.0, 0.3), (0.3, 1.0), (1.0, 1.0), (0.7, 0.2)])
@pytest.mark.parametrize("n", [1, 2, 41])
def test_tail_table_fluxes(theta_h, theta_g, n):
    # the boundaries lie theta cells beyond the end nodes; dx = 0.25 puts
    # theta = 1 exactly on the table's last node, where a side takes that
    # node's value while the other side interpolates
    k, dx = make_gaussian(1.0), 0.25
    j0 = -(n // 2)
    g, h = (j0 - theta_g) * dx, (j0 + n - 1 + theta_h) * dx
    wu = dx * np.random.default_rng(n).uniform(0.0, 1.0, n)
    conv = LatticeConvolution(k, dx)
    got = conv.boundary_fluxes(wu, conv(wu), j0, g, h)
    assert got == _reference_table_fluxes(k, dx, wu, j0, g, h)


@pytest.mark.parametrize("kname, n", [("laplace", 1601), ("gaussian", 301)])
def test_whole_line_step(logistic, kname, n):
    k = make_laplace() if kname == "laplace" else make_gaussian(1.0)
    grid = UniformGrid(-0.05 * (n - 1) / 2, 0.05 * (n - 1) / 2, n - 1)
    u = np.random.default_rng(n).uniform(0.0, 1.0, n)
    u[::7] = 0.0
    s = CauchyState(grid=grid, u=u, t=0.0)
    d, dt = 0.7, 0.2 / 1.7
    out = cauchy_step(s, dt, d, logistic, LatticeConvolution(k, grid.spacing))
    Ju = LatticeConvolution(k, grid.spacing).direct(trapezoid_weights(n, grid.spacing) * u)
    ref = np.maximum(u + dt * (d * (Ju - u) + logistic.f(u)), 0.0)
    assert np.array_equal(out.u, ref)


def _reference_fft(density, dx, N, wu):
    """The row J(m * dx), |m| <= w with w its last nonzero entry, stored
    circularly (m >= 0 first, m < 0 at the end) in next_fast_len(N + w)
    points; the first n outputs take no wrap-around."""
    row = np.asarray(density(np.arange(-(N - 1), N) * dx), dtype=float)
    w = int(np.flatnonzero(row)[-1]) - (N - 1)
    size = next_fast_len(N + w, real=True)
    circular = np.zeros(size)
    circular[: w + 1] = row[N - 1 : N + w]
    circular[size - w :] = row[N - 1 - w : N - 1]
    return irfft(rfft(wu, size) * rfft(circular), size)[: wu.size]


def _reference_tridiagonal(k, dx, wu):
    """J(0) * K @ wu for K = (r**|i-j|), as the solve T x = J(0) * (1 - r**2)
    * wu with T = K^-1 * (1 - r**2) given by its factors L D L^T."""
    n = wu.size
    if n == 1:
        return k.density(0.0) * wu
    r = math.exp(-k.exp_rate * dx)
    one_minus_r2 = -math.expm1(-2.0 * k.exp_rate * dx)
    pivots = np.ones(n)
    pivots[-1] = one_minus_r2
    x, info = dpttrs(pivots, np.full(n - 1, -r), k.density(0.0) * one_minus_r2 * wu)
    assert info == 0
    return x


def test_lattice_fft():
    # shrinking inputs exercise the zero fill of the reused padded buffer,
    # and the last size outgrows it; the power row has no exact zeros, so
    # its band is N - 1 at every capacity
    for k in (make_uniform(1.0), truncate(make_power(0.8), 10.0), make_power(0.8)):
        conv = LatticeConvolution(k, 0.025)
        rng = np.random.default_rng(2)
        for n in (1201, 700, 3, 1201, 2600):
            wu = rng.uniform(0.0, 0.1, n)
            out = conv.fft(wu)
            ref = _reference_fft(k.density, 0.025, conv.capacity, wu)
            assert np.array_equal(out, ref), (k.name, n)


def test_lattice_recursion():
    # every size takes the tridiagonal solve, and the factors kept for one
    # size must not leak into the next
    k = make_laplace()
    conv = LatticeConvolution(k, 0.05)
    rng = np.random.default_rng(3)
    for n in (1, 2, 12, FFT_MIN_NODES, 1601, 1601, 2559, 300):
        wu = rng.uniform(0.0, 0.1, n)
        assert np.array_equal(conv.direct(wu), _reference_tridiagonal(k, 0.05, wu)), n


@pytest.mark.parametrize(
    "k, n",
    [
        (dataclasses.replace(make_laplace(), exp_rate=None), 1201),  # FFT path
        (make_laplace(), 1201),  # tridiagonal solve
        (make_uniform(1.0), 301),  # direct sum
    ],
)
def test_lattice_results_never_alias(k, n):
    """A caller may update a result in place: a later call neither changes
    it nor is changed by it."""
    conv = LatticeConvolution(k, 0.05)
    rng = np.random.default_rng(4)
    a, b = rng.uniform(0.0, 0.1, n), rng.uniform(0.0, 0.1, n)
    first = conv(a)
    kept = first.copy()
    second = conv(b)
    assert np.array_equal(first, kept)
    first *= 2.0
    assert np.array_equal(conv(a), kept)
    assert not np.shares_memory(conv(b), second)


def _reference_reaction(core, df0, u):
    u = np.asarray(u, dtype=float)
    out = np.where(u < 0.0, df0 * u, core(np.maximum(u, 0.0)))
    return out if out.ndim else float(out)


@pytest.mark.parametrize("rname", ["logistic", "polynomial"])
def test_reaction_extension(logistic, rname):
    if rname == "logistic":
        r, core = logistic, lambda u: u * (1.0 - u)
    else:
        coeffs = [0.0, 1.0, 0.5, -1.5]
        r, core = make_polynomial(coeffs), lambda u: np.polyval(np.array(coeffs)[::-1], u)
    rng = np.random.default_rng(5)
    mixed = rng.uniform(-0.5, 1.5, 257)
    mixed[::9] = 0.0
    for u in (mixed, np.abs(mixed), np.zeros(4), np.array([])):
        assert np.array_equal(r.f(u), _reference_reaction(core, r.df0, u))
    for u in (0.3, -0.3, 0.0, 1.0):
        out = r.f(u)
        assert type(out) is float and out == _reference_reaction(core, r.df0, u)
