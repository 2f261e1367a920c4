"""Independent solvers used only to check the library's answers.

These deliberately take different discretization routes from the library:
the semi-wave oracle marches the first-order form with a Heun integrator
under an outer damped Picard loop, the eigenvalue oracle calls a dense
solver on the raw trapezoid matrix, and the Laplace kernel's eigenvalue
threshold is in closed form.
"""

from __future__ import annotations

import numpy as np


def backward_ode_picard(
    c: float,
    d: float,
    kernel,
    f_scalar,
    depth: float,
    n_cells: int,
    damping: float = 0.5,
    tol: float = 1e-9,
    max_outer: int = 5000,
) -> np.ndarray:
    """Semi-wave by freezing the convolution and marching from the front.

    The stationary equation is rewritten as phi' = [d phi - d (J*phi + tail)
    - f(phi)] / c and integrated leftward from phi(0) = 0 with a Heun step;
    the convolution is recomputed from the previous sweep and mixed in with
    damping until the sweeps agree.
    """
    h = depth / n_cells
    x = -depth + h * np.arange(n_cells + 1)
    w = np.full(n_cells + 1, h)
    w[0] *= 0.5
    w[-1] *= 0.5
    jrow = np.asarray(kernel.density(np.arange(-n_cells, n_cells + 1) * h), dtype=float)
    far = np.asarray(kernel.tail_mass(-x - depth), dtype=float)
    psi = np.ones(n_cells + 1)
    psi[-1] = 0.0
    n = n_cells
    delta = np.inf
    for _ in range(max_outer):
        conv = np.convolve(w * psi, jrow)[n : 2 * n + 1] + far
        cl = conv.tolist()
        phi = np.empty_like(psi)
        p = 0.0
        phi[-1] = 0.0
        for j in range(n - 1, -1, -1):
            s1 = (d * p - d * cl[j + 1] - f_scalar(p)) / c
            pred = p - h * s1
            s2 = (d * pred - d * cl[j] - f_scalar(pred)) / c
            p = p - 0.5 * h * (s1 + s2)
            p = 0.0 if p < 0.0 else (1.0 if p > 1.0 else p)
            phi[j] = p
        mixed = (1.0 - damping) * psi + damping * phi
        delta = float(np.max(np.abs(mixed - psi)))
        psi = mixed
        psi[-1] = 0.0
        if delta < tol:
            return psi
    raise RuntimeError(f"oracle stalled, last sweep change {delta:.3e}")


def logistic_scalar(u: float) -> float:
    return u * (1.0 - u) if u >= 0.0 else u


def dense_principal_eigenvalue(ell: float, d: float, kernel, a_const: float, n_cells: int) -> float:
    """Largest real eigenvalue of the raw trapezoid discretization."""
    x = np.linspace(-ell, ell, n_cells + 1)
    hx = 2.0 * ell / n_cells
    w = np.full(n_cells + 1, hx)
    w[0] *= 0.5
    w[-1] *= 0.5
    J = np.asarray(kernel.density(x[:, None] - x[None, :]), dtype=float)
    A = d * J * w[None, :]
    np.fill_diagonal(A, A.diagonal() + (a_const - d))
    return float(np.max(np.linalg.eigvals(A).real))


def laplace_ell_star(d: float, a: float) -> float:
    """The half-width at which the principal eigenvalue of d(J*phi - phi) +
    a*phi on [-l, l] vanishes, for J = exp(-|x|)/2 and 0 < a < d.

    With w = J*phi, w'' = w - phi inside the interval and the eigenfunction
    solves a local ODE; an even cosine mode matched to the decaying
    exponential outside gives l* = s*arctan(s), s = sqrt((d - a)/a).
    """
    s = np.sqrt((d - a) / a)
    return float(s * np.arctan(s))


def laplace_linear_speed_objective(lam: float, d: float = 1.0, df0: float = 1.0) -> float:
    """Closed-form dispersion objective for the two-sided exponential kernel."""
    return (d * (1.0 / (1.0 - lam * lam) - 1.0) + df0) / lam


def mu_limit_by_separate_runs(mus, shared):
    """The mu-limit comparison run the long way: one whole-line run and one
    free-boundary run per mu, each storing its snapshots; every window is then
    embedded in the whole line and compared at the matching snapshot.

    Returns (entries as (mu, sup_excess, sup_abs, h_final) tuples, shared dt,
    domain_too_small).
    """
    from frontlab import CauchyConfig, SimConfig, c_of_J, cauchy_simulate, simulate, stability_dt

    mus = [float(m) for m in mus]

    def u0_compact(x):
        out = np.asarray(shared.u0(x), dtype=float)
        return np.where(np.abs(x) < shared.h0, out, 0.0)

    m0star = max(
        float(np.max(u0_compact(np.linspace(-shared.h0, shared.h0, 2001)))),
        shared.reaction.cap_K0,
    )
    dt = min(
        [stability_dt(shared.d, shared.reaction, shared.dx)]
        + [stability_dt(shared.d, shared.reaction, shared.dx, m * m0star * c_of_J(shared.kernel))
           for m in mus]
    )
    common = dict(kernel=shared.kernel, reaction=shared.reaction, d=shared.d,
                  t_max=shared.t_max, dx=shared.dx, dt=dt, sample_dt=shared.t_max,
                  snap_dt=shared.snap_dt)
    star = cauchy_simulate(CauchyConfig(u0=u0_compact, domain_halfwidth=shared.domain_halfwidth,
                                        **common))
    x = star.snapshots[0].x
    window = np.abs(x) <= shared.window_halfwidth + 1e-12
    entries = []
    for m in mus:
        traj = simulate(SimConfig(mu=m, h0=shared.h0, u0=shared.u0, **common))
        assert [s.t for s in traj.snapshots] == [s.t for s in star.snapshots]
        sup_excess = sup_abs = 0.0
        for fb, st in zip(traj.snapshots, star.snapshots):
            start = int(round((fb.x[0] - x[0]) / shared.dx))
            assert 0 <= start and start + fb.u.size <= x.size
            u_mu = np.zeros_like(x)
            u_mu[start : start + fb.u.size] = fb.u
            diff = (u_mu - st.u)[window]
            sup_excess = max(sup_excess, float(np.max(diff, initial=0.0)))
            sup_abs = max(sup_abs, float(np.max(np.abs(diff), initial=0.0)))
        entries.append((m, sup_excess, sup_abs, float(traj.hs[-1])))
    return entries, dt, star.domain_too_small
