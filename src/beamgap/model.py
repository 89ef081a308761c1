"""Dielectric data for the gap region and the constants derived from it.

The device occupies the strip above a rigid ground plate at z = -H. The
dielectric permittivity sigma(x) lives on the plate; the boundary potential
h(x, z, w) and the auxiliary bottom datum frak_h(x, w) close the elliptic
problem for the electrostatic potential. Everything downstream (solver,
energy, force, minimizer) consumes the model through the callables stored
here, so analytic derivatives are part of the contract.

There is one data family, the closed form of ``make_example_model`` driven
by the voltage V; V = 0 is its homogeneous member h = frak_h = 0. sigma is
a polynomial (a constant is the degree-0 one) or a cubic spline through a
table, stored with its two derivatives and checked positive on its domain.
The family meets the Robin compatibility d_z h = sigma (h - frak_h) at
z = -H by construction, for every w; the tests state that check. The one
sampled quantity is the data bound K (``estimate_K``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from scipy.interpolate import CubicSpline

__all__ = [
    "SigmaProfile",
    "DielectricModel",
    "ModelConstants",
    "SampleBox",
    "sigma_polynomial",
    "sigma_tabulated",
    "make_example_model",
    "default_sample_box",
    "estimate_K",
    "compute_constants",
]

ArrayFunc = Callable[[np.ndarray], np.ndarray]


# ---------------------------------------------------------------- sigma


@dataclass(frozen=True)
class SigmaProfile:
    """Permittivity profile sigma(x) with two derivatives.

    All three callables are vectorized over numpy arrays. ``domain`` is the
    x-interval on which the profile is meant to be evaluated; the minimum of
    sigma and the C2-norm bound sigma_bar are sampled over it, and a profile
    that is not positive there is rejected on construction.
    """

    value: ArrayFunc
    d1: ArrayFunc
    d2: ArrayFunc
    domain: tuple[float, float] = (-1.0, 1.0)

    def __post_init__(self) -> None:
        smin, _ = self.c2_scan()
        if smin <= 0.0:
            raise ValueError(f"sigma must stay positive on the domain, sampled min {smin}")

    def c2_scan(self) -> tuple[float, float]:
        """Return (min sigma, max over derivatives of sup |sigma^(j)|) on the domain."""
        x = np.linspace(self.domain[0], self.domain[1], 2001)
        s = np.asarray(self.value(x), dtype=float)
        s1 = np.asarray(self.d1(x), dtype=float)
        s2 = np.asarray(self.d2(x), dtype=float)
        smin = float(np.min(s))
        sbar = float(max(np.max(np.abs(s)), np.max(np.abs(s1)), np.max(np.abs(s2))))
        return smin, sbar


def sigma_polynomial(coeffs, domain: tuple[float, float] = (-1.0, 1.0)) -> SigmaProfile:
    """Polynomial permittivity with given coefficients (low order first).

    A constant sigma = c is the one-coefficient polynomial ``[c]``.
    """
    p = np.polynomial.Polynomial(np.asarray(coeffs, dtype=float))
    return SigmaProfile(p, p.deriv(1), p.deriv(2), domain)


def sigma_tabulated(x, s, domain: tuple[float, float] | None = None) -> SigmaProfile:
    """Tabulated permittivity from samples (x, sigma), cubic interpolation.

    Takes two equal-length arrays of at least 4 samples. Derivatives come from
    the interpolating spline. ``domain`` defaults to the table's x range; a
    given domain must lie inside that range, since beyond it the spline
    extrapolates. Positivity is checked over the domain.
    """
    x = np.asarray(x, dtype=float)
    s = np.asarray(s, dtype=float)
    if x.ndim != 1 or x.shape != s.shape or x.size < 4:
        raise ValueError("tabulated sigma needs two equal-length 1-D arrays (>= 4 points)")
    if domain is None:
        domain = (float(x[0]), float(x[-1]))
    elif not x[0] <= domain[0] <= domain[1] <= x[-1]:
        raise ValueError(f"tabulated sigma covers [{x[0]}, {x[-1]}], not the domain [{domain[0]}, {domain[1]}]")
    spline = CubicSpline(x, s)
    return SigmaProfile(spline, spline.derivative(1), spline.derivative(2), (float(domain[0]), float(domain[1])))


# ---------------------------------------------------------------- model


@dataclass(frozen=True)
class DielectricModel:
    """Dielectric data: sigma(x), boundary potential h(x, z, w), datum frak_h(x, w).

    The callables h, h_x, h_z, h_w take (x, z, w) and broadcast; frak_h and
    frak_h_w take (x, w). K is the working bound on the data, either supplied
    by the caller or produced by estimate_K over a sample box; sigma_bar is
    the sampled C2-norm bound of sigma.
    """

    sigma: SigmaProfile
    h: Callable
    h_x: Callable
    h_z: Callable
    h_w: Callable
    frak_h: Callable
    frak_h_w: Callable
    V: float
    K: float
    sigma_bar: float
    H: float


@dataclass(frozen=True)
class ModelConstants:
    """Derived constants: penalty stiffness A, force bound G0, sup bound kappa0."""

    A: float
    G0: float
    kappa0: float
    beta: float
    tau: float
    alpha: float
    L: float
    H: float


@dataclass(frozen=True)
class SampleBox:
    """Tensor sampling box for estimate_K."""

    x: tuple[float, float]
    z: tuple[float, float]
    w: tuple[float, float]
    n: int = 33

    def axes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (
            np.linspace(self.x[0], self.x[1], self.n),
            np.linspace(self.z[0], self.z[1], self.n),
            np.linspace(self.w[0], self.w[1], self.n),
        )


def default_sample_box(L: float, H: float) -> SampleBox:
    """Default box x in [-L, L], z and w in [-H, 4H]."""
    return SampleBox(x=(-L, L), z=(-H, 4.0 * H), w=(-H, 4.0 * H))


def make_example_model(
    V: float,
    sigma: SigmaProfile | float,
    H: float,
    K: float | None = None,
) -> DielectricModel:
    """Build the closed-form dielectric data family.

    The boundary potential is

        h(x, z, w) = V (1 + sigma(x)(H + z)) / (1 + sigma(x)(H + w)),

    with frak_h = 0. It satisfies the Robin compatibility
    d_z h(x, -H, w) = sigma(x) (h(x, -H, w) - frak_h(x, w)) identically, so
    the potential problem's mixed boundary data are consistent for every
    admissible deflection. V = 0 gives the homogeneous data h = frak_h = 0,
    whose potential problem has the trivial solution; it backs the
    zero-voltage paths and the manufactured-solution runs, where the only
    load is an injected source.

    Parameters
    ----------
    V : applied voltage, must be nonnegative.
    sigma : permittivity profile, or a positive number for a constant one.
    H : gap height at rest, must be positive.
    K : working data bound. When omitted it is estimated over the default
        sample box (x over sigma's domain, z and w in [-H, 4H]), except at
        V = 0, where every sampled bound vanishes and K defaults to 1.
    """
    if V < 0.0:
        raise ValueError(f"V must be nonnegative, got {V}")
    if H <= 0.0:
        raise ValueError(f"H must be positive, got {H}")
    if isinstance(sigma, (int, float)):
        sigma = sigma_polynomial([float(sigma)])
    _, sbar = sigma.c2_scan()

    sig, dsig = sigma.value, sigma.d1
    Vf, Hf = float(V), float(H)

    def h(x, z, w):
        s = sig(np.asarray(x, dtype=float))
        return Vf * (1.0 + s * (Hf + z)) / (1.0 + s * (Hf + w))

    def h_x(x, z, w):
        x = np.asarray(x, dtype=float)
        s = sig(x)
        den = 1.0 + s * (Hf + w)
        return Vf * dsig(x) * (np.asarray(z, dtype=float) - w) / den**2

    def h_z(x, z, w):
        s = sig(np.asarray(x, dtype=float))
        return Vf * s / (1.0 + s * (Hf + w)) + 0.0 * np.asarray(z, dtype=float)

    def h_w(x, z, w):
        s = sig(np.asarray(x, dtype=float))
        den = 1.0 + s * (Hf + w)
        return -Vf * s * (1.0 + s * (Hf + z)) / den**2

    def frak_h(x, w):
        return np.zeros(np.broadcast(np.asarray(x), np.asarray(w)).shape)

    model = DielectricModel(
        sigma=sigma,
        h=h,
        h_x=h_x,
        h_z=h_z,
        h_w=h_w,
        frak_h=frak_h,
        frak_h_w=frak_h,
        V=Vf,
        K=1.0,
        sigma_bar=sbar,
        H=Hf,
    )
    if K is None:
        K = estimate_K(model, default_sample_box(L=max(abs(d) for d in sigma.domain), H=Hf)) if Vf > 0.0 else 1.0
    if K <= 0.0:
        raise ValueError(f"K must be positive, got {K}")
    return replace(model, K=float(K))


# ---------------------------------------------------------------- data bound


def estimate_K(model: DielectricModel, box: SampleBox) -> float:
    """Smallest K satisfying the sampled growth bounds on (h, frak_h).

    Four families of bounds are sampled over the box and the largest required
    constant wins:

    * ``bb6``:  (|h_x| + |h_z|) sqrt((H+w)/(1+w^2)) and |h_w| sqrt(H+w);
    * ``bb7``:  |h(x, -H, w)| + |frak_h(x, w)|;
    * ``hbound1``: |h(x, w, w)| plus the worst lateral value |h(x_edge, z, w)|
      at the box's x-faces, coupled through the shared w;
    * ``hbound2``: |h_x| + |h_z| + |h_w| at (x, w, w) plus |frak_h_w(x, w)|.

    The result is monotone nondecreasing in the box since grids include the
    box corners.
    """
    xs, zs, ws = box.axes()
    H = model.H
    X, Z, W = np.meshgrid(xs, zs, ws, indexing="ij", sparse=True)

    gap = np.maximum(W + H, 0.0)
    t1 = (np.abs(model.h_x(X, Z, W)) + np.abs(model.h_z(X, Z, W))) * np.sqrt(gap / (1.0 + W**2))
    t2 = np.abs(model.h_w(X, Z, W)) * np.sqrt(gap)
    k_bb6 = float(max(np.max(t1), np.max(t2)))

    X2, W2 = np.meshgrid(xs, ws, indexing="ij")
    k_bb7 = float(np.max(np.abs(model.h(X2, -H, W2)) + np.abs(model.frak_h(X2, W2))))

    diag = np.abs(model.h(X2, W2, W2))  # |h(x, w, w)| on the (x, w) grid
    m1 = diag.max(axis=0)  # per w
    Zl, Wl = np.meshgrid(zs, ws, indexing="ij")
    lat = np.maximum(
        np.abs(model.h(box.x[0], Zl, Wl)), np.abs(model.h(box.x[1], Zl, Wl))
    ).max(axis=0)  # per w
    k_h1 = float(np.max(m1 + lat))

    k_h2 = float(
        np.max(
            np.abs(model.h_x(X2, W2, W2))
            + np.abs(model.h_z(X2, W2, W2))
            + np.abs(model.h_w(X2, W2, W2))
            + np.abs(model.frak_h_w(X2, W2))
        )
    )

    return max(k_bb6, k_bb7, k_h1, k_h2)


# ---------------------------------------------------------------- constants


def _q_norm(H: float, tol: float = 1e-10) -> float:
    """Sup of |Q| on [0, 1] for Q(y) = y^2 (y^2 + 2(H-1) y + 1 - 3H).

    Dense scan followed by golden-section refinement around the scan argmax.
    """
    y = np.linspace(0.0, 1.0, 4001)
    q = np.abs(y**2 * (y**2 + 2.0 * (H - 1.0) * y + 1.0 - 3.0 * H))
    j = int(np.argmax(q))
    lo = y[max(j - 1, 0)]
    hi = y[min(j + 1, y.size - 1)]

    def f(t: float) -> float:
        return -abs(t**2 * (t**2 + 2.0 * (H - 1.0) * t + 1.0 - 3.0 * H))

    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return float(max(-f(0.5 * (a + b)), q[j]))


def compute_constants(
    model: DielectricModel,
    beta: float,
    tau: float,
    alpha: float,
    L: float,
    H: float,
    bc_mode: str = "clamped",
) -> ModelConstants:
    """Derive the penalty stiffness A, force bound G0, and sup bound kappa0.

    A = 8 (K^4 / beta + 2 K^2) and G0 = 2 sigma_bar K^2 + K^2 with K and
    sigma_bar taken from the model. kappa0 is the maximum of H and the four
    comparison-beam case bounds

        case 1:     16 L^4 G0 / beta - H
        cases 2, 3: (16 L^4 G0 + 24 beta + 56 tau (H+1) L^2) / beta + ||Q||_inf
        case 4:     16 L^4 G0 / beta

    with Q(y) = y^2 (y^2 + 2(H-1)y + 1-3H) maximized on [0, 1]. The case
    analysis is carried out for the clamped comparison problems; both boundary
    modes use the same bound.
    """
    if beta <= 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    if tau < 0.0 or alpha < 0.0:
        raise ValueError(f"tau and alpha must be nonnegative, got {tau}, {alpha}")
    if L <= 0.0 or H <= 0.0:
        raise ValueError(f"L and H must be positive, got {L}, {H}")
    if bc_mode not in ("clamped", "pinned"):
        raise ValueError(f"bc_mode must be 'clamped' or 'pinned', got {bc_mode!r}")

    K = model.K
    A = 8.0 * (K**4 / beta + 2.0 * K**2)
    G0 = 2.0 * model.sigma_bar * K**2 + K**2

    base = 16.0 * L**4 * G0 / beta
    case1 = base - H
    case23 = (16.0 * L**4 * G0 + 24.0 * beta + 56.0 * tau * (H + 1.0) * L**2) / beta + _q_norm(H)
    case4 = base
    kappa0 = max(H, case1, case23, case4)

    return ModelConstants(
        A=float(A),
        G0=float(G0),
        kappa0=float(kappa0),
        beta=float(beta),
        tau=float(tau),
        alpha=float(alpha),
        L=float(L),
        H=float(H),
    )
