"""Independent closed-form and quadrature oracles for the solver stack.

Three families of checks, none of which share code with the production
solvers:

* a closed-form fourth-order beam boundary-value problem with per-case
  touchdown boundary conditions, used to validate the a-priori sup bound on
  minimizers;
* two integration-by-parts identities (on the reference rectangle and on a
  deflected strip) evaluated with manufactured Robin-compatible functions,
  used to validate the mapped quadrature;
* a battery of Poincare, Sobolev-interpolation, and trace inequalities
  evaluated on random separable families, used to validate the functional
  estimates the energy bounds rest on.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .model import _q_norm

__all__ = [
    "BeamOracleSolution",
    "solve_beam_oracle",
    "AnalyticDeflection",
    "identity_check_rect",
    "identity_check_mapped",
    "BatterySample",
    "BatteryResult",
    "battery_margins",
    "inequality_battery",
]


# ---------------------------------------------------------------- quadrature


def simpson_weights(n_nodes: int, spacing: float) -> np.ndarray:
    """Composite Simpson weights; the cell count n_nodes - 1 must be even."""
    if n_nodes < 3 or (n_nodes - 1) % 2 != 0:
        raise ValueError(f"Simpson quadrature needs an even cell count, got {n_nodes - 1}")
    w = np.ones(n_nodes)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (spacing / 3.0)


# --------------------------------------------------------------- beam oracle


def _case_targets(case: int, H: float) -> tuple[float, float, float, float]:
    """(S(a), S'(a), S(b), S'(b)) for the four touchdown configurations.

    Case 1: the profile meets the obstacle at both interval ends; case 2
    starts at the clamped left wall and meets the obstacle at b; case 3 is
    the mirror image; case 4 spans wall to wall.
    """
    if case == 1:
        return (-H, 0.0, -H, 0.0)
    if case == 2:
        return (0.0, 0.0, -H, 0.0)
    if case == 3:
        return (-H, 0.0, 0.0, 0.0)
    if case == 4:
        return (0.0, 0.0, 0.0, 0.0)
    raise ValueError(f"case must be 1, 2, 3, or 4, got {case}")


@dataclass(frozen=True)
class BeamOracleSolution:
    """Closed-form solution of beta S'''' - tau S'' = G0 on (a, b).

    The homogeneous basis is {1, X, X^2, X^3} for tau = 0 and
    {1, X, cosh(omega X), sinh(omega X)} with omega = sqrt(tau/beta) for
    tau > 0, both in the midpoint-shifted coordinate X = x - (a+b)/2; the
    particular solution is G0 X^4 / (24 beta), respectively
    -G0 X^2 / (2 tau).
    """

    case: int
    a: float
    b: float
    G0: float
    beta: float
    tau: float
    H: float
    coefficients: np.ndarray
    omega: float

    def evaluate(self, x, deriv: int = 0) -> np.ndarray:
        """S and its derivatives up to order 4 at the points x."""
        if deriv not in (0, 1, 2, 3, 4):
            raise ValueError(f"deriv must be 0..4, got {deriv}")
        X = np.asarray(x, dtype=float) - 0.5 * (self.a + self.b)
        c0, c1, c2, c3 = self.coefficients
        if self.tau == 0.0:
            q = self.G0 / self.beta
            if deriv == 0:
                return c0 + c1 * X + c2 * X**2 + c3 * X**3 + q * X**4 / 24.0
            if deriv == 1:
                return c1 + 2.0 * c2 * X + 3.0 * c3 * X**2 + q * X**3 / 6.0
            if deriv == 2:
                return 2.0 * c2 + 6.0 * c3 * X + q * X**2 / 2.0
            if deriv == 3:
                return 6.0 * c3 + q * X
            return np.full_like(X, q)
        w = self.omega
        ch, sh = np.cosh(w * X), np.sinh(w * X)
        if deriv == 0:
            return c0 + c1 * X + c2 * ch + c3 * sh - self.G0 * X**2 / (2.0 * self.tau)
        if deriv == 1:
            return c1 + w * (c2 * sh + c3 * ch) - self.G0 * X / self.tau
        if deriv == 2:
            return w**2 * (c2 * ch + c3 * sh) - self.G0 / self.tau
        if deriv == 3:
            return w**3 * (c2 * sh + c3 * ch)
        return w**4 * (c2 * ch + c3 * sh)

    def bc_residuals(self) -> np.ndarray:
        """Absolute defects of the four imposed end conditions."""
        ta, tda, tb, tdb = _case_targets(self.case, self.H)
        return np.abs(
            [
                float(self.evaluate(self.a)) - ta,
                float(self.evaluate(self.a, 1)) - tda,
                float(self.evaluate(self.b)) - tb,
                float(self.evaluate(self.b, 1)) - tdb,
            ]
        )

    def ode_residual(self, n: int = 201) -> float:
        """max |beta S'''' - tau S'' - G0| on an n-point grid."""
        x = np.linspace(self.a, self.b, n)
        r = self.beta * self.evaluate(x, 4) - self.tau * self.evaluate(x, 2) - self.G0
        return float(np.max(np.abs(r)))

    def sup_norm(self, n: int = 4001) -> float:
        x = np.linspace(self.a, self.b, n)
        return float(np.max(np.abs(self.evaluate(x))))

    def case_bound(self, L: float) -> float:
        """A-priori sup bound for this case on intervals inside (-L, L)."""
        if max(abs(self.a), abs(self.b)) > L * (1.0 + 1e-12):
            raise ValueError(f"interval ({self.a}, {self.b}) does not fit inside (-{L}, {L})")
        base = 16.0 * L**4 * self.G0 / self.beta
        if self.case == 1:
            return max(self.H, base - self.H)
        if self.case in (2, 3):
            extra = (24.0 * self.beta + 56.0 * self.tau * (self.H + 1.0) * L**2) / self.beta
            return base + extra + _q_norm(self.H)
        return base


def solve_beam_oracle(
    case: int, a: float, b: float, G0: float, beta: float, tau: float, H: float
) -> BeamOracleSolution:
    """Solve beta S'''' - tau S'' = G0 with the end conditions of one case.

    The 4x4 boundary system is assembled in the midpoint-shifted coordinate
    (so the hyperbolic basis stays well-conditioned) and solved densely.
    """
    if beta <= 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    if tau < 0.0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
    if not a < b:
        raise ValueError(f"interval must satisfy a < b, got ({a}, {b})")
    ta, tda, tb, tdb = _case_targets(case, H)

    half = 0.5 * (b - a)
    Xa, Xb = -half, half
    if tau == 0.0:
        omega = 0.0
        q = G0 / beta

        def val_row(X):
            return [1.0, X, X**2, X**3]

        def der_row(X):
            return [0.0, 1.0, 2.0 * X, 3.0 * X**2]

        part = [q * Xa**4 / 24.0, q * Xa**3 / 6.0, q * Xb**4 / 24.0, q * Xb**3 / 6.0]
    else:
        omega = float(np.sqrt(tau / beta))

        def val_row(X):
            return [1.0, X, np.cosh(omega * X), np.sinh(omega * X)]

        def der_row(X):
            return [0.0, 1.0, omega * np.sinh(omega * X), omega * np.cosh(omega * X)]

        part = [-G0 * Xa**2 / (2.0 * tau), -G0 * Xa / tau, -G0 * Xb**2 / (2.0 * tau), -G0 * Xb / tau]

    A = np.array([val_row(Xa), der_row(Xa), val_row(Xb), der_row(Xb)], dtype=float)
    rhs = np.array([ta, tda, tb, tdb], dtype=float) - np.array(part)
    try:
        coeffs = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"boundary system singular for interval ({a}, {b})") from exc
    return BeamOracleSolution(
        case=case, a=float(a), b=float(b), G0=float(G0), beta=float(beta), tau=float(tau),
        H=float(H), coefficients=coeffs, omega=omega,
    )


# ------------------------------------------------------ analytic deflections


@dataclass(frozen=True)
class AnalyticDeflection:
    """A deflection with closed-form first and second derivatives.

    The identity and inequality oracles need v, v', v'' pointwise (the
    mapped integrands involve the curvature), which a nodal profile cannot
    supply at quadrature accuracy; hence this separate analytic carrier.
    """

    v: Callable[[np.ndarray], np.ndarray]
    dv: Callable[[np.ndarray], np.ndarray]
    d2v: Callable[[np.ndarray], np.ndarray]
    L: float
    H: float

    def gap(self, x) -> np.ndarray:
        return self.H + self.v(np.asarray(x, dtype=float))

    @staticmethod
    def flat(L: float, H: float, value: float = 0.0) -> "AnalyticDeflection":
        if value <= -H:
            raise ValueError(f"constant deflection {value} closes the gap (H = {H})")
        return AnalyticDeflection(
            v=lambda x: np.full_like(np.asarray(x, dtype=float), value),
            dv=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            d2v=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            L=L,
            H=H,
        )

    @staticmethod
    def bump(L: float, H: float, amplitude: float) -> "AnalyticDeflection":
        """v(x) = amplitude (1 - (x/L)^2)^2, vanishing to second order at the walls."""
        if amplitude <= -H:
            raise ValueError(f"bump amplitude {amplitude} closes the gap (H = {H})")

        def v(x):
            t = np.asarray(x, dtype=float) / L
            return amplitude * (1.0 - t**2) ** 2

        def dv(x):
            t = np.asarray(x, dtype=float) / L
            return amplitude * (-4.0 * t * (1.0 - t**2)) / L

        def d2v(x):
            t = np.asarray(x, dtype=float) / L
            return amplitude * (12.0 * t**2 - 4.0) / L**2

        return AnalyticDeflection(v=v, dv=dv, d2v=d2v, L=L, H=H)


# ------------------------------------------------------- manufactured family


def _family_pieces(eta: np.ndarray, c: np.ndarray):
    """Vertical factor Z(eta; c) = (1-eta)(eta+c) e^(eta-1) and its derivatives.

    Z(0) = c/e and d_eta Z(0) = 1/e, so the Robin condition
    d_eta Z(0) = mu Z(0) holds exactly when c = 1/mu (constant scalings
    cancel from both sides). Z(1) = 0 kills the top trace. The exponential
    factor keeps the integrands asymmetric so refinement studies see the
    plain quadrature order; the shift by -1 keeps the factor order one.
    """
    e = np.exp(eta - 1.0)
    poly = (1.0 - eta) * (eta + c)
    dpoly = 1.0 - 2.0 * eta - c
    Z = poly * e
    Z_e = (poly + dpoly) * e
    Z_ee = (poly + 2.0 * dpoly - 2.0) * e
    Z_c = (1.0 - eta) * e
    Z_ce = -eta * e
    return Z, Z_e, Z_ee, Z_c, Z_ce


def _sine_pieces(x: np.ndarray, a: float, b: float, mode_k: int):
    freq = mode_k * np.pi / (b - a)
    s = np.sin(freq * (x - a))
    return s, freq * np.cos(freq * (x - a)), -(freq**2) * s


def identity_check_rect(
    mu: float | Callable[[np.ndarray], np.ndarray],
    n_cells: int = 64,
    interval: tuple[float, float] = (-1.0, 1.0),
    mode_k: int = 1,
) -> float:
    """Quadrature residual of the rectangle integration-by-parts identity.

    For the built-in family phi = sin(k pi (x-a)/(b-a)) Z(eta; 1/mu(x)) --
    which vanishes on the sides and top and satisfies the Robin condition
    d_eta phi = mu phi on the bottom edge exactly, for constant or variable
    positive mu -- evaluates

        |int d_x^2 phi d_eta^2 phi - int |d_x d_eta phi|^2
             - int d_x phi d_x(mu phi)(., 0)|

    by tensor Simpson quadrature on an n_cells^2 grid. The exact value is 0,
    so the return decays at the quadrature order under refinement. A
    variable mu enters through centered finite differences of 1/mu.
    """
    a, b = float(interval[0]), float(interval[1])
    if not a < b:
        raise ValueError(f"interval must satisfy a < b, got {interval}")
    if n_cells < 2 or n_cells % 2 != 0:
        raise ValueError(f"n_cells must be even and at least 2, got {n_cells}")

    x = np.linspace(a, b, n_cells + 1)
    eta = np.linspace(0.0, 1.0, n_cells + 1)

    if callable(mu):
        mu_x = np.asarray(mu(x), dtype=float)
        # Central differences for c = 1/mu. The step balances truncation
        # against round-off in the second difference (~eps / step^2), which
        # caps the accuracy of the variable-mu check near 1e-7.
        step = 1e-4 * (b - a)
        c = 1.0 / mu_x
        c_p = (1.0 / np.asarray(mu(x + step), dtype=float) - 1.0 / np.asarray(mu(x - step), dtype=float)) / (
            2.0 * step
        )
        c_pp = (
            1.0 / np.asarray(mu(x + step), dtype=float)
            - 2.0 * c
            + 1.0 / np.asarray(mu(x - step), dtype=float)
        ) / step**2
    else:
        mu_x = np.full_like(x, float(mu))
        c = 1.0 / mu_x
        c_p = np.zeros_like(x)
        c_pp = np.zeros_like(x)
    if np.any(mu_x <= 0.0):
        raise ValueError("mu must be positive on the interval")

    s, s_p, s_pp = _sine_pieces(x, a, b, mode_k)
    E = eta[None, :]
    C = c[:, None]
    Z, Z_e, Z_ee, Z_c, Z_ce = _family_pieces(E, C)

    phi_xx = s_pp[:, None] * Z + 2.0 * s_p[:, None] * c_p[:, None] * Z_c + s[:, None] * c_pp[:, None] * Z_c
    phi_ee = s[:, None] * Z_ee
    phi_xe = s_p[:, None] * Z_e + s[:, None] * c_p[:, None] * Z_ce

    wx = simpson_weights(x.size, x[1] - x[0])
    we = simpson_weights(eta.size, eta[1] - eta[0])
    lhs = float(wx @ (phi_xx * phi_ee) @ we)
    mixed = float(wx @ (phi_xe**2) @ we)

    # bottom edge: phi(x,0) = s c / e, d_x phi(x,0) = (s' c + s c') / e, and
    # mu phi(x,0) = s / e identically (mu c = 1), so d_x(mu phi)(x,0) = s' / e
    inv_e = float(np.exp(-1.0))
    bottom = float(np.sum(wx * (s_p * c + s * c_p) * s_p)) * inv_e**2

    return abs(lhs - mixed - bottom)


def identity_check_mapped(
    deflection: AnalyticDeflection,
    sigma: float,
    n_cells: int = 64,
    mode_k: int = 1,
) -> float:
    """Quadrature residual of the deflected-strip integration-by-parts identity.

    The test function zeta(x, z) = phi(x, (H+z)/(H+v(x))) is the rectangle
    family pushed through the graph map with mu(x) = sigma (H + v(x)), so it
    vanishes on the graph and the sides and satisfies d_z zeta = sigma zeta
    on the bottom exactly. The identity

        int zeta_xx zeta_zz = int |zeta_xz|^2
            + int zeta_x d_x(sigma zeta)(., -H) - 1/2 int v'' |zeta_z(., v)|^2

    (volume integrals over the strip, line integrals over the bottom and the
    graph) is evaluated by mapped tensor Simpson quadrature; the return is
    the absolute defect and decays under refinement.
    """
    if sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if n_cells < 2 or n_cells % 2 != 0:
        raise ValueError(f"n_cells must be even and at least 2, got {n_cells}")
    a, b = -deflection.L, deflection.L
    x = np.linspace(a, b, n_cells + 1)
    eta = np.linspace(0.0, 1.0, n_cells + 1)

    gam = deflection.gap(x)
    if np.any(gam <= 0.0):
        raise ValueError("deflection closes the gap on the interval")
    vp = deflection.dv(x)
    vpp = deflection.d2v(x)

    # c(x) = 1/(sigma gamma) with analytic derivatives
    c = 1.0 / (sigma * gam)
    c_p = -vp / (sigma * gam**2)
    c_pp = -vpp / (sigma * gam**2) + 2.0 * vp**2 / (sigma * gam**3)

    s, s_p, s_pp = _sine_pieces(x, a, b, mode_k)
    E = eta[None, :]
    C = c[:, None]
    Z, Z_e, Z_ee, Z_c, Z_ce = _family_pieces(E, C)

    S, Sp, Spp = s[:, None], s_p[:, None], s_pp[:, None]
    Cp, Cpp = c_p[:, None], c_pp[:, None]
    phi = S * Z
    phi_x = Sp * Z + S * Cp * Z_c
    phi_e = S * Z_e
    phi_xx = Spp * Z + 2.0 * Sp * Cp * Z_c + S * Cpp * Z_c
    phi_xe = Sp * Z_e + S * Cp * Z_ce
    phi_ee = S * Z_ee

    G = gam[:, None]
    VP = vp[:, None]
    VPP = vpp[:, None]
    eta_x = -E * VP / G
    eta_xx = -E * VPP / G + 2.0 * E * VP**2 / G**2

    zeta_zz = phi_ee / G**2
    zeta_xz = (phi_xe + phi_ee * eta_x) / G - phi_e * VP / G**2
    zeta_xx = phi_xx + 2.0 * phi_xe * eta_x + phi_ee * eta_x**2 + phi_e * eta_xx

    wx = simpson_weights(x.size, x[1] - x[0])
    we = simpson_weights(eta.size, eta[1] - eta[0])
    # volume element dz = gamma d eta
    lhs = float(wx @ (zeta_xx * zeta_zz * G) @ we)
    mixed = float(wx @ (zeta_xz**2 * G) @ we)

    # bottom edge eta = 0: eta_x vanishes there, so zeta_x = phi_x(., 0)
    zeta_x_bot = (s_p * c + s * c_p) * float(np.exp(-1.0))
    bottom = float(np.sum(wx * sigma * zeta_x_bot**2))

    # graph edge eta = 1: zeta_z = phi_e(., 1)/gamma with Z_e(1) = -(1+c)
    zeta_z_top = s * (-(1.0 + c)) / gam
    graph = -0.5 * float(np.sum(wx * vpp * zeta_z_top**2))

    return abs(lhs - mixed - bottom - graph)


# --------------------------------------------------------- inequality battery


@dataclass(frozen=True)
class BatterySample:
    """A test function on the strip in mapped coordinates (x, eta).

    ``q`` is the function and ``q_x``, ``q_eta`` its partial derivatives,
    each taking broadcastable (x, eta) arrays. Physical derivatives follow
    by the chain rule inside the battery.
    """

    q: Callable[[np.ndarray, np.ndarray], np.ndarray]
    q_x: Callable[[np.ndarray, np.ndarray], np.ndarray]
    q_eta: Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class BatteryResult:
    worst_margins: dict[str, float]
    violations: list[str]
    n_samples: int
    M: float
    M_v: float


def _strip_grids(deflection: AnalyticDeflection, n_cells: int):
    x = np.linspace(-deflection.L, deflection.L, n_cells + 1)
    eta = np.linspace(0.0, 1.0, n_cells + 1)
    gam = deflection.gap(x)
    if np.any(gam <= 0.0):
        raise ValueError("deflection closes the gap on the interval")
    wx = simpson_weights(x.size, x[1] - x[0])
    we = simpson_weights(eta.size, eta[1] - eta[0])
    return x, eta, gam, wx, we


def battery_margins(
    deflection: AnalyticDeflection,
    ws: BatterySample | None = None,
    b: BatterySample | None = None,
    r_values: tuple[int, ...] = (2, 4, 8),
    n_cells: int = 64,
) -> dict[str, float]:
    """Margins (RHS - LHS) of the functional inequalities for given samples.

    ``ws`` must vanish on the bottom edge and the left side (checked); it
    feeds the Poincare-product, L_r interpolation, and graph-trace bounds.
    ``b`` must vanish on the graph and both sides (checked); it feeds the
    vertical Poincare and bottom-trace bounds. Pass None to skip a family.
    """
    x, eta, gam, wx, we = _strip_grids(deflection, n_cells)
    X = x[:, None]
    E = eta[None, :]
    G = gam[:, None]
    vp = deflection.dv(x)
    eta_x = -E * vp[:, None] / G

    M = max(1.0, float(np.max(gam)), float(np.max(np.abs(vp))))
    M_v = float(np.max(gam))
    margins: dict[str, float] = {}

    def vol(f: np.ndarray) -> float:
        return float(wx @ (f * G) @ we)

    if ws is not None:
        q = ws.q(X, E)
        if np.max(np.abs(q[:, 0])) > 1e-12 or np.max(np.abs(q[0, :])) > 1e-12:
            raise ValueError("ws sample must vanish on the bottom edge and the left side")
        p_x = ws.q_x(X, E) + ws.q_eta(X, E) * eta_x
        p_z = ws.q_eta(X, E) / G
        grad = np.hypot(p_x, p_z)

        l2_sq = vol(q**2)
        grad_l1 = vol(grad)
        pz_l1 = vol(np.abs(p_z))
        grad_l2 = float(np.sqrt(vol(grad**2)))
        pz_l2 = float(np.sqrt(vol(p_z**2)))
        margins["square_by_l1_gradients"] = 2.0 * M * grad_l1 * pz_l1 - l2_sq

        for r in r_values:
            if r < 2:
                raise ValueError(f"exponents must be at least 2, got {r}")
            lr_r = vol(np.abs(q) ** r)
            rhs = (2.0 * r) ** (r - 2) * M ** ((r - 2) / 2.0) * l2_sq * grad_l2 ** ((r - 2) / 2.0) * pz_l2 ** ((r - 2) / 2.0)
            margins[f"lr_interpolation_r{r}"] = float(rhs - lr_r)

            trace_r = float(np.sum(wx * np.abs(q[:, -1]) ** r))
            rhs_t = (4.0 * r) ** r * M ** (r / 2.0) * np.sqrt(l2_sq) * grad_l2 ** ((r - 2) / 2.0) * pz_l2 ** (r / 2.0)
            margins[f"graph_trace_lr_r{r}"] = float(rhs_t - trace_r)

    if b is not None:
        q = b.q(X, E)
        if (
            np.max(np.abs(q[:, -1])) > 1e-12
            or np.max(np.abs(q[0, :])) > 1e-12
            or np.max(np.abs(q[-1, :])) > 1e-12
        ):
            raise ValueError("b sample must vanish on the graph and both sides")
        t_z = b.q_eta(X, E) / G
        t_l2 = float(np.sqrt(vol(q**2)))
        tz_l2 = float(np.sqrt(vol(t_z**2)))
        margins["poincare_vertical"] = 2.0 * M_v * tz_l2 - t_l2
        bottom_sq = float(np.sum(wx * q[:, 0] ** 2))
        margins["bottom_trace"] = 2.0 * t_l2 * tz_l2 - bottom_sq

    return margins


def _ws_sample(coeffs: np.ndarray, a: float, b: float) -> BatterySample:
    """sin(m pi (x-a)/(2(b-a))) sin(n pi eta / 2) combinations; zero at x=a, eta=0."""
    modes = coeffs.shape[0]

    def build(fn_x, fn_e):
        def f(X, E):
            out = 0.0
            for m in range(1, modes + 1):
                for n in range(1, modes + 1):
                    out = out + coeffs[m - 1, n - 1] * fn_x(m, X) * fn_e(n, E)
            return out

        return f

    def sx(m, X):
        return np.sin(m * np.pi * (X - a) / (2.0 * (b - a)))

    def dsx(m, X):
        w = m * np.pi / (2.0 * (b - a))
        return w * np.cos(w * (X - a))

    def se(n, E):
        return np.sin(n * np.pi * E / 2.0)

    def dse(n, E):
        return (n * np.pi / 2.0) * np.cos(n * np.pi * E / 2.0)

    return BatterySample(q=build(sx, se), q_x=build(dsx, se), q_eta=build(sx, dse))


def _b_sample(coeffs: np.ndarray, a: float, b: float) -> BatterySample:
    """sin(m pi (x-a)/(b-a)) (1-eta) eta^(n-1) combinations; zero at sides, eta=1."""
    modes = coeffs.shape[0]

    def sx(m, X):
        return np.sin(m * np.pi * (X - a) / (b - a))

    def dsx(m, X):
        w = m * np.pi / (b - a)
        return w * np.cos(w * (X - a))

    def pe(n, E):
        return (1.0 - E) * E ** (n - 1)

    def dpe(n, E):
        if n == 1:
            return -np.ones_like(E)
        return (n - 1) * E ** (n - 2) - n * E ** (n - 1)

    def build(fn_x, fn_e):
        def f(X, E):
            out = 0.0
            for m in range(1, modes + 1):
                for n in range(1, modes + 1):
                    out = out + coeffs[m - 1, n - 1] * fn_x(m, X) * fn_e(n, E)
            return out

        return f

    return BatterySample(q=build(sx, pe), q_x=build(dsx, pe), q_eta=build(sx, dpe))


def inequality_battery(
    deflection: AnalyticDeflection,
    n_samples: int = 50,
    r_values: tuple[int, ...] = (2, 4, 8),
    modes: int = 3,
    n_cells: int = 64,
    seed: int = 0,
) -> BatteryResult:
    """Sweep random separable samples through the inequality margins.

    Draws coefficient matrices from a seeded generator, evaluates both
    families per draw, and tracks the worst margin per inequality. A
    violation (negative margin beyond round-off relative to the bound's
    scale) is recorded with the sample index; any entry indicates a
    quadrature or construction bug and none are expected.
    """
    rng = np.random.default_rng(seed)
    a, bnd = -deflection.L, deflection.L
    worst: dict[str, float] = {}
    violations: list[str] = []
    x, _, gam, _, _ = _strip_grids(deflection, n_cells)
    M = max(1.0, float(np.max(gam)), float(np.max(np.abs(deflection.dv(x)))))
    M_v = float(np.max(gam))

    for i in range(n_samples):
        ws = _ws_sample(rng.normal(size=(modes, modes)), a, bnd)
        bs = _b_sample(rng.normal(size=(modes, modes)), a, bnd)
        margins = battery_margins(deflection, ws=ws, b=bs, r_values=r_values, n_cells=n_cells)
        for name, margin in margins.items():
            if name not in worst or margin < worst[name]:
                worst[name] = margin
            if margin < -1e-8 * (1.0 + abs(margin)):
                violations.append(f"sample {i}: {name} margin {margin:.3e}")

    return BatteryResult(worst_margins=worst, violations=violations, n_samples=n_samples, M=M, M_v=M_v)
