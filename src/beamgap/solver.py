"""Potential solve on the mapped gap components.

The electrostatic potential psi_v splits as chi_v + h_v, where h_v(x, z) =
h(x, z, v(x)) carries the boundary data and chi_v solves the homogeneous-data
mixed problem. Pulled back to the reference rectangle, chi_v satisfies

    -div(A_v grad Phi) = -div(B)     in (0,1)^2-type cells,
    Phi = 0                          on top and lateral edges,
    Robin with coefficient sigma(x)(H+v)  on eta = 0,

with the metric A_v from geometry and the load B = (B1, B2) built from the
first derivatives of h only:

    B1 = (H+v) (h_x + h_w v'),
    B2 = -eta v' (h_x + h_w v') + h_z.

Discretization: bilinear elements, 2x2 Gauss per cell, lumped trapezoid Robin
mass on the bottom edge. The same quadratures are reused by the energy module
so that the discrete electrostatic energy is exactly the negative of the
minimized discrete functional.

Linear solve: one path for every system size. Assembly numbers the free
nodes of each component in nested-dissection order (George 1973; Lipton,
Rose & Tarjan 1979): the (n_x-1) x n_eta node grid is bisected across its
longer side by one line of nodes, recursively down to blocks of at most 2x2
nodes, and each separator line is numbered after its two halves. The order
depends on the grid shape alone and is computed once per shape. The matrix
comes out of the scatter already in that order, so SuperLU factors it with
the NATURAL column order and no pivoting (the system is SPD), solves once,
and drops the factor; there is no iterative fallback.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .geometry import (
    _GAUSS_1D,
    CoincidenceSet,
    DeflectionProfile,
    MappedMesh,
    build_mapped_mesh,
    detect_coincidence,
)
from .model import DielectricModel

__all__ = [
    "LinearSystem",
    "ComponentSolution",
    "PotentialField",
    "MaxPrincipleReport",
    "assemble",
    "solve_potential",
    "max_principle_check",
]

# reference bilinear basis on [-1, 1]^2, N = 1/4 (1 + s_x xi)(1 + s_z zeta)
# with corner signs for nodes (i,j), (i+1,j), (i+1,j+1), (i,j+1); tables are
# (4 Gauss points x 4 basis functions), the Gauss points ordered as in
# geometry.build_mapped_mesh: g = 2*ix + ie, xi = (-a, -a, +a, +a) and
# zeta = (-a, +a, -a, +a)
_XI = _GAUSS_1D[[0, 0, 1, 1]][:, None]
_ZE = _GAUSS_1D[[0, 1, 0, 1]][:, None]
_SX = np.array([-1.0, 1.0, 1.0, -1.0])
_SZ = np.array([-1.0, -1.0, 1.0, 1.0])
_DXI = 0.25 * _SX * (1.0 + _SZ * _ZE)
_DZE = 0.25 * _SZ * (1.0 + _SX * _XI)
_NVAL = 0.25 * (1.0 + _SX * _XI) * (1.0 + _SZ * _ZE)


def _outer_table(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """(4 Gauss, 16) table of p[g, m] q[g, n], column 4 m + n."""
    return (p[:, :, None] * q[:, None, :]).reshape(4, 16)


# element stiffness on [-1, 1]^2 per Gauss point: K_cell = a11 T11 + a12 T12 + a22 T22
_T11 = _outer_table(_DXI, _DXI)
_T12 = _outer_table(_DXI, _DZE) + _outer_table(_DZE, _DXI)
_T22 = _outer_table(_DZE, _DZE)


@dataclass(frozen=True)
class LinearSystem:
    """Reduced SPD system for one component: matrix, rhs, and the dof map.

    ``free_nodes`` is the node index of each dof, in dissection order: dof d
    is node ``free_nodes[d]`` of the row-major (n_x+1, n_eta+1) grid.
    """

    matrix: sp.csr_matrix
    rhs: np.ndarray
    free_nodes: np.ndarray
    n_x: int
    n_eta: int

    def symmetry_error(self) -> float:
        d = self.matrix - self.matrix.T
        return float(np.abs(d.data).max()) if d.nnz else 0.0


@dataclass(frozen=True)
class ComponentSolution:
    """Nodal chi on one component mesh and the relative residual of its solve."""

    mesh: MappedMesh
    chi: np.ndarray
    residual: float


@dataclass(frozen=True)
class PotentialField:
    """Per-component chi solutions and the traces the energy and force need.

    Trace arrays live on the full x-grid; contact nodes hold NaN (chi is not
    defined there and consumers must branch). ``psi_on`` reconstructs the
    physical potential chi + h_v at the mesh nodes of one component.
    """

    model: DielectricModel
    profile: DeflectionProfile
    coincidence: CoincidenceSet
    components: tuple[ComponentSolution, ...]
    top_dz: np.ndarray
    bot_val: np.ndarray
    n_eta: int

    def psi_on(self, k: int) -> np.ndarray:
        """Nodal psi = chi + h(x, z, v) on component k, shape (n_x+1, n_eta+1)."""
        comp = self.components[k]
        mesh = comp.mesh
        v = mesh.gap_nodes - mesh.H
        z = -mesh.H + mesh.eta_nodes[None, :] * mesh.gap_nodes[:, None]
        return comp.chi + self.model.h(mesh.x_nodes[:, None], z, v[:, None])

    def robin_residual(self, k: int) -> np.ndarray:
        """Residual d_z chi - sigma chi at the bottom of component k (one-sided)."""
        comp = self.components[k]
        mesh = comp.mesh
        de = mesh.deta
        dchi = (-3.0 * comp.chi[:, 0] + 4.0 * comp.chi[:, 1] - comp.chi[:, 2]) / (2.0 * de)
        return dchi / mesh.gap_nodes - self.model.sigma.value(mesh.x_nodes) * comp.chi[:, 0]


@dataclass(frozen=True)
class MaxPrincipleReport:
    """Extremes of the reconstructed psi against the boundary-data bounds."""

    min_psi: float
    max_psi: float
    lower_bound: float
    upper_bound: float
    ok: bool
    tol: float
    worst: str


# ---------------------------------------------------------------- assembly


def _trapezoid_weights(n_nodes: int) -> np.ndarray:
    """Trapezoid weights in units of the spacing: 1/2 at the ends, 1 inside."""
    w = np.ones(n_nodes)
    w[0] = 0.5
    w[-1] = 0.5
    return w


@functools.lru_cache(maxsize=8)
def _dissection_order(n_rows: int, n_cols: int) -> np.ndarray:
    """Nested-dissection elimination order of an n_rows x n_cols node grid.

    Entry k is the row-major index of the node eliminated k-th. A block is
    bisected across its longer side (rows on a tie) by its middle line of
    nodes, which is numbered after the two halves; blocks of at most 2x2
    nodes are leaves. A block's order depends on its shape alone, so each
    shape met in the recursion is ordered once. Cached per grid shape and
    returned read-only.
    """
    memo: dict[tuple[int, int], np.ndarray] = {}

    def block(rows: int, cols: int) -> np.ndarray:
        """Row-major index of each node of a rows x cols block, in elimination order."""
        if (rows, cols) not in memo:
            if cols > rows:
                t = block(cols, rows)  # of the transposed block
                order = (t % rows) * cols + t // rows
            elif rows <= 2:
                order = np.arange(rows * cols)
            else:
                mid = rows // 2
                order = np.concatenate(
                    [block(mid, cols), block(rows - mid - 1, cols) + (mid + 1) * cols, mid * cols + np.arange(cols)]
                )
            memo[rows, cols] = order
        return memo[rows, cols]

    order = block(n_rows, n_cols)
    order.flags.writeable = False
    return order


def _h_derivatives(mesh: MappedMesh, model: DielectricModel) -> tuple[np.ndarray, np.ndarray]:
    """(h_x + h_w v', h_z) of the datum h(x, z, v(x)) at the quadrature points.

    The first is the x-derivative of h_v at fixed z. The pulled-back gradient
    is d_x = that + h_z eta v' and d_eta = h_z (H + v).
    """
    xq = mesh.x_q
    vq = mesh.gap_q - mesh.H
    zq = mesh.z_q()
    dxh = model.h_x(xq, zq, vq) + model.h_w(xq, zq, vq) * mesh.slope_q
    return dxh, model.h_z(xq, zq, vq)


def assemble(
    mesh: MappedMesh,
    model: DielectricModel,
    profile: DeflectionProfile,
    source=None,
) -> LinearSystem:
    """Build the reduced SPD system for chi on one component.

    Stiffness: int (A_v grad Phi) . grad phi over the rectangle with 2x2 Gauss
    points per bilinear cell. Robin mass: the bottom term is a plain
    x-integral (the graph map is the identity along z = -H), lumped with
    trapezoid weights sigma(x_i) w_i. Load: the first-derivative pullback of
    h_v plus the bottom datum sigma (h(., -H, v) - frak_h(., v)); an optional
    ``source`` callable f(x, z) adds the mapped volume term int f phi (H+v).
    """
    if abs(model.H - profile.H) > 1e-14 * max(1.0, model.H):
        raise ValueError(f"model H = {model.H} does not match profile H = {profile.H}")

    n_x, n_eta = mesh.n_x, mesh.n_eta
    dx, de = mesh.dx, mesh.deta
    jac = dx * de / 4.0
    sx, se = 2.0 / dx, 2.0 / de

    # free nodes numbered in dissection order, so every scatter below builds
    # the system already permuted; the Dirichlet nodes (top row and lateral
    # columns, chi = 0) map to -1 and drop out of every scatter
    order = _dissection_order(n_x - 1, n_eta)
    n_free = order.size
    rank = np.empty(n_free, dtype=np.intp)
    rank[order] = np.arange(n_free)
    dof = np.full((n_x + 1, n_eta + 1), -1)
    dof[1:-1, :-1] = rank.reshape(n_x - 1, n_eta)
    corners = _corner_values(dof)  # (n_cells, 4), cells ordered (ix, ie) row-major
    live = corners.reshape(-1) >= 0

    def scatter(cell_vals: np.ndarray) -> np.ndarray:
        # float also when no weight is kept: a one-cell component has no free node
        kept = np.bincount(corners.reshape(-1)[live], weights=cell_vals.reshape(-1)[live], minlength=n_free)
        return kept.astype(float, copy=False)

    k_all = (
        mesh.a11.reshape(-1, 4) @ (_T11 * (jac * sx * sx))
        + mesh.a12.reshape(-1, 4) @ (_T12 * (jac * sx * se))
        + mesh.a22.reshape(-1, 4) @ (_T22 * (jac * se * se))
    )  # (n_cells, 16), entry 4 m + n couples corners m and n
    rows = np.repeat(corners, 4, axis=1).reshape(-1)
    cols = np.tile(corners, (1, 4)).reshape(-1)
    keep = (rows >= 0) & (cols >= 0)

    # lumped Robin mass on eta = 0, at the free bottom nodes
    bottom = dof[1:-1, 0]
    w_bot = dx * _trapezoid_weights(n_x + 1)[1:-1]
    sig = model.sigma.value(mesh.x_nodes)[1:-1]
    mat = sp.coo_matrix(
        (
            np.concatenate([k_all.reshape(-1)[keep], sig * w_bot]),
            (np.concatenate([rows[keep], bottom]), np.concatenate([cols[keep], bottom])),
        ),
        shape=(n_free, n_free),
    ).tocsr()

    # load: volume part from the pulled-back gradient of h_v
    dxh, hz = _h_derivatives(mesh, model)
    b1 = mesh.gap_q * dxh
    b2 = -mesh.eta_q * mesh.slope_q * dxh + hz
    b = scatter(-(b1.reshape(-1, 4) @ _DXI * sx + b2.reshape(-1, 4) @ _DZE * se) * jac)

    # load: bottom datum
    x_bot = mesh.x_nodes[1:-1]
    v_bot = mesh.gap_nodes[1:-1] - mesh.H
    b[bottom] -= sig * w_bot * (model.h(x_bot, -mesh.H, v_bot) - model.frak_h(x_bot, v_bot))

    if source is not None:
        f_q = np.asarray(source(mesh.x_q, mesh.z_q()), dtype=float) * mesh.gap_q
        b += scatter(f_q.reshape(-1, 4) @ _NVAL * jac)

    return LinearSystem(
        matrix=mat,
        rhs=b,
        free_nodes=np.arange(dof.size).reshape(dof.shape)[1:-1, :-1].reshape(-1)[order],
        n_x=n_x,
        n_eta=n_eta,
    )


def _solve_system(system: LinearSystem) -> tuple[np.ndarray, float]:
    """SuperLU solve of the reduced system; returns (x, relative residual).

    The dofs are already in dissection order, so SuperLU keeps it (NATURAL)
    and, the system being SPD, pivots on the diagonal with rows following
    the columns.
    """
    a, b = system.matrix, system.rhs
    if a.shape[0] == 0:
        return np.zeros(0), 0.0
    lu = splu(a.tocsc(), permc_spec="NATURAL", diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))
    x = lu.solve(b)
    b_norm = float(np.linalg.norm(b))
    res = float(np.linalg.norm(a @ x - b)) / b_norm if b_norm > 0.0 else 0.0
    return x, res


def solve_potential(
    profile: DeflectionProfile,
    model: DielectricModel,
    n_eta: int = 128,
    gap_threshold: float | None = None,
    source=None,
) -> PotentialField:
    """Solve chi_v component by component and extract the boundary traces.

    The x-resolution comes from the profile's own grid; ``n_eta`` sets the
    vertical cell count of each mapped rectangle. Contact nodes carry NaN in
    the returned traces. ``source`` is the optional manufactured volume load
    f(x, z) used by convergence studies.

    A component of one cell has no free node and a component of one node
    (a wall node beside contact) no area: chi = 0 on both, and their traces
    are 0, as on every lateral edge. The one-node component gets no entry in
    ``components``.
    """
    coincidence = detect_coincidence(profile, gap_threshold)
    n = profile.x_nodes.size
    top_dz = np.full(n, np.nan)
    bot_val = np.full(n, np.nan)

    solutions = []
    for comp in coincidence.components:
        i_lo, i_hi = comp
        if i_lo == i_hi:
            top_dz[i_lo] = bot_val[i_lo] = 0.0
            continue
        mesh = build_mapped_mesh(profile, comp, n_eta)
        system = assemble(mesh, model, profile, source=source)
        x, res = _solve_system(system)
        chi = np.zeros((mesh.n_x + 1, mesh.n_eta + 1))
        chi.reshape(-1)[system.free_nodes] = x
        solutions.append(ComponentSolution(mesh=mesh, chi=chi, residual=res))

        de = mesh.deta
        # one-sided 3-point eta-derivative at the top (chi = 0 there)
        dtop = (3.0 * chi[:, -1] - 4.0 * chi[:, -2] + chi[:, -3]) / (2.0 * de)
        top_dz[i_lo : i_hi + 1] = dtop / mesh.gap_nodes
        bot_val[i_lo : i_hi + 1] = chi[:, 0]

    return PotentialField(
        model=model,
        profile=profile,
        coincidence=coincidence,
        components=tuple(solutions),
        top_dz=top_dz,
        bot_val=bot_val,
        n_eta=n_eta,
    )


# ---------------------------------------------------------------- diagnostics


def functional_quadratic(mesh: MappedMesh, model: DielectricModel, theta: np.ndarray) -> float:
    """Full quadratic functional of the data problem at a nodal field theta.

    Evaluates 1/2 int A_v grad(theta + h_v) . grad(theta + h_v) plus
    1/2 int sigma (theta + h_v(., -H) - frak_h)^2 on the bottom edge, with the
    assembly quadratures (Gauss field term, lumped trapezoid bottom term).
    The solved chi minimizes this over fields vanishing on the Dirichlet
    edges, and the electrostatic energy of the component is its negative.
    """
    field, bottom = functional_quadratic_parts(mesh, model, theta)
    return field + bottom


def functional_quadratic_parts(
    mesh: MappedMesh, model: DielectricModel, theta: np.ndarray
) -> tuple[float, float]:
    """(field term, bottom term) of the quadratic functional, both >= 0."""
    theta = np.asarray(theta, dtype=float)
    n_x, n_eta = mesh.n_x, mesh.n_eta
    if theta.shape != (n_x + 1, n_eta + 1):
        raise ValueError(f"theta shape {theta.shape}, expected {(n_x + 1, n_eta + 1)}")
    dx, de = mesh.dx, mesh.deta
    jac = dx * de / 4.0
    gx = _DXI * (2.0 / dx)
    ge = _DZE * (2.0 / de)

    corners = _corner_values(theta)  # (n_cells, 4)
    tx = corners @ gx.T  # (n_cells, 4 gauss)
    te = corners @ ge.T
    dxh, hz = _h_derivatives(mesh, model)
    hhat_x = dxh + hz * mesh.eta_q * mesh.slope_q
    hhat_e = hz * mesh.gap_q

    wx = tx + hhat_x.reshape(-1, 4)
    we = te + hhat_e.reshape(-1, 4)
    a11 = mesh.a11.reshape(-1, 4)
    a12 = mesh.a12.reshape(-1, 4)
    a22 = mesh.a22.reshape(-1, 4)
    field = 0.5 * jac * float(np.sum(a11 * wx * wx + 2.0 * a12 * wx * we + a22 * we * we))

    w_bot = dx * _trapezoid_weights(n_x + 1)
    sig = model.sigma.value(mesh.x_nodes)
    v_bot = mesh.gap_nodes - mesh.H
    trace = theta[:, 0] + model.h(mesh.x_nodes, -mesh.H, v_bot) - model.frak_h(mesh.x_nodes, v_bot)
    bottom = 0.5 * float(np.sum(w_bot * sig * trace**2))
    return field, bottom


def functional_dual(
    system: LinearSystem, mesh: MappedMesh, theta: np.ndarray
) -> float:
    """Discrete data-free functional 1/2 theta' S theta - theta' b.

    ``theta`` is a full nodal field; only its free-node part enters (the
    Dirichlet rows are fixed at zero in the reduced system).
    """
    theta = np.asarray(theta, dtype=float).reshape(-1)
    t = theta[system.free_nodes]
    return float(0.5 * t @ (system.matrix @ t) - system.rhs @ t)


def _corner_values(nodal: np.ndarray) -> np.ndarray:
    """Nodal (n_x+1, n_eta+1) -> per-cell corner values (n_cells, 4)."""
    c00 = nodal[:-1, :-1]
    c10 = nodal[1:, :-1]
    c11 = nodal[1:, 1:]
    c01 = nodal[:-1, 1:]
    return np.stack([c00, c10, c11, c01], axis=-1).reshape(-1, 4)


def max_principle_check(
    field: PotentialField, model: DielectricModel, profile: DeflectionProfile
) -> MaxPrincipleReport:
    """Compare the reconstructed psi against the weak maximum principle bounds.

    The analytic bounds are min/max over the Dirichlet data h_v on the
    component boundaries (graph, laterals, contact bottom) and the Robin
    datum frak_h(., v) along the bottom. Tolerance 1e-6 V.
    """
    lows, highs = [], []
    min_psi, max_psi = np.inf, -np.inf
    worst = ""

    for k, comp in enumerate(field.components):
        mesh = comp.mesh
        psi = field.psi_on(k)
        j = np.unravel_index(np.argmax(psi), psi.shape)
        if psi[j] > max_psi:
            max_psi = float(psi[j])
            worst = f"component {k} node {j}"
        jmin = np.unravel_index(np.argmin(psi), psi.shape)
        min_psi = min(min_psi, float(psi[jmin]))

        v = mesh.gap_nodes - mesh.H
        top = model.h(mesh.x_nodes, v, v)
        z_cols = -mesh.H + mesh.eta_nodes[None, :] * mesh.gap_nodes[[0, -1], None]
        lat = model.h(mesh.x_nodes[[0, -1], None], z_cols, v[[0, -1], None])
        datum = model.frak_h(mesh.x_nodes, v)
        lows += [float(np.min(top)), float(np.min(lat)), float(np.min(datum))]
        highs += [float(np.max(top)), float(np.max(lat)), float(np.max(datum))]

    mask = field.coincidence.contact_mask
    if np.any(mask):
        xc = profile.x_nodes[mask]
        hc = model.h(xc, -profile.H, -profile.H)
        min_psi = min(min_psi, float(np.min(hc)))
        max_psi = max(max_psi, float(np.max(hc)))
        lows.append(float(np.min(hc)))
        highs.append(float(np.max(hc)))
        dc = model.frak_h(xc, -profile.H)
        lows.append(float(np.min(dc)))
        highs.append(float(np.max(dc)))

    lower = min(lows)
    upper = max(highs)
    tol = 1e-6 * abs(model.V)
    ok = (min_psi >= lower - tol) and (max_psi <= upper + tol)
    return MaxPrincipleReport(
        min_psi=min_psi,
        max_psi=max_psi,
        lower_bound=lower,
        upper_bound=upper,
        ok=bool(ok),
        tol=tol,
        worst=worst,
    )
