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
mass on the bottom edge. The discrete electrostatic energy is the negative
of the minimized discrete functional in these quadratures (see Energy
below). The checks of the solution the paper proves, such as the maximum
principle bound 0 <= psi <= V of the data family, are stated in the tests on
``PotentialField.psi_on``.

The map is stored per axis (geometry.MappedMesh), so the stiffness is a sum
of five Kronecker products of 1-D tridiagonal cell factors,

    K = K_x[G] (x) M_eta - D_x[S] (x) C_eta[eta] - D_x[S]^T (x) C_eta[eta]^T
        + M_x[1/G] (x) K_eta + M_x[S^2/G] (x) K_eta[eta^2],

((x) the Kronecker product, x factor first; K stiffness, M mass, D and C
the derivative-times-value factors, the bracket the weight at the Gauss
points), plus the lumped Robin diagonal. Its nine stencil arrays come out of
one contraction of the stacked factors. Everything else about the CSC matrix
depends on the grid shape alone: ``_csc_plan`` holds, for a grid shape and
cached for the last one asked for, the sorted ``indptr`` and ``indices`` in
the dissection numbering below and, for each entry, the flat index of its
value in the stencil arrays (an entry below or left of the centre reads its
mirror's, so the matrix is exactly symmetric). Assembly is then one gather
into that read-only structure, the
split of symbolic from numeric work of sparse direct methods (Davis,
*Direct Methods for Sparse Linear Systems*, SIAM 2006).
The datum h_v is evaluated once per component solve, on the broadcast
quadrature axes (sigma at 2 n_x points); the load and the energy both read
that one evaluation from ``ComponentSolution.datum``.

Energy: for a field theta vanishing on the Dirichlet edges, with free part
t, the quadratic functional is J(theta) = 1/2 t'Kt - b't + J(0), where in
J(0) the pull-back of A cancels: its field part is 1/2 sum w G (dxh^2 +
hz^2) over the Gauss points. So each component's field and bottom terms
at the solved chi (the negative of its electrostatic energy) are read off
the system just solved, with one product by K, rather than by a second
quadrature; ``functional_quadratic_parts`` is that quadrature, kept as the
reference.

Linear solve: the same at every system size. Assembly numbers the free
nodes of each component in nested-dissection order (George 1973; Lipton,
Rose & Tarjan 1979): the (n_x-1) x n_eta node grid is bisected across its
longer side by one line of nodes, recursively down to blocks of at most 2x2
nodes, and each separator line is numbered after its two halves. The order
depends on the grid shape alone and enters the shape's CSC plan. The matrix
is written in that order, so SuperLU factors it with the NATURAL column
order and no pivoting (the system is SPD); ``_factor`` is the one
factorization call.

Every component solve takes one path, ``_cached_solve``, with a dict of
factors keyed by component. A plain ``solve_potential`` call makes its own
dict and drops it on return; a caller that solves a chain of nearby
profiles (only ``minimize`` does) passes one that it owns for the whole
chain. A component with a held factor is solved by conjugate gradients
preconditioned with that lagged factor, started from the component's last
solution, to a relative residual of _CG_RTOL = 1e-12 and one iteration past
it, and is factored afresh only when CG does not meet _CG_RTOL within
_CG_MAX_ITERS = 8 iterations or no factor is held (the lagged-Jacobian
preconditioning of Knoll & Keyes, J. Comput. Phys. 193, 2004). A fresh
factor serves its own first solve through the same CG loop. Past the
round-off floor of the system the CG residual grows again, so CG stops at
the first iterate whose residual exceeds the best so far and returns the
best. Where that floor lies above _CG_RTOL (1-2e-12 for a direct solve at
512x256), the fresh solve stops above it too, and the factor is then held
to _CG_FLOOR_FACTOR = 2 times the residual its own fresh solve reached
instead of _CG_RTOL (the floor rule); elsewhere every solve meets _CG_RTOL.
Stale and failed factors are dropped before a new one is made, so the dict
holds at most one factor (and solution, and tolerance) per component.
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
    "assemble",
    "solve_potential",
]

# 1-D linear basis of a cell at its two Gauss points: _N[g, a] is the value of
# the shape function of local node a (0 left, 1 right) at Gauss point g, and
# _DN[g, a] its derivative times the cell width
_N = 0.5 * (1.0 + np.outer(_GAUSS_1D, [-1.0, 1.0]))
_DN = np.array([[-1.0, 1.0], [-1.0, 1.0]])


@dataclass(frozen=True)
class Datum:
    """The datum h_v of one component, evaluated once per solve.

    ``dxh`` = h_x + h_w v' (the x-derivative of h_v at fixed z) and ``hz`` =
    h_z at the quadrature points, broadcastable to (n_x, 2, n_eta, 2);
    ``sigma`` and ``bottom`` = h(x, -H, v) - frak_h(x, v) at the x-nodes.
    The pulled-back gradient of h_v is d_x = dxh + hz eta v' and
    d_eta = hz (H + v).
    """

    dxh: np.ndarray
    hz: np.ndarray
    sigma: np.ndarray
    bottom: np.ndarray


@dataclass(frozen=True)
class LinearSystem:
    """Reduced SPD system for one component: matrix, rhs, and the dof map.

    ``free_nodes`` is the node index of each dof, in dissection order: dof d
    is node ``free_nodes[d]`` of the row-major (n_x+1, n_eta+1) grid.
    ``source_rhs`` is the part of ``rhs`` that a manufactured source adds
    (None without one); the rest is the load of the datum.
    """

    matrix: sp.csc_matrix
    rhs: np.ndarray
    free_nodes: np.ndarray
    datum: Datum
    source_rhs: np.ndarray | None = None


@dataclass(frozen=True)
class ComponentSolution:
    """Nodal chi on one component mesh, the datum it was solved for, its energy, and how it was solved.

    ``field_term`` and ``bottom_term`` are the two parts of the quadratic
    functional at chi (``functional_quadratic_parts``), read off the solved
    system. ``residual`` is the relative residual of the solve,
    ``iterations`` the conjugate-gradient iterations of a solve by a lagged
    factor (0 when the solve made its own factor), and ``factored`` whether
    the solve made a SuperLU factorization.
    """

    mesh: MappedMesh
    chi: np.ndarray
    residual: float
    datum: Datum
    iterations: int
    factored: bool
    field_term: float
    bottom_term: float


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

    def psi_on(self, k: int) -> np.ndarray:
        """Nodal psi = chi + h(x, z, v) on component k, shape (n_x+1, n_eta+1)."""
        comp = self.components[k]
        mesh = comp.mesh
        v = mesh.gap_nodes - mesh.H
        z = -mesh.H + mesh.eta_nodes[None, :] * mesh.gap_nodes[:, None]
        return comp.chi + self.model.h(mesh.x_nodes[:, None], z, v[:, None])


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


@dataclass(frozen=True)
class _CscPlan:
    """The CSC structure of one grid shape's reduced system, and where its values come from.

    ``indptr`` and ``indices`` are the canonical CSC structure in dissection
    numbering (rows sorted within each column); entry e takes its value from
    the flat index ``source[e]`` of the stencil array (3, 3, n_x - 1, n_eta)
    of ``assemble``. ``free_nodes`` is the node index of each dof.
    """

    indptr: np.ndarray
    indices: np.ndarray
    source: np.ndarray
    free_nodes: np.ndarray


@functools.lru_cache(maxsize=1)
def _csc_plan(n_x: int, n_eta: int) -> _CscPlan:
    """The CSC plan of the system of an n_x x n_eta cell grid, int32 and read-only.

    Column d is free node (i + 1, j) = divmod(order[d], n_eta) of the
    dissection order; its rows are the ranks of its nine neighbours (i + a,
    j + b - 1), read from a padded rank grid in which the Dirichlet nodes
    (top row and lateral columns, chi = 0) and the row below the bottom hold
    n_free and drop out. An entry below or left of the centre (a = 0, or a =
    1 and b = 0) reads its mirror's value, stencil[2 - a, 2 - b] at the
    neighbour, so the matrix is exactly symmetric. scipy sorts the rows of
    each column, with the value positions as the matrix data.

    Cached for the last shape asked for: a descent below touchdown meets
    one shape. A plan takes 10 MB at 512x256, and keeping those of unrelated
    profiles' components raised the peak memory of a stream of 512x256
    field solves by 4-10 % (two to eight shapes kept, against 1 % for one).
    """
    n_free = (n_x - 1) * n_eta
    order = _dissection_order(n_x - 1, n_eta)
    i, j = np.divmod(order, n_eta)
    a, b = np.divmod(np.arange(9), 3)
    rank = np.full((n_x + 1) * (n_eta + 2), n_free, dtype=np.int32)  # eta nodes -1 .. n_eta
    rank[(i + 1) * (n_eta + 2) + j + 1] = np.arange(n_free, dtype=np.int32)
    rows = rank[(i * (n_eta + 2) + j)[:, None] + (a * (n_eta + 2) + b)]
    mirrored = (a == 0) | ((a == 1) & (b == 0))
    shift = np.where(mirrored, (8 - np.arange(9)) * n_free + (a - 1) * n_eta + (b - 1), np.arange(9) * n_free)
    source = (order[:, None] + shift).astype(np.int32)
    keep = rows < n_free
    indptr = np.zeros(n_free + 1, dtype=np.int32)
    np.cumsum(np.count_nonzero(keep, axis=1), out=indptr[1:])
    positions = sp.csc_matrix((source[keep], rows[keep], indptr), shape=(n_free, n_free))
    positions.sort_indices()
    plan = _CscPlan(
        indptr=positions.indptr,
        indices=positions.indices,
        source=positions.data,
        free_nodes=((i + 1) * (n_eta + 1) + j).astype(np.int32),
    )
    for arr in (plan.indptr, plan.indices, plan.source, plan.free_nodes):
        arr.flags.writeable = False
    return plan


def _evaluate_datum(mesh: MappedMesh, model: DielectricModel) -> Datum:
    """The datum of one component, one call of each model function.

    The model is called on the broadcast quadrature axes, so a datum that
    reads sigma(x) evaluates it at the 2 n_x x-Gauss points only.
    """
    x, v, z = mesh.x_q, mesh.gap_q - mesh.H, mesh.z_q()
    v_nodes = mesh.gap_nodes - mesh.H
    return Datum(
        dxh=model.h_x(x, z, v) + model.h_w(x, z, v) * mesh.slope_q,
        hz=model.h_z(x, z, v),
        sigma=model.sigma.value(mesh.x_nodes),
        bottom=model.h(mesh.x_nodes, -mesh.H, v_nodes) - model.frak_h(mesh.x_nodes, v_nodes),
    )


def _tridiagonals(weights: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Diagonals of 1-D cell-assembled matrices, shape (n_terms, n_nodes, 3).

    Term t is the matrix sum_cells sum_g weights[t, c, g] p[t, g, a] q[t, g, b]
    coupling local nodes a and b of cell c; its columns are the entries of
    each row at the node before, the node itself and the node after.
    """
    cell = np.einsum("tcg,tga,tgb->tcab", weights, p, q)
    n_terms, n_cells = cell.shape[:2]
    out = np.zeros((n_terms, n_cells + 1, 3))
    out[:, 1:, 0] = cell[:, :, 1, 0]
    out[:, :-1, 1] = cell[:, :, 0, 0]
    out[:, 1:, 1] += cell[:, :, 1, 1]
    out[:, :-1, 2] = cell[:, :, 0, 1]
    return out


def _add_moments(out: np.ndarray, values: np.ndarray, px: np.ndarray, pe: np.ndarray) -> None:
    """Add to the nodal array ``out`` the moments of Gauss-point values against a tensor basis.

    ``values`` broadcasts to (n_x, 2, n_eta, 2); corner (a, b) of each cell
    receives the sum of values px[gx, a] pe[ge, b] over the cell's four
    Gauss points (gx, ge), at node (x cell + a, eta cell + b) of ``out``,
    shape (n_x+1, n_eta+1).
    """
    n_x, n_eta = out.shape[0] - 1, out.shape[1] - 1
    v = np.broadcast_to(values, (n_x, 2, n_eta, 2))
    for b in (0, 1):
        vb = v[..., 0] * pe[0, b] + v[..., 1] * pe[1, b]  # (n_x, gx, n_eta)
        for a in (0, 1):
            out[a : n_x + a, b : n_eta + b] += vb[:, 0] * px[0, a] + vb[:, 1] * px[1, a]


def _gauss_values(nodal: np.ndarray, px: np.ndarray, pe: np.ndarray) -> np.ndarray:
    """Nodal field against a tensor basis at the Gauss points, shape (n_x, 2, n_eta, 2).

    Entry (x cell, gx, eta cell, ge) sums nodal value times px[gx, a] pe[ge, b]
    over the four corners (a, b) of the cell.
    """
    along_eta = nodal[:, :-1, None] * pe[:, 0] + nodal[:, 1:, None] * pe[:, 1]  # (n_x+1, n_eta, 2)
    return along_eta[:-1, None] * px[:, 0, None, None] + along_eta[1:, None] * px[:, 1, None, None]


def assemble(
    mesh: MappedMesh,
    model: DielectricModel,
    profile: DeflectionProfile,
    source=None,
) -> LinearSystem:
    """Build the reduced SPD system for chi on one component.

    Stiffness: int (A_v grad Phi) . grad phi over the rectangle with 2x2 Gauss
    points per bilinear cell, as the Kronecker sum of the module docstring.
    Robin mass: the bottom term is a plain x-integral (the graph map is the
    identity along z = -H), lumped with trapezoid weights sigma(x_i) w_i.
    Load: the first-derivative pullback of h_v plus the bottom datum
    sigma (h(., -H, v) - frak_h(., v)); an optional ``source`` callable
    f(x, z) adds the mapped volume term int f phi (H+v). The datum is
    evaluated here, once, and returned on the system.
    """
    if abs(model.H - profile.H) > 1e-14 * max(1.0, model.H):
        raise ValueError(f"model H = {model.H} does not match profile H = {profile.H}")

    n_x, n_eta = mesh.n_x, mesh.n_eta
    dx, de = mesh.dx, mesh.deta
    wx, we = 0.5 * dx, 0.5 * de  # Gauss weights
    datum = _evaluate_datum(mesh, model)

    # the five Kronecker terms: x factors weighted by the map, eta factors by eta^k
    G, S, eta = mesh.gap_gauss, mesh.slope[:, None], mesh.eta_gauss
    dnx, dne = _DN / dx, _DN / de
    x_fac = _tridiagonals(
        wx * np.stack(np.broadcast_arrays(G, -S, -S, 1.0 / G, S * S / G)),
        np.stack([dnx, dnx, _N, _N, _N]),
        np.stack([dnx, _N, dnx, _N, _N]),
    )
    e_fac = _tridiagonals(
        we * np.stack(np.broadcast_arrays(1.0, eta, eta, 1.0, eta * eta)),
        np.stack([_N, _N, dne, dne, dne]),
        np.stack([_N, dne, _N, dne, dne]),
    )
    # the nine stencil arrays: stencil[a, b, i, j] couples free node (i + 1, j)
    # to node (i + a, j + b - 1), one batched product over the five terms
    n_free = (n_x - 1) * n_eta
    stencil = np.matmul(x_fac[:, 1:-1].transpose(2, 1, 0)[:, None], e_fac[:, :-1].transpose(2, 0, 1)[None])
    # lumped Robin mass on eta = 0 (interior nodes have trapezoid weight 1)
    stencil[1, 1, :, 0] += datum.sigma[1:-1] * dx
    plan = _csc_plan(n_x, n_eta)
    mat = sp.csc_matrix((np.take(stencil, plan.source), plan.indices, plan.indptr), shape=(n_free, n_free))

    # load: volume part from the pulled-back gradient of h_v, then the bottom datum
    load = np.zeros((n_x + 1, n_eta + 1))
    _add_moments(load, mesh.gap_q * datum.dxh, dnx, _N)
    _add_moments(load, -mesh.eta_q * mesh.slope_q * datum.dxh + datum.hz, _N, dne)
    load *= -(wx * we)
    load[1:-1, 0] -= datum.sigma[1:-1] * dx * datum.bottom[1:-1]
    rhs, source_rhs = load.reshape(-1)[plan.free_nodes], None
    if source is not None:
        f_q = np.asarray(source(mesh.x_q, mesh.z_q()), dtype=float) * mesh.gap_q
        source_load = np.zeros_like(load)
        _add_moments(source_load, f_q * (wx * we), _N, _N)
        source_rhs = source_load.reshape(-1)[plan.free_nodes]
        rhs = rhs + source_rhs

    return LinearSystem(
        matrix=mat,
        rhs=rhs,
        free_nodes=plan.free_nodes,
        datum=datum,
        source_rhs=source_rhs,
    )


# lagged-factor solves: conjugate gradients preconditioned with a held factor
# run to this relative residual (and one iteration past it), and a held
# factor that does not get there within this many iterations, or whose
# residual rises first, is dropped and the matrix factored afresh
_CG_RTOL = 1e-12
_CG_MAX_ITERS = 8
# a factor whose own fresh solve stops above _CG_RTOL (the round-off floor of
# the system is higher: 1.1-1.3e-12 at 512x256) is held to this multiple of
# the residual that solve reached instead
_CG_FLOOR_FACTOR = 2.0


def _factor(matrix: sp.csc_matrix):
    """SuperLU factor of a reduced system matrix, the package's one factorization.

    The dofs are already in dissection order, so SuperLU keeps it (NATURAL)
    and, the system being SPD, pivots on the diagonal with rows following
    the columns.
    """
    return splu(matrix, permc_spec="NATURAL", diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))


def _lagged_solve(
    system: LinearSystem, lu, x0: np.ndarray, rtol: float = _CG_RTOL
) -> tuple[np.ndarray, float, int, bool]:
    """Conjugate gradients on the system from ``x0``, preconditioned with the
    factor ``lu`` of the same or an earlier matrix of the same shape (both
    SPD, so the preconditioner is too).

    Returns (x, relative residual, iterations taken, whether the true
    residual met ``rtol`` within _CG_MAX_ITERS iterations). Once it does, one
    more iteration is taken: that step takes the residual to the round-off
    floor of the factor, so a lagged solve is no less accurate than a fresh
    one. Past that floor the residual grows again, so CG stops at the first
    iterate whose residual exceeds the best so far, and the iterate with the
    smallest residual is returned, whether ``rtol`` was met or not.
    """
    a, b = system.matrix, system.rhs
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return np.zeros_like(b), 0.0, 0, True
    x = x0
    r = b - a @ x
    z = lu.solve(r)
    p = z
    rz = float(r @ z)
    best_res, best_x = np.inf, x
    met = False
    for iterations in range(1, _CG_MAX_ITERS + 2):
        x = x + (rz / float(p @ (a @ p))) * p
        r = b - a @ x
        res = float(np.linalg.norm(r)) / b_norm
        if res < best_res:
            best_res, best_x = res, x
        if met or res > best_res or (res > rtol and iterations == _CG_MAX_ITERS):
            break
        met = res <= rtol
        z = lu.solve(r)
        rz, rz_old = float(r @ z), rz
        p = z + (rz / rz_old) * p
    return best_x, best_res, iterations, met


def _cached_solve(system: LinearSystem, factors: dict, key: tuple) -> tuple[np.ndarray, float, int, bool]:
    """Solve by the factor held under ``key`` if it serves, else by a fresh one kept there.

    Each entry holds a factor, the component's last solution, from which CG
    starts, and the tolerance the factor is held to. Returns (x, relative
    residual, CG iterations on a held factor, whether a factor was made). A
    held factor that fails is dropped before the new one is made; the new
    one serves its own solve through the same CG loop (2-3 iterations, not
    counted). That solve sets the tolerance: _CG_RTOL if it met it, else
    _CG_FLOOR_FACTOR times the residual it reached, so every solve
    meets _CG_RTOL wherever the system's round-off floor allows it.
    """
    if system.rhs.size == 0:
        return np.zeros(0), 0.0, 0, False
    if key in factors:
        lu, x0, rtol = factors[key]
        x, res, iterations, met = _lagged_solve(system, lu, x0, rtol)
        if met:
            factors[key] = (lu, x, rtol)
            return x, res, iterations, False
        del factors[key], lu  # no reference may keep the failed factor alive while the new one is made
    else:
        x0 = np.zeros_like(system.rhs)
    lu = _factor(system.matrix)
    x, res, _, met = _lagged_solve(system, lu, x0)
    factors[key] = (lu, x, _CG_RTOL if met else _CG_FLOOR_FACTOR * res)
    return x, res, 0, True


def solve_potential(
    profile: DeflectionProfile,
    model: DielectricModel,
    n_eta: int = 128,
    gap_threshold: float | None = None,
    source=None,
    factors: dict | None = None,
) -> PotentialField:
    """Solve chi_v component by component and extract the boundary traces.

    The x-resolution comes from the profile's own grid; ``n_eta`` sets the
    vertical cell count of each mapped rectangle. Contact nodes carry NaN in
    the returned traces. ``source`` is the optional manufactured volume load
    f(x, z) used by convergence studies; it adds to the load but not to the
    functional, so each component's energy terms leave it out.

    A component of one cell has no free node and a component of one node
    (a wall node beside contact) no area: chi = 0 on both, and their traces
    are 0, as on every lateral edge. The one-node component gets no entry in
    ``components``.

    ``factors`` is a cache of SuperLU factors keyed by component
    ``(i_lo, i_hi, n_eta)``; each entry is a factor, the component's last
    solution and the tolerance the factor is held to. A caller that solves
    a chain of nearby profiles owns one and passes it to each solve; without
    it the call makes its own, dropped on return. Every component goes
    through the same solve: with a held factor, conjugate gradients
    preconditioned with it, from that solution, to a relative residual of
    _CG_RTOL (or the floor rule's tolerance, see the module docstring) and
    one iteration past it, stopping early at the first iterate whose
    residual exceeds the best so far; if CG does not meet that tolerance
    within _CG_MAX_ITERS iterations, or no factor is held, the component is
    factored afresh, solved by the same CG loop with the new factor, and
    both kept. Factors
    of components the profile no longer has are dropped first, so the cache
    holds at most one factor per component.
    """
    coincidence = detect_coincidence(profile, gap_threshold)
    if factors is None:
        factors = {}
    keys = {(i_lo, i_hi, n_eta) for i_lo, i_hi in coincidence.components}
    for stale in factors.keys() - keys:
        del factors[stale]
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
        x, res, iterations, factored = _cached_solve(system, factors, (i_lo, i_hi, n_eta))
        chi = np.zeros((mesh.n_x + 1, mesh.n_eta + 1))
        chi.reshape(-1)[system.free_nodes] = x
        field_term, bottom_term = _solved_parts(system, mesh, chi, x)
        solutions.append(
            ComponentSolution(
                mesh=mesh,
                chi=chi,
                residual=res,
                datum=system.datum,
                iterations=iterations,
                factored=factored,
                field_term=field_term,
                bottom_term=bottom_term,
            )
        )

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
    )


# ---------------------------------------------------------------- energy read-off


def functional_quadratic_parts(mesh: MappedMesh, datum: Datum, theta: np.ndarray) -> tuple[float, float]:
    """(field term, bottom term) of the quadratic functional of the data problem at a nodal field theta, both >= 0.

    The field term is 1/2 int A_v grad(theta + h_v) . grad(theta + h_v) and
    the bottom term 1/2 int sigma (theta + h_v(., -H) - frak_h)^2, in the
    assembly quadratures (Gauss field term, lumped trapezoid bottom term).
    The solved chi minimizes their sum over fields vanishing on the Dirichlet
    edges, and the electrostatic energy of the component is its negative.
    """
    theta = np.asarray(theta, dtype=float)
    n_x, n_eta = mesh.n_x, mesh.n_eta
    if theta.shape != (n_x + 1, n_eta + 1):
        raise ValueError(f"theta shape {theta.shape}, expected {(n_x + 1, n_eta + 1)}")
    dx, de = mesh.dx, mesh.deta

    wx = _gauss_values(theta, _DN / dx, _N) + (datum.dxh + datum.hz * mesh.eta_q * mesh.slope_q)
    we = _gauss_values(theta, _N, _DN / de) + datum.hz * mesh.gap_q
    quad = mesh.a11 * wx * wx + 2.0 * mesh.a12 * wx * we + mesh.a22 * we * we
    field = 0.5 * (dx * de / 4.0) * float(np.sum(quad))

    return field, _bottom_term(mesh, datum, theta[:, 0])


def _bottom_term(mesh: MappedMesh, datum: Datum, trace: np.ndarray) -> float:
    """Lumped trapezoid bottom term 1/2 sum w sigma (theta + h(., -H, v) - frak_h)^2 of a bottom trace of theta."""
    w_bot = mesh.dx * _trapezoid_weights(mesh.n_x + 1)
    return 0.5 * float(np.sum(w_bot * datum.sigma * (trace + datum.bottom) ** 2))


def _solved_parts(system: LinearSystem, mesh: MappedMesh, chi: np.ndarray, x: np.ndarray) -> tuple[float, float]:
    """(field term, bottom term) of the quadratic functional at the solved chi, read off its system.

    For a nodal field theta that vanishes on the Dirichlet edges, with free
    part t, the functional is J(theta) = 1/2 t'Kt - b't + J(0), where b is
    the datum's load (a manufactured source's part left out). In J(0) the
    pull-back of A cancels, a11 p^2 + 2 a12 p q + a22 q^2 = G (dxh^2 + hz^2)
    for the datum's gradient (p, q), so its field part is 1/2 sum w G (dxh^2
    + hz^2) over the Gauss points. The bottom term at chi is its own 1-D sum
    and the field term is J(chi) minus it; both equal those of
    ``functional_quadratic_parts`` to round-off.
    """
    datum = system.datum
    grad_sq = np.broadcast_to(mesh.gap_q * (datum.dxh**2 + datum.hz**2), (mesh.n_x, 2, mesh.n_eta, 2))
    j_zero = 0.5 * (mesh.dx * mesh.deta / 4.0) * float(np.sum(grad_sq)) + _bottom_term(mesh, datum, 0.0)
    b = system.rhs if system.source_rhs is None else system.rhs - system.source_rhs
    j_chi = 0.5 * float(x @ (system.matrix @ x)) - float(b @ x) + j_zero
    bottom = _bottom_term(mesh, datum, chi[:, 0])
    return j_chi - bottom, bottom
