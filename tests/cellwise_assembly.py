"""Cellwise reference assembly of one component's reduced system, for tests only.

The map data are spread over every Gauss point of every cell, shape
(n_x, n_eta, 4), each cell's 4x4 element matrix is built from 2x2 Gauss
tables (a11 T11 + a12 T12 + a22 T22) and scattered with its load through COO
into a matrix over the free nodes in row-major node order. This is the
assembly ``beamgap.solver.assemble`` replaced by the Kronecker-stencil
construction; it stays here as the oracle that construction must reproduce.
It shares nothing with the solver but the model callables.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

_GAUSS = np.array([-1.0, 1.0]) / np.sqrt(3.0)

# bilinear basis on [-1, 1]^2 with corners (i,j), (i+1,j), (i+1,j+1), (i,j+1);
# tables are (4 Gauss points x 4 basis functions), Gauss point g = 2 ix + ie
_XI = _GAUSS[[0, 0, 1, 1]][:, None]
_ZE = _GAUSS[[0, 1, 0, 1]][:, None]
_SX = np.array([-1.0, 1.0, 1.0, -1.0])
_SZ = np.array([-1.0, -1.0, 1.0, 1.0])
_DXI = 0.25 * _SX * (1.0 + _SZ * _ZE)
_DZE = 0.25 * _SZ * (1.0 + _SX * _XI)
_NVAL = 0.25 * (1.0 + _SX * _XI) * (1.0 + _SZ * _ZE)


def _outer_table(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    return (p[:, :, None] * q[:, None, :]).reshape(4, 16)


_T11 = _outer_table(_DXI, _DXI)
_T12 = _outer_table(_DXI, _DZE) + _outer_table(_DZE, _DXI)
_T22 = _outer_table(_DZE, _DZE)


def _corner_values(nodal: np.ndarray) -> np.ndarray:
    """Nodal (n_x+1, n_eta+1) -> per-cell corner values (n_cells, 4)."""
    return np.stack([nodal[:-1, :-1], nodal[1:, :-1], nodal[1:, 1:], nodal[:-1, 1:]], axis=-1).reshape(-1, 4)


def cellwise_system(profile, component, n_eta: int, model, source=None):
    """(matrix, rhs, rhs_scale) of one component over its free nodes in row-major node order.

    The free nodes are the interior columns times the eta rows below the top.
    ``rhs_scale`` is the rhs assembled from the magnitudes of its per-cell
    terms: the load of compatible data cancels between neighbouring cells,
    and round-off in the rhs is relative to these terms, not to their sum.
    """
    i_lo, i_hi = component
    x = profile.x_nodes[i_lo : i_hi + 1]
    u = profile.u[i_lo : i_hi + 1]
    H = profile.H
    n_x = x.size - 1
    dx = profile.spacing
    eta_nodes = np.linspace(0.0, 1.0, n_eta + 1)
    de = eta_nodes[1]

    # map data at the 4 Gauss points of every cell, shape (n_x, n_eta, 4)
    g = 0.5 * (1.0 + _GAUSS)
    xq1 = (x[:-1, None] + dx * g).reshape(-1)
    eq1 = (eta_nodes[:-1, None] + de * g).reshape(-1)
    gq1 = H + (u[:-1, None] * (1.0 - g) + u[1:, None] * g).reshape(-1)
    sq1 = np.repeat(np.diff(u) / dx, 2)
    shape = (xq1.size, eq1.size)

    def cellview(arr):
        a = np.broadcast_to(arr, shape).reshape(n_x, 2, n_eta, 2)
        return a.transpose(0, 2, 1, 3).reshape(-1, 4)

    xq, eq, gq, sq = cellview(xq1[:, None]), cellview(eq1[None, :]), cellview(gq1[:, None]), cellview(sq1[:, None])
    a11 = gq
    a12 = -eq * sq
    a22 = (1.0 + eq**2 * sq**2) / gq

    jac = dx * de / 4.0
    sx, se = 2.0 / dx, 2.0 / de
    dof = np.full((n_x + 1, n_eta + 1), -1)
    n_free = (n_x - 1) * n_eta
    dof[1:-1, :-1] = np.arange(n_free).reshape(n_x - 1, n_eta)
    corners = _corner_values(dof)
    live = corners.reshape(-1) >= 0

    def scatter(cell_vals):
        kept = np.bincount(corners.reshape(-1)[live], weights=cell_vals.reshape(-1)[live], minlength=n_free)
        return kept.astype(float, copy=False)

    k_all = a11 @ (_T11 * (jac * sx * sx)) + a12 @ (_T12 * (jac * sx * se)) + a22 @ (_T22 * (jac * se * se))
    rows = np.repeat(corners, 4, axis=1).reshape(-1)
    cols = np.tile(corners, (1, 4)).reshape(-1)
    keep = (rows >= 0) & (cols >= 0)

    bottom = dof[1:-1, 0]
    w_bot = np.full(n_x - 1, dx)
    sig = model.sigma.value(x)[1:-1]
    mat = sp.coo_matrix(
        (
            np.concatenate([k_all.reshape(-1)[keep], sig * w_bot]),
            (np.concatenate([rows[keep], bottom]), np.concatenate([cols[keep], bottom])),
        ),
        shape=(n_free, n_free),
    ).tocsr()

    vq = gq - H
    zq = -H + eq * gq
    dxh = model.h_x(xq, zq, vq) + model.h_w(xq, zq, vq) * sq
    hz = model.h_z(xq, zq, vq)
    b1 = gq * dxh
    b2 = -eq * sq * dxh + hz
    b = scatter(-(b1 @ _DXI * sx + b2 @ _DZE * se) * jac)
    scale = scatter((np.abs(b1 @ _DXI * sx) + np.abs(b2 @ _DZE * se)) * jac)
    v_bot = u[1:-1]
    robin = sig * w_bot * (model.h(x[1:-1], -H, v_bot) - model.frak_h(x[1:-1], v_bot))
    b[bottom] -= robin
    scale[bottom] += np.abs(robin)
    if source is not None:
        f_q = np.asarray(source(xq, zq), dtype=float) * gq
        b += scatter(f_q @ _NVAL * jac)
        scale += scatter(np.abs(f_q @ _NVAL * jac))
    return mat, b, scale
