"""Deflection profiles, contact detection, and the graph map to a rectangle.

The deflected plate is the graph z = u(x) over D = (-L, L); the gap region
between plate and ground electrode is mapped component by component onto the
reference rectangle (x, eta) in I x (0, 1) via

    (x, eta)  ->  (x, -H + eta (H + v(x))).

The map's metric enters the transformed elliptic operator through the 2x2
symmetric coefficient field A_v with unit determinant. The map factors by
axis: the gap G = H + v and the slope S = v' depend on x alone, and A_v is
G, -eta S and 1/G + eta^2 S^2/G. So ``MappedMesh`` stores the map per axis
(x-Gauss points with G at them, cell slopes, eta-Gauss points) and forms
every quadrature-point quantity as a broadcast over the tensor grid of 2x2
Gauss points per bilinear cell; it holds no array of n_x n_eta entries.

The discrete boundary rule lives in ``DeflectionProfile.padded``: a ghost
node beyond each wall, +1 (clamped) or -1 (pinned) times the first interior
value. Every beam difference that reaches a wall is taken on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DeflectionProfile",
    "CoincidenceSet",
    "MappedMesh",
    "detect_coincidence",
    "build_mapped_mesh",
    "default_gap_threshold",
]

_GAUSS_1D = np.array([-1.0, 1.0]) / np.sqrt(3.0)  # 2-point Gauss on [-1, 1]


def default_gap_threshold(H: float) -> float:
    """Contact threshold 1e-8 * H below which the mapped operator degenerates."""
    return 1e-8 * H


# ---------------------------------------------------------------- profile


@dataclass(frozen=True)
class DeflectionProfile:
    """Nodal deflection u on a uniform grid over [-L, L].

    The obstacle constraint u >= -H is enforced at construction, as is the
    vanishing of u at both endpoints. The derivative condition of the boundary
    mode (u' = 0 clamped, u'' = 0 pinned) is the ghost rule of ``padded``, not
    a nodewise equality on the stored values.
    """

    x_nodes: np.ndarray
    u: np.ndarray
    bc_mode: str
    H: float

    def __post_init__(self):
        x = np.ascontiguousarray(self.x_nodes, dtype=float)
        u = np.ascontiguousarray(self.u, dtype=float)
        if x.ndim != 1 or x.size < 5:
            raise ValueError("x_nodes must be a 1-D grid with at least 5 nodes")
        if u.shape != x.shape:
            raise ValueError(f"u shape {u.shape} does not match grid {x.shape}")
        steps = np.diff(x)
        if not np.allclose(steps, steps[0], rtol=1e-12, atol=1e-14):
            raise ValueError("x_nodes must be uniformly spaced")
        if self.bc_mode not in ("clamped", "pinned"):
            raise ValueError(f"bc_mode must be 'clamped' or 'pinned', got {self.bc_mode!r}")
        if not (math.isfinite(self.H) and self.H > 0.0):
            raise ValueError(f"H must be finite and positive, got {self.H}")
        if not np.all(np.isfinite(u)):
            raise ValueError("u must be finite")
        if u[0] != 0.0 or u[-1] != 0.0:
            raise ValueError("u must vanish at both endpoints")
        if np.any(u < -self.H):
            j = int(np.argmin(u))
            raise ValueError(f"obstacle violated: u[{j}] = {u[j]} < -H = {-self.H}")
        x.setflags(write=False)
        u.setflags(write=False)
        object.__setattr__(self, "x_nodes", x)
        object.__setattr__(self, "u", u)

    # -- derived quantities

    @property
    def L(self) -> float:
        return float(self.x_nodes[-1])

    @property
    def n_cells(self) -> int:
        return self.x_nodes.size - 1

    @property
    def spacing(self) -> float:
        return float(self.x_nodes[1] - self.x_nodes[0])

    def gap(self) -> np.ndarray:
        """Nodal gap H + u, nonnegative by the obstacle constraint."""
        return self.H + self.u

    @property
    def ghost_sign(self) -> float:
        """Ghost value over first interior value: +1 clamped (u' = 0), -1 pinned (u'' = 0)."""
        return 1.0 if self.bc_mode == "clamped" else -1.0

    def padded(self) -> np.ndarray:
        """u with one ghost node beyond each wall, ghost_sign times its neighbour."""
        u, s = self.u, self.ghost_sign
        return np.concatenate(([s * u[1]], u, [s * u[-2]]))

    def cell_slopes(self) -> np.ndarray:
        """u' on each cell, the forward differences of the nodal values."""
        return np.diff(self.u) / self.spacing

    def slopes(self) -> np.ndarray:
        """Nodal u' by central differences of ``padded``: 0 at a clamped wall."""
        up = self.padded()
        return (up[2:] - up[:-2]) / (2.0 * self.spacing)

    # -- construction helpers

    def with_values(self, u) -> "DeflectionProfile":
        """Same grid and mode, new nodal values."""
        return DeflectionProfile(x_nodes=self.x_nodes, u=np.asarray(u, dtype=float), bc_mode=self.bc_mode, H=self.H)

    @staticmethod
    def from_callable(f, L: float, H: float, n_cells: int, bc_mode: str = "clamped") -> "DeflectionProfile":
        x = np.linspace(-L, L, n_cells + 1)
        u = np.asarray(f(x), dtype=float)
        u[0] = 0.0
        u[-1] = 0.0
        return DeflectionProfile(x_nodes=x, u=u, bc_mode=bc_mode, H=H)

    @staticmethod
    def zero(L: float, H: float, n_cells: int, bc_mode: str = "clamped") -> "DeflectionProfile":
        x = np.linspace(-L, L, n_cells + 1)
        return DeflectionProfile(x_nodes=x, u=np.zeros_like(x), bc_mode=bc_mode, H=H)


# ---------------------------------------------------------------- contact


@dataclass(frozen=True)
class CoincidenceSet:
    """Contact mask and the maximal non-contact runs (as node index spans).

    ``components`` lists inclusive node-index pairs (i_lo, i_hi) of the
    maximal runs where the gap exceeds the threshold; their open x-intervals
    partition the complement of the contact set.
    """

    contact_mask: np.ndarray
    components: tuple[tuple[int, int], ...]

    @property
    def contact_fraction(self) -> float:
        return float(np.count_nonzero(self.contact_mask)) / self.contact_mask.size

    @property
    def contact_components(self) -> int:
        """Number of maximal contact runs, one between each two consecutive components."""
        return len(self.components) - 1


def detect_coincidence(profile: DeflectionProfile, gap_threshold: float | None = None) -> CoincidenceSet:
    """Split the grid into contact nodes and maximal non-contact components.

    A node is in contact when H + u <= gap_threshold (default 1e-8 H). The
    endpoints are never in contact (u vanishes there while H > 0). Interior
    non-contact runs spanning fewer than 3 cells are absorbed into contact:
    below that width the mapped operator cannot be assembled meaningfully.
    """
    if gap_threshold is None:
        gap_threshold = default_gap_threshold(profile.H)
    if gap_threshold <= 0.0:
        raise ValueError(f"gap_threshold must be positive, got {gap_threshold}")
    mask = profile.gap() <= gap_threshold
    mask[0] = False
    mask[-1] = False

    def runs_of(clear: np.ndarray) -> list[tuple[int, int]]:
        idx = np.flatnonzero(clear)
        if idx.size == 0:
            return []
        breaks = np.flatnonzero(np.diff(idx) > 1)
        starts = np.concatenate(([0], breaks + 1))
        ends = np.concatenate((breaks, [idx.size - 1]))
        return [(int(idx[s]), int(idx[e])) for s, e in zip(starts, ends)]

    last = mask.size - 1
    for i_lo, i_hi in runs_of(~mask):
        interior = i_lo > 0 and i_hi < last
        if interior and (i_hi - i_lo) < 3:
            mask[i_lo : i_hi + 1] = True

    components = tuple(runs_of(~mask))
    return CoincidenceSet(contact_mask=mask, components=components)


# ---------------------------------------------------------------- mapped mesh


@dataclass(frozen=True)
class MappedMesh:
    """Tensor mesh of one non-contact component pulled back to the rectangle.

    The graph map factors by axis, so the mesh stores it per axis: the
    x-Gauss points and the gap G = H + v at them (shape (n_x, 2)), the cell
    slopes S = v' (shape (n_x,)) and the eta-Gauss points (shape (n_eta, 2)),
    two Gauss points per cell along each axis. No array of the mesh has
    n_x n_eta entries. The quadrature-point quantities are broadcasts over
    the grid (n_x, 2, n_eta, 2) of (x cell, x Gauss point, eta cell, eta
    Gauss point): ``x_q``, ``gap_q`` and ``slope_q`` have shape
    (n_x, 2 or 1, 1, 1), ``eta_q`` (1, 1, n_eta, 2), and the metric

        a11 = G,   a12 = -eta S,   a22 = 1/G + eta^2 S^2 / G

    is formed from them on demand. The deflection is interpolated linearly
    within each cell and its slope is the cell slope, so the stored map is
    exactly the piecewise-linear-graph geometry.
    """

    H: float
    x_nodes: np.ndarray
    eta_nodes: np.ndarray
    gap_nodes: np.ndarray
    x_gauss: np.ndarray
    gap_gauss: np.ndarray
    slope: np.ndarray
    eta_gauss: np.ndarray

    @property
    def n_x(self) -> int:
        return self.x_nodes.size - 1

    @property
    def n_eta(self) -> int:
        return self.eta_nodes.size - 1

    @property
    def dx(self) -> float:
        return float(self.x_nodes[1] - self.x_nodes[0])

    @property
    def deta(self) -> float:
        return float(self.eta_nodes[1] - self.eta_nodes[0])

    # -- quadrature-point views, broadcastable to (n_x, 2, n_eta, 2)

    @property
    def x_q(self) -> np.ndarray:
        return self.x_gauss[:, :, None, None]

    @property
    def gap_q(self) -> np.ndarray:
        return self.gap_gauss[:, :, None, None]

    @property
    def slope_q(self) -> np.ndarray:
        return self.slope[:, None, None, None]

    @property
    def eta_q(self) -> np.ndarray:
        return self.eta_gauss[None, None, :, :]

    @property
    def a11(self) -> np.ndarray:
        return self.gap_q

    @property
    def a12(self) -> np.ndarray:
        return -self.eta_q * self.slope_q

    @property
    def a22(self) -> np.ndarray:
        return 1.0 / self.gap_q + self.eta_q**2 * (self.slope_q**2 / self.gap_q)

    def z_q(self) -> np.ndarray:
        """Physical height of the quadrature points, z = -H + eta (H + v)."""
        return -self.H + self.eta_q * self.gap_q


def build_mapped_mesh(profile: DeflectionProfile, component: tuple[int, int], n_eta: int) -> MappedMesh:
    """Per-axis map data for one non-contact component.

    ``component`` is an inclusive node-index pair from detect_coincidence.
    Fails if the interpolated gap is nonpositive at any quadrature point
    (the map is singular there).
    """
    i_lo, i_hi = int(component[0]), int(component[1])
    if not (0 <= i_lo < i_hi <= profile.x_nodes.size - 1):
        raise ValueError(f"invalid component span ({i_lo}, {i_hi})")
    if n_eta < 3:
        raise ValueError(f"n_eta must be at least 3, got {n_eta}")

    x = profile.x_nodes[i_lo : i_hi + 1]
    u = profile.u[i_lo : i_hi + 1]
    H = profile.H
    dx = profile.spacing
    eta_nodes = np.linspace(0.0, 1.0, n_eta + 1)

    # two Gauss points per cell along each axis; u is linear within a cell
    gx = 0.5 * (1.0 + _GAUSS_1D)  # offsets within a cell, in (0, 1)
    gap_gauss = H + (u[:-1, None] * (1.0 - gx) + u[1:, None] * gx)
    if np.any(gap_gauss <= 0.0):
        raise ValueError("quadrature gap nonpositive; the graph map is singular on this component")

    return MappedMesh(
        H=H,
        x_nodes=x.copy(),
        eta_nodes=eta_nodes,
        gap_nodes=H + u,
        x_gauss=x[:-1, None] + dx * gx,
        gap_gauss=gap_gauss,
        slope=profile.cell_slopes()[i_lo:i_hi],
        eta_gauss=eta_nodes[:-1, None] + eta_nodes[1] * gx,
    )
