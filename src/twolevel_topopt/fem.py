"""Plane-stress linear FEM on the Cartesian grid.

Element stiffness by 2x2 Gauss quadrature of the bilinear quadrilateral,
density-scaled assembly (D = rho^p D0), direct sparse solve with Dirichlet
elimination, compliance, per-element nodal forces and consistent nodal
loads from linear edge tractions. Unit thickness throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .grid import EDGE_LNODES

_GAUSS = 1.0 / np.sqrt(3.0)


class SolverError(RuntimeError):
    """Singular or under-constrained linear system."""


@dataclass
class MaterialModel:
    """Isotropic plane-stress material with SIMP penalization.

    E: Young's modulus, nu: Poisson ratio, p: penalty exponent applied as
    D(x) = rho^p D0, rho_min: lower density bound kept in the model to
    avoid singular stiffness.
    """

    E: float = 1.0
    nu: float = 0.3
    p: float = 3.0
    rho_min: float = 1e-3

    def __post_init__(self):
        if self.E <= 0:
            raise ValueError(f"E must be positive, got {self.E}")
        if not 0 <= self.nu < 0.5:
            raise ValueError(f"nu must be in [0, 0.5), got {self.nu}")
        if self.p < 1:
            raise ValueError(f"penalty p must be >= 1, got {self.p}")
        if not 0 < self.rho_min < 1:
            raise ValueError(f"rho_min must be in (0, 1), got {self.rho_min}")

    @property
    def D0(self):
        """Plane-stress constitutive matrix of the solid material."""
        c = self.E / (1.0 - self.nu**2)
        return c * np.array(
            [
                [1.0, self.nu, 0.0],
                [self.nu, 1.0, 0.0],
                [0.0, 0.0, (1.0 - self.nu) / 2.0],
            ]
        )


def shape_gradients(xi, eta, hx, hy):
    """Cartesian gradients of the 4 bilinear shape functions at (xi, eta).

    Reference square [-1,1]^2 mapped to an hx-by-hy rectangle; corners
    ordered counter-clockwise from the lower-left.
    """
    dxi = 0.25 * np.array(
        [-(1 - eta), (1 - eta), (1 + eta), -(1 + eta)]
    )
    deta = 0.25 * np.array(
        [-(1 - xi), -(1 + xi), (1 + xi), (1 - xi)]
    )
    return dxi * 2.0 / hx, deta * 2.0 / hy


def strain_matrix(xi, eta, hx, hy):
    """3x8 strain-displacement matrix B at a reference point."""
    dx, dy = shape_gradients(xi, eta, hx, hy)
    B = np.zeros((3, 8))
    B[0, 0::2] = dx
    B[1, 1::2] = dy
    B[2, 0::2] = dy
    B[2, 1::2] = dx
    return B


def element_stiffness(material, hx, hy):
    """8x8 stiffness of one solid element (rho = 1), 2x2 Gauss quadrature."""
    D0 = material.D0
    K = np.zeros((8, 8))
    detJ = hx * hy / 4.0
    for xi in (-_GAUSS, _GAUSS):
        for eta in (-_GAUSS, _GAUSS):
            B = strain_matrix(xi, eta, hx, hy)
            K += B.T @ D0 @ B * detJ
    return 0.5 * (K + K.T)


def assemble(grid, rho, material, ke=None):
    """Global sparse stiffness K = sum_e rho_e^p K_e over active elements."""
    rho = np.asarray(rho, dtype=float)
    act = grid.active_elems
    if (rho[act] < material.rho_min - 1e-12).any() or (rho[act] > 1 + 1e-12).any():
        raise ValueError("density out of [rho_min, 1]")
    if ke is None:
        ke = element_stiffness(material, grid.hx, grid.hy)
    scale = rho[act] ** material.p
    dofs = grid.elem_dofs[act]
    rows = np.repeat(dofs, 8, axis=1).ravel()
    cols = np.tile(dofs, (1, 8)).ravel()
    data = (scale[:, None, None] * ke[None, :, :]).ravel()
    n = 2 * grid.n_nodes
    return sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsc()


def consistent_edge_loads(t_start, t_end, length):
    """Equivalent nodal forces of a linear traction on one edge.

    Exact integrals of linear shape functions against a linear traction:
    P_start = L(2 t_start + t_end)/6, P_end = L(t_start + 2 t_end)/6.
    """
    t_start = np.asarray(t_start, dtype=float)
    t_end = np.asarray(t_end, dtype=float)
    p_start = length * (2.0 * t_start + t_end) / 6.0
    p_end = length * (t_start + 2.0 * t_end) / 6.0
    return p_start, p_end


def tractions_from_forces(p_start, p_end, length):
    """Invert the 2x2 edge mass matrix [[L/3, L/6], [L/6, L/3]] per component.

    Round-trip with consistent_edge_loads is the identity.
    """
    p_start = np.asarray(p_start, dtype=float)
    p_end = np.asarray(p_end, dtype=float)
    t_start = (2.0 / length) * (2.0 * p_start - p_end)
    t_end = (2.0 / length) * (2.0 * p_end - p_start)
    return t_start, t_end


def load_vector(grid, bc):
    """Assemble the global nodal load vector from Neumann edge tractions."""
    f = np.zeros(2 * grid.n_nodes)
    for (e, edge), (t_start, t_end) in bc.neumann.items():
        a, b = grid.edge_nodes(e, edge)
        p_start, p_end = consistent_edge_loads(t_start, t_end, grid.edge_length(edge))
        f[2 * a : 2 * a + 2] += p_start
        f[2 * b : 2 * b + 2] += p_end
    return f


@dataclass
class FESolution:
    """Displacements and derived energies of one linear solve.

    u: full-length nodal displacement vector (zeros at inactive nodes),
    f: external load vector, compliance: u.f, element_energy: per-element
    compliance contributions rho^p u_e.K0.u_e (their sum equals compliance).
    """

    u: np.ndarray
    f: np.ndarray
    compliance: float
    element_energy: np.ndarray


def solve(grid, rho, material, bc, extra_loads=None, ke=None):
    """Solve K(rho) u = f with Dirichlet elimination.

    extra_loads: optional full-length nodal load vector added to the
    consistent loads of bc.neumann.
    """
    if ke is None:
        ke = element_stiffness(material, grid.hx, grid.hy)
    K = assemble(grid, rho, material, ke=ke)
    f = load_vector(grid, bc)
    if extra_loads is not None:
        f = f + extra_loads

    n = 2 * grid.n_nodes
    fixed = bc.constrained_dofs(grid)
    u = np.zeros(n)
    u[fixed] = bc.prescribed_values(grid)

    active_dofs = np.repeat(2 * np.flatnonzero(grid.node_active), 2)
    active_dofs[1::2] += 1
    free = np.setdiff1d(active_dofs, fixed, assume_unique=True)
    if free.size == 0:
        raise SolverError("no free degrees of freedom")

    Kff = K[np.ix_(free, free)].tocsc()
    rhs = f[free] - K[np.ix_(free, fixed)] @ u[fixed]
    try:
        # MMD on K + K^T orders symmetric systems much better than the default.
        lu = spla.splu(Kff, permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:
        raise SolverError(f"factorization failed: {exc}") from exc
    uf = lu.solve(rhs)
    if not np.isfinite(uf).all():
        raise SolverError("singular stiffness (insufficient constraints?)")

    fnorm = np.linalg.norm(rhs)
    residual = np.linalg.norm(Kff @ uf - rhs)
    if fnorm > 0 and residual > 1e-10 * fnorm:
        # High-contrast density fields (rho_min^p) push the condition number
        # towards 1e12; one refinement step recovers what is recoverable.
        uf = uf - lu.solve(Kff @ uf - rhs)
        residual = np.linalg.norm(Kff @ uf - rhs)
    # Backward-error gate: for near-binary density fields |K||u| dwarfs |f|
    # and evaluating K@u in float64 already rounds at eps*|K|*|u|, so a bound
    # relative to |f| alone would reject exact solutions. For well-scaled
    # systems the |K|*|u| term is comparable to |f| and this is the plain
    # 1e-8 relative residual check.
    knorm = np.abs(Kff).sum(axis=1).max()
    if fnorm > 0 and residual > 1e-8 * (fnorm + knorm * np.linalg.norm(uf)):
        raise SolverError(
            f"solver residual {residual:.3e} exceeds 1e-8 * (|f| + |K||u|)"
        )
    # A singular but factorizable system produces a huge |u| that widens the
    # backward-error gate past any meaning; cap the residual against |f| too.
    if fnorm > 0 and residual > 1e-6 * fnorm:
        raise SolverError(
            f"solver residual {residual:.3e} exceeds 1e-6 * |f|; "
            "stiffness likely singular"
        )
    u[free] = uf

    energy = element_compliance_contributions(grid, rho, material, u, ke=ke)
    compliance = float(f @ u)
    return FESolution(u=u, f=f, compliance=compliance, element_energy=energy)


def element_displacements(grid, u):
    """(n_elems, 8) element displacement vectors gathered from u."""
    return u[grid.elem_dofs]


def element_compliance_contributions(grid, rho, material, u, ke=None):
    """Per-element rho^p u_e.K0.u_e; sums to the compliance over active elements."""
    if ke is None:
        ke = element_stiffness(material, grid.hx, grid.hy)
    ue = element_displacements(grid, u)
    base = ((ue @ ke) * ue).sum(axis=1)
    out = np.zeros(grid.n_elems)
    act = grid.active_elems
    out[act] = np.asarray(rho, dtype=float)[act] ** material.p * base[act]
    return out


def element_nodal_forces(grid, rho, material, u, ke=None):
    """(n_elems, 4, 2) nodal forces F_e = rho^p K_e u_e per element corner."""
    if ke is None:
        ke = element_stiffness(material, grid.hx, grid.hy)
    ue = element_displacements(grid, u)
    scale = np.zeros(grid.n_elems)
    act = grid.active_elems
    scale[act] = np.asarray(rho, dtype=float)[act] ** material.p
    forces = scale[:, None] * (ue @ ke.T)
    return forces.reshape(grid.n_elems, 4, 2)


def element_stress(material, hx, hy, ue, rho=1.0, p=1.0, xi=0.0, eta=0.0):
    """Stress vector (sxx, syy, sxy) of one element at a reference point."""
    B = strain_matrix(xi, eta, hx, hy)
    return (rho**p) * (material.D0 @ (B @ ue))
