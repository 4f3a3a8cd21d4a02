"""Plane-stress linear FEM on the Cartesian grid.

Element stiffness by 2x2 Gauss quadrature of the bilinear quadrilateral,
density-scaled assembly (D = rho^p D0), a banded Cholesky operator with
Dirichlet elimination shared by both scales, compliance, per-element nodal
forces and consistent nodal loads from linear edge tractions. Unit
thickness throughout.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import itertools
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .grid import CORNER_OFFSETS, EDGE_LNODES, edge_lengths

_GAUSS = 1.0 / np.sqrt(3.0)


class SolverError(RuntimeError):
    """Singular or under-constrained linear system."""


@functools.lru_cache(maxsize=1)
def _openblas():
    """(set, get) thread counts of each loaded OpenBLAS: scipy's build exports
    scipy_openblas_{set,get}_num_threads, numpy's the same names with 64_."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.rsplit("/")[-1]})
    except OSError:
        return ()
    found = []
    for lib, suffix in itertools.product(map(ctypes.CDLL, paths), ("", "64_")):
        set_threads = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
        get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
        if set_threads and get_threads:
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            found.append((set_threads, get_threads))
    return tuple(found)


@contextlib.contextmanager
def one_blas_thread():
    """Run the body with each loaded OpenBLAS on one thread, then restore its
    count: the banded factorizations are too small to gain from BLAS threads,
    which oversubscribe the cores under a process pool. Without OpenBLAS this
    does nothing."""
    libs = _openblas()
    saved = [get_threads() for _, get_threads in libs]
    for set_threads, _ in libs:
        set_threads(1)
    try:
        yield
    finally:
        for (set_threads, _), count in zip(libs, saved):
            set_threads(count)


def solve_blas_threads():
    """1 where one_blas_thread() pins OpenBLAS, None where none is found."""
    return 1 if _openblas() else None


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
            raise ValueError(f"nu out of range [0, 0.5): {self.nu}")
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
    """8x8 stiffness of one solid element (rho = 1), 2x2 Gauss quadrature.

    Raises ValueError when E, hx or hy are so extreme that it is not finite.
    """
    K = np.zeros((8, 8))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        D0 = material.D0
        detJ = hx * hy / 4.0
        for xi in (-_GAUSS, _GAUSS):
            for eta in (-_GAUSS, _GAUSS):
                B = strain_matrix(xi, eta, hx, hy)
                K += B.T @ D0 @ B * detJ
        K = 0.5 * (K + K.T)
    if not np.isfinite(K).all():
        raise ValueError(
            f"the stiffness of a {hx!r} x {hy!r} element with E = {material.E!r} is not finite")
    return K


def assemble(grid, rho, material):
    """Global sparse stiffness K = sum_e rho_e^p K_e over active elements."""
    rho = np.asarray(rho, dtype=float)
    act = grid.active_elems
    if (rho[act] < material.rho_min - 1e-12).any() or (rho[act] > 1 + 1e-12).any():
        raise ValueError("density out of [rho_min, 1]")
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


def edge_traction_resultants(tractions, hx, hy):
    """Exact net force and moment of linear edge tractions on hx x hy elements.

    tractions has shape (..., 4, 2, 2): per local edge, the (start, end)
    traction 2-vectors in counter-clockwise orientation. The exact integrals
    equal those of the consistent end forces applied at the edge ends, so
    the moment about the element centre is sum x_end x P_end. Returns the
    force (..., 2) and the moment (...).
    """
    tractions = np.asarray(tractions, dtype=float)
    corners = (CORNER_OFFSETS - 0.5) * (hx, hy)
    ends = corners[np.array(EDGE_LNODES)]  # (edge, end, xy)
    lengths = edge_lengths(hx, hy)[:, None]
    p_start, p_end = consistent_edge_loads(
        tractions[..., 0, :], tractions[..., 1, :], lengths
    )
    forces = np.stack([p_start, p_end], axis=-2)  # (..., edge, end, xy)
    moment = ends[..., 0] * forces[..., 1] - ends[..., 1] * forces[..., 0]
    return forces.sum(axis=(-3, -2)), moment.sum(axis=(-2, -1))


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


class Operator:
    """Banded Cholesky FE operator of a fixed mesh, supports and element stiffness.

    Inactive and constrained dofs are eliminated, and the linear map from the
    element factors rho^p to the lower band of the reduced stiffness (LAPACK
    storage, K[row, col] at ab[row - col, col]) is built once, so each solve
    is one sparse product and one banded Cholesky factorization in place.
    Node numbering runs column by column, so the band is about 2 (ny + 2)
    dofs wide.
    """

    def __init__(self, grid, material, bc):
        self.grid = grid
        self.material = material
        self.ke = ke = element_stiffness(material, grid.hx, grid.hy)
        ndof = 2 * grid.n_nodes
        self.fixed = bc.constrained_dofs()
        active_dofs = np.repeat(2 * np.flatnonzero(grid.node_active), 2)
        active_dofs[1::2] += 1
        self.keep = np.setdiff1d(active_dofs, self.fixed, assume_unique=True)
        if self.keep.size == 0:
            raise SolverError("no free degrees of freedom")
        remap = np.full(ndof, -1, dtype=np.int32)
        remap[self.keep] = np.arange(self.keep.size, dtype=np.int32)

        # Every element orders its dofs alike globally, and the remap keeps
        # that order, so the first element gives the 36 local (i, j) pairs on
        # or below the diagonal of every element, here by column, then row.
        by_dof = np.argsort(grid.elem_dofs[0])
        col, row = np.triu_indices(8)
        i, j = by_dof[row], by_dof[col]
        act = grid.active_elems
        dofs = remap[grid.elem_dofs[act]]  # (n_active, 8), -1 where eliminated
        rows, cols = dofs[:, i], dofs[:, j]
        kept = (rows >= 0) & (cols >= 0)
        rows, cols = rows[kept], cols[kept]
        self.bandwidth = int((rows - cols).max())
        # Column-major flat positions make the band Fortran-ordered, which
        # LAPACK factorizes without a copy. They ascend down each element's
        # column of the map.
        flat = cols.astype(np.int64) * (self.bandwidth + 1) + (rows - cols)
        indptr = np.concatenate([[0], np.cumsum(kept.sum(axis=1))])
        self.band_map = sp.csc_matrix(
            (np.broadcast_to(ke[i, j], kept.shape)[kept], flat, indptr),
            shape=((self.bandwidth + 1) * self.keep.size, act.size),
        )

    def band(self, rho):
        """Lower band of the reduced stiffness K(rho), Fortran-ordered."""
        rho = np.asarray(rho, dtype=float)[self.grid.active_elems]
        if (rho < self.material.rho_min - 1e-12).any() or (rho > 1 + 1e-12).any():
            raise ValueError("density out of [rho_min, 1]")
        ab = self.band_map @ rho**self.material.p
        return ab.reshape(self.keep.size, self.bandwidth + 1).T

    def _product(self, rho, u):
        """K(rho) u over all dofs, scattered from the element nodal forces."""
        forces = element_nodal_forces(self.grid, rho, self.material, u, ke=self.ke)
        return np.bincount(
            self.grid.elem_dofs.ravel(), weights=forces.ravel(), minlength=u.size
        )

    def solve(self, rho, f):
        """FESolution of K(rho) u = f for a full-length load vector f."""
        try:
            uf = sla.solveh_banded(
                self.band(rho), f[self.keep], overwrite_ab=True,
                lower=True, check_finite=False,
            )
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"banded factorization failed: {exc}") from exc
        if not np.isfinite(uf).all():
            raise SolverError("singular stiffness (insufficient constraints?)")
        u = np.zeros(f.size)
        u[self.keep] = uf
        # Finite displacements under huge loads can still overflow the energies.
        with np.errstate(over="ignore", invalid="ignore"):
            energy = element_compliance_contributions(self.grid, rho, self.material, u, ke=self.ke)
            compliance = float(f @ u)
        if not (np.isfinite(energy).all() and np.isfinite(compliance)):
            raise SolverError("compliance is not finite (loads too large for the stiffness?)")
        return FESolution(u=u, f=f, compliance=compliance, element_energy=energy)

    def norm_inf(self, rho):
        """Infinity norm of the reduced stiffness: the largest row sum of |K|.

        Row r holds ab[d, r - d] on and below the diagonal and, by symmetry,
        ab[d, r] above it. A sum that overflows gives inf.
        """
        ab = self.band(rho)
        np.abs(ab, out=ab)
        n = self.keep.size
        with np.errstate(over="ignore"):
            rows = ab[1:].sum(axis=0)
            for d in range(self.bandwidth + 1):
                rows[d:] += ab[d, : n - d]
        return float(rows.max())

    def check(self, rho, solution):
        """Backward-error gates of a solution; returns its largest support reaction.

        The residual K u - f on the free dofs must stay below both
        1e-8 (|f| + |K| |u|) and 1e-6 |f|, with f the loads on the free dofs.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            residual = self._product(rho, solution.u) - solution.f
            res = np.linalg.norm(residual[self.keep])
            fnorm = np.linalg.norm(solution.f[self.keep])
            unorm = np.linalg.norm(solution.u[self.keep])
        if not np.isfinite([res, fnorm, unorm]).all():
            raise SolverError("residual norms are not finite (loads too large for the stiffness?)")
        # For near-binary density fields |K||u| dwarfs |f| and evaluating K u
        # in float64 already rounds at eps |K| |u|, so a bound relative to |f|
        # alone would reject exact solutions. For well-scaled systems the
        # |K| |u| term is comparable to |f| and this is the plain 1e-8
        # relative residual check; |K| is only formed when |f| alone fails.
        if fnorm > 0 and res > 1e-8 * fnorm and res > 1e-8 * (
            fnorm + self.norm_inf(rho) * unorm
        ):
            raise SolverError(
                f"solver residual {res:.3e} exceeds 1e-8 * (|f| + |K||u|)"
            )
        # A singular but factorizable system produces a huge |u| that widens
        # the backward-error gate past any meaning; cap the residual against
        # |f| too.
        if fnorm > 0 and res > 1e-6 * fnorm:
            raise SolverError(
                f"solver residual {res:.3e} exceeds 1e-6 * |f|; "
                "stiffness likely singular"
            )
        return float(np.abs(residual[self.fixed]).max()) if self.fixed.size else 0.0


def solve(grid, rho, material, bc):
    """Solve K(rho) u = f once, with Dirichlet elimination and both residual gates."""
    operator = Operator(grid, material, bc)
    f = load_vector(grid, bc)
    solution = operator.solve(rho, f)
    operator.check(rho, solution)
    return solution


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

