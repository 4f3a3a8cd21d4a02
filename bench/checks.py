"""Correctness checks computed apart from the program.

Every check recomputes what it needs from the inputs and the outputs of a
pass with its own numpy code: the element stiffness from the closed-form
integrals of the bilinear plane-stress quadrilateral, the assembly from the
documented node numbering, the edge-traction resultants by Gauss-Legendre
quadrature, and the rendered images from the documented PGM layout. None of
them compares against a stored copy of an earlier output.

Each function raises CheckFailed with a message naming the violated
property; the benchmark reports such a pass as incorrect.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

EQUILIBRIUM_TOL = 1e-8   # per-element net force / moment, relative to the force scale
ACTION_REACTION_TOL = 1e-12  # shared-edge mismatch, relative to the largest traction
FE_RESIDUAL_TOL = 1e-8   # |K u - f| on the free dofs, relative to |f|
VOLUME_TOL = 1e-4        # the OC volume tolerance (coarse.OCParams.vol_tol)
REACTION_TOL = 1e-6      # fine-cell support reactions, relative to the force scale
COMPLIANCE_TOL = 1e-8    # reported compliance against f.u recomputed here

# Element corners counter-clockwise from the lower-left, as (x, y) offsets.
_CORNERS = np.array([(0, 0), (1, 0), (1, 1), (0, 1)], dtype=float)
# Two-point Gauss-Legendre rule on [0, 1]: exact for the cubic moment integrand.
_GAUSS_S = 0.5 + np.array([-0.5, 0.5]) / np.sqrt(3.0)
_GAUSS_W = np.array([0.5, 0.5])


class CheckFailed(AssertionError):
    """A pass produced an output that violates a property of the method."""


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


# -- finite elements, written out independently -------------------------------


def closed_form_stiffness(E, nu, a, b):
    """8x8 stiffness of an a-by-b bilinear plane-stress element (unit thickness).

    Uses the exact integrals of shape-function derivative products over the
    rectangle, e.g. int dNi/dx dNj/dx dA = (b/a) xi_i xi_j (3 + eta_i eta_j)/12,
    with dofs ordered (u0, v0, u1, v1, ...) over ccw corners from lower-left.
    """
    xi = np.array([-1.0, 1.0, 1.0, -1.0])
    eta = np.array([-1.0, -1.0, 1.0, 1.0])
    ixx = (b / a) * np.outer(xi, xi) * (3.0 + np.outer(eta, eta)) / 12.0
    iyy = (a / b) * np.outer(eta, eta) * (3.0 + np.outer(xi, xi)) / 12.0
    ixy = np.outer(xi, eta) / 4.0  # int dNi/dx dNj/dy dA
    c = E / (1.0 - nu * nu)
    g = 0.5 * (1.0 - nu)
    ke = np.empty((8, 8))
    ke[0::2, 0::2] = c * (ixx + g * iyy)
    ke[0::2, 1::2] = c * (nu * ixy + g * ixy.T)
    ke[1::2, 0::2] = c * (nu * ixy.T + g * ixy)
    ke[1::2, 1::2] = c * (iyy + g * ixx)
    return ke


def element_dofs(nx, ny):
    """(nx*ny, 8) global dofs; node (jx, jy) -> jx*(ny+1)+jy, element (ix, iy) -> ix*ny+iy."""
    ix, iy = np.divmod(np.arange(nx * ny), ny)
    n00 = ix * (ny + 1) + iy
    nodes = np.stack([n00, n00 + ny + 1, n00 + ny + 2, n00 + 1], axis=1)
    dofs = np.repeat(2 * nodes, 2, axis=1)
    dofs[:, 1::2] += 1
    return nodes, dofs


def assemble(nx, ny, ke, scale):
    """Sparse K = sum_e scale_e ke over elements with scale_e > 0."""
    _, dofs = element_dofs(nx, ny)
    on = np.flatnonzero(scale > 0)
    d = dofs[on]
    rows = np.repeat(d, 8, axis=1).ravel()
    cols = np.tile(d, (1, 8)).ravel()
    vals = (scale[on, None, None] * ke[None]).ravel()
    n = 2 * (nx + 1) * (ny + 1)
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def edge_geometry(a, b):
    """Per local edge k: start corner relative to the centre, and edge vector."""
    corners = (_CORNERS - 0.5) * np.array([a, b])
    start = corners
    vec = np.roll(corners, -1, axis=0) - corners
    return start, vec


def edge_node_loads(t_start, t_end, length):
    """Consistent end loads of a linear traction: L(2ts+te)/6, L(ts+2te)/6."""
    return length * (2.0 * t_start + t_end) / 6.0, length * (t_start + 2.0 * t_end) / 6.0


def load_vector(nx, ny, a, b, neumann):
    """Global load vector of {(elem, edge): (t_start, t_end)} linear tractions."""
    nodes, _ = element_dofs(nx, ny)
    f = np.zeros(2 * (nx + 1) * (ny + 1))
    lengths = (a, b, a, b)
    for (e, k), (ts, te) in neumann.items():
        ps, pe = edge_node_loads(np.asarray(ts), np.asarray(te), lengths[k])
        n0, n1 = nodes[e, k], nodes[e, (k + 1) % 4]
        f[2 * n0 : 2 * n0 + 2] += ps
        f[2 * n1 : 2 * n1 + 2] += pe
    return f


def nodal_force_scale(nx, ny, ke, scale, u):
    """Largest corner-force norm |scale_e ke u_e| over the loaded elements."""
    _, dofs = element_dofs(nx, ny)
    forces = scale[:, None] * (u[dofs] @ ke.T)
    return float(np.linalg.norm(forces.reshape(-1, 4, 2), axis=2).max())


# -- coarse level --------------------------------------------------------------


def check_fe_residual(nx, ny, a, b, E, nu, p, rho, active, u, neumann, fixed_dofs):
    """K u = f on the free dofs to FE_RESIDUAL_TOL; returns (f.u, force scale)."""
    ke = closed_form_stiffness(E, nu, a, b)
    scale = np.where(active, np.asarray(rho, dtype=float) ** p, 0.0)
    K = assemble(nx, ny, ke, scale)
    f = load_vector(nx, ny, a, b, neumann)
    nodes, _ = element_dofs(nx, ny)
    node_on = np.zeros((nx + 1) * (ny + 1), dtype=bool)
    node_on[nodes[active].ravel()] = True
    free = np.repeat(node_on, 2)
    free[np.asarray(fixed_dofs, dtype=int)] = False
    r = (K @ u - f)[free]
    fnorm = np.linalg.norm(f[free])
    require(fnorm > 0, "coarse load vector is zero")
    rel = np.linalg.norm(r) / fnorm
    require(rel <= FE_RESIDUAL_TOL, f"coarse FE residual |Ku-f|/|f| = {rel:.3e}")
    return float(f @ u), nodal_force_scale(nx, ny, ke, scale, u)


def traction_resultants(tractions, a, b):
    """Net force (n, 2) and moment about the centre (n,) of per-edge linear tractions.

    tractions has shape (n, 4, 2, 2): per edge, start and end traction vectors
    in the element's ccw edge orientation. Integrated by Gauss-Legendre.
    """
    start, vec = edge_geometry(a, b)
    lengths = np.linalg.norm(vec, axis=1)
    force = np.zeros((tractions.shape[0], 2))
    moment = np.zeros(tractions.shape[0])
    for s, w in zip(_GAUSS_S, _GAUSS_W):
        t = (1.0 - s) * tractions[:, :, 0, :] + s * tractions[:, :, 1, :]  # (n, 4, 2)
        x = start + s * vec  # (4, 2)
        force += w * np.einsum("k,nkc->nc", lengths, t)
        moment += w * np.einsum(
            "k,nk->n", lengths, x[None, :, 0] * t[:, :, 1] - x[None, :, 1] * t[:, :, 0]
        )
    return force, moment


def check_equilibrium(tractions, active, a, b, force_scale):
    """Every active element balances its own edge tractions."""
    act = np.asarray(active).ravel()
    force, moment = traction_resultants(np.asarray(tractions)[act], a, b)
    f_rel = np.linalg.norm(force, axis=1).max() / force_scale
    m_rel = np.abs(moment).max() / (force_scale * max(a, b))
    require(f_rel <= EQUILIBRIUM_TOL, f"element net force {f_rel:.3e} of the force scale")
    require(m_rel <= EQUILIBRIUM_TOL, f"element net moment {m_rel:.3e} of the force scale")
    return max(f_rel, m_rel)


def check_action_reaction(tractions, active2d):
    """Across every shared edge the two sides carry opposite tractions.

    The right edge (1) of (ix, iy) meets the left edge (3) of (ix+1, iy) and
    the top edge (2) meets the bottom edge (0) of (ix, iy+1); the two sides
    run in opposite directions, so start pairs with end.
    """
    nx, ny = active2d.shape
    t = np.asarray(tractions).reshape(nx, ny, 4, 2, 2)
    both_x = active2d[:-1, :] & active2d[1:, :]
    both_y = active2d[:, :-1] & active2d[:, 1:]
    mismatch = [
        (t[:-1, :, 1] + t[1:, :, 3, ::-1])[both_x],
        (t[:, :-1, 2] + t[:, 1:, 0, ::-1])[both_y],
    ]
    scale = np.abs(t[active2d]).max()
    worst = max(float(np.abs(m).max()) if m.size else 0.0 for m in mismatch)
    require(worst <= ACTION_REACTION_TOL * scale,
            f"shared-edge traction mismatch {worst:.3e} (scale {scale:.3e})")
    require(both_x.any() or both_y.any(), "no shared edges to check")
    return worst / scale


def check_volume(rho, active, rho0):
    vf = float(np.asarray(rho).ravel()[np.asarray(active).ravel()].mean())
    require(abs(vf - rho0) <= VOLUME_TOL * rho0,
            f"coarse volume fraction {vf:.8f} vs target {rho0}")
    return vf


def check_coarse(grid, bc, material, rho, u, tractions, rho0, reported_compliance):
    """All coarse-level checks on one converged coarse state and its tractions.

    Returns the compliance f.u recomputed here.
    """
    active = grid.active.ravel(order="C")
    fixed = [2 * node + c for node, (mask, _) in bc.dirichlet.items()
             for c in range(2) if mask[c]]
    compliance, force_scale = check_fe_residual(
        grid.nx, grid.ny, grid.hx, grid.hy, material.E, material.nu, material.p,
        rho, active, np.asarray(u, dtype=float), bc.neumann, fixed,
    )
    rel = abs(compliance - reported_compliance) / abs(compliance)
    require(rel <= COMPLIANCE_TOL, f"coarse compliance {reported_compliance} vs f.u {compliance}")
    check_volume(rho, active, rho0)
    check_equilibrium(tractions, active, grid.hx, grid.hy, force_scale)
    check_action_reaction(tractions, grid.active)
    return compliance


# -- fine cells ----------------------------------------------------------------


def cell_loads(tractions, n, a, b):
    """Fine load vector of one n x n cell loaded by its 4 coarse edge tractions.

    Each linear coarse traction is evaluated at the fine sub-edge ends and
    turned into consistent end loads there.
    """
    nodes, _ = element_dofs(n, n)
    f = np.zeros(2 * (n + 1) ** 2)
    lengths = (a / n, b / n, a / n, b / n)
    # Fine elements along each coarse edge, in the edge's ccw direction.
    runs = (
        [ix * n for ix in range(n)],                      # bottom, left to right
        [(n - 1) * n + iy for iy in range(n)],            # right, bottom to top
        [ix * n + n - 1 for ix in range(n - 1, -1, -1)],  # top, right to left
        [iy for iy in range(n - 1, -1, -1)],              # left, top to bottom
    )
    for k in range(4):
        ts, te = np.asarray(tractions[k, 0]), np.asarray(tractions[k, 1])
        for j, e in enumerate(runs[k]):
            s0, s1 = j / n, (j + 1) / n
            p0, p1 = edge_node_loads(ts + s0 * (te - ts), ts + s1 * (te - ts), lengths[k])
            n0, n1 = nodes[e, k], nodes[e, (k + 1) % 4]
            f[2 * n0 : 2 * n0 + 2] += p0
            f[2 * n1 : 2 * n1 + 2] += p1
    return f


def off_target(result, target):
    """Relative miss of a cell's mean density against its coarse target."""
    return abs(float(np.mean(result.rho)) - target) / target


def check_fine_cell(result, target, tractions, n, a, b, E, nu, p, rho_min):
    """One optimised cell: present, on target, in bounds, reaction-free, and
    its reported compliance equal to f.u of an FE solve made here.

    The cell is held by a pin at its lower-left node and a vertical roller at
    its lower-right node. Returns the compliance recomputed here.
    """
    require(result is not None, "sampled cell missing from the farm result")
    require(result.kind == "optimized", f"cell {result.cell} has kind {result.kind}")
    rho = np.asarray(result.rho, dtype=float)
    require(rho.shape == (n * n,), f"cell {result.cell} raster shape {rho.shape}")
    require(rho.min() >= rho_min - 1e-12 and rho.max() <= 1.0 + 1e-12,
            f"cell {result.cell} densities outside [rho_min, 1]")
    mean = float(rho.mean())
    require(off_target(result, target) <= VOLUME_TOL,
            f"cell {result.cell} mean density {mean:.10f} vs target {target:.10f}")

    f = cell_loads(np.asarray(tractions), n, a, b)
    ke = closed_form_stiffness(E, nu, a / n, b / n)
    K = assemble(n, n, ke, rho**p).tocsc()
    fixed = np.array([0, 1, 2 * n * (n + 1) + 1])
    free = np.setdiff1d(np.arange(f.size), fixed)
    u = np.zeros(f.size)
    u[free] = spla.spsolve(K[free][:, free], f[free])
    reactions = (K @ u - f)[fixed]
    start, vec = edge_geometry(a, b)
    resultants = 0.5 * np.linalg.norm(vec, axis=1)[:, None] * np.abs(
        np.asarray(tractions)[:, 0] + np.asarray(tractions)[:, 1]
    )
    force_scale = float(np.linalg.norm(resultants, axis=1).max())
    require(np.abs(reactions).max() <= REACTION_TOL * force_scale,
            f"cell {result.cell} support reaction {np.abs(reactions).max():.3e} "
            f"of force scale {force_scale:.3e}")
    compliance = float(f @ u)
    rel = abs(compliance - result.compliance) / abs(compliance)
    require(rel <= COMPLIANCE_TOL,
            f"cell {result.cell} compliance {result.compliance} vs f.u {compliance}")
    return compliance


def grey_measure(rho):
    """Non-discreteness M_nd = mean 4 rho (1 - rho), in percent."""
    rho = np.asarray(rho, dtype=float)
    return float(np.mean(4.0 * rho * (1.0 - rho)) * 100.0)


# -- images --------------------------------------------------------------------


def check_stitched(image_data, rasters, active2d, n):
    """The image is (nx n, ny n) and every block is its cell's raster."""
    nx, ny = active2d.shape
    require(image_data.shape == (nx * n, ny * n),
            f"stitched image shape {image_data.shape}, expected {(nx * n, ny * n)}")
    blocks = image_data.reshape(nx, n, ny, n).transpose(0, 2, 1, 3)
    for ix in range(nx):
        for iy in range(ny):
            e = ix * ny + iy
            want = rasters[e].reshape(n, n) if active2d[ix, iy] else np.zeros((n, n))
            require(np.array_equal(blocks[ix, iy], want),
                    f"stitched block ({ix}, {iy}) differs from cell {e}'s raster")


def read_pgm(path):
    """(width, height, pixel rows top first) of a binary P5 graymap."""
    data = open(path, "rb").read()
    magic, dims, maxval, rest = data.split(b"\n", 3)
    require(magic == b"P5" and maxval == b"255", f"{path}: not an 8-bit P5 file")
    w, h = (int(v) for v in dims.split())
    pixels = np.frombuffer(rest, dtype=np.uint8)
    require(pixels.size == w * h, f"{path}: {pixels.size} pixels for {w}x{h}")
    return w, h, pixels.reshape(h, w)


def top_down(field_xy):
    """(nx, ny) field indexed [x, y] as rows top first."""
    return np.flipud(np.asarray(field_xy, dtype=float).T)


def check_pgm(path, field_xy):
    """The PGM shows the field: width nx, height ny, density 1 black."""
    nx, ny = np.shape(field_xy)
    w, h, pixels = read_pgm(path)
    require((w, h) == (nx, ny), f"{path}: header {w}x{h}, expected {nx}x{ny}")
    want = np.round((1.0 - np.clip(top_down(field_xy), 0.0, 1.0)) * 255.0)
    require(np.array_equal(pixels, want.astype(np.uint8)), f"{path}: pixels differ from the field")


def check_csv_raster(path, field_xy):
    got = np.atleast_2d(np.loadtxt(path, delimiter=","))
    require(np.array_equal(got, top_down(field_xy)), f"{path}: raster differs from the field")


def read_tractions_csv(path, n_elems):
    """(n_elems, 4, 2, 2) tractions from the per-edge CSV artifact."""
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    out = np.zeros((n_elems, 4, 2, 2))
    e = table[:, 0].astype(int)
    k = table[:, 1].astype(int)
    out[e, k] = table[:, 2:6].reshape(-1, 2, 2)
    return out
