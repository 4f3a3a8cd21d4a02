"""Traction equilibration: split nodal forces into per-edge linear tractions.

Each element's FE nodal forces are redistributed onto its four edges so that
(a) every element is in exact force and moment equilibrium under its edge
tractions alone and (b) the two elements sharing an edge carry pointwise
opposite tractions. The construction works node by node: the nodal forces of
the elements around a node form a closed force polygon, a pole is placed in
force space (Maxwell diagram), and the two side forces of each element are
read off as pole-to-vertex vectors. Pole placement encodes the boundary
conditions: interior nodes use the polygon centroid, clamped nodes close the
polygon with a reaction side, traction boundaries pin the pole so prescribed
edges keep exactly their prescribed values.

Element fans follow grid.node_fan ordering (counter-clockwise, cycle for
interior nodes, chain for boundary nodes). Side forces are stored per
(element, local edge, edge end) in the owning element's orientation, so a
shared edge holds exact negations on its two sides.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import fem
from .grid import EDGE_LNODES, EDGE_NORMALS

# Local (xi, eta) coordinates of element corners 0..3.
_CORNER_XI = ((-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0))


class EquilibrationError(RuntimeError):
    """Node splitting failed; row is the first failing node of a batched split."""

    def __init__(self, message, row=0):
        super().__init__(message)
        self.row = row


def _cross(a, b):
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def _norm(v):
    """Norms over the last axis, rounded as np.linalg.norm rounds one vector
    (a stacked 1 x 2 by 2 x 1 product runs the same dot kernel)."""
    return np.sqrt((v[..., None, :] @ v[..., :, None])[..., 0, 0])


def _segment_crossing(p1, p2, p3, p4):
    """Proper interior intersection of segments p1p2 and p3p4 as (point, found)."""
    d1 = p2 - p1
    d2 = p4 - p3
    denom = _cross(d1, d2)
    ok = ~(np.abs(denom) < 1e-14 * (np.abs(d1).sum(axis=-1) + np.abs(d2).sum(axis=-1)
                                    + 1e-300) ** 2) & (denom != 0.0)
    denom = np.where(ok, denom, 1.0)
    s = _cross(p3 - p1, d2) / denom
    t = _cross(p3 - p1, d1) / denom
    found = ok & (1e-12 < s) & (s < 1 - 1e-12) & (1e-12 < t) & (t < 1 - 1e-12)
    return p1 + s[..., None] * d1, found


def polygon_centroid(F1, F2, F3, F4):
    """Centroid of the closed force polygon with sides F1..F4 from the origin.

    Vertices are the cumulative sums V0 = 0, V1 = F1, ... The quadrilateral
    is split along the V1-V3 diagonal into two triangles combined with
    signed areas, which handles convex and concave shapes alike. When two
    opposite sides cross, the doubly-counted overlap triangle is subtracted
    from the absolute-area combination instead.

    A polygon with vanishing area has collapsed onto a line segment; its
    centroid is taken as the midpoint of the farthest vertex pair. Uniform
    stress states produce exactly such polygons (e.g. a parallelogram
    flattened along the force axis) and the segment midpoint is the unique
    pole reproducing the exact uniform tractions on every edge, which also
    covers the all-zero polygon (midpoint at the origin).

    Leading axes of the sides hold one polygon each; an open polygon raises
    with the flat index of the first as `row`.
    """
    forces = np.stack(np.broadcast_arrays(*map(np.asarray, (F1, F2, F3, F4))), -2).astype(float)
    scale = _norm(forces).max(axis=-1)
    residual = _norm(forces.sum(axis=-2))
    open_ = residual > 1e-6 * scale
    if open_.any():
        row = int(np.flatnonzero(open_)[0])
        raise EquilibrationError(f"force polygon not closed: residual {residual.flat[row]:.3e} "
                                 f"exceeds 1e-6 x scale {scale.flat[row]:.3e}", row)
    V = np.zeros(forces.shape)
    V[..., 1:, :] = np.cumsum(forces[..., :3, :], axis=-2)
    V0, V1, V2, V3 = np.moveaxis(V, -2, 0)

    a1 = 0.5 * _cross(V1 - V0, V3 - V0)
    c1 = (V0 + V1 + V3) / 3.0
    a2 = 0.5 * _cross(V2 - V1, V3 - V1)
    c2 = (V1 + V2 + V3) / 3.0

    crossing, crossed = _segment_crossing(V0, V1, V2, V3)
    crossing2, crossed2 = _segment_crossing(V1, V2, V3, V0)
    crossing = np.where(crossed[..., None], crossing, crossing2)
    crossed |= crossed2
    a_ov = np.abs(0.5 * _cross(V1 - crossing, V3 - crossing))
    c_ov = (crossing + V1 + V3) / 3.0
    area = np.where(crossed, np.abs(a1) + np.abs(a2) - 2.0 * a_ov, a1 + a2)
    moment = np.where(crossed[..., None], np.abs(a1)[..., None] * c1 + np.abs(a2)[..., None] * c2
                      - 2.0 * a_ov[..., None] * c_ov, a1[..., None] * c1 + a2[..., None] * c2)
    flat = ~(np.abs(area) >= 1e-9 * scale * scale) | (scale == 0.0)
    pole = moment / np.where(flat, 1.0, area)[..., None]
    pole[flat] = _segment_midpoint(V[flat])
    return pole


def _segment_midpoint(V):
    """Midpoint of the farthest vertex pair of each flat polygon V[node].

    Pairs rank in (i, j) order, i < j, and the first farthest one wins; with
    every vertex at the origin the midpoint is the origin.
    """
    i, j = np.array(list(itertools.combinations(range(V.shape[1]), 2))).T
    best = np.argmax(_norm(V[:, i] - V[:, j]), axis=1)
    rows = np.arange(len(V))
    return 0.5 * (V[rows, i[best]] + V[rows, j[best]])


@dataclass
class NodeClass:
    """Classification of one node with its ordered element fan."""

    node: int
    kind: str
    elements: list
    edges: list
    is_cycle: bool
    void_flags: list
    extreme_dirichlet: tuple = (False, False)


def _edge_is_dirichlet(grid, bc, elem, ledge):
    """A boundary edge transmits reactions when both end nodes are constrained."""
    if (elem, ledge) in bc.neumann:
        return False
    n1, n2 = grid.edge_nodes(elem, ledge)
    return n1 in bc.dirichlet and n2 in bc.dirichlet


def classify_nodes(grid, bc, void_mask=None):
    """Classify every active node by its fan topology and boundary conditions.

    void_mask marks frozen-void elements; they stay in the fans (their nodal
    forces are negligible) but steer pole placement so the solid-void
    interfaces end up essentially traction-free. Raises EquilibrationError
    when a non-void element has three or more void edge-neighbours, which
    the coarse freezing stage is required to have removed.
    """
    if void_mask is None:
        void_mask = np.zeros(grid.n_elems, dtype=bool)
    void_mask = np.asarray(void_mask, dtype=bool).ravel()

    n_void = grid.count_neighbours(void_mask)
    crowded = np.flatnonzero(grid.active.ravel(order="C") & ~void_mask & (n_void >= 3))
    if crowded.size:
        e = crowded[0]
        raise EquilibrationError(
            f"element {e} has {n_void[e]} void edge-neighbours; it should "
            f"have been voided by the coarse freezing stage"
        )

    classes = {}
    for n in np.flatnonzero(grid.node_active):
        elements, edges, is_cycle = grid.node_fan(n)
        if not elements:
            continue
        voids = [bool(void_mask[e]) for e in elements]
        m = len(elements)
        if is_cycle:
            nv = sum(voids)
            if nv == 0:
                kind = "internal"
            elif nv == 2 and not _voids_adjacent_cyclic(voids):
                raise EquilibrationError(
                    f"node {n}: two opposite void neighbours (checkerboard "
                    f"pattern) cannot be split"
                )
            else:
                kind = f"internal-void-adjacent-{nv}"
            classes[n] = NodeClass(n, kind, elements, edges, True, voids)
            continue

        first_d = _edge_is_dirichlet(grid, bc, *edges[0])
        last_d = _edge_is_dirichlet(grid, bc, *edges[-1])
        d = int(first_d) + int(last_d)
        if d == 0:
            kind = {1: "neumann-outer-corner", 2: "neumann-standard"}.get(
                m, "neumann-reentrant"
            )
        elif m == 2 and d == 2:
            kind = "dirichlet-standard"
        elif m == 1 and d == 1:
            kind = "dirichlet-outer-corner"
        elif m == 1 and d == 2:
            kind = "dirichlet-corner-clamped"
        else:
            kind = f"dirichlet-chain-{m}-{d}"
        classes[n] = NodeClass(
            n, kind, elements, edges, False, voids, (first_d, last_d)
        )
    return classes


def _voids_adjacent_cyclic(voids):
    m = len(voids)
    for i in range(m):
        if voids[i] and voids[(i + 1) % m]:
            return True
    return False


def _void_aware_pole(vertices, voids, default):
    """Pole override near void elements: kill their interface side forces.

    One void side -> midpoint of that (vanishing) side; two adjacent void
    sides -> their shared vertex; three void sides -> midpoint of the sole
    non-void side, halving its nodal force between its two edges. The void
    flags are shared by every node of a batch.
    """
    nv = sum(voids)
    m = len(voids)
    n_vert = vertices.shape[-2]
    if nv == 0 or nv == m:
        return default
    if nv == 1:
        v = voids.index(True)
        return 0.5 * (vertices[..., v, :] + vertices[..., (v + 1) % n_vert, :])
    if nv == 2:
        for i in range(m):
            if voids[i] and voids[(i + 1) % m]:
                return vertices[..., (i + 1) % n_vert, :]
        return default
    if nv == m - 1:
        s = voids.index(False)
        return 0.5 * (vertices[..., s, :] + vertices[..., (s + 1) % n_vert, :])
    return default


def _vertices(forces):
    """Running polygon vertices W[0] = 0, W[i + 1] = W[i] + forces[i]."""
    forces = np.asarray(forces, dtype=float)
    return np.cumsum(np.concatenate([np.zeros_like(forces[..., :1, :]), forces], axis=-2), axis=-2)


def _sides(Q):
    """Side forces [..., c, 0] (preceding) and [..., c, 1] (following) per element."""
    return np.stack([Q[..., :-1, :], -Q[..., 1:, :]], axis=-2)


def _pole(forces, W, voids):
    """Default pole: centroid of the force polygon closed by a last side.

    Around a cycle the closing side -W[3] stands in for the fourth force, so
    the FE nodal residual cannot trip the centroid's closure check; on a
    chain with two reactions it is the total reaction. A single force is
    split evenly. The pole then moves next to void elements; the vertices W
    run over W[0..m-1] around a cycle and W[0..m] along a chain.
    """
    m = forces.shape[-2]
    if m == 1:
        pole = 0.5 * W[..., 1, :]
    else:
        k = min(m, 3)
        sides = [forces[..., c, :] for c in range(k)] + [-W[..., k, :]]
        pole = polygon_centroid(*sides, *[np.zeros(2)] * (3 - k))
    return _void_aware_pole(W, [] if voids is None else list(voids), pole)


def split_internal_node(forces, pole):
    """Side forces of a 4-element interior fan for a given pole.

    forces are the four nodal forces in cyclic fan order. Returns (sides,
    lam) where sides[c] = (P_left, P_right) acting on element c through its
    preceding and following edge, and lam is the polygon closure defect
    (absorbed by the last element's corner identity). Leading axes of forces
    and pole hold one node each.
    """
    W = _vertices(forces)
    m = W.shape[-2] - 1
    Q = np.asarray(pole)[..., None, :] - W[..., np.arange(m + 1) % m, :]
    return _sides(Q), W[..., m, :].copy()


def split_dirichlet_node(g, pole=None, voids=None):
    """Side forces of a chain whose both extreme edges carry reactions.

    g are the traction-adjusted nodal forces in chain order. The polygon is
    closed by the total reaction side and the pole defaults to the closed
    polygon's centroid (void-aware when voids are flagged). Returns (sides,
    reactions, lam) with reactions = (R_first, R_last) acting on the end
    elements through the extreme edges; lam is identically zero because the
    reactions close the polygon exactly.
    """
    g = np.asarray(g, dtype=float)
    W = _vertices(g)
    if pole is None:
        pole = _pole(g, W, voids)
    Q = np.asarray(pole)[..., None, :] - W
    return _sides(Q), (Q[..., 0, :], -Q[..., -1, :]), np.zeros(g.shape[:-2] + (2,))


def split_neumann_node(g, dirichlet_first=False, dirichlet_last=False):
    """Side forces of a chain with at most one reaction extreme.

    g are the traction-adjusted nodal forces in chain order. With no
    reaction the system is overdetermined by one vector equation; the two
    extreme edges keep exactly their prescribed (possibly zero) tractions
    and the middle element absorbs the closure defect lam = sum(g), which is
    the FE nodal residual. With one Dirichlet extreme the split is uniquely
    determined and lam = 0. Returns (sides, reaction, lam); reaction is None
    without a Dirichlet extreme.
    """
    if dirichlet_first and dirichlet_last:
        raise EquilibrationError("use split_dirichlet_node for two reactions")
    W = _vertices(g)
    m = W.shape[-2] - 1
    if dirichlet_first or dirichlet_last:
        Q = W[..., m if dirichlet_first else 0, None, :] - W
        reaction = Q[..., 0, :] if dirichlet_first else -Q[..., m, :]
        return _sides(Q), reaction, np.zeros(W.shape[:-2] + (2,))

    # Both extremes prescribed: exact from each end (pole 0 for the first
    # half, W[m] for the second), defect in the middle.
    Q = -W
    Q[..., (m - 1) // 2 + 1 :, :] += W[..., m, None, :]
    return _sides(Q), None, W[..., m, :].copy()


@dataclass
class EquilibrationReport:
    """Per-element and per-node quality measures of a traction field."""

    force_scale: float
    moment_scale: float
    net_force: np.ndarray
    net_moment: np.ndarray
    lambda_norms: np.ndarray
    class_counts: dict

    @property
    def max_force_residual(self):
        return float(np.linalg.norm(self.net_force, axis=1).max())

    @property
    def max_moment_residual(self):
        return float(np.abs(self.net_moment).max())

    @property
    def max_lambda(self):
        return float(self.lambda_norms.max())


@dataclass
class EdgeTractionField:
    """Linear tractions (t_start, t_end) per element edge, element orientation.

    tractions[e, k, 0] and [e, k, 1] are the 2-vector traction values at the
    start and end node of local edge k of element e, acting on element e.
    side_forces holds the matching consistent end forces.
    """

    tractions: np.ndarray
    side_forces: np.ndarray
    classes: dict
    lambdas: dict
    report: EquilibrationReport = None

    def edge_tractions(self, elem, ledge):
        return self.tractions[elem, ledge, 0], self.tractions[elem, ledge, 1]


def equilibrate_all(grid, rho, material, bc, u, void_mask=None):
    """Split the full FE solution into an equilibrated edge traction field.

    Works from the element nodal forces rho^p K0 u_e, so the input state
    must be a converged solve for exactly this density field. Returns an
    EdgeTractionField whose report certifies per-element equilibrium,
    pointwise action-reaction and per-node closure defects.
    """
    if void_mask is None:
        void_mask = np.zeros(grid.n_elems, dtype=bool)
    void_mask = np.asarray(void_mask, dtype=bool).ravel()
    forces = fem.element_nodal_forces(grid, rho, material, u)
    act = grid.active_elems
    force_scale = float(np.linalg.norm(forces[act], axis=2).max()) if act.size else 0.0

    classes = classify_nodes(grid, bc, void_mask)

    side = np.full((grid.n_elems, 4, 2, 2), np.nan)
    # Boundary edges start from their prescription (zero where unloaded);
    # reaction edges are overwritten by the node splits below.
    for elem, ledge, _ in grid.boundary_edges():
        data = bc.neumann.get((elem, ledge))
        if data is None:
            side[elem, ledge] = 0.0
        else:
            side[elem, ledge] = fem.consistent_edge_loads(
                data[0], data[1], grid.edge_length(ledge)
            )

    # Nodes of one class share their fan size, reaction extremes and void
    # flags, so each class is split as one batch.
    groups = {}
    for n, c in classes.items():
        groups.setdefault((c.is_cycle, len(c.elements), c.extreme_dirichlet, tuple(c.void_flags)),
                          []).append(n)
    lam = np.zeros((grid.n_nodes, 2))
    failures = []
    for nodes in groups.values():
        try:
            lam[nodes] = _split_nodes(forces, side, [classes[n] for n in nodes])
        except EquilibrationError as exc:
            failures.append((nodes[exc.row], exc))
    if failures:
        n, exc = min(failures, key=lambda failure: failure[0])
        raise EquilibrationError(f"node {n} ({classes[n].kind}): {exc}") from exc
    lambdas = {n: lam[n] for n in np.flatnonzero(lam.any(axis=1))}

    if np.isnan(side[act]).any():
        missing = int(np.isnan(side[act]).any(axis=(1, 2, 3)).sum())
        raise EquilibrationError(f"{missing} elements have unassigned edge forces")
    side[~grid.active.ravel(order="C")] = 0.0

    lengths = np.array([grid.hx, grid.hy, grid.hx, grid.hy])[:, None]
    tractions = np.stack(
        fem.tractions_from_forces(side[:, :, 0], side[:, :, 1], lengths), axis=2
    )

    field_out = EdgeTractionField(tractions, side, classes, lambdas)
    field_out.report = build_report(grid, field_out, force_scale)
    return field_out


def _split_nodes(forces, side, members):
    """Split the corner forces of nodes of one class into side forces.

    Returns the nodes' closure defects. The counter-clockwise fan fixes
    every slot: element c meets the node at the corner that starts its
    preceding edge k (slot 0), and its following edge (k + 3) % 4 ends
    there (slot 1). Around a cycle every side is written. A chain writes its
    two extreme edges only where they carry a reaction; elsewhere they keep
    the prescribed end forces the boundary initialisation stored in `side`,
    which are taken off the nodal forces first.
    """
    cls = members[0]
    m = len(cls.elements)
    elems = np.array([c.elements for c in members])
    edges = np.array([[k for _, k in c.edges[:m]] for c in members])
    follow = (edges + 3) % 4
    g = forces[elems, edges]
    if cls.is_cycle:
        pole = _pole(g, _vertices(g)[:, :m], cls.void_flags)
        sides, lam = split_internal_node(g, pole)
        write_first = write_last = True
    else:
        write_first, write_last = cls.extreme_dirichlet
        if not write_first:
            g[:, 0] -= side[elems[:, 0], edges[:, 0], 0]
        if not write_last:
            g[:, -1] -= side[elems[:, -1], follow[:, -1], 1]
        if write_first and write_last:
            sides, _, lam = split_dirichlet_node(g, voids=cls.void_flags)
        else:
            sides, _, lam = split_neumann_node(g, write_first, write_last)

    lo, hi = int(not write_first), m - int(not write_last)
    side[elems[:, lo:], edges[:, lo:], 0] = sides[:, lo:, 0]
    side[elems[:, :hi], follow[:, :hi], 1] = sides[:, :hi, 1]
    return lam


def build_report(grid, field_in, force_scale):
    """Integrate the traction field exactly and collect quality measures."""
    act = grid.active_elems
    net_force = np.zeros((grid.n_elems, 2))
    net_moment = np.zeros(grid.n_elems)
    net_force[act], net_moment[act] = fem.edge_traction_resultants(
        field_in.tractions[act], grid.hx, grid.hy
    )

    lambda_norms = np.zeros(grid.n_nodes)
    lambda_norms[list(field_in.lambdas)] = _norm(np.reshape(list(field_in.lambdas.values()),
                                                            (-1, 2)))
    counts = {}
    for cls in field_in.classes.values():
        counts[cls.kind] = counts.get(cls.kind, 0) + 1
    moment_scale = force_scale * max(grid.hx, grid.hy)
    return EquilibrationReport(
        force_scale, moment_scale, net_force, net_moment, lambda_norms, counts
    )


def action_reaction_residual(grid, field_in):
    """Largest pointwise traction mismatch across interior shared edges."""
    t = field_in.tractions.reshape(grid.nx, grid.ny, 4, 2, 2)
    active = grid.active
    # Right edges meet the left edges of their right neighbours, top edges
    # the bottom edges of their upper neighbours. A shared edge runs in
    # opposite directions on its two sides, so start pairs with end.
    pairs = (
        (t[:-1, :, 1], t[1:, :, 3], active[:-1, :] & active[1:, :]),
        (t[:, :-1, 2], t[:, 1:, 0], active[:, :-1] & active[:, 1:]),
    )
    worst = 0.0
    for mine, theirs, shared in pairs:
        mismatch = mine[shared] + theirs[shared][:, ::-1]
        worst = max(worst, float(np.abs(mismatch).max(initial=0.0)))
    return worst


def stress_tractions(grid, rho, material, u):
    """Naive control field: edge tractions from the raw FE corner stresses.

    Evaluates each element's stress tensor at its corners and projects onto
    the outward edge normals, t = sigma . n. Unlike the equilibrated field
    this is discontinuous across edges and does not balance per element; it
    serves as the comparison baseline for boundary-continuity measurements.
    """
    act = grid.active_elems
    ue = fem.element_displacements(grid, u)[act]
    rho = np.asarray(rho, dtype=float)[act]
    stress = np.stack(
        [
            fem.element_stress(
                material, grid.hx, grid.hy, ue, rho=rho, p=material.p, xi=xi, eta=eta
            )
            for xi, eta in _CORNER_XI
        ],
        axis=1,
    )
    # Stress tensors [[sxx, sxy], [sxy, syy]] at each edge's (start, end) corner.
    ends = stress[:, np.array(EDGE_LNODES)][..., [[0, 2], [2, 1]]]
    tractions = np.zeros((grid.n_elems, 4, 2, 2))
    tractions[act] = np.einsum("akeij,kj->akei", ends, EDGE_NORMALS)
    return tractions


def dump_tractions_csv(grid, field_in, path):
    """Write per-edge traction endpoints as CSV for external inspection, with
    repr floats and CRLF line ends as the csv module writes them. The rows
    are streamed, so no copy of the whole file is held in memory."""
    with open(path, "w", newline="") as fh:
        fh.write("element,edge,t_start_x,t_start_y,t_end_x,t_end_y\r\n")
        fh.writelines(
            f"{e},{k},{a!r},{b!r},{c!r},{d!r}\r\n"
            for e in grid.active_elems.tolist()
            for k, (a, b, c, d) in enumerate(field_in.tractions[e].reshape(4, 4).tolist()))
