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

import csv
from dataclasses import dataclass

import numpy as np

from . import fem
from .grid import EDGE_LNODES, EDGE_NORMALS

# Local (xi, eta) coordinates of element corners 0..3.
_CORNER_XI = ((-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0))


class EquilibrationError(RuntimeError):
    """Node splitting failed (inconsistent input or unsupported pattern)."""


def _cross(a, b):
    return a[0] * b[1] - a[1] * b[0]


def _segment_crossing(p1, p2, p3, p4):
    """Proper interior intersection point of segments p1p2 and p3p4, or None."""
    d1 = np.asarray(p2) - p1
    d2 = np.asarray(p4) - p3
    denom = _cross(d1, d2)
    if abs(denom) < 1e-14 * (np.abs(d1).sum() + np.abs(d2).sum() + 1e-300) ** 2:
        return None
    s = _cross(np.asarray(p3) - p1, d2) / denom
    t = _cross(np.asarray(p3) - p1, d1) / denom
    if 1e-12 < s < 1 - 1e-12 and 1e-12 < t < 1 - 1e-12:
        return np.asarray(p1) + s * d1
    return None


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
    """
    forces = [np.asarray(F, dtype=float) for F in (F1, F2, F3, F4)]
    scale = max(np.linalg.norm(F) for F in forces)
    if scale == 0.0:
        return np.zeros(2)
    closure = forces[0] + forces[1] + forces[2] + forces[3]
    if np.linalg.norm(closure) > 1e-6 * scale:
        raise EquilibrationError(
            f"force polygon not closed: residual {np.linalg.norm(closure):.3e} "
            f"exceeds 1e-6 x scale {scale:.3e}"
        )
    V = np.zeros((4, 2))
    V[1] = forces[0]
    V[2] = forces[0] + forces[1]
    V[3] = forces[0] + forces[1] + forces[2]

    a1 = 0.5 * _cross(V[1] - V[0], V[3] - V[0])
    c1 = (V[0] + V[1] + V[3]) / 3.0
    a2 = 0.5 * _cross(V[2] - V[1], V[3] - V[1])
    c2 = (V[1] + V[2] + V[3]) / 3.0

    crossing = _segment_crossing(V[0], V[1], V[2], V[3])
    if crossing is None:
        crossing = _segment_crossing(V[1], V[2], V[3], V[0])
    tiny = 1e-9 * scale * scale
    if crossing is None:
        area = a1 + a2
        if abs(area) >= tiny:
            return (a1 * c1 + a2 * c2) / area
        return _segment_midpoint(V)

    a_ov = abs(0.5 * _cross(V[1] - crossing, V[3] - crossing))
    c_ov = (crossing + V[1] + V[3]) / 3.0
    den = abs(a1) + abs(a2) - 2.0 * a_ov
    if abs(den) >= tiny:
        return (abs(a1) * c1 + abs(a2) * c2 - 2.0 * a_ov * c_ov) / den
    return _segment_midpoint(V)


def _segment_midpoint(vertices):
    """Midpoint of the farthest pair among the vertices of a flat polygon."""
    best = (0.0, vertices[0], vertices[0])
    for i in range(len(vertices)):
        for j in range(i + 1, len(vertices)):
            d = float(np.linalg.norm(vertices[i] - vertices[j]))
            if d > best[0]:
                best = (d, vertices[i], vertices[j])
    return 0.5 * (best[1] + best[2])


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
    non-void side, halving its nodal force between its two edges.
    """
    nv = sum(voids)
    m = len(voids)
    if nv == 0 or nv == m:
        return default
    if nv == 1:
        v = voids.index(True)
        return 0.5 * (vertices[v] + vertices[(v + 1) % len(vertices)])
    if nv == 2:
        for i in range(m):
            if voids[i] and voids[(i + 1) % m]:
                return vertices[(i + 1) % len(vertices)]
        return default
    if nv == m - 1:
        s = voids.index(False)
        return 0.5 * (vertices[s] + vertices[(s + 1) % len(vertices)])
    return default


def _vertices(forces):
    """Running polygon vertices W[0] = 0, W[i + 1] = W[i] + forces[i]."""
    return np.cumsum(np.concatenate([np.zeros((1, 2)), forces]), axis=0)


def _sides(Q):
    """(preceding, following) side forces per element from pole-to-vertex vectors."""
    return list(zip(Q[:-1], -Q[1:]))


def _pole(forces, W, voids):
    """Default pole: centroid of the force polygon closed by a last side.

    Around a cycle the closing side -W[3] stands in for the fourth force, so
    the FE nodal residual cannot trip the centroid's closure check; on a
    chain with two reactions it is the total reaction. A single force is
    split evenly. The pole then moves next to void elements; the vertices W
    run over W[0..m-1] around a cycle and W[0..m] along a chain.
    """
    m = len(forces)
    if m == 1:
        pole = 0.5 * W[1]
    else:
        k = min(m, 3)
        pole = polygon_centroid(*forces[:k], -W[k], *[np.zeros(2)] * (3 - k))
    return _void_aware_pole(W, [] if voids is None else list(voids), pole)


def split_internal_node(forces, pole):
    """Side forces of a 4-element interior fan for a given pole.

    forces are the four nodal forces in cyclic fan order. Returns (sides,
    lam) where sides[c] = (P_left, P_right) acting on element c through its
    preceding and following edge, and lam is the polygon closure defect
    (absorbed by the last element's corner identity).
    """
    W = _vertices(forces)
    m = len(W) - 1
    return _sides(pole - W[np.arange(m + 1) % m]), W[m].copy()


def split_dirichlet_node(g, pole=None, voids=None):
    """Side forces of a chain whose both extreme edges carry reactions.

    g are the traction-adjusted nodal forces in chain order. The polygon is
    closed by the total reaction side and the pole defaults to the closed
    polygon's centroid (void-aware when voids are flagged). Returns (sides,
    reactions, lam) with reactions = (R_first, R_last) acting on the end
    elements through the extreme edges; lam is identically zero because the
    reactions close the polygon exactly.
    """
    g = np.asarray(g, dtype=float).reshape(-1, 2)
    W = _vertices(g)
    if pole is None:
        pole = _pole(g, W, voids)
    Q = pole - W
    return _sides(Q), (Q[0], -Q[-1]), np.zeros(2)


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
    m = len(W) - 1
    if dirichlet_first or dirichlet_last:
        Q = (W[m] if dirichlet_first else W[0]) - W
        reaction = Q[0] if dirichlet_first else -Q[m]
        return _sides(Q), reaction, np.zeros(2)

    # Both extremes prescribed: exact from each end (pole 0 for the first
    # half, W[m] for the second), defect in the middle.
    Q = -W
    Q[(m - 1) // 2 + 1 :] += W[m]
    return _sides(Q), None, W[m].copy()


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

    lambdas = {}
    for n, cls in classes.items():
        try:
            lam = _split_node(forces, side, cls)
        except EquilibrationError as exc:
            raise EquilibrationError(f"node {n} ({cls.kind}): {exc}") from exc
        if lam.any():
            lambdas[n] = lam

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


def _split_node(forces, side, cls):
    """Split one node's corner forces into side forces; returns its closure defect.

    The counter-clockwise fan fixes every slot: element c meets the node at
    the corner that starts its preceding edge k (slot 0), and its following
    edge (k + 3) % 4 ends there (slot 1). Around a cycle every side is
    written. A chain writes its two extreme edges only where they carry a
    reaction; elsewhere they keep the prescribed end forces the boundary
    initialisation stored in `side`, which are taken off the nodal forces
    first.
    """
    m = len(cls.elements)
    edges = cls.edges[:m]
    g = forces[cls.elements, [k for _, k in edges]]
    if cls.is_cycle:
        pole = _pole(g, _vertices(g)[:m], cls.void_flags)
        sides, lam = split_internal_node(g, pole)
        write_first = write_last = True
    else:
        write_first, write_last = cls.extreme_dirichlet
        if not write_first:
            g[0] -= side[edges[0]][0]
        if not write_last:
            g[-1] -= side[cls.edges[-1]][1]
        if write_first and write_last:
            sides, _, lam = split_dirichlet_node(g, voids=cls.void_flags)
        else:
            sides, _, lam = split_neumann_node(g, write_first, write_last)

    for c, (e, k) in enumerate(edges):
        if c > 0 or write_first:
            side[e, k, 0] = sides[c][0]
        if c < m - 1 or write_last:
            side[e, (k + 3) % 4, 1] = sides[c][1]
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
    for n, lam in field_in.lambdas.items():
        lambda_norms[n] = np.linalg.norm(lam)
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
    """Write per-edge traction endpoints as CSV for external inspection."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["element", "edge", "t_start_x", "t_start_y", "t_end_x", "t_end_y"]
        )
        for e in grid.active_elems:
            for ledge in range(4):
                t_s, t_e = field_in.edge_tractions(e, ledge)
                writer.writerow(
                    [e, ledge]
                    + [repr(float(v)) for v in (t_s[0], t_s[1], t_e[0], t_e[1])]
                )
