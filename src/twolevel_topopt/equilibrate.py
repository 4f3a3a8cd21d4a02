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

Element fans run counter-clockwise from grid.Grid.node_quadrants: a cycle
for interior nodes, a chain for boundary nodes (classify_nodes). Side forces are stored per
(element, local edge, edge end) in the owning element's orientation, so a
shared edge holds exact negations on its two sides.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import fem
from .grid import EDGE_LNODES, GridError, edge_lengths


class EquilibrationError(RuntimeError):
    """The FE state cannot be split: a node's fan or the nodal forces are unusable."""


def _cross(a, b):
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def _norm(v):
    """Norms over the last axis, rounded as np.linalg.norm rounds one vector
    (a stacked 1 x 2 by 2 x 1 product runs the same dot kernel)."""
    return np.sqrt((v[..., None, :] @ v[..., :, None])[..., 0, 0])


def _segment_crossing(p1, p2, p3, p4):
    """Proper interior intersection of segments p1p2 and p3p4 as (point, found).

    Where none is found, the point is p1.
    """
    d1 = p2 - p1
    d2 = p4 - p3
    denom = _cross(d1, d2)
    ok = ~(np.abs(denom) < 1e-14 * (np.abs(d1).sum(axis=-1) + np.abs(d2).sum(axis=-1)
                                    + 1e-300) ** 2) & (denom != 0.0)
    denom = np.where(ok, denom, 1.0)
    s = _cross(p3 - p1, d2) / denom
    t = _cross(p3 - p1, d1) / denom
    found = ok & (1e-12 < s) & (s < 1 - 1e-12) & (1e-12 < t) & (t < 1 - 1e-12)
    return p1 + np.where(found, s, 0.0)[..., None] * d1, found


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

    Leading axes of the sides hold one polygon each.
    """
    forces = np.stack(np.broadcast_arrays(*map(np.asarray, (F1, F2, F3, F4))), -2).astype(float)
    scale = _norm(forces).max(axis=-1)
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


# Node kinds by index: nv for a cycle with nv void elements, 2 + 3m + d for a
# chain of m elements with d reaction extremes.
KINDS = (
    "internal", *(f"internal-void-adjacent-{nv}" for nv in range(1, 5)),
    "neumann-outer-corner", "dirichlet-outer-corner", "dirichlet-corner-clamped",
    "neumann-standard", "dirichlet-chain-2-1", "dirichlet-standard",
    "neumann-reentrant", "dirichlet-chain-3-1", "dirichlet-chain-3-2",
)

@dataclass
class NodeClasses:
    """Classified nodes as arrays.

    Row r describes node nodes[r]: its kind (index into KINDS), fan size m,
    elements (slots from m on hold -1), the local ids of its fan edges (m + 1
    on a chain, the last one owned by the last element), void flags and
    reaction extremes.
    """

    nodes: np.ndarray
    kind: np.ndarray
    m: np.ndarray
    elements: np.ndarray
    ledges: np.ndarray
    voids: np.ndarray
    extremes: np.ndarray

    def kind_counts(self):
        """Nodes per kind name, kinds in the order of their first node."""
        kinds, first, counts = np.unique(self.kind, return_index=True, return_counts=True)
        order = np.argsort(first)
        return {KINDS[k]: c for k, c in zip(kinds[order].tolist(), counts[order].tolist())}


def _reaction_edges(grid, bc, elems, ledges):
    """Per boundary edge (elems, ledges): does it transmit reactions? It
    does when both end nodes are constrained and it carries no Neumann data."""
    fixed = np.zeros(grid.n_nodes, dtype=bool)
    fixed[np.array(list(bc.dirichlet), dtype=int)] = True
    loaded = np.zeros((grid.n_elems, 4), dtype=bool)
    loaded[tuple(np.array(list(bc.neumann), dtype=int).reshape(-1, 2).T)] = True
    ends = grid.elem_nodes[elems[..., None], np.array(EDGE_LNODES)[ledges]]
    return fixed[ends].all(axis=-1) & ~loaded[elems, ledges]


def classify_nodes(grid, bc, void_mask):
    """Classify every active node by its fan topology and boundary conditions.

    void_mask marks frozen-void elements; they stay in the fans (their nodal
    forces are negligible) but steer pole placement so the solid-void
    interfaces end up essentially traction-free. Raises EquilibrationError
    when a non-void element has three or more void edge-neighbours, which
    the coarse freezing stage is required to have removed, or when a node
    sees two opposite void elements; raises GridError at a non-manifold
    node. Returns the NodeClasses arrays, rows by node id.
    """
    void_mask = np.asarray(void_mask, dtype=bool).ravel()

    n_void = grid.count_neighbours(void_mask)
    crowded = np.flatnonzero(grid.active.ravel(order="C") & ~void_mask & (n_void >= 3))
    if crowded.size:
        e = crowded[0]
        raise EquilibrationError(
            f"element {e} has {n_void[e]} void edge-neighbours; it should "
            f"have been voided by the coarse freezing stage"
        )

    quads = grid.node_quadrants()
    present = quads >= 0
    nodes = np.flatnonzero(present.any(axis=1))
    present, quads = present[nodes], quads[nodes]
    m = present.sum(axis=1)
    # A fan is the one run of present quadrants, starting right after the
    # gap (at SE around a cycle); two runs meet only at a non-manifold node.
    starts = present & ~np.roll(present, 1, axis=1)
    run = (np.argmax(starts, axis=1)[:, None] + np.arange(4)) % 4
    rows = np.arange(len(nodes))
    slot = np.arange(4) < m[:, None]
    elements = np.where(slot, quads[rows[:, None], run], -1)
    voids = void_mask[elements] & slot
    # Quadrant q's element meets the node at its corner (q + 3) % 4, so its
    # preceding fan edge is local edge (q + 3) % 4; a chain ends with the
    # following edge of its last element, local edge (q + 2) % 4.
    ledges = np.pad(np.where(slot, (run + 3) % 4, 0), ((0, 0), (0, 1)))
    chain = np.flatnonzero(m < 4)
    ledges[chain, m[chain]] = (run[chain, m[chain] - 1] + 2) % 4
    # A chain's extreme edges: the first of its first element, the last
    # (slot m) of its last element.
    extremes = _reaction_edges(grid, bc, np.stack([elements[:, 0], elements[rows, m - 1]], axis=1),
                               np.stack([ledges[:, 0], ledges[rows, m]], axis=1))
    extremes &= (m < 4)[:, None]
    nv = voids.sum(axis=1)

    # Two void elements of a cycle that are not adjacent are opposite.
    checkerboard = (m == 4) & (nv == 2) & (voids[:, 0] == voids[:, 2])
    bad = np.flatnonzero((starts.sum(axis=1) > 1) | checkerboard)
    if bad.size:
        n = nodes[bad[0]]
        if checkerboard[bad[0]]:
            raise EquilibrationError(
                f"node {n}: two opposite void neighbours (checkerboard "
                f"pattern) cannot be split"
            )
        raise GridError(f"non-manifold active region at node {n}")

    kind = np.where(m == 4, nv, 2 + 3 * m + extremes.sum(axis=1))
    return NodeClasses(nodes, kind, m, elements, ledges, voids, extremes)


def _void_aware_pole(vertices, voids, default):
    """Pole override near void elements: kill their interface side forces.

    One void side -> midpoint of that (vanishing) side; two adjacent void
    sides -> their shared vertex; otherwise the one non-void side -> its
    midpoint, halving its nodal force between its two edges. Only a cycle
    (m vertices) wraps: the end elements of a chain (m + 1 vertices) are
    not adjacent, so a chain void, solid, void takes its solid side's
    midpoint, and the two voids of a cycle are adjacent (classify_nodes
    rejects opposite ones). The void flags are shared by every node of a
    batch.
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
        for i in range(m if n_vert == m else m - 1):
            if voids[i] and voids[(i + 1) % m]:
                return vertices[..., (i + 1) % n_vert, :]
    s = voids.index(False)
    return 0.5 * (vertices[..., s, :] + vertices[..., (s + 1) % n_vert, :])


def _vertices(forces):
    """Running polygon vertices W[0] = 0, W[i + 1] = W[i] + forces[i]."""
    forces = np.asarray(forces, dtype=float)
    return np.cumsum(np.concatenate([np.zeros_like(forces[..., :1, :]), forces], axis=-2), axis=-2)


def fan_poles(forces, cycle, first, last, voids):
    """One pole per fan edge (m around a cycle, m + 1 along a chain), by fan class.

    forces (..., m, 2) are the nodal forces in fan order, less the
    prescribed end forces of a chain's extreme edges; first and last flag a
    chain's reaction extremes and voids its void elements. W are the running
    vertices. A cycle, or a chain with two reactions, takes the centroid of
    the force polygon closed by -W[k], k = min(m, 3). That side closes the
    polygon by construction, as W[k] sums the same forces: around a cycle
    it stands in for the fourth force, so the FE nodal residual lands in
    lam, and along the chain it is the total reaction. A single force is
    split evenly. That pole then moves next to void elements. A chain with
    one reaction takes the vertex at its prescribed end, W[m] or W[0]. A
    chain without reaction takes -0.0 on its first half and W[m] on its
    second, so both extremes keep their prescription and the middle
    element takes the closure defect (-0.0 - W is -W to the sign of a
    zero).
    """
    W = _vertices(forces)
    m = forces.shape[-2]
    if not (cycle or first or last):
        poles = np.full(W.shape, -0.0)
        poles[..., (m - 1) // 2 + 1 :, :] = W[..., m, None, :]
        return poles
    if first != last:
        return np.repeat(W[..., m if first else 0, None, :], m + 1, axis=-2)
    if m == 1:
        pole = 0.5 * W[..., 1, :]
    else:
        k = min(m, 3)
        sides = [forces[..., c, :] for c in range(k)] + [-W[..., k, :]]
        pole = polygon_centroid(*sides, *[np.zeros(2)] * (3 - k))
    pole = _void_aware_pole(W[..., :m, :] if cycle else W, voids, pole)
    return np.repeat(pole[..., None, :], m + (not cycle), axis=-2)


def split_node(forces, poles):
    """Side forces of node fans read off one pole per fan edge (Maxwell diagram).

    forces (..., m, 2) are the nodal forces of the fan's m elements in fan
    order. A chain has m + 1 fan edges, a cycle m, its edge m being edge 0
    again. The side force on edge i is Q[i] = poles[i] - W[i], W the running
    vertices; element c takes Q[c] through its preceding edge
    (sides[..., c, 0]) and -Q[c + 1] through its following edge
    (sides[..., c, 1]). Returns (sides, lam), lam the closure defect the
    elements leave: W[m] around a cycle, where the last element absorbs it,
    and poles[m] - poles[0] along a chain.
    """
    W = _vertices(forces)
    m = W.shape[-2] - 1
    Q = poles - W[..., : poles.shape[-2], :]
    if poles.shape[-2] == m:
        Q, lam = np.concatenate([Q, Q[..., :1, :]], axis=-2), W[..., m, :]
    else:
        lam = poles[..., m, :] - poles[..., 0, :]
    return np.stack([Q[..., :-1, :], -Q[..., 1:, :]], axis=-2), lam


@dataclass
class EquilibrationReport:
    """Per-element and per-node quality measures of a traction field."""

    force_scale: float
    moment_scale: float
    net_force: np.ndarray
    net_moment: np.ndarray
    max_lambda: float
    class_counts: dict


@dataclass
class EdgeTractionField:
    """Linear tractions (t_start, t_end) per element edge, element orientation.

    tractions[e, k, 0] and [e, k, 1] are the 2-vector traction values at the
    start and end node of local edge k of element e, acting on element e.
    side_forces holds the matching consistent end forces and lambdas the
    (n_nodes, 2) closure defects of the node splits.
    """

    tractions: np.ndarray
    side_forces: np.ndarray
    lambdas: np.ndarray
    report: EquilibrationReport


def equilibrate_all(grid, rho, material, bc, u, void_mask):
    """Split the full FE solution into an equilibrated edge traction field.

    Works from the element nodal forces rho^p K0 u_e, so the input state
    must be a converged solve for exactly this density field. Returns an
    EdgeTractionField whose report certifies per-element equilibrium,
    pointwise action-reaction and per-node closure defects. void_mask marks
    the frozen-void elements, as classify_nodes takes it.
    """
    forces = fem.element_nodal_forces(grid, rho, material, u)
    act = grid.active_elems
    # A force polygon's centroid takes products of three forces.
    if np.abs(forces).max() > 1e100:
        raise EquilibrationError(
            f"nodal forces up to {np.abs(forces).max():.3e} exceed 1e100, too large to split")
    force_scale = float(np.linalg.norm(forces[act], axis=2).max())

    classes = classify_nodes(grid, bc, void_mask)

    side = np.full((grid.n_elems, 4, 2, 2), np.nan)
    # Boundary edges start from their prescription (zero where unloaded);
    # reaction edges are overwritten by the node splits below.
    boundary = tuple(np.array(grid.boundary_edges()).T)
    side[boundary] = fem.edge_end_forces(grid, bc)[boundary]

    # Nodes of one class share their fan size, reaction extremes and void
    # flags, so each class is split as one batch.
    key = classes.m + classes.extremes @ [8, 16] + classes.voids @ [32, 64, 128, 256]
    order = np.argsort(key, kind="stable")
    _, starts = np.unique(key[order], return_index=True)
    lam = np.zeros((grid.n_nodes, 2))
    for rows in np.split(order, starts[1:]):
        lam[classes.nodes[rows]] = _split_nodes(forces, side, classes, rows)

    if np.isnan(side[act]).any():
        missing = int(np.isnan(side[act]).any(axis=(1, 2, 3)).sum())
        raise EquilibrationError(f"{missing} elements have unassigned edge forces")
    side[~grid.active.ravel(order="C")] = 0.0

    lengths = edge_lengths(grid.hx, grid.hy)[:, None]
    tractions = np.stack(
        fem.tractions_from_forces(side[:, :, 0], side[:, :, 1], lengths), axis=2
    )

    return EdgeTractionField(tractions, side, lam,
                             build_report(grid, tractions, lam, classes, force_scale))


def _split_nodes(forces, side, classes, rows):
    """Split the corner forces of the given rows of one class into side forces.

    Returns the nodes' closure defects. The counter-clockwise fan fixes
    every slot: element c meets the node at the corner that starts its
    preceding edge k (slot 0), and its following edge (k + 3) % 4 ends
    there (slot 1). Around a cycle every side is written. A chain writes its
    two extreme edges only where they carry a reaction; elsewhere they keep
    the prescribed end forces the boundary initialisation stored in `side`,
    which are taken off the nodal forces first.
    """
    m = classes.m[rows[0]]
    cycle = m == 4
    first, last = classes.extremes[rows[0]].tolist()
    write_first, write_last = first or cycle, last or cycle
    elems = classes.elements[rows, :m]
    edges = classes.ledges[rows, :m]
    follow = (edges + 3) % 4
    g = forces[elems, edges]
    if not write_first:
        g[:, 0] -= side[elems[:, 0], edges[:, 0], 0]
    if not write_last:
        g[:, -1] -= side[elems[:, -1], follow[:, -1], 1]
    poles = fan_poles(g, cycle, first, last, classes.voids[rows[0], :m].tolist())
    sides, lam = split_node(g, poles)

    lo, hi = int(not write_first), m - int(not write_last)
    side[elems[:, lo:], edges[:, lo:], 0] = sides[:, lo:, 0]
    side[elems[:, :hi], follow[:, :hi], 1] = sides[:, :hi, 1]
    return lam


def build_report(grid, tractions, lambdas, classes, force_scale):
    """Integrate the tractions exactly and collect quality measures; lambdas
    are the closure defects and classes the NodeClasses of the split."""
    act = grid.active_elems
    net_force = np.zeros((grid.n_elems, 2))
    net_moment = np.zeros(grid.n_elems)
    net_force[act], net_moment[act] = fem.edge_traction_resultants(
        tractions[act], grid.hx, grid.hy
    )

    moment_scale = force_scale * max(grid.hx, grid.hy)
    return EquilibrationReport(force_scale, moment_scale, net_force, net_moment,
                               float(_norm(lambdas).max()), classes.kind_counts())


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


def dump_tractions_csv(grid, field_in, path):
    """Write per-edge traction endpoints as CSV for external inspection, with
    repr floats and CRLF line ends as the csv module writes them. The rows
    are written in blocks of 1024 elements."""
    act = grid.active_elems
    with open(path, "w", newline="") as fh:
        fh.write("element,edge,t_start_x,t_start_y,t_end_x,t_end_y\r\n")
        for start in range(0, act.size, 1024):
            fh.write(_csv_rows(act[start : start + 1024], field_in.tractions))


def _csv_rows(elems, tractions):
    """The CSV rows of the given elements' edges as one string.

    A shared edge carries its values on both sides with opposite signs, so
    each distinct magnitude is formatted once and signed by table lookup;
    repr writes a NaN without its sign.
    """
    t = tractions[elems].reshape(-1, 4, 4)
    mag, inv = np.unique(np.abs(t), return_inverse=True)
    text = [repr(v) for v in mag.tolist()]
    text += ["-" + v for v in text]
    signed = inv.reshape(t.shape) + mag.size * (np.signbit(t) & ~np.isnan(t))
    # Per row: "element,", "edge,", then the four values with separators.
    cells = np.empty(t.shape[:2] + (10,), dtype=object)
    cells[:, :, 0] = np.array([f"{e}," for e in elems.tolist()], dtype=object)[:, None]
    cells[:, :, 1] = ["0,", "1,", "2,", "3,"]
    cells[:, :, 2::2] = np.array(text, dtype=object)[signed]
    cells[:, :, 3:8:2] = ","
    cells[:, :, 9] = "\r\n"
    return "".join(cells.ravel().tolist())
