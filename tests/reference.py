"""Per-item reference views and the raw-stress control field for the tests.

The program works on whole arrays. These views rebuild one record per node
or one lookup per edge, so the tests can compare the arrays against
hand-written expectations and slow one-at-a-time references.

The raw-stress control loads each cell with sigma . n of the FE stresses at
the element corners instead of the equilibrated tractions. It is the
paper's comparison baseline: the acceptance tests run a fine farm on it to
show the boundary-continuity advantage of the equilibrated field. Those
loads are not self-equilibrated, so that farm runs under unchecked_balance.
"""

from dataclasses import dataclass
from unittest import mock

import numpy as np

from twolevel_topopt import fem, fine
from twolevel_topopt.equilibrate import KINDS
from twolevel_topopt.grid import CORNER_OFFSETS, EDGE_LNODES, EDGE_NEIGHBOR_OFFSETS

# Outward unit normals of edges 0..3 (bottom, right, top, left).
EDGE_NORMALS = np.array([(0.0, -1.0), (1.0, 0.0), (0.0, 1.0), (-1.0, 0.0)])

# Local (xi, eta) coordinates of element corners 0..3.
CORNER_XI = 2.0 * CORNER_OFFSETS - 1.0


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


def node_classes(classes):
    """The rows of classify_nodes' NodeClasses as {node id: NodeClass}, by
    node id. A chain's last fan edge is owned by its last element."""
    out = {}
    for row, n in enumerate(classes.nodes.tolist()):
        m = int(classes.m[row])
        elements = classes.elements[row, :m].tolist()
        ledges = classes.ledges[row, : m if m == 4 else m + 1].tolist()
        edges = [(elements[min(i, m - 1)], k) for i, k in enumerate(ledges)]
        out[n] = NodeClass(n, KINDS[classes.kind[row]], elements, edges, m == 4,
                           classes.voids[row, :m].tolist(), tuple(classes.extremes[row].tolist()))
    return out


def node_fan(present):
    """The fan of a node whose quadrants (SE, NE, NW, SW) hold the elements
    present (-1 where none): a cycle when all four hold one, else the one
    contiguous run of them, which starts right after a gap; None when the
    node is non-manifold."""
    quad_edges = ((3, 2), (0, 3), (1, 0), (2, 1))  # (preceding, following) per quadrant
    m = sum(e >= 0 for e in present)
    if m == 0:
        return [], [], False
    if m == 4:
        return present, [(present[q], quad_edges[q][0]) for q in range(4)], True
    starts = [q for q in range(4) if present[q] >= 0 and present[q - 1] < 0]
    run = [(starts[0] + i) % 4 for i in range(m)]
    if len(starts) > 1 or any(present[q] < 0 for q in run):
        return None
    edges = [(present[q], quad_edges[q][0]) for q in run]
    edges.append((present[run[-1]], quad_edges[run[-1]][1]))
    return [present[q] for q in run], edges, False


def neighbor(grid, e, edge):
    """Active element sharing the given local edge of element e, or -1."""
    ix, iy = grid.elem_index(e)
    dx, dy = EDGE_NEIGHBOR_OFFSETS[edge]
    mx, my = ix + dx, iy + dy
    if 0 <= mx < grid.nx and 0 <= my < grid.ny and grid.active[mx, my]:
        return grid.elem_id(mx, my)
    return -1


def element_stress(material, hx, hy, ue, rho=1.0, p=1.0, xi=0.0, eta=0.0):
    """Stress vector (sxx, syy, sxy) at a reference point of each element.

    ue is one element's displacement vector (8,) or a stack (..., 8) with
    rho a matching stack of densities; the result has shape (..., 3).
    """
    B = fem.strain_matrix(xi, eta, hx, hy)
    return (np.asarray(rho, dtype=float) ** p)[..., None] * (ue @ B.T @ material.D0.T)


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
            element_stress(material, grid.hx, grid.hy, ue, rho=rho, p=material.p, xi=xi, eta=eta)
            for xi, eta in CORNER_XI
        ],
        axis=1,
    )
    # Stress tensors [[sxx, sxy], [sxy, syy]] at each edge's (start, end) corner.
    ends = stress[:, np.array(EDGE_LNODES)][..., [[0, 2], [2, 1]]]
    tractions = np.zeros((grid.n_elems, 4, 2, 2))
    tractions[act] = np.einsum("akeij,kj->akei", ends, EDGE_NORMALS)
    return tractions


def unchecked_balance():
    """Patch that lets fine_cell_solve take unbalanced tractions.

    It wraps fine.traction_equilibrium: the real force scale is kept and the
    net force and moment read zero, so the supports carry the imbalance as
    reactions. Farm workers forked under the patch inherit it.
    """
    real = fine.traction_equilibrium

    def balanced(tractions, hx, hy):
        return np.zeros(2), 0.0, real(tractions, hx, hy)[2]

    return mock.patch.object(fine, "traction_equilibrium", balanced)
