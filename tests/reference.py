"""Per-item reference views for the tests.

The program works on whole arrays. These views rebuild one record per node
or one lookup per edge, so the tests can compare the arrays against
hand-written expectations and slow one-at-a-time references.
"""

from dataclasses import dataclass

from twolevel_topopt.equilibrate import KINDS
from twolevel_topopt.grid import EDGE_NEIGHBOR_OFFSETS


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


def neighbor(grid, e, edge):
    """Active element sharing the given local edge of element e, or -1."""
    ix, iy = grid.elem_index(e)
    dx, dy = EDGE_NEIGHBOR_OFFSETS[edge]
    mx, my = ix + dx, iy + dy
    if 0 <= mx < grid.nx and 0 <= my < grid.ny and grid.active[mx, my]:
        return grid.elem_id(mx, my)
    return -1
