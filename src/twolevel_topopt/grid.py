"""Structured Cartesian grid of bilinear quadrilateral elements.

Elements and nodes are numbered column-major from the origin corner:
node id = jx*(ny+1) + jy, element id = ix*ny + iy. Element local nodes run
counter-clockwise from the lower-left corner, and local edges 0..3 are
bottom, right, top, left (start/end nodes in counter-clockwise order).
Non-rectangular domains are represented by deactivating elements of the
bounding rectangle; inactive elements carry no degrees of freedom.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Local corner order: (0,0), (1,0), (1,1), (0,1) in (ix, iy) offsets.
CORNER_OFFSETS = np.array([(0, 0), (1, 0), (1, 1), (0, 1)], dtype=int)

# Edge k connects local corners EDGE_LNODES[k] = (start, end), counter-clockwise.
EDGE_LNODES = ((0, 1), (1, 2), (2, 3), (3, 0))

# Neighbouring element offset across each edge.
EDGE_NEIGHBOR_OFFSETS = ((0, -1), (1, 0), (0, 1), (-1, 0))

# Quadrant q (SE, NE, NW, SW) of node (jx, jy) holds element (jx + dx, jy + dy).
QUAD_OFFSETS = ((0, -1), (0, 0), (-1, 0), (-1, -1))


def edge_lengths(hx, hy):
    """Lengths of local edges 0..3 (bottom, right, top, left) of an hx x hy element."""
    return np.array([hx, hy, hx, hy])


class GridError(ValueError):
    """Invalid grid configuration (bad dimensions, disconnected mask, ...)."""


class RigidModeError(GridError):
    """The supports leave a rigid-body mode, so the stiffness is singular."""


class Grid:
    """Cartesian mesh with an element activity mask.

    Parameters
    ----------
    nx, ny : int
        Element counts along x and y.
    hx, hy : float
        Element edge lengths.
    active : array-like of bool, shape (nx, ny), optional
        Element activity mask; defaults to all active. The active region
        must form a single edge-connected component.
    """

    def __init__(self, nx, ny, hx, hy, active=None):
        if nx < 1 or ny < 1:
            raise GridError(f"element counts must be positive, got {nx}x{ny}")
        if hx <= 0 or hy <= 0:
            raise GridError(f"element sizes must be positive, got {hx}, {hy}")
        self.nx = int(nx)
        self.ny = int(ny)
        self.hx = float(hx)
        self.hy = float(hy)

        if active is None:
            active = np.ones((self.nx, self.ny), dtype=bool)
        active = np.asarray(active, dtype=bool)
        if active.shape != (self.nx, self.ny):
            raise GridError(
                f"active mask shape {active.shape} does not match {(self.nx, self.ny)}"
            )
        if not active.any():
            raise GridError("active region is empty")
        self.active = active
        self._check_connected()

        self.n_nodes = (self.nx + 1) * (self.ny + 1)
        self.n_elems = self.nx * self.ny

        eix, eiy = np.meshgrid(np.arange(self.nx), np.arange(self.ny), indexing="ij")
        eix = eix.ravel(order="C")  # element e -> ix = e // ny
        eiy = eiy.ravel(order="C")
        n00 = (eix) * (self.ny + 1) + eiy
        self.elem_nodes = np.stack(
            [n00, n00 + (self.ny + 1), n00 + (self.ny + 2), n00 + 1], axis=1
        )
        self.elem_dofs = np.repeat(2 * self.elem_nodes, 2, axis=1)
        self.elem_dofs[:, 1::2] += 1

        self.active_elems = np.flatnonzero(self.active.ravel(order="C"))
        self.node_active = np.zeros(self.n_nodes, dtype=bool)
        self.node_active[self.elem_nodes[self.active_elems].ravel()] = True

    # -- index maps ---------------------------------------------------------

    def node_id(self, jx, jy):
        return jx * (self.ny + 1) + jy

    def node_index(self, n):
        return divmod(n, self.ny + 1)

    def node_coords(self, nodes):
        """Physical coordinates of the given node ids."""
        jx, jy = np.divmod(np.asarray(nodes), self.ny + 1)
        return np.stack([jx * self.hx, jy * self.hy], axis=-1)

    def elem_id(self, ix, iy):
        return ix * self.ny + iy

    def elem_index(self, e):
        return divmod(e, self.ny)

    def edge_nodes(self, e, edge):
        """Global (start, end) node ids of a local edge, counter-clockwise."""
        a, b = EDGE_LNODES[edge]
        nodes = self.elem_nodes[e]
        return int(nodes[a]), int(nodes[b])

    def count_neighbours(self, mask):
        """Per element, the number of active edge-neighbours flagged in mask.

        mask is per element, flat or (nx, ny); the counts come back in the
        same shape.
        """
        flagged = np.asarray(mask, dtype=bool).reshape(self.nx, self.ny) & self.active
        counts = np.zeros((self.nx, self.ny), dtype=int)
        counts[:-1, :] += flagged[1:, :]
        counts[1:, :] += flagged[:-1, :]
        counts[:, :-1] += flagged[:, 1:]
        counts[:, 1:] += flagged[:, :-1]
        return counts.reshape(np.shape(mask))

    # -- boundary topology ---------------------------------------------------

    def boundary_edges(self):
        """All (element id, local edge id) pairs on the active boundary.

        Every active-element edge not shared with another active element is
        returned exactly once, by element and then by edge.
        """
        padded = np.pad(self.active, 1)
        ix, iy = np.divmod(self.active_elems, self.ny)
        open_sides = np.stack(
            [~padded[ix + 1 + dx, iy + 1 + dy] for dx, dy in EDGE_NEIGHBOR_OFFSETS], axis=1
        )
        rows, edges = np.nonzero(open_sides)
        return list(zip(self.active_elems[rows].tolist(), edges.tolist()))

    def node_quadrants(self):
        """Per node, the active element in each quadrant (SE, NE, NW, SW), or
        -1, as an (n_nodes, 4) array."""
        ids = np.full((self.nx + 2, self.ny + 2), -1)
        ids[1:-1, 1:-1] = np.where(self.active, np.arange(self.n_elems).reshape(self.nx, self.ny),
                                   -1)
        return np.stack(
            [ids[1 + dx : 2 + dx + self.nx, 1 + dy : 2 + dy + self.ny].ravel()
             for dx, dy in QUAD_OFFSETS], axis=-1)

    def _check_connected(self):
        """The active region must be one edge-connected component."""
        if self.active.all():
            return
        seen = np.zeros((self.nx, self.ny), dtype=bool)
        start = tuple(np.argwhere(self.active)[0])
        stack = [start]
        seen[start] = True
        while stack:
            ix, iy = stack.pop()
            for dx, dy in EDGE_NEIGHBOR_OFFSETS:
                mx, my = ix + dx, iy + dy
                if (
                    0 <= mx < self.nx
                    and 0 <= my < self.ny
                    and self.active[mx, my]
                    and not seen[mx, my]
                ):
                    seen[mx, my] = True
                    stack.append((mx, my))
        if not (seen == self.active).all():
            raise GridError("active region is not edge-connected")


@dataclass
class BoundaryConditions:
    """Dirichlet supports and Neumann edge tractions.

    Supports fix displacement components at zero. dirichlet maps node id ->
    (mask, values): mask is a length-2 bool (x, y constrained) and values
    are always zero. The benchmark harness unpacks that pair per node, so
    it stays until the harness reads the mask alone. neumann maps (element
    id, local edge id) -> (t_start, t_end) linear traction endpoints in the
    element's counter-clockwise edge orientation.
    """

    dirichlet: dict = field(default_factory=dict)
    neumann: dict = field(default_factory=dict)

    def fix_node(self, node, mask=(True, True)):
        """Fix the masked components of node at zero; fixing a node again
        constrains the union of the components."""
        mask = np.asarray(mask, dtype=bool)
        if int(node) in self.dirichlet:
            mask = self.dirichlet[int(node)][0] | mask
        self.dirichlet[int(node)] = (mask, np.zeros(2))

    def add_edge_traction(self, elem, edge, t_start, t_end):
        """Add a linear traction to a boundary edge; tractions on one edge sum."""
        t_start = np.array(t_start, dtype=float)
        t_end = np.array(t_end, dtype=float)
        if (key := (int(elem), int(edge))) in self.neumann:
            old_start, old_end = self.neumann[key]
            with np.errstate(over="ignore"):
                t_start, t_end = old_start + t_start, old_end + t_end
            if not (np.isfinite(t_start).all() and np.isfinite(t_end).all()):
                raise GridError(f"tractions on edge {key} sum to a non-finite value")
        self.neumann[key] = (t_start, t_end)

    def validate(self, grid):
        """Check BC targets against the grid; raises GridError on conflicts."""
        boundary = set(grid.boundary_edges())
        for key in self.neumann:
            if key not in boundary:
                raise GridError(f"Neumann edge {key} is not on the active boundary")
        for node in self.dirichlet:
            if not grid.node_active[node]:
                raise GridError(f"Dirichlet node {node} is inactive")
        constrained = self.constrained_dofs()
        if len(constrained) < 3:
            raise RigidModeError("insufficient Dirichlet constraints for rigid modes")
        loaded_nodes = set()
        for (e, k) in self.neumann:
            a, b = grid.edge_nodes(e, k)
            loaded_nodes.update((a, b))
        for node, (mask, _) in self.dirichlet.items():
            if node in loaded_nodes and mask.all():
                # A fully fixed node may not also carry Neumann data.
                raise GridError(f"node {node} has both Dirichlet and Neumann data")

    def constrained_dofs(self):
        """Sorted array of constrained global dof indices."""
        dofs = []
        for node, (mask, _) in self.dirichlet.items():
            for comp in range(2):
                if mask[comp]:
                    dofs.append(2 * node + comp)
        return np.array(sorted(dofs), dtype=int)
