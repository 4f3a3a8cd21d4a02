"""Traction equilibration: force polygons, node splits and the full field.

The node-splitting functions are checked two ways: against hand-computed
frozen cases and against independently assembled linear systems stating the
corner identities, action-reaction constraints and pole anchors directly.
Both routes must agree to near machine precision.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import ndimage

from twolevel_topopt import equilibrate as eq
from twolevel_topopt import fem, pipeline
from twolevel_topopt.grid import (
    EDGE_LNODES,
    BoundaryConditions,
    Grid,
    GridError,
    edge_lengths,
)

from reference import (
    CORNER_XI,
    EDGE_NORMALS,
    NodeClass,
    neighbor,
    node_classes,
    node_fan,
    stress_tractions,
)


# ---------------------------------------------------------------- centroid


def test_centroid_unit_square():
    r = eq.polygon_centroid((1, 0), (0, 1), (-1, 0), (0, -1))
    assert_allclose(r, (0.5, 0.5), atol=1e-14)


def test_centroid_triangle():
    # the fourth side has zero length, leaving the triangle (0,0),(1,0),(0,1)
    r = eq.polygon_centroid((1, 0), (-1, 1), (0, -1), (0, 0))
    assert_allclose(r, (1 / 3, 1 / 3), atol=1e-14)


def test_centroid_flat_polygon_midpoint_of_farthest_pair():
    # collapsed onto a segment: centroid at the midpoint of the extremes
    r = eq.polygon_centroid((1, 0), (1, 0), (-2, 0), (0, 0))
    assert_allclose(r, (1.0, 0.0), atol=1e-14)
    # flattened parallelogram, the shape uniform stress states produce
    a = np.array([0.3, -0.2])
    r = eq.polygon_centroid(a, a, -a, -a)
    assert_allclose(r, a, atol=1e-14)


def test_centroid_all_zero_forces():
    assert_allclose(eq.polygon_centroid((0, 0), (0, 0), (0, 0), (0, 0)), (0, 0))


def _in_triangle(pts, tri):
    a, b, c = tri

    def cross(u, vx, vy):
        return u[0] * vy - u[1] * vx

    s1 = cross(b - a, pts[:, 0] - a[0], pts[:, 1] - a[1])
    s2 = cross(c - b, pts[:, 0] - b[0], pts[:, 1] - b[1])
    s3 = cross(a - c, pts[:, 0] - c[0], pts[:, 1] - c[1])
    pos = (s1 >= 0) & (s2 >= 0) & (s3 >= 0)
    neg = (s1 <= 0) & (s2 <= 0) & (s3 <= 0)
    return pos | neg


def test_centroid_bowtie_matches_monte_carlo():
    # vertices (0,0),(2,0),(1.5,1),(0.5,-1): the first and third sides cross
    # at (1,0), so the two split triangles overlap and the doubly counted
    # part must drop out; the exact centroid works out to (1,0)
    forces = [(2.0, 0.0), (-0.5, 1.0), (-1.0, -2.0), (-0.5, 1.0)]
    r = eq.polygon_centroid(*forces)
    assert_allclose(r, (1.0, 0.0), atol=1e-12)

    V = np.array([[0, 0], [2, 0], [1.5, 1], [0.5, -1]], dtype=float)
    rng = np.random.default_rng(123)
    pts = rng.uniform([0, -1], [2, 1], size=(6_000_000, 2))
    keep = _in_triangle(pts, V[[0, 1, 3]]) ^ _in_triangle(pts, V[[1, 2, 3]])
    assert_allclose(pts[keep].mean(axis=0), r, atol=1e-3)


def test_side_forces_to_tractions_inverts_consistent_loads():
    # equilibrate_all turns split side forces into tractions with
    # fem.tractions_from_forces
    L = 0.7
    t_s, t_e = fem.tractions_from_forces((L / 3, 0.0), (L / 6, 0.0), L)
    assert_allclose(t_s, (1.0, 0.0), atol=1e-14)
    assert_allclose(t_e, (0.0, 0.0), atol=1e-14)
    rng = np.random.default_rng(5)
    for _ in range(10):
        t1, t2 = rng.normal(size=(2, 2))
        p1, p2 = fem.consistent_edge_loads(t1, t2, 1.3)
        r1, r2 = fem.tractions_from_forces(p1, p2, 1.3)
        assert_allclose(r1, t1, atol=1e-12)
        assert_allclose(r2, t2, atol=1e-12)


# ------------------------------------------------------------- node splits


def _split_chain(g, first, last):
    """Split a void-free chain with the poles of its class, first and last
    flagging its reaction extremes."""
    g = np.array(g, dtype=float)
    return eq.split_node(g, eq.fan_poles(g, False, first, last, [False] * len(g)))


def test_split_internal_square_example():
    forces = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)]
    sides, lam = eq.split_node(forces, np.tile([0.5, 0.5], (4, 1)))
    assert_allclose(sides[0][0], (0.5, 0.5), atol=1e-14)
    assert_allclose(sides[0][1], (0.5, -0.5), atol=1e-14)
    assert_allclose(lam, (0.0, 0.0), atol=1e-14)
    for c in range(4):
        assert_allclose(sides[c][0] + sides[c][1], forces[c], atol=1e-14)
        assert_allclose(sides[c][1], -sides[(c + 1) % 4][0], atol=0)


def test_split_internal_identities_any_pole():
    rng = np.random.default_rng(17)
    for _ in range(25):
        forces = rng.normal(size=(4, 2))
        forces[3] = -forces[:3].sum(axis=0)
        pole = rng.normal(size=2) * 3
        sides, lam = eq.split_node(list(forces), np.tile(pole, (4, 1)))
        assert_allclose(lam, 0.0, atol=1e-14)
        for c in range(4):
            assert_allclose(sides[c][0] + sides[c][1], forces[c], atol=1e-13)
            # action-reaction is exact by construction, not just close
            assert np.array_equal(sides[c][1], -sides[(c + 1) % 4][0])


def test_split_internal_defect_lands_in_last_element():
    rng = np.random.default_rng(18)
    forces = rng.normal(size=(4, 2))  # deliberately not closed
    pole = np.array([0.2, -0.4])
    sides, lam = eq.split_node(list(forces), np.tile(pole, (4, 1)))
    assert_allclose(lam, forces.sum(axis=0), atol=1e-14)
    for c in range(3):
        assert_allclose(sides[c][0] + sides[c][1], forces[c], atol=1e-13)
    assert_allclose(sides[3][0] + sides[3][1] + lam, forces[3], atol=1e-13)


def _assemble_internal(forces, pole):
    """Independent route: 18x18 system in the 16 side-force components and
    the closure defect, built from corner identities, action-reaction rows
    and the pole anchor."""
    A = np.zeros((18, 18))
    b = np.zeros(18)
    row = 0
    for c in range(4):
        for d in range(2):
            A[row, 4 * c + d] = 1.0
            A[row, 4 * c + 2 + d] = 1.0
            if c == 3:
                A[row, 16 + d] = 1.0
            b[row] = forces[c][d]
            row += 1
    for i in range(4):
        for d in range(2):
            A[row, 4 * i + d] = 1.0
            A[row, 4 * ((i - 1) % 4) + 2 + d] = 1.0
            row += 1
    for d in range(2):
        A[row, d] = 1.0
        b[row] = pole[d]
        row += 1
    x, _, rank, _ = np.linalg.lstsq(A, b, rcond=None)
    return x, rank


def test_split_internal_matches_assembled_system():
    rng = np.random.default_rng(42)
    for k in range(40):
        forces = rng.normal(size=(4, 2))
        if k % 2 == 0:
            forces[3] = -forces[:3].sum(axis=0)
        pole = rng.normal(size=2)
        sides, lam = eq.split_node(list(forces), np.tile(pole, (4, 1)))
        x, rank = _assemble_internal(forces, pole)
        assert rank == 18
        geo = np.concatenate(
            [np.concatenate([sides[c][0], sides[c][1]]) for c in range(4)] + [lam]
        )
        assert_allclose(x, geo, atol=1e-10)


def test_split_dirichlet_symmetric_halves():
    F = np.array([0.8, -0.3])
    sides, lam = _split_chain([F, F], True, True)
    # the reactions act through the chain's extreme sides
    assert_allclose(sides[0][0], F, atol=1e-14)
    assert_allclose(sides[-1][1], F, atol=1e-14)
    # the interface between the two elements carries nothing
    assert_allclose(sides[0][1], 0.0, atol=1e-14)
    assert_allclose(sides[1][0], 0.0, atol=1e-14)
    assert_allclose(lam, 0.0)


def test_split_dirichlet_single_element_corner():
    F = np.array([1.0, 2.0])
    sides, lam = _split_chain([F], True, True)
    assert_allclose(sides[0][0], F / 2, atol=1e-14)
    assert_allclose(sides[-1][1], F / 2, atol=1e-14)
    assert_allclose(sides[0][0] + sides[0][1], F, atol=1e-14)


def test_split_dirichlet_outflow_and_identities():
    rng = np.random.default_rng(29)
    for m in (1, 2, 3):
        for _ in range(10):
            g = rng.normal(size=(m, 2))
            sides, lam = _split_chain(g, True, True)
            assert_allclose(lam, 0.0)
            assert_allclose(
                sides[0][0] + sides[-1][1], g.sum(axis=0), atol=1e-12
            )
            for c in range(m):
                assert_allclose(sides[c][0] + sides[c][1], g[c], atol=1e-12)
            for i in range(1, m):
                assert np.array_equal(sides[i][0], -sides[i - 1][1])


def _assemble_dirichlet_pair(g, pole):
    """Independent route for the two-element clamped chain: 8 unknowns
    (reaction, interface pair, reaction), anchored by the pole."""
    A = np.zeros((8, 8))
    b = np.zeros(8)
    row = 0
    for c in range(2):
        for d in range(2):
            A[row, 4 * c + d] = 1.0
            A[row, 4 * c + 2 + d] = 1.0
            b[row] = g[c][d]
            row += 1
    for d in range(2):
        A[row, 2 + d] = 1.0
        A[row, 4 + d] = 1.0
        row += 1
    for d in range(2):
        A[row, d] = 1.0
        b[row] = pole[d]
        row += 1
    x, _, rank, _ = np.linalg.lstsq(A, b, rcond=None)
    return x, rank


def test_split_dirichlet_matches_assembled_system():
    rng = np.random.default_rng(31)
    for _ in range(30):
        g = rng.normal(size=(2, 2))
        # the pole is the centroid of the polygon closed by the total reaction
        pole = eq.polygon_centroid(g[0], g[1], -g.sum(axis=0), np.zeros(2))
        sides, _ = _split_chain(g, True, True)
        x, rank = _assemble_dirichlet_pair(g, pole)
        assert rank == 8
        geo = np.concatenate([sides[0][0], sides[0][1], sides[1][0], sides[1][1]])
        assert_allclose(x, geo, atol=1e-10)


def test_split_neumann_unloaded_example():
    sides, lam = _split_chain([(2.0, 0.0), (-2.0, 0.0)], False, False)
    assert_allclose(lam, 0.0, atol=1e-14)
    assert_allclose(sides[0][0], (0.0, 0.0))  # boundary edges keep their
    assert_allclose(sides[1][1], (0.0, 0.0))  # prescribed (zero) share
    assert_allclose(sides[0][1], (2.0, 0.0), atol=1e-14)
    assert_allclose(sides[1][0], (-2.0, 0.0), atol=1e-14)


def test_split_neumann_fully_loaded_is_silent():
    # when the prescription already accounts for the whole nodal force the
    # homogeneous part vanishes entirely
    sides, lam = _split_chain([(0.0, 0.0), (0.0, 0.0)], False, False)
    for c in range(2):
        assert_allclose(sides[c][0], 0.0)
        assert_allclose(sides[c][1], 0.0)
    assert_allclose(lam, 0.0)


def test_split_neumann_defect_absorbed_mid_chain():
    rng = np.random.default_rng(37)
    g = rng.normal(size=(3, 2))
    sides, lam = _split_chain(g, False, False)
    assert_allclose(lam, g.sum(axis=0), atol=1e-14)
    assert_allclose(sides[0][0], 0.0)
    assert_allclose(sides[2][1], 0.0)
    assert_allclose(sides[0][0] + sides[0][1], g[0], atol=1e-13)
    assert_allclose(sides[2][0] + sides[2][1], g[2], atol=1e-13)
    assert_allclose(sides[1][0] + sides[1][1] + lam, g[1], atol=1e-13)


def test_split_chain_void_solid_void_mirrors():
    # The end elements of a chain are not adjacent: clamped at both ends,
    # with a void at each end, the solid middle element halves its force
    # between its two edges, and reversing the fan mirrors the split
    # (element c and its two sides swap with element m - 1 - c).
    g = np.random.default_rng(39).normal(size=(3, 2)) * [[1e-3], [1.0], [1e-3]]
    voids = [True, False, True]
    sides, lam = eq.split_node(g, eq.fan_poles(g, False, True, True, voids))
    mirrored, lam_mirrored = eq.split_node(g[::-1], eq.fan_poles(g[::-1], False, True, True,
                                                                 voids))
    assert_allclose(mirrored, sides[::-1, ::-1], atol=1e-14)
    assert_allclose(sides[1], [0.5 * g[1], 0.5 * g[1]], atol=1e-14)
    assert_allclose(lam, 0.0)
    assert_allclose(lam_mirrored, 0.0)


def test_split_neumann_single_reaction_balances():
    rng = np.random.default_rng(38)
    for m in (1, 2, 3):
        for first in (True, False):
            g = rng.normal(size=(m, 2))
            sides, lam = _split_chain(g, first, not first)
            assert_allclose(lam, 0.0)
            reaction = sides[0][0] if first else sides[-1][1]
            assert_allclose(reaction, g.sum(axis=0), atol=1e-13)
            free_end = sides[-1][1] if first else sides[0][0]
            assert_allclose(free_end, 0.0, atol=1e-14)
            for c in range(m):
                assert_allclose(sides[c][0] + sides[c][1], g[c], atol=1e-13)


def _assemble_neumann_chain(g, m):
    """Independent route for the free chain: 4m side-force components plus
    the defect, with both extremes pinned to their prescriptions."""
    n = 4 * m + 2
    A = np.zeros((n, n))
    b = np.zeros(n)
    mid = (m - 1) // 2
    row = 0
    for c in range(m):
        for d in range(2):
            A[row, 4 * c + d] = 1.0
            A[row, 4 * c + 2 + d] = 1.0
            if c == mid:
                A[row, 4 * m + d] = 1.0
            b[row] = g[c][d]
            row += 1
    for i in range(1, m):
        for d in range(2):
            A[row, 4 * i + d] = 1.0
            A[row, 4 * (i - 1) + 2 + d] = 1.0
            row += 1
    for d in range(2):
        A[row, d] = 1.0
        row += 1
    for d in range(2):
        A[row, 4 * (m - 1) + 2 + d] = 1.0
        row += 1
    x, _, rank, _ = np.linalg.lstsq(A, b, rcond=None)
    return x, rank, n


def test_split_neumann_matches_assembled_system():
    rng = np.random.default_rng(43)
    for m in (1, 2, 3, 4):
        for _ in range(10):
            g = rng.normal(size=(m, 2))
            sides, lam = _split_chain(g, False, False)
            x, rank, n = _assemble_neumann_chain(g, m)
            assert rank == n
            geo = np.concatenate(
                [np.concatenate([sides[c][0], sides[c][1]]) for c in range(m)]
                + [lam]
            )
            assert_allclose(x, geo, atol=1e-10)


# ----------------------------------------------------------- classification


def cantilever(nx, ny, hx=1.0, hy=1.0):
    g = Grid(nx, ny, hx, hy)
    bc = BoundaryConditions()
    for jy in range(ny + 1):
        bc.fix_node(g.node_id(0, jy))
    bc.add_edge_traction(g.elem_id(nx - 1, 0), 1, (0.0, -1.0), (0.0, -1.0))
    return g, bc


def test_classify_cantilever_census():
    g, bc = cantilever(4, 3)
    classes = node_classes(eq.classify_nodes(g, bc, np.zeros(g.n_elems, dtype=bool)))
    assert len(classes) == 5 * 4
    kinds = {n: c.kind for n, c in classes.items()}
    assert kinds[g.node_id(2, 1)] == "internal"
    assert kinds[g.node_id(0, 1)] == "dirichlet-standard"
    assert kinds[g.node_id(0, 0)] == "dirichlet-outer-corner"
    assert kinds[g.node_id(0, 3)] == "dirichlet-outer-corner"
    assert kinds[g.node_id(4, 0)] == "neumann-outer-corner"
    assert kinds[g.node_id(2, 0)] == "neumann-standard"
    assert kinds[g.node_id(4, 2)] == "neumann-standard"
    counts = {}
    for c in classes.values():
        counts[c.kind] = counts.get(c.kind, 0) + 1
    assert counts == {
        "internal": 6,
        "dirichlet-standard": 2,
        "dirichlet-outer-corner": 2,
        "neumann-standard": 8,
        "neumann-outer-corner": 2,
    }


def test_classify_reentrant_corner():
    active = np.ones((4, 4), dtype=bool)
    active[2:, 2:] = False
    g = Grid(4, 4, 1.0, 1.0, active=active)
    bc = BoundaryConditions()
    for jy in range(5):
        bc.fix_node(g.node_id(0, jy))
    classes = node_classes(eq.classify_nodes(g, bc, np.zeros(g.n_elems, dtype=bool)))
    assert classes[g.node_id(2, 2)].kind == "neumann-reentrant"
    assert len(classes[g.node_id(2, 2)].elements) == 3
    # inactive quadrant nodes carry no class at all
    assert g.node_id(4, 4) not in classes
    assert g.node_id(3, 3) not in classes


def test_classify_void_adjacency_kinds():
    g = Grid(4, 4, 1.0, 1.0)
    bc = BoundaryConditions()
    for jy in range(5):
        bc.fix_node(g.node_id(0, jy))
    voids = np.zeros(g.n_elems, dtype=bool)
    for ix, iy in ((2, 2), (2, 3), (3, 2), (3, 3)):
        voids[g.elem_id(ix, iy)] = True
    classes = node_classes(eq.classify_nodes(g, bc, voids))
    assert classes[g.node_id(2, 2)].kind == "internal-void-adjacent-1"
    assert classes[g.node_id(3, 2)].kind == "internal-void-adjacent-2"
    assert classes[g.node_id(3, 3)].kind == "internal-void-adjacent-4"
    assert classes[g.node_id(1, 1)].kind == "internal"


def test_classify_rejects_checkerboard_voids():
    g = Grid(3, 3, 1.0, 1.0)
    bc = BoundaryConditions()
    for jy in range(4):
        bc.fix_node(g.node_id(0, jy))
    voids = np.zeros(g.n_elems, dtype=bool)
    voids[g.elem_id(1, 0)] = True
    voids[g.elem_id(0, 1)] = True
    with pytest.raises(eq.EquilibrationError):
        eq.classify_nodes(g, bc, voids)


def test_classify_rejects_three_void_neighbours():
    g = Grid(3, 3, 1.0, 1.0)
    bc = BoundaryConditions()
    for jy in range(4):
        bc.fix_node(g.node_id(0, jy))
    voids = np.zeros(g.n_elems, dtype=bool)
    for ix, iy in ((0, 1), (1, 0), (1, 2)):
        voids[g.elem_id(ix, iy)] = True
    with pytest.raises(eq.EquilibrationError):
        eq.classify_nodes(g, bc, voids)


def test_classify_rejects_three_void_neighbours_around_solid_corners():
    # the diagonals are void too, so every node sees adjacent voids and only
    # the neighbour census can reject the middle element
    g = Grid(3, 3, 1.0, 1.0)
    bc = BoundaryConditions()
    for jy in range(4):
        bc.fix_node(g.node_id(0, jy))
    voids = np.zeros(g.n_elems, dtype=bool)
    for ix, iy in ((0, 0), (1, 0), (2, 0), (0, 1), (2, 1)):
        voids[g.elem_id(ix, iy)] = True
    with pytest.raises(eq.EquilibrationError, match="element 4 has 3 void"):
        eq.classify_nodes(g, bc, voids)


def _ref_classify_nodes(grid, bc, void_mask):
    """classify_nodes one node at a time, each fan walked by node_fan from
    the node's row of Grid.node_quadrants, as a dict."""
    void_mask = np.asarray(void_mask, dtype=bool).ravel()

    def edge_is_dirichlet(elem, ledge):
        if (elem, ledge) in bc.neumann:
            return False
        n1, n2 = grid.edge_nodes(elem, ledge)
        return n1 in bc.dirichlet and n2 in bc.dirichlet

    n_void = grid.count_neighbours(void_mask)
    crowded = np.flatnonzero(grid.active.ravel(order="C") & ~void_mask & (n_void >= 3))
    if crowded.size:
        e = crowded[0]
        raise eq.EquilibrationError(
            f"element {e} has {n_void[e]} void edge-neighbours; it should "
            f"have been voided by the coarse freezing stage"
        )

    quadrants = grid.node_quadrants()
    classes = {}
    for n in np.flatnonzero(grid.node_active):
        fan = node_fan(quadrants[n].tolist())
        if fan is None:
            raise GridError(f"non-manifold active region at node {n}")
        elements, edges, is_cycle = fan
        voids = [bool(void_mask[e]) for e in elements]
        m = len(elements)
        if is_cycle:
            nv = sum(voids)
            if nv == 0:
                kind = "internal"
            elif nv == 2 and not any(voids[i] and voids[(i + 1) % m] for i in range(m)):
                raise eq.EquilibrationError(
                    f"node {n}: two opposite void neighbours (checkerboard "
                    f"pattern) cannot be split"
                )
            else:
                kind = f"internal-void-adjacent-{nv}"
            classes[n] = NodeClass(n, kind, elements, edges, True, voids)
            continue

        first_d = edge_is_dirichlet(*edges[0])
        last_d = edge_is_dirichlet(*edges[-1])
        d = int(first_d) + int(last_d)
        if d == 0:
            kind = {1: "neumann-outer-corner", 2: "neumann-standard"}.get(m, "neumann-reentrant")
        elif m == 2 and d == 2:
            kind = "dirichlet-standard"
        elif m == 1 and d == 1:
            kind = "dirichlet-outer-corner"
        elif m == 1 and d == 2:
            kind = "dirichlet-corner-clamped"
        else:
            kind = f"dirichlet-chain-{m}-{d}"
        classes[n] = NodeClass(n, kind, elements, edges, False, voids, (first_d, last_d))
    return classes


def test_classify_nodes_matches_reference_at_reentrant_reactions():
    # the reentrant node (2, 2) with both, one and none of its two notch
    # edges clamped: dirichlet-chain-3-2, -3-1 and neumann-reentrant
    active = np.ones((4, 4), dtype=bool)
    active[2:, 2:] = False
    g = Grid(4, 4, 1.0, 1.0, active=active)
    kinds = []
    for clamped in ([(2, 2), (3, 2), (2, 3)], [(2, 2), (3, 2)], [(2, 2)]):
        bc = BoundaryConditions()
        for jy in range(5):
            bc.fix_node(g.node_id(0, jy))
        for jx, jy in clamped:
            bc.fix_node(g.node_id(jx, jy))
        no_voids = np.zeros(g.n_elems, dtype=bool)
        classes = node_classes(eq.classify_nodes(g, bc, no_voids))
        assert classes == _ref_classify_nodes(g, bc, no_voids)
        kinds.append(classes[g.node_id(2, 2)].kind)
    assert kinds == ["dirichlet-chain-3-2", "dirichlet-chain-3-1", "neumann-reentrant"]


def _classify_nodes(g, bc, voids):
    return node_classes(eq.classify_nodes(g, bc, voids))


def _classification(classify, g, bc, voids):
    """classify's classes as a dict, or the type and message of its error."""
    try:
        return classify(g, bc, voids)
    except (GridError, eq.EquilibrationError) as exc:
        return type(exc), str(exc)


# --------------------------------------------------------------- full field


def test_equilibrate_uniaxial_patch_recovers_exact_tractions():
    g = Grid(4, 3, 0.5, 0.4)
    mat = fem.MaterialModel(E=200.0, nu=0.3, p=1.0)
    bc = BoundaryConditions()
    for jy in range(4):
        bc.fix_node(g.node_id(0, jy), mask=(True, False))
    bc.fix_node(g.node_id(0, 0), mask=(True, True))
    for iy in range(3):
        bc.add_edge_traction(g.elem_id(3, iy), 1, (1.0, 0.0), (1.0, 0.0))
    rho = np.ones(g.n_elems)
    sol = fem.solve(g, rho, mat, bc)
    field = eq.equilibrate_all(g, rho, mat, bc, sol.u, np.zeros(g.n_elems, dtype=bool))

    for e in g.active_elems:
        for k in range(4):
            nrm = EDGE_NORMALS[k]
            t_exact = np.array([nrm[0], 0.0])  # sigma = diag(1, 0), no shear
            t_s, t_e = field.tractions[e, k]
            assert_allclose(t_s, t_exact, atol=1e-10)
            assert_allclose(t_e, t_exact, atol=1e-10)


def test_equilibrate_cantilever_certificate():
    g, bc = cantilever(6, 3, 0.5, 0.5)
    mat = fem.MaterialModel(E=1000.0, nu=0.3, p=3.0)
    rng = np.random.default_rng(3)
    rho = rng.uniform(0.4, 1.0, g.n_elems)
    sol = fem.solve(g, rho, mat, bc)
    field = eq.equilibrate_all(g, rho, mat, bc, sol.u, np.zeros(g.n_elems, dtype=bool))
    rep = field.report

    assert rep.force_scale > 0
    assert np.linalg.norm(rep.net_force, axis=1).max() <= 1e-8 * rep.force_scale
    assert np.abs(rep.net_moment).max() <= 1e-8 * rep.moment_scale
    assert rep.max_lambda <= 1e-8 * rep.force_scale
    assert eq.action_reaction_residual(g, field) == 0.0

    # prescribed boundary tractions survive the splitting untouched
    t_s, t_e = field.tractions[g.elem_id(5, 0), 1]
    assert_allclose(t_s, (0.0, -1.0), atol=1e-14)
    assert_allclose(t_e, (0.0, -1.0), atol=1e-14)

    # summing every boundary edge's force, applied loads cancel reactions
    total = np.zeros(2)
    lengths = edge_lengths(g.hx, g.hy)
    for e, k in g.boundary_edges():
        total += np.add(*fem.consistent_edge_loads(*field.tractions[e, k], lengths[k]))
    assert_allclose(total, 0.0, atol=1e-10 * rep.force_scale)


def test_equilibrate_moment_balance_is_pole_independent():
    # the per-element moment residual must vanish about any reference point,
    # not just the centroid the report uses; spot-check one element by hand
    g, bc = cantilever(4, 2)
    mat = fem.MaterialModel(E=10.0, nu=0.25, p=1.0)
    rho = np.full(g.n_elems, 0.7)
    sol = fem.solve(g, rho, mat, bc)
    field = eq.equilibrate_all(g, rho, mat, bc, sol.u, np.zeros(g.n_elems, dtype=bool))
    coords = g.node_coords(np.arange(g.n_nodes))
    for e in (g.elem_id(1, 1), g.elem_id(3, 0)):
        for ref in (np.zeros(2), np.array([10.0, -3.0])):
            m_tot = 0.0
            for k in range(4):
                n1, n2 = g.edge_nodes(e, k)
                a, b = coords[n1] - ref, coords[n2] - ref
                t_s, t_e = field.tractions[e, k]
                L = edge_lengths(g.hx, g.hy)[k]
                dvec = b - a
                dt = t_e - t_s
                m_tot += L * (
                    (a[0] * t_s[1] - a[1] * t_s[0])
                    + 0.5 * ((a[0] * dt[1] - a[1] * dt[0]) + (dvec[0] * t_s[1] - dvec[1] * t_s[0]))
                    + (dvec[0] * dt[1] - dvec[1] * dt[0]) / 3.0
                )
            assert abs(m_tot) <= 1e-10 * field.report.moment_scale


def test_action_reaction_residual_matches_edge_loop():
    # random tractions on an L-shaped domain against a loop over every
    # active element's neighbours; edges facing the carved-out quadrant and
    # the outer boundary must not count
    active = np.ones((5, 4), dtype=bool)
    active[3:, 2:] = False
    g = Grid(5, 4, 0.4, 0.3, active=active)

    class Holder:
        pass

    holder = Holder()
    holder.tractions = np.random.default_rng(4).normal(size=(g.n_elems, 4, 2, 2))
    holder.tractions[~active.ravel()] = 100.0
    worst = 0.0
    for e in g.active_elems:
        for ledge in range(4):
            nbr = neighbor(g, e, ledge)
            if nbr >= 0:
                opp = (ledge + 2) % 4
                for end in (0, 1):
                    mismatch = holder.tractions[e, ledge, end] + holder.tractions[
                        nbr, opp, 1 - end
                    ]
                    worst = max(worst, np.abs(mismatch).max())
    assert eq.action_reaction_residual(g, holder) == worst


def test_stress_tractions_control_field():
    g, bc = cantilever(6, 3)
    mat = fem.MaterialModel(E=1000.0, nu=0.3, p=3.0)
    rng = np.random.default_rng(9)
    rho = rng.uniform(0.4, 1.0, g.n_elems)
    sol = fem.solve(g, rho, mat, bc)
    raw = stress_tractions(g, rho, mat, sol.u)
    assert raw.shape == (g.n_elems, 4, 2, 2)

    class Holder:
        pass

    holder = Holder()
    holder.tractions = raw
    field = eq.equilibrate_all(g, rho, mat, bc, sol.u, np.zeros(g.n_elems, dtype=bool))
    # raw FE stresses are discontinuous across edges; the equilibrated field
    # is continuous by construction
    assert eq.action_reaction_residual(g, holder) > 0.0
    assert eq.action_reaction_residual(g, field) == 0.0


def test_stress_tractions_exact_on_patch():
    g = Grid(3, 3, 0.5, 0.5)
    mat = fem.MaterialModel(E=200.0, nu=0.3, p=1.0)
    bc = BoundaryConditions()
    for jy in range(4):
        bc.fix_node(g.node_id(0, jy), mask=(True, False))
    bc.fix_node(g.node_id(0, 0), mask=(True, True))
    for iy in range(3):
        bc.add_edge_traction(g.elem_id(2, iy), 1, (1.0, 0.0), (1.0, 0.0))
    rho = np.ones(g.n_elems)
    sol = fem.solve(g, rho, mat, bc)
    raw = stress_tractions(g, rho, mat, sol.u)
    for e in g.active_elems:
        for k in range(4):
            nrm = EDGE_NORMALS[k]
            t_exact = np.array([nrm[0], 0.0])
            assert_allclose(raw[e, k, 0], t_exact, atol=1e-10)
            assert_allclose(raw[e, k, 1], t_exact, atol=1e-10)


def test_stress_tractions_uniform_stress_on_every_edge():
    # a linear displacement field strains every element uniformly, so each
    # edge end carries sigma . n of one full (sxx, syy, sxy) stress state
    g = Grid(3, 2, 0.5, 0.3)
    mat = fem.MaterialModel(E=200.0, nu=0.3, p=3.0)
    a = np.array([[1e-3, 4e-4], [-2e-4, 2e-3]])
    u = (g.node_coords(np.arange(g.n_nodes)) @ a.T).ravel()
    rho = np.full(g.n_elems, 0.5)
    sxx, syy, sxy = 0.5**3 * mat.D0 @ (a[0, 0], a[1, 1], a[0, 1] + a[1, 0])
    sigma = np.array([[sxx, sxy], [sxy, syy]])
    raw = stress_tractions(g, rho, mat, u)
    for k in range(4):
        assert_allclose(raw[:, k], np.broadcast_to(sigma @ EDGE_NORMALS[k], (g.n_elems, 2, 2)),
                        rtol=1e-12, atol=1e-15)


def test_stress_tractions_matches_element_loop():
    # reference: each element's corner stresses and edge tractions one at a
    # time; the products sum in another order, so agreement is to round-off
    active = np.ones((5, 4), dtype=bool)
    active[3:, 2:] = False
    g = Grid(5, 4, 0.4, 0.3, active=active)
    mat = fem.MaterialModel(E=50.0, nu=0.25, p=3.0)
    rng = np.random.default_rng(6)
    u = rng.normal(size=2 * g.n_nodes)
    rho = rng.uniform(0.1, 1.0, g.n_elems)
    ue = u[g.elem_dofs]
    expected = np.zeros((g.n_elems, 4, 2, 2))
    for e in g.active_elems:
        for k, (c_start, c_end) in enumerate(EDGE_LNODES):
            for end, corner in enumerate((c_start, c_end)):
                B = fem.strain_matrix(*CORNER_XI[corner], g.hx, g.hy)
                sxx, syy, sxy = rho[e] ** mat.p * (mat.D0 @ (B @ ue[e]))
                expected[e, k, end] = np.array([[sxx, sxy], [sxy, syy]]) @ EDGE_NORMALS[k]
    raw = stress_tractions(g, rho, mat, u)
    assert_allclose(raw, expected, rtol=0, atol=1e-14 * np.abs(expected).max())


def test_dump_tractions_csv(tmp_path):
    g, bc = cantilever(3, 2)
    mat = fem.MaterialModel(E=100.0, nu=0.3, p=1.0)
    rho = np.ones(g.n_elems)
    sol = fem.solve(g, rho, mat, bc)
    field = eq.equilibrate_all(g, rho, mat, bc, sol.u, np.zeros(g.n_elems, dtype=bool))
    path = tmp_path / "tractions.csv"
    eq.dump_tractions_csv(g, field, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("element,edge,")
    assert len(lines) == 1 + 4 * g.n_elems
    first = lines[1].split(",")
    assert int(first[0]) == 0 and int(first[1]) == 0
    recovered = np.array([float(v) for v in first[2:]])
    t_s, t_e = field.tractions[0, 0]
    assert_allclose(recovered, np.concatenate([t_s, t_e]))


@st.composite
def clamped_masks(draw):
    """A random connected mask clamped along its full left column, loaded on
    the right end of every row, with random void flags and densities."""
    nx = draw(st.integers(min_value=2, max_value=6))
    ny = draw(st.integers(min_value=1, max_value=6))
    cells = nx * ny
    bits = np.array(draw(st.lists(st.booleans(), min_size=cells, max_size=cells)))
    bits = bits.reshape(nx, ny)
    bits[0, :] = True
    labels, _ = ndimage.label(bits)
    active = labels == labels[0, 0]
    # Loads in steps of 1e-3: near-subnormal loads would leave the relative
    # bounds below to underflow.
    loads = draw(
        st.lists(
            st.lists(st.integers(-1000, 1000).map(lambda k: k / 1000.0), min_size=4,
                     max_size=4),
            min_size=ny, max_size=ny,
        )
    )
    voids = np.array(
        draw(st.lists(st.integers(0, 2), min_size=cells, max_size=cells))
    ) == 0
    rho = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=cells, max_size=cells)))
    hx, hy = draw(st.floats(0.2, 2.0)), draw(st.floats(0.2, 2.0))
    p = draw(st.sampled_from([1.0, 3.0]))
    return active, loads, voids & active.ravel(), rho, hx, hy, p


@settings(max_examples=300, deadline=None)
@given(clamped_masks(), st.lists(st.integers(0, 10**4), max_size=8))
def test_classify_nodes_matches_per_node_reference(case, fixed):
    # Extra clamped nodes anywhere on the active region give chains with
    # one or two reaction extremes next to the loaded ones.
    active, loads, voids, _, hx, hy, _ = case
    nx, ny = active.shape
    g = Grid(nx, ny, hx, hy, active=active)
    bc = BoundaryConditions()
    for jy in range(ny + 1):
        bc.fix_node(g.node_id(0, jy))
    for k in fixed:
        if g.node_active[k % g.n_nodes]:
            bc.fix_node(k % g.n_nodes)
    for iy, (tsx, tsy, tex, tey) in enumerate(loads):
        ix = np.flatnonzero(active[:, iy])[-1]
        bc.add_edge_traction(g.elem_id(ix, iy), 1, (tsx, tsy), (tex, tey))
    classes = _classification(_classify_nodes, g, bc, voids)
    reference = _classification(_ref_classify_nodes, g, bc, voids)
    assert classes == reference
    if isinstance(classes, dict):
        assert list(classes) == list(reference)
        counts = {}
        for cls in reference.values():
            counts[cls.kind] = counts.get(cls.kind, 0) + 1
        assert eq.classify_nodes(g, bc, voids).kind_counts() == counts


@settings(max_examples=200, deadline=None)
@given(clamped_masks())
def test_equilibrate_random_masks_certify_or_reject(case):
    # Reentrant chains and void-adjacent cycles with 1-3 voids arise here
    # that no fixture reaches. A case may be rejected up front; otherwise
    # action-reaction is exact and each element is out of balance by no more
    # than its FE input: the closure defects it absorbs (FE nodal residuals,
    # at most one per corner), the imbalance of its own FE corner forces
    # (round-off of rho^p K_e u_e, large where soft elements let the stiff
    # ones move far as rigid bodies) and round-off of the split itself.
    active, loads, voids, rho, hx, hy, p = case
    nx, ny = active.shape
    mat = fem.MaterialModel(E=1.0, nu=0.3, p=p)
    rho = np.where(voids, mat.rho_min, rho)
    try:
        g = Grid(nx, ny, hx, hy, active=active)
        bc = BoundaryConditions()
        for jy in range(ny + 1):
            bc.fix_node(g.node_id(0, jy))
        for iy, (tsx, tsy, tex, tey) in enumerate(loads):
            ix = np.flatnonzero(active[:, iy])[-1]
            bc.add_edge_traction(g.elem_id(ix, iy), 1, (tsx, tsy), (tex, tey))
        bc.validate(g)
        sol = fem.solve(g, rho, mat, bc)
        field = eq.equilibrate_all(g, rho, mat, bc, sol.u, void_mask=voids)
    except (GridError, eq.EquilibrationError, fem.SolverError):
        return
    rep = field.report
    assert eq.action_reaction_residual(g, field) == 0.0
    act = g.active_elems
    forces = fem.element_nodal_forces(g, rho, mat, sol.u)[act]
    corners = np.array([(-0.5, -0.5), (0.5, -0.5), (0.5, 0.5), (-0.5, 0.5)]) * (hx, hy)
    fe_force = np.linalg.norm(forces.sum(axis=1), axis=1)
    fe_moment = np.abs((corners[:, 0] * forces[..., 1] - corners[:, 1] * forces[..., 0]).sum(axis=1))
    slack = 1e-12 * rep.force_scale + 4.0 * rep.max_lambda
    assert (np.linalg.norm(rep.net_force[act], axis=1) <= fe_force + slack).all()
    assert (np.abs(rep.net_moment[act]) <= fe_moment + slack * max(hx, hy)).all()


# ------------------------------------------- per-node reference of the split
#
# The node-by-node split the batched one replaced, kept as the reference:
# each node's polygon, pole and side forces in plain per-vector numpy. The
# batched split must reproduce it bit for bit.


def _ref_cross(a, b):
    return a[0] * b[1] - a[1] * b[0]


def _ref_segment_crossing(p1, p2, p3, p4):
    d1 = np.asarray(p2) - p1
    d2 = np.asarray(p4) - p3
    denom = _ref_cross(d1, d2)
    if abs(denom) < 1e-14 * (np.abs(d1).sum() + np.abs(d2).sum() + 1e-300) ** 2:
        return None
    with np.errstate(divide="ignore", invalid="ignore"):
        s = _ref_cross(np.asarray(p3) - p1, d2) / denom
        t = _ref_cross(np.asarray(p3) - p1, d1) / denom
    if 1e-12 < s < 1 - 1e-12 and 1e-12 < t < 1 - 1e-12:
        return np.asarray(p1) + s * d1
    return None


def _ref_segment_midpoint(vertices):
    best = (0.0, vertices[0], vertices[0])
    for i in range(len(vertices)):
        for j in range(i + 1, len(vertices)):
            d = float(np.linalg.norm(vertices[i] - vertices[j]))
            if d > best[0]:
                best = (d, vertices[i], vertices[j])
    return 0.5 * (best[1] + best[2])


def _ref_polygon_centroid(F1, F2, F3, F4):
    forces = [np.asarray(F, dtype=float) for F in (F1, F2, F3, F4)]
    scale = max(np.linalg.norm(F) for F in forces)
    if scale == 0.0:
        return np.zeros(2)
    V = np.zeros((4, 2))
    V[1] = forces[0]
    V[2] = forces[0] + forces[1]
    V[3] = forces[0] + forces[1] + forces[2]
    a1 = 0.5 * _ref_cross(V[1] - V[0], V[3] - V[0])
    c1 = (V[0] + V[1] + V[3]) / 3.0
    a2 = 0.5 * _ref_cross(V[2] - V[1], V[3] - V[1])
    c2 = (V[1] + V[2] + V[3]) / 3.0
    crossing = _ref_segment_crossing(V[0], V[1], V[2], V[3])
    if crossing is None:
        crossing = _ref_segment_crossing(V[1], V[2], V[3], V[0])
    tiny = 1e-9 * scale * scale
    if crossing is None:
        area = a1 + a2
        if abs(area) >= tiny:
            return (a1 * c1 + a2 * c2) / area
        return _ref_segment_midpoint(V)
    a_ov = abs(0.5 * _ref_cross(V[1] - crossing, V[3] - crossing))
    c_ov = (crossing + V[1] + V[3]) / 3.0
    den = abs(a1) + abs(a2) - 2.0 * a_ov
    if abs(den) >= tiny:
        return (abs(a1) * c1 + abs(a2) * c2 - 2.0 * a_ov * c_ov) / den
    return _ref_segment_midpoint(V)


def _ref_void_aware_pole(vertices, voids, default):
    nv = sum(voids)
    m = len(voids)
    if nv == 0 or nv == m:
        return default
    if nv == 1:
        v = voids.index(True)
        return 0.5 * (vertices[v] + vertices[(v + 1) % len(vertices)])
    cycle = len(vertices) == m
    if nv == 2:
        # only a cycle's first and last elements are adjacent
        for i in range(m if cycle else m - 1):
            if voids[i] and voids[(i + 1) % m]:
                return vertices[(i + 1) % len(vertices)]
    s = voids.index(False)
    return 0.5 * (vertices[s] + vertices[(s + 1) % len(vertices)])


def _ref_pole(forces, W, voids):
    m = len(forces)
    if m == 1:
        pole = 0.5 * W[1]
    else:
        k = min(m, 3)
        pole = _ref_polygon_centroid(*forces[:k], -W[k], *[np.zeros(2)] * (3 - k))
    return _ref_void_aware_pole(W, list(voids), pole)


def _ref_split_node(forces, side, cls):
    m = len(cls.elements)
    edges = cls.edges[:m]
    g = forces[cls.elements, [k for _, k in edges]]
    W = np.cumsum(np.concatenate([np.zeros((1, 2)), g]), axis=0)
    write_first, write_last = True, True
    if cls.is_cycle:
        Q = _ref_pole(g, W[:m], cls.void_flags) - W[np.arange(m + 1) % m]
        lam = W[m].copy()
    else:
        write_first, write_last = cls.extreme_dirichlet
        if not write_first:
            g[0] -= side[edges[0]][0]
        if not write_last:
            g[-1] -= side[cls.edges[-1]][1]
        W = np.cumsum(np.concatenate([np.zeros((1, 2)), g]), axis=0)
        lam = np.zeros(2)
        if write_first and write_last:
            Q = _ref_pole(g, W, cls.void_flags) - W
        elif write_first or write_last:
            Q = (W[m] if write_first else W[0]) - W
        else:
            Q = -W
            Q[(m - 1) // 2 + 1 :] += W[m]
            lam = W[m].copy()
    for c, (e, k) in enumerate(edges):
        if c > 0 or write_first:
            side[e, k, 0] = Q[c]
        if c < m - 1 or write_last:
            side[e, (k + 3) % 4, 1] = -Q[c + 1]
    return lam


def _per_node_equilibrate(g, rho, mat, bc, u, void_mask):
    """(tractions, lambdas) from one node split at a time."""
    forces = fem.element_nodal_forces(g, rho, mat, u)
    classes = node_classes(eq.classify_nodes(g, bc, void_mask))
    side = np.full((g.n_elems, 4, 2, 2), np.nan)
    for e in g.active_elems:
        for k in range(4):
            if neighbor(g, e, k) < 0:
                data = bc.neumann.get((int(e), k))
                side[e, k] = 0.0 if data is None else fem.consistent_edge_loads(
                    data[0], data[1], edge_lengths(g.hx, g.hy)[k])
    lambdas = np.zeros((g.n_nodes, 2))
    for n, cls in classes.items():
        lambdas[n] = _ref_split_node(forces, side, cls)
    side[~g.active.ravel()] = 0.0
    lengths = np.array([g.hx, g.hy, g.hx, g.hy])[:, None]
    tractions = np.stack(fem.tractions_from_forces(side[:, :, 0], side[:, :, 1], lengths), axis=2)
    return tractions, lambdas


def _assert_matches_per_node(g, rho, mat, bc, void_mask):
    sol = fem.solve(g, rho, mat, bc)
    field = eq.equilibrate_all(g, rho, mat, bc, sol.u, void_mask=void_mask)
    tractions, lambdas = _per_node_equilibrate(g, rho, mat, bc, sol.u, void_mask)
    assert field.tractions.tobytes() == tractions.tobytes()
    assert field.report.max_lambda == max(np.linalg.norm(lam) for lam in lambdas)


def test_batched_split_matches_per_node_on_fixtures():
    # a uniform stress state (flat force polygons), a cantilever with every
    # void-adjacent cycle kind, and an L-shape with a reentrant chain
    g = Grid(4, 3, 0.5, 0.4)
    mat = fem.MaterialModel(E=200.0, nu=0.3, p=1.0)
    bc = BoundaryConditions()
    for jy in range(4):
        bc.fix_node(g.node_id(0, jy), mask=(True, False))
    bc.fix_node(g.node_id(0, 0))
    for iy in range(3):
        bc.add_edge_traction(g.elem_id(3, iy), 1, (1.0, 0.0), (1.0, 0.0))
    _assert_matches_per_node(g, np.ones(g.n_elems), mat, bc, np.zeros(g.n_elems, dtype=bool))

    g, bc = cantilever(5, 5)
    voids = np.zeros(g.n_elems, dtype=bool)
    for ix, iy in ((2, 2), (2, 3), (3, 2), (3, 3), (3, 4)):
        voids[g.elem_id(ix, iy)] = True
    mat = fem.MaterialModel(E=1000.0, nu=0.3, p=3.0)
    rho = np.where(voids, mat.rho_min, np.random.default_rng(8).uniform(0.3, 1.0, g.n_elems))
    _assert_matches_per_node(g, rho, mat, bc, voids)

    active = np.ones((4, 4), dtype=bool)
    active[2:, 2:] = False
    g = Grid(4, 4, 1.0, 0.5, active=active)
    bc = BoundaryConditions()
    for jy in range(5):
        bc.fix_node(g.node_id(0, jy))
    bc.add_edge_traction(g.elem_id(3, 0), 1, (0.0, -1.0), (0.3, -0.5))
    _assert_matches_per_node(g, np.full(g.n_elems, 0.8), mat, bc,
                             np.zeros(g.n_elems, dtype=bool))


@settings(max_examples=200, deadline=None)
@given(clamped_masks())
def test_batched_split_matches_per_node_on_random_masks(case):
    active, loads, voids, rho, hx, hy, p = case
    nx, ny = active.shape
    mat = fem.MaterialModel(E=1.0, nu=0.3, p=p)
    rho = np.where(voids, mat.rho_min, rho)
    try:
        g = Grid(nx, ny, hx, hy, active=active)
        bc = BoundaryConditions()
        for jy in range(ny + 1):
            bc.fix_node(g.node_id(0, jy))
        for iy, (tsx, tsy, tex, tey) in enumerate(loads):
            ix = np.flatnonzero(active[:, iy])[-1]
            bc.add_edge_traction(g.elem_id(ix, iy), 1, (tsx, tsy), (tex, tey))
        bc.validate(g)
        fem.solve(g, rho, mat, bc)
        eq.classify_nodes(g, bc, voids)
    except (GridError, eq.EquilibrationError, fem.SolverError):
        return
    _assert_matches_per_node(g, rho, mat, bc, voids)


@contextlib.contextmanager
def _polygon_sums():
    """Collects F1 + F2 + F3 + F4, summed in that order, of every batch of
    polygons that polygon_centroid receives while the block runs."""
    sums = []
    centroid = eq.polygon_centroid

    def summing(*sides):
        sums.append(sides[0] + sides[1] + sides[2] + sides[3])
        return centroid(*sides)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(eq, "polygon_centroid", summing)
        yield sums


@pytest.mark.parametrize("preset, block", [("example1", (12, 20, 4, 12)),
                                            ("example2", (4, 12, 4, 12))])
def test_fan_polygons_close_exactly_on_presets(preset, block):
    # fan_poles closes each polygon with -W[k], the running sum of the same
    # forces, so the sides sum to zero exactly and the centroid needs no
    # closure check; here with a block of void elements on each preset
    config = pipeline.preset_config(preset)
    g = config.build_grid()
    bc = config.build_bc(g)
    mat = config.coarse_material()
    x0, x1, y0, y1 = block
    voids = np.zeros((g.nx, g.ny), dtype=bool)
    voids[x0:x1, y0:y1] = True
    voids = voids.ravel() & g.active.ravel()
    rho = np.where(voids, mat.rho_min, np.random.default_rng(40).uniform(0.3, 1.0, g.n_elems))
    sol = fem.solve(g, rho, mat, bc)
    with _polygon_sums() as sums:
        eq.equilibrate_all(g, rho, mat, bc, sol.u, voids)
    assert sums
    for total in sums:
        assert not total.any()


@settings(max_examples=200, deadline=None)
@given(clamped_masks(), st.lists(st.integers(0, 10**4), max_size=8))
def test_fan_polygons_close_exactly_on_random_masks(case, fixed):
    # voids, reentrant corners and extra clamped nodes give every fan class
    active, loads, voids, rho, hx, hy, p = case
    nx, ny = active.shape
    mat = fem.MaterialModel(E=1.0, nu=0.3, p=p)
    rho = np.where(voids, mat.rho_min, rho)
    try:
        g = Grid(nx, ny, hx, hy, active=active)
        bc = BoundaryConditions()
        for jy in range(ny + 1):
            bc.fix_node(g.node_id(0, jy))
        for k in fixed:
            if g.node_active[k % g.n_nodes]:
                bc.fix_node(k % g.n_nodes)
        for iy, (tsx, tsy, tex, tey) in enumerate(loads):
            ix = np.flatnonzero(active[:, iy])[-1]
            bc.add_edge_traction(g.elem_id(ix, iy), 1, (tsx, tsy), (tex, tey))
        bc.validate(g)
        sol = fem.solve(g, rho, mat, bc)
        with _polygon_sums() as sums:
            eq.equilibrate_all(g, rho, mat, bc, sol.u, void_mask=voids)
    except (GridError, eq.EquilibrationError, fem.SolverError):
        return
    for total in sums:
        assert not total.any()


def test_centroid_batch_matches_one_polygon_at_a_time():
    # random, bow-tie, flat and all-zero polygons in one batch
    rng = np.random.default_rng(12)
    forces = rng.normal(size=(60, 4, 2))
    forces[:, 3] = -forces[:, :3].sum(axis=1)
    forces[40:45] = [(2.0, 0.0), (-0.5, 1.0), (-1.0, -2.0), (-0.5, 1.0)]
    a = rng.normal(size=(10, 1, 2))
    forces[45:55] = np.concatenate([a, a, -a, -a], axis=1)
    forces[55:] = 0.0
    batch = eq.polygon_centroid(*forces.transpose(1, 0, 2))
    for row, f in enumerate(forces):
        assert batch[row].tobytes() == _ref_polygon_centroid(*f).tobytes()
        assert eq.polygon_centroid(*f).tobytes() == batch[row].tobytes()


def test_dump_tractions_csv_matches_csv_writer(tmp_path):
    import csv

    active = np.ones((3, 2), dtype=bool)
    active[2, 1] = False
    g = Grid(3, 2, 1.0, 1.0, active=active)

    class Holder:
        pass

    holder = Holder()
    holder.tractions = np.random.default_rng(2).normal(size=(g.n_elems, 4, 2, 2))
    holder.tractions[0, 0] = [[-0.0, 0.0], [1e-300, -2.5e17]]
    holder.tractions[1, 2] = [[np.inf, -np.inf], [3.0, 1 / 3]]
    # a shared edge carries its values on both sides with opposite signs
    holder.tractions[2, 3] = -holder.tractions[0, 1, ::-1]
    holder.tractions[3, 1] = [[0.1, -0.1], [-0.1, 0.1]]
    # repr prints a NaN with its sign bit set as nan
    holder.tractions[4, 0] = [[np.copysign(np.nan, -1.0), np.nan], [-np.nan, 2.0]]
    assert np.signbit(holder.tractions[4, 0, 0, 0])
    path = tmp_path / "tractions.csv"
    eq.dump_tractions_csv(g, holder, path)

    expected = tmp_path / "expected.csv"
    with open(expected, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["element", "edge", "t_start_x", "t_start_y", "t_end_x", "t_end_y"])
        for e in g.active_elems:
            for k in range(4):
                t_s, t_e = holder.tractions[e, k]
                writer.writerow([e, k] + [repr(float(v)) for v in (*t_s, *t_e)])
    assert path.read_bytes() == expected.read_bytes()
