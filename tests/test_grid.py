"""Grid topology: numbering, masks, boundary walks and node fans."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import ndimage

from twolevel_topopt.equilibrate import classify_nodes
from twolevel_topopt.grid import (
    EDGE_LNODES,
    NODE_FANS,
    BoundaryConditions,
    Grid,
    GridError,
)

from reference import EDGE_NORMALS, neighbor, node_classes


def l_mask(nx, ny):
    """L-domain: deactivate the upper-right quadrant."""
    active = np.ones((nx, ny), dtype=bool)
    active[nx // 2 :, ny // 2 :] = False
    return active


def test_index_round_trips():
    g = Grid(5, 3, 0.5, 0.25)
    for jx in range(6):
        for jy in range(4):
            assert g.node_index(g.node_id(jx, jy)) == (jx, jy)
    for ix in range(5):
        for iy in range(3):
            assert g.elem_index(g.elem_id(ix, iy)) == (ix, iy)


def test_elem_nodes_counter_clockwise():
    g = Grid(3, 2, 1.0, 1.0)
    e = g.elem_id(1, 1)
    nodes = g.elem_nodes[e]
    coords = g.node_coords(nodes)
    assert_allclose(coords, [(1, 1), (2, 1), (2, 2), (1, 2)])
    # signed area of the corner loop is positive for ccw ordering
    x, y = coords[:, 0], coords[:, 1]
    area = 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
    assert area > 0


def test_edge_nodes_follow_corner_order():
    g = Grid(2, 2, 1.0, 1.0)
    for e in range(g.n_elems):
        for k in range(4):
            a, b = g.edge_nodes(e, k)
            assert a == g.elem_nodes[e][EDGE_LNODES[k][0]]
            assert b == g.elem_nodes[e][EDGE_LNODES[k][1]]


def test_edge_normals_point_outward():
    g = Grid(1, 1, 2.0, 3.0)
    center = g.node_coords(g.elem_nodes[0]).mean(axis=0)
    for k in range(4):
        a, b = g.edge_nodes(0, k)
        mid = 0.5 * (g.node_coords([a])[0] + g.node_coords([b])[0])
        assert (mid - center) @ EDGE_NORMALS[k] > 0


def test_boundary_edges_full_rectangle():
    g = Grid(4, 3, 1.0, 1.0)
    edges = g.boundary_edges()
    assert len(edges) == 2 * (4 + 3)
    for e, k in edges:
        assert neighbor(g, e, k) == -1


def test_boundary_edges_l_domain_include_reentrant_sides():
    g = Grid(4, 4, 1.0, 1.0, active=l_mask(4, 4))
    edges = set(g.boundary_edges())
    # the elements left of / below the missing quadrant expose new edges
    assert (g.elem_id(1, 2), 1) in edges
    assert (g.elem_id(2, 1), 2) in edges
    assert (g.elem_id(2, 2), 1) not in edges  # inactive element owns nothing


def test_inactive_elements_have_no_active_nodes_of_their_own():
    g = Grid(4, 4, 1.0, 1.0, active=l_mask(4, 4))
    far_corner = g.node_id(4, 4)
    assert not g.node_active[far_corner]
    shared_corner = g.node_id(2, 2)
    assert g.node_active[shared_corner]


def test_disconnected_mask_rejected():
    active = np.zeros((3, 3), dtype=bool)
    active[0, 0] = True
    active[2, 2] = True
    with pytest.raises(GridError):
        Grid(3, 3, 1.0, 1.0, active=active)


def test_serpentine_mask_accepted():
    # one path of width one that turns back on itself at alternate ends
    active = np.zeros((7, 5), dtype=bool)
    active[::2, :] = True
    active[1::4, -1] = True
    active[3::4, 0] = True
    g = Grid(7, 5, 1.0, 1.0, active=active)
    assert g.active_elems.size == 4 * 5 + 3


def test_blocks_touching_at_a_corner_rejected():
    active = np.zeros((4, 4), dtype=bool)
    active[:2, :2] = True
    active[2:, 2:] = True
    with pytest.raises(GridError, match="not edge-connected"):
        Grid(4, 4, 1.0, 1.0, active=active)


def test_empty_mask_rejected():
    with pytest.raises(GridError):
        Grid(2, 2, 1.0, 1.0, active=np.zeros((2, 2), dtype=bool))


def test_bad_dimensions_rejected():
    with pytest.raises(GridError):
        Grid(0, 2, 1.0, 1.0)
    with pytest.raises(GridError):
        Grid(2, 2, -1.0, 1.0)


def classified_fan(g, n):
    """Node n's (elements, edges, is_cycle) as classify_nodes orders them."""
    classes = classify_nodes(g, BoundaryConditions(), np.zeros(g.n_elems, dtype=bool))
    fan = node_classes(classes)[n]
    return fan.elements, fan.edges, fan.is_cycle


def test_interior_node_fan_is_ccw_cycle():
    g = Grid(3, 3, 1.0, 1.0)
    n = g.node_id(1, 1)
    elements, edges, is_cycle = classified_fan(g, n)
    assert is_cycle
    assert elements == [
        g.elem_id(1, 0),  # SE
        g.elem_id(1, 1),  # NE
        g.elem_id(0, 1),  # NW
        g.elem_id(0, 0),  # SW
    ]
    assert len(edges) == 4
    # edges[i] lies between elements[i-1] and elements[i] and touches the node
    for i in range(4):
        owner, ledge = edges[i]
        a, b = g.edge_nodes(owner, ledge)
        assert n in (a, b)
        assert owner == elements[i]
        assert neighbor(g, owner, ledge) == elements[i - 1]


def test_boundary_node_fan_is_chain_with_boundary_extremes():
    g = Grid(3, 3, 1.0, 1.0)
    n = g.node_id(0, 1)  # left boundary, mid-height
    elements, edges, is_cycle = classified_fan(g, n)
    assert not is_cycle
    assert elements == [g.elem_id(0, 0), g.elem_id(0, 1)]
    assert len(edges) == 3
    boundary = set(g.boundary_edges())
    assert tuple(edges[0]) in boundary
    assert tuple(edges[-1]) in boundary
    owner, ledge = edges[1]
    assert neighbor(g, owner, ledge) == elements[0]


def test_corner_node_fan_single_element():
    g = Grid(2, 2, 1.0, 1.0)
    elements, edges, is_cycle = classified_fan(g, g.node_id(0, 0))
    assert not is_cycle
    assert elements == [g.elem_id(0, 0)]
    assert len(edges) == 2


def test_reentrant_corner_fan_has_three_elements():
    g = Grid(4, 4, 1.0, 1.0, active=l_mask(4, 4))
    elements, edges, is_cycle = classified_fan(g, g.node_id(2, 2))
    assert not is_cycle
    assert len(elements) == 3
    assert len(edges) == 4
    # the ccw chain starts just past the missing quadrant and wraps the notch
    assert elements[0] == g.elem_id(1, 2)
    assert elements[-1] == g.elem_id(2, 1)


def test_non_manifold_node_rejected():
    active = np.array([[True, False], [False, True]])
    # two diagonal quads touch only at the center node; the mask is
    # edge-disconnected, which the constructor already rejects
    with pytest.raises(GridError):
        Grid(2, 2, 1.0, 1.0, active=active)


@st.composite
def connected_grids(draw):
    nx = draw(st.integers(min_value=1, max_value=4))
    ny = draw(st.integers(min_value=1, max_value=4))
    bits = draw(
        st.lists(st.booleans(), min_size=nx * ny, max_size=nx * ny).map(
            lambda v: np.array(v).reshape(nx, ny)
        )
    )
    try:
        return Grid(nx, ny, 0.5, 0.5, active=bits)
    except GridError:
        return Grid(nx, ny, 0.5, 0.5)


@settings(max_examples=60, deadline=None)
@given(connected_grids())
def test_node_fans_are_consistent_chains_or_cycles(g):
    try:
        classes = node_classes(
            classify_nodes(g, BoundaryConditions(), np.zeros(g.n_elems, dtype=bool)))
    except GridError:
        return  # non-manifold corner contact is a legal rejection
    boundary = set(g.boundary_edges())
    for n, fan in classes.items():
        elements, edges, is_cycle = fan.elements, fan.edges, fan.is_cycle
        m = len(elements)
        assert m >= 1
        assert len(edges) == (m if is_cycle else m + 1)
        for i, (owner, ledge) in enumerate(edges):
            assert n in g.edge_nodes(owner, ledge)
            prev = elements[i - 1] if (is_cycle or i > 0) else -1
            if is_cycle or 0 < i < m:
                assert owner == elements[i]
                assert neighbor(g, owner, ledge) == prev
        if not is_cycle:
            assert tuple(edges[0]) in boundary
            assert tuple(edges[-1]) in boundary


def _ref_fan(present):
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


def _ref_node_fan(g, n):
    """Node n's quadrant elements, walked one by one, and its _ref_fan."""
    jx, jy = g.node_index(n)
    present = []
    for ix, iy in ((jx, jy - 1), (jx, jy), (jx - 1, jy), (jx - 1, jy - 1)):  # SE NE NW SW
        inside = 0 <= ix < g.nx and 0 <= iy < g.ny
        present.append(g.elem_id(ix, iy) if inside and g.active[ix, iy] else -1)
    return present, _ref_fan(present)


def test_node_fans_table_matches_reference():
    # each quadrant stands in for its element id
    for code, fan in enumerate(NODE_FANS):
        ref = _ref_fan([q if code >> q & 1 else -1 for q in range(4)])
        if fan is None:
            assert ref is None
        else:
            quads, edges, is_cycle = fan
            assert (list(quads), list(edges), is_cycle) == ref


@st.composite
def masked_grids(draw):
    """The component of element (0, 0) in a random mask, non-manifold
    corner contacts included."""
    nx = draw(st.integers(min_value=1, max_value=6))
    ny = draw(st.integers(min_value=1, max_value=6))
    bits = np.array(draw(st.lists(st.booleans(), min_size=nx * ny, max_size=nx * ny)))
    bits = bits.reshape(nx, ny)
    bits[0, 0] = True
    labels, _ = ndimage.label(bits)
    return Grid(nx, ny, 0.5, 0.5, active=labels == labels[0, 0])


def _assert_fans_match_reference(g):
    """node_quadrants and the fans of classify_nodes match the reference
    walk; a non-manifold node fails the classification at the first one."""
    quadrants = g.node_quadrants()
    fans = {}
    for n in range(g.n_nodes):
        present, fans[n] = _ref_node_fan(g, n)
        assert quadrants[n].tolist() == present
    bad = [n for n, fan in fans.items() if fan is None]
    if bad:
        with pytest.raises(GridError, match=f"^non-manifold active region at node {bad[0]}$"):
            classify_nodes(g, BoundaryConditions(), np.zeros(g.n_elems, dtype=bool))
        return
    classes = node_classes(classify_nodes(g, BoundaryConditions(),
                                          np.zeros(g.n_elems, dtype=bool)))
    assert list(classes) == np.flatnonzero(g.node_active).tolist()
    for n, fan in classes.items():
        assert (fan.elements, fan.edges, fan.is_cycle) == fans[n]


def test_node_fan_matches_reference_at_a_non_manifold_node():
    active = np.ones((3, 3), dtype=bool)
    active[1, 1] = active[2, 2] = False  # elements (2, 1) and (1, 2) meet only at node (2, 2)
    g = Grid(3, 3, 1.0, 1.0, active=active)
    with pytest.raises(GridError, match=f"non-manifold active region at node {g.node_id(2, 2)}"):
        classify_nodes(g, BoundaryConditions(), np.zeros(g.n_elems, dtype=bool))
    _assert_fans_match_reference(g)


@settings(max_examples=200, deadline=None)
@given(masked_grids())
def test_node_fan_matches_reference_on_random_masks(g):
    _assert_fans_match_reference(g)


def test_bc_validate_rejects_interior_neumann_edge():
    g = Grid(3, 3, 1.0, 1.0)
    bc = BoundaryConditions()
    bc.fix_node(0)
    bc.fix_node(g.node_id(0, 1))
    bc.add_edge_traction(g.elem_id(1, 1), 0, (1, 0), (1, 0))
    with pytest.raises(GridError):
        bc.validate(g)


def test_bc_validate_rejects_inactive_dirichlet_node():
    g = Grid(4, 4, 1.0, 1.0, active=l_mask(4, 4))
    bc = BoundaryConditions()
    bc.fix_node(g.node_id(4, 4))
    with pytest.raises(GridError):
        bc.validate(g)


def test_bc_validate_requires_rigid_mode_removal():
    g = Grid(2, 2, 1.0, 1.0)
    bc = BoundaryConditions()
    bc.fix_node(0, mask=(True, False))
    with pytest.raises(GridError):
        bc.validate(g)


def test_bc_validate_rejects_fully_fixed_loaded_node():
    g = Grid(2, 2, 1.0, 1.0)
    bc = BoundaryConditions()
    for jy in range(3):
        bc.fix_node(g.node_id(0, jy))
    bc.add_edge_traction(g.elem_id(0, 0), 3, (1, 0), (1, 0))
    with pytest.raises(GridError, match="node 0 has both Dirichlet and Neumann data"):
        bc.validate(g)


def test_constrained_dofs_and_values_align():
    # dofs come back sorted whatever order the nodes were fixed in, and
    # every support holds its components at zero
    bc = BoundaryConditions()
    bc.fix_node(3)
    bc.fix_node(1, mask=(False, True))
    assert bc.constrained_dofs().tolist() == [3, 6, 7]
    assert [bc.dirichlet[n][0].tolist() for n in (1, 3)] == [[False, True], [True, True]]
    assert all(values.tolist() == [0.0, 0.0] for _, values in bc.dirichlet.values())


def test_fixing_a_node_again_adds_its_components():
    bc = BoundaryConditions()
    bc.fix_node(4, mask=(True, False))
    assert bc.dirichlet[4][0].tolist() == [True, False]
    bc.fix_node(4, mask=(False, True))
    bc.fix_node(4, mask=(True, False))  # x again: the union keeps y
    mask, values = bc.dirichlet[4]
    assert mask.tolist() == [True, True]
    assert values.tolist() == [0.0, 0.0]
    assert bc.constrained_dofs().tolist() == [8, 9]


def test_tractions_on_one_edge_sum():
    bc = BoundaryConditions()
    start, end = np.array([1.0, 0.0]), np.array([0.0, 2.0])
    bc.add_edge_traction(3, 1, start, end)
    bc.add_edge_traction(3, 1, (0.5, -1.0), (0.25, 0.0))
    start[0] = 9.0  # the stored tractions are copies
    assert [t.tolist() for t in bc.neumann[(3, 1)]] == [[1.5, -1.0], [0.25, 2.0]]


@settings(max_examples=60, deadline=None)
@given(connected_grids(), st.randoms(use_true_random=False))
def test_count_neighbours_matches_neighbor_loop(g, random):
    mask = np.array([random.random() < 0.5 for _ in range(g.n_elems)])
    counts = g.count_neighbours(mask)
    assert counts.shape == mask.shape
    for e in range(g.n_elems):
        expected = sum(
            1 for k in range(4) if neighbor(g, e, k) >= 0 and mask[neighbor(g, e, k)]
        )
        assert counts[e] == expected
    assert_allclose(g.count_neighbours(mask.reshape(g.nx, g.ny)), counts.reshape(g.nx, g.ny))


@settings(max_examples=80, deadline=None)
@given(connected_grids())
def test_boundary_edges_match_element_loop(g):
    # reference: every edge of every active element without an active
    # neighbour, by element and then by edge
    expected = [(int(e), k) for e in g.active_elems for k in range(4) if neighbor(g, e, k) < 0]
    edges = g.boundary_edges()
    assert edges == expected
    for e, k in edges:
        assert type(e) is int and type(k) is int
