"""Plane-stress FE core: element matrices, assembly, loads and the solver."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from twolevel_topopt import fem
from twolevel_topopt.grid import BoundaryConditions, Grid

from reference import EDGE_NORMALS, element_stress


@pytest.fixture
def steelish():
    return fem.MaterialModel(E=1000.0, nu=0.3, p=1.0)


def test_material_validation():
    with pytest.raises(ValueError):
        fem.MaterialModel(E=-1.0, nu=0.3)
    with pytest.raises(ValueError):
        fem.MaterialModel(E=1.0, nu=0.5)
    with pytest.raises(ValueError):
        fem.MaterialModel(E=1.0, nu=0.3, p=0.5)
    with pytest.raises(ValueError):
        fem.MaterialModel(E=1.0, nu=0.3, rho_min=0.0)


def test_constitutive_matrix_plane_stress(steelish):
    E, nu = 1000.0, 0.3
    f = E / (1 - nu**2)
    expected = f * np.array([[1, nu, 0], [nu, 1, 0], [0, 0, (1 - nu) / 2]])
    assert_allclose(steelish.D0, expected)


def test_stiffness_symmetry_and_rigid_modes(steelish):
    ke = fem.element_stiffness(steelish, 0.7, 1.3)
    assert_allclose(ke, ke.T, atol=1e-12)
    # translations and an in-plane rotation about the centroid carry no energy
    tx = np.tile([1.0, 0.0], 4)
    ty = np.tile([0.0, 1.0], 4)
    corners = np.array([[0, 0], [0.7, 0], [0.7, 1.3], [0, 1.3]]) - [0.35, 0.65]
    rot = np.column_stack([-corners[:, 1], corners[:, 0]]).ravel()
    for mode in (tx, ty, rot):
        assert_allclose(ke @ mode, 0.0, atol=1e-9)
    # and exactly three zero eigenvalues, no spurious mechanisms
    w = np.linalg.eigvalsh(ke)
    assert np.sum(np.abs(w) < 1e-9 * w.max()) == 3


def test_stiffness_leading_entry_square_element(steelish):
    # closed form for a unit square bilinear quad: K[0,0] = 0.45 E / (1 - nu^2)
    ke = fem.element_stiffness(steelish, 1.0, 1.0)
    assert_allclose(ke[0, 0], 0.45 * 1000.0 / (1 - 0.09), rtol=1e-12)


def test_stiffness_scale_invariance(steelish):
    # plane stress stiffness depends on the aspect ratio, not absolute size
    assert_allclose(
        fem.element_stiffness(steelish, 2.0, 3.0),
        fem.element_stiffness(steelish, 0.2, 0.3),
        rtol=1e-12,
    )


def test_consistent_edge_loads_linear_exact():
    p_s, p_e = fem.consistent_edge_loads((1.0, 0.0), (0.0, 0.0), 1.0)
    assert_allclose(p_s, [1 / 3, 0.0])
    assert_allclose(p_e, [1 / 6, 0.0])
    # constant traction splits evenly
    p_s, p_e = fem.consistent_edge_loads((0.0, 2.0), (0.0, 2.0), 0.5)
    assert_allclose(p_s, [0.0, 0.5])
    assert_allclose(p_e, [0.0, 0.5])


def test_tractions_from_forces_round_trip():
    L = 0.7
    t_s, t_e = fem.tractions_from_forces((L / 3, 0.0), (L / 6, 0.0), L)
    assert_allclose(t_s, (1.0, 0.0), atol=1e-14)
    assert_allclose(t_e, (0.0, 0.0), atol=1e-14)
    rng = np.random.default_rng(7)
    for _ in range(25):
        t_s, t_e = rng.normal(size=(2, 2))
        length = rng.uniform(0.1, 3.0)
        p_s, p_e = fem.consistent_edge_loads(t_s, t_e, length)
        r_s, r_e = fem.tractions_from_forces(p_s, p_e, length)
        assert_allclose(r_s, t_s, atol=1e-12)
        assert_allclose(r_e, t_e, atol=1e-12)


def test_assemble_rejects_out_of_range_density(steelish):
    g = Grid(2, 1, 1.0, 1.0)
    with pytest.raises(ValueError):
        fem.assemble(g, np.array([0.5, 1.5]), steelish)
    with pytest.raises(ValueError):
        fem.assemble(g, np.array([0.5, 1e-9]), steelish)


def test_assemble_matches_dense_scatter(steelish):
    g = Grid(3, 2, 0.5, 0.8)
    rng = np.random.default_rng(3)
    rho = rng.uniform(0.2, 1.0, g.n_elems)
    ke = fem.element_stiffness(steelish, 0.5, 0.8)
    dense = np.zeros((2 * g.n_nodes, 2 * g.n_nodes))
    for e in range(g.n_elems):
        dofs = g.elem_dofs[e]
        dense[np.ix_(dofs, dofs)] += rho[e] * ke
    K = fem.assemble(g, rho, steelish)
    assert_allclose(K.toarray(), dense, atol=1e-12)


def clamp_left(g, bc):
    for jy in range(g.ny + 1):
        bc.fix_node(g.node_id(0, jy))


def dense_solve(g, rho, material, bc, f):
    """Reference displacements from a dense solve on the assembled stiffness."""
    dense = fem.assemble(g, rho, material).toarray()
    fixed = bc.constrained_dofs()
    active = np.flatnonzero(np.repeat(g.node_active, 2))
    free = np.setdiff1d(active, fixed)
    u = np.zeros(2 * g.n_nodes)
    u[free] = np.linalg.solve(dense[np.ix_(free, free)], f[free])
    return u


def full_beam():
    g = Grid(8, 4, 0.25, 0.25)
    bc = BoundaryConditions()
    clamp_left(g, bc)
    bc.add_edge_traction(g.elem_id(7, 0), 1, (0.0, -1.0), (0.0, -1.0))
    return g, bc


def masked_l_bracket():
    # L-shaped domain clamped along its upper arm: the dofs of the nodes
    # the mask removes are eliminated and stay zero
    active = np.ones((6, 6), dtype=bool)
    active[3:, 3:] = False
    g = Grid(6, 6, 0.3, 0.2, active=active)
    bc = BoundaryConditions()
    for jx in range(4):
        bc.fix_node(g.node_id(jx, 6))
    bc.add_edge_traction(g.elem_id(5, 1), 1, (0.0, -1.0), (0.5, -2.0))
    return g, bc


def test_solve_matches_dense_reference(steelish):
    for case in (full_beam, masked_l_bracket):
        g, bc = case()
        rng = np.random.default_rng(11)
        rho = rng.uniform(0.3, 1.0, g.n_elems)

        sol = fem.solve(g, rho, steelish, bc)

        f = fem.load_vector(g, bc)
        u_ref = dense_solve(g, rho, steelish, bc, f)

        assert_allclose(sol.u, u_ref, rtol=1e-9, atol=1e-12)
        assert_allclose(sol.compliance, f @ u_ref, rtol=1e-9)
        assert_allclose(sol.f, f)
        assert not sol.u[~np.repeat(g.node_active, 2)].any()


def test_compliance_equals_energy_sum(steelish):
    g = Grid(5, 3, 0.3, 0.4)
    bc = BoundaryConditions()
    clamp_left(g, bc)
    bc.add_edge_traction(g.elem_id(4, 2), 1, (1.0, 0.5), (0.0, 0.5))
    rho = np.linspace(0.2, 1.0, g.n_elems)
    sol = fem.solve(g, rho, steelish, bc)
    assert_allclose(sol.element_energy.sum(), sol.compliance, rtol=1e-10)
    contrib = fem.element_compliance_contributions(g, rho, steelish, sol.u)
    assert_allclose(contrib, sol.element_energy, rtol=1e-12, atol=1e-15)


def test_element_energy_masked_on_inactive(steelish):
    active = np.ones((4, 4), dtype=bool)
    active[2:, 2:] = False
    g = Grid(4, 4, 0.5, 0.5, active=active)
    bc = BoundaryConditions()
    clamp_left(g, bc)
    bc.add_edge_traction(g.elem_id(3, 0), 1, (0.0, -1.0), (0.0, -1.0))
    rho = np.full(g.n_elems, 0.5)
    sol = fem.solve(g, rho, steelish, bc)
    mask = np.zeros(g.n_elems, dtype=bool)
    mask[g.active_elems] = True
    assert_allclose(sol.element_energy[~mask], 0.0)
    assert np.all(sol.element_energy[mask] >= 0)


def test_patch_test_uniform_stress(steelish):
    # loading every boundary edge with sigma . n of one full stress state
    # (sxx, syy and sxy all nonzero) must give that exact uniform stress in
    # every element of a 4x2 grid; the three rigid-body constraints of a fine
    # cell (pin bottom-left, roll bottom-right) carry no reaction
    g = Grid(4, 2, 0.5, 0.5)
    a = np.array([[1.1e-3, 0.4e-3], [-0.2e-3, 0.9e-3]])
    strain = np.array([a[0, 0], a[1, 1], a[0, 1] + a[1, 0]])
    sigma_exact = steelish.D0 @ strain
    assert np.all(sigma_exact != 0.0)
    sxx, syy, sxy = sigma_exact
    bc = BoundaryConditions()
    bc.fix_node(g.node_id(0, 0))
    bc.fix_node(g.node_id(g.nx, 0), mask=(False, True))
    for e, k in g.boundary_edges():
        t = np.array([[sxx, sxy], [sxy, syy]]) @ EDGE_NORMALS[k]
        bc.add_edge_traction(e, k, t, t)
    rho = np.ones(g.n_elems)
    sol = fem.solve(g, rho, steelish, bc)
    reaction = fem.Operator(g, steelish, bc).check(rho, sol)
    assert reaction <= 1e-12 * np.abs(sol.f).max()

    for e in range(g.n_elems):
        ue = fem.element_displacements(g, sol.u)[e]
        for xi, eta in [(0, 0), (0.7, -0.3), (-1, 1)]:
            sigma = element_stress(steelish, 0.5, 0.5, ue, xi=xi, eta=eta)
            assert_allclose(sigma, sigma_exact, rtol=1e-10, atol=1e-16)


def test_element_nodal_forces_balance_assembled_product(steelish):
    g = Grid(4, 3, 0.4, 0.3)
    bc = BoundaryConditions()
    clamp_left(g, bc)
    bc.add_edge_traction(g.elem_id(3, 1), 1, (2.0, 1.0), (2.0, -1.0))
    rho = np.linspace(0.1, 1.0, g.n_elems)
    sol = fem.solve(g, rho, steelish, bc)
    forces = fem.element_nodal_forces(g, rho, steelish, sol.u)
    assert forces.shape == (g.n_elems, 4, 2)
    scattered = np.zeros(2 * g.n_nodes)
    for e in range(g.n_elems):
        np.add.at(scattered, g.elem_dofs[e], forces[e].ravel())
    K = fem.assemble(g, rho, steelish)
    assert_allclose(scattered, K @ sol.u, atol=1e-10 * np.abs(sol.f).max())


def test_solver_error_on_unremoved_rigid_mode(steelish):
    g = Grid(3, 1, 1.0, 1.0)
    bc = BoundaryConditions()
    # three constraints, but all horizontal: vertical translation survives
    # and the vertical load cannot be equilibrated
    bc.fix_node(g.node_id(0, 0), mask=(True, False))
    bc.fix_node(g.node_id(0, 1), mask=(True, False))
    bc.fix_node(g.node_id(3, 0), mask=(True, False))
    bc.add_edge_traction(g.elem_id(2, 0), 1, (0.0, 1.0), (0.0, 1.0))
    rho = np.ones(g.n_elems)
    with pytest.raises(fem.SolverError):
        fem.solve(g, rho, steelish, bc)


def test_one_blas_thread_pins_and_restores():
    libs = fem._openblas()
    if not libs:
        pytest.skip("no OpenBLAS loaded")
    saved = [get_threads() for _, get_threads in libs]
    try:
        for set_threads, _ in libs:
            set_threads(2)
        before = [get_threads() for _, get_threads in libs]
        with fem.one_blas_thread():
            assert [get_threads() for _, get_threads in libs] == [1] * len(libs)
        assert [get_threads() for _, get_threads in libs] == before
        assert fem.solve_blas_threads() == 1
        assert [get_threads() for _, get_threads in libs] == before
    finally:
        for (set_threads, _), count in zip(libs, saved):
            set_threads(count)


def _band_map_8x8(operator):
    """The bandwidth and the band map's (col, row, value) triples, from all
    8 x 8 local pairs of every active element kept on or below the diagonal."""
    grid = operator.grid
    remap = np.full(2 * grid.n_nodes, -1)
    remap[operator.keep] = np.arange(operator.keep.size)
    act = grid.active_elems
    dofs = remap[grid.elem_dofs[act]]
    rows = np.repeat(dofs, 8, axis=1).reshape(-1, 8, 8)
    cols = np.tile(dofs, (1, 8)).reshape(-1, 8, 8)
    lower = (rows >= 0) & (cols >= 0) & (rows >= cols)
    bandwidth = int((rows[lower] - cols[lower]).max())
    flat = (cols * (bandwidth + 1) + (rows - cols))[lower]
    elems = np.broadcast_to(np.arange(act.size)[:, None, None], lower.shape)[lower]
    kvals = np.broadcast_to(operator.ke[None, :, :], lower.shape)[lower]
    order = np.lexsort((flat, elems))
    return bandwidth, (elems[order], flat[order], kvals[order])


@pytest.mark.parametrize("case", ["example2", "fine-cell", "interior-supports"])
def test_band_map_matches_full_element_pairs(case):
    from twolevel_topopt import fine, pipeline

    if case == "fine-cell":
        operator = fine._CellSolver(32, 10 / 32, 10 / 32, fem.MaterialModel(E=1000.0, p=3.0))
    else:
        rows = [] if case == "example2" else [(10, 20, "xy"), (25, 10, "x"), (8, 5, "y")]
        config = pipeline.preset_config("example2", dirichlet=rows)
        grid = config.build_grid()
        operator = fem.Operator(grid, config.coarse_material(), config.build_bc(grid))
    bandwidth, expected = _band_map_8x8(operator)
    assert operator.bandwidth == bandwidth
    coo = operator.band_map.tocoo()
    order = np.lexsort((coo.row, coo.col))
    for got, want in zip((coo.col[order], coo.row[order], coo.data[order]), expected,
                         strict=True):
        assert np.array_equal(got, want)
