"""Per-cell fine optimization: projection, cell loading and the solve loop."""

from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from twolevel_topopt import coarse, fem, fine
from twolevel_topopt.grid import EDGE_LNODES, BoundaryConditions, Grid, edge_lengths


def uniaxial_tractions(sigma=1.0):
    """Pure x-tension: balanced tractions on the left and right edges."""
    t = np.zeros((4, 2, 2))
    t[1, :, 0] = sigma  # right edge, outward pull
    t[3, :, 0] = -sigma  # left edge
    return t


# ---------------------------------------------------------------- projection


def test_projection_fixed_points():
    for beta in (0.5, 1.0, 2.0, 8.0):
        out = fine.project_density(np.array([0.0, 0.5, 1.0]), beta)
        assert_allclose(out, [0.0, 0.5, 1.0], atol=1e-12)


def test_projection_frozen_value():
    out = fine.project_density(np.array([0.25]), 2.0)
    expected = 0.5 * (np.exp(-1.0) - 0.5 * np.exp(-2.0))
    assert_allclose(out, expected, rtol=1e-14)
    assert_allclose(out, 0.150105899776568, rtol=1e-12)


def test_projection_monotone_and_sharpening():
    rho = np.linspace(0.0, 1.0, 1001)
    for beta in (0.5, 2.0):
        out = fine.project_density(rho, beta)
        assert np.all(np.diff(out) >= -1e-12)
        below = rho <= 0.5
        assert np.all(out[below] <= rho[below] + 1e-12)
        assert np.all(out[~below] >= rho[~below] - 1e-12)


def test_projection_vanishing_beta_is_identity():
    rho = np.linspace(0.0, 1.0, 101)
    assert_allclose(fine.project_density(rho, 0.0), rho)
    assert np.abs(fine.project_density(rho, 1e-6) - rho).max() < 1e-5


def test_projection_params_beta_max_is_at_least_the_first_beta():
    assert fine.ProjectionParams(beta_max=1.0).beta_max == 1.0
    with pytest.raises(ValueError, match="beta_max must be at least 1"):
        fine.ProjectionParams(beta_max=0.5)


def test_nondiscreteness_values():
    assert fine.measure_nondiscreteness(np.full(10, 0.5)) == 100.0
    binary = np.array([0.0, 1.0, 1.0, 0.0])
    assert fine.measure_nondiscreteness(binary) == 0.0
    assert_allclose(fine.measure_nondiscreteness(np.full(7, 0.25)), 75.0)


# ------------------------------------------------------------- cell plumbing


def test_rigid_body_supports_three_constraints():
    n = 6
    g = Grid(n, n, 1.0 / n, 1.0 / n)
    bc = fine.rigid_body_supports(n)
    bc.validate(g)
    dofs = bc.constrained_dofs()
    assert dofs.size == 3
    assert 0 in dofs and 1 in dofs  # bottom-left pin
    assert 2 * g.node_id(n, 0) + 1 in dofs  # bottom-right roller, y only


def cell_mesh(problem):
    """The n x n fine grid of a problem's cell, as its _CellSolver builds it."""
    return Grid(problem.n, problem.n, problem.hx / problem.n, problem.hy / problem.n)


def dense_cell_solve(g, rho, material, bc, loads):
    """Reference cell displacements from a dense solve on fem.assemble."""
    free = np.setdiff1d(np.arange(2 * g.n_nodes), bc.constrained_dofs())
    K = fem.assemble(g, rho, material).toarray()
    u = np.zeros(2 * g.n_nodes)
    u[free] = np.linalg.solve(K[np.ix_(free, free)], loads[free])
    return u


def test_cell_solver_matches_general_solver():
    # Odd n and hx != hy pin the lower-band index formula. The random fields
    # span a 1e9 stiffness contrast: u agrees to 1e-9 |u|, which lets element
    # energies (compliance up to about 6 here) differ by about 1e-8.
    cases = [(8, 1.0, 1.0, 1e-10), (7, 1.0, 0.6, 1e-8), (5, 0.4, 1.1, 1e-8)]
    for n, hx, hy, energy_atol in cases:
        problem = fine.FineCellProblem(
            cell=0, target=0.5, tractions=uniaxial_tractions(), hx=hx, hy=hy, n=n
        )
        g = cell_mesh(problem)
        bc = fine.rigid_body_supports(problem.n)
        solver = fem.Operator(g, problem.material, bc)
        rng = np.random.default_rng(21)
        loads = fine.apply_cell_tractions(problem, g)
        for _ in range(5):
            rho = rng.uniform(problem.material.rho_min, 1.0, g.n_elems)
            fast = solver.solve(rho, loads)
            u_ref = dense_cell_solve(g, rho, problem.material, bc, loads)
            energy_ref = fem.element_compliance_contributions(
                g, rho, problem.material, u_ref
            )
            scale = np.abs(u_ref).max()
            assert_allclose(fast.u, u_ref, atol=1e-9 * scale)
            assert_allclose(fast.compliance, loads @ u_ref, rtol=1e-9)
            assert_allclose(
                fast.element_energy, energy_ref, rtol=1e-6, atol=energy_atol
            )
            free = solver.keep
            K = fem.assemble(g, rho, problem.material)[free][:, free]
            knorm = abs(K).sum(axis=1).max()
            assert_allclose(solver.norm_inf(rho), knorm, rtol=1e-12)


@pytest.mark.parametrize("balanced", [True, False])
def test_fine_cell_solve_final_check_matches_general_solver(balanced):
    t = bending_plus_tension_tractions()
    if not balanced:
        t[1, :, 1] = 0.5  # a net vertical force the supports must carry
    problem = fine.FineCellProblem(
        cell=0, target=0.4, tractions=t, hx=1.0, hy=0.7, n=9, max_iter=12,
        require_equilibrated=balanced,
    )
    result = fine.fine_cell_solve(problem)
    g = cell_mesh(problem)
    bc = fine.rigid_body_supports(problem.n)
    loads = fine.apply_cell_tractions(problem, g)
    u_ref = dense_cell_solve(g, result.rho, problem.material, bc, loads)
    K = fem.assemble(g, result.rho, problem.material)
    reaction = np.abs((K @ u_ref - loads)[bc.constrained_dofs()]).max()
    assert_allclose(result.compliance, loads @ u_ref, rtol=1e-9)
    if balanced:
        assert reaction <= 1e-9 * result.reaction_scale
        assert result.max_reaction <= 1e-9 * result.reaction_scale
    else:
        assert reaction > 1e-3 * result.reaction_scale
        assert_allclose(result.max_reaction, reaction, rtol=1e-9)


def test_cell_solver_reaction_check_rejects_inexact_solution():
    problem = fine.FineCellProblem(
        cell=0, target=0.5, tractions=bending_plus_tension_tractions(), hx=1.0,
        hy=1.0, n=6,
    )
    g = cell_mesh(problem)
    bc = fine.rigid_body_supports(problem.n)
    solver = fem.Operator(g, problem.material, bc)
    rng = np.random.default_rng(3)
    rho = rng.uniform(0.2, 1.0, g.n_elems)
    solution = solver.solve(rho, fine.apply_cell_tractions(problem, g))
    assert solver.check(rho, solution) <= 1e-10 * np.abs(solution.f).max()
    # an error of 1e-6 |u| in a random direction leaves a residual far above
    # the backward-error bound
    noise = rng.normal(size=solver.keep.size)
    scale = 1e-6 * np.linalg.norm(solution.u) / np.linalg.norm(noise)
    solution.u[solver.keep] += scale * noise
    with pytest.raises(fem.SolverError):
        solver.check(rho, solution)


def test_cell_solver_rejects_bad_density():
    problem = fine.FineCellProblem(
        cell=0, target=0.5, tractions=uniaxial_tractions(), hx=1.0, hy=1.0, n=4
    )
    g = cell_mesh(problem)
    bc = fine.rigid_body_supports(problem.n)
    solver = fem.Operator(g, problem.material, bc)
    loads = fine.apply_cell_tractions(problem, g)
    with pytest.raises(ValueError):
        solver.solve(np.full(g.n_elems, 2.0), loads)


def test_apply_cell_tractions_constant_lumping():
    n = 4
    q = np.array([0.0, -2.0])
    t = np.zeros((4, 2, 2))
    t[0] = [q, q]  # constant traction on the bottom edge
    problem = fine.FineCellProblem(
        cell=0, target=0.5, tractions=t, hx=1.0, hy=1.0, n=n
    )
    g = cell_mesh(problem)
    f = fine.apply_cell_tractions(problem, g)
    h = 1.0 / n
    for jx in range(n + 1):
        node = g.node_id(jx, 0)
        weight = 0.5 if jx in (0, n) else 1.0
        assert_allclose(f[2 * node : 2 * node + 2], q * h * weight, atol=1e-14)
    # nothing lands anywhere else
    mask = np.ones(2 * g.n_nodes, dtype=bool)
    for jx in range(n + 1):
        node = g.node_id(jx, 0)
        mask[2 * node : 2 * node + 2] = False
    assert_allclose(f[mask], 0.0)


def test_apply_cell_tractions_preserves_force_and_moment():
    rng = np.random.default_rng(8)
    for _ in range(5):
        t = rng.normal(size=(4, 2, 2))
        hx, hy = 0.5, 0.8
        problem = fine.FineCellProblem(
            cell=0, target=0.5, tractions=t, hx=hx, hy=hy, n=6
        )
        g = cell_mesh(problem)
        f = fine.apply_cell_tractions(problem, g)
        net_f, net_m, scale = fine.traction_equilibrium(t, hx, hy)
        assert_allclose(f.reshape(-1, 2).sum(axis=0), net_f, atol=1e-12 * scale)
        coords = g.node_coords(np.arange(g.n_nodes)) - [hx / 2.0, hy / 2.0]
        fv = f.reshape(-1, 2)
        moment = float(np.sum(coords[:, 0] * fv[:, 1] - coords[:, 1] * fv[:, 0]))
        assert_allclose(moment, net_m, atol=1e-12 * max(scale, 1.0))


def test_apply_cell_tractions_matches_sub_edge_loop():
    # reference: sample each coarse traction at the ends of every fine
    # sub-edge, one side and one element at a time; the same arithmetic in
    # the same order gives the same loads bit for bit
    rng = np.random.default_rng(12)
    for n, hx, hy in ((1, 1.0, 1.0), (3, 0.5, 0.8), (7, 2.0, 0.3)):
        t = rng.normal(size=(4, 2, 2))
        problem = fine.FineCellProblem(cell=0, target=0.5, tractions=t, hx=hx, hy=hy, n=n)
        g = cell_mesh(problem)
        corners = np.array([(0.0, 0.0), (hx, 0.0), (hx, hy), (0.0, hy)])
        coords = g.node_coords(np.arange(g.n_nodes))
        expected = np.zeros(2 * g.n_nodes)
        sides = ([(i, 0) for i in range(n)], [(n - 1, i) for i in range(n)],
                 [(i, n - 1) for i in range(n)], [(0, i) for i in range(n)])
        for ledge, cells in enumerate(sides):
            a, b = corners[EDGE_LNODES[ledge][0]], corners[EDGE_LNODES[ledge][1]]
            axis = b - a
            for ix, iy in cells:
                ends = g.edge_nodes(g.elem_id(ix, iy), ledge)
                ts = [t[ledge, 0] + ((coords[m] - a) @ axis) / (axis @ axis)
                      * (t[ledge, 1] - t[ledge, 0]) for m in ends]
                loads = fem.consistent_edge_loads(ts[0], ts[1], edge_lengths(g.hx, g.hy)[ledge])
                for m, load in zip(ends, loads):
                    expected[2 * m : 2 * m + 2] += load
        assert np.array_equal(fine.apply_cell_tractions(problem, g), expected)


def test_traction_equilibrium_balanced_and_not():
    net_f, net_m, scale = fine.traction_equilibrium(uniaxial_tractions(), 1.0, 1.0)
    assert_allclose(net_f, 0.0, atol=1e-15)
    assert_allclose(net_m, 0.0, atol=1e-15)
    assert_allclose(scale, 1.0)
    one_sided = np.zeros((4, 2, 2))
    one_sided[1, :, 0] = 1.0
    net_f, net_m, scale = fine.traction_equilibrium(one_sided, 1.0, 1.0)
    assert_allclose(net_f, (1.0, 0.0))


# ------------------------------------------------------------ cell solving


def test_fine_cell_solve_rejects_unbalanced_tractions():
    t = np.zeros((4, 2, 2))
    t[1, :, 0] = 1.0
    problem = fine.FineCellProblem(
        cell=3, target=0.5, tractions=t, hx=1.0, hy=1.0, n=8, max_iter=5
    )
    with pytest.raises(fine.FineSolveError):
        fine.fine_cell_solve(problem)


def test_fine_cell_solve_unbalanced_escape_hatch():
    t = np.zeros((4, 2, 2))
    t[1, :, 0] = 1.0
    problem = fine.FineCellProblem(
        cell=3,
        target=0.5,
        tractions=t,
        hx=1.0,
        hy=1.0,
        n=8,
        max_iter=10,
        require_equilibrated=False,
    )
    result = fine.fine_cell_solve(problem)
    assert result.kind == "optimized"
    # the supports now carry the net load instead of (nearly) nothing
    assert result.max_reaction > 1e-3 * result.reaction_scale


@pytest.mark.parametrize("target", [0.0, 1.0, np.nan])
def test_fine_cell_solve_rejects_bad_target(target):
    # a free cell's target lies strictly inside (0, 1); solve_all_cells fills
    # frozen cells itself
    with pytest.raises(fine.FineSolveError, match=f"target {target} invalid"):
        fine.fine_cell_solve(
            fine.FineCellProblem(
                cell=0, target=target, tractions=np.zeros((4, 2, 2)), hx=1.0, hy=1.0
            )
        )


def test_fine_cell_solve_uniform_stress_is_fixed_point():
    # constant-stress loading on a uniform start gives uniform sensitivities,
    # so the OC update reproduces the field and the loop stops immediately
    problem = fine.FineCellProblem(
        cell=0, target=0.5, tractions=uniaxial_tractions(), hx=1.0, hy=1.0, n=8
    )
    result = fine.fine_cell_solve(problem)
    assert result.converged
    assert result.iterations == 1
    assert_allclose(result.rho, 0.5, atol=1e-9)
    assert result.beta_final == 1.0


def bending_plus_tension_tractions(c=6.0, s=1.0):
    """x-normal tractions linear in y (pure bending) plus uniform tension."""
    t = np.zeros((4, 2, 2))
    t[1] = [(-0.5 * c + s, 0.0), (0.5 * c + s, 0.0)]  # right, bottom to top
    t[3] = [(-0.5 * c - s, 0.0), (0.5 * c - s, 0.0)]  # left, top to bottom
    return t


def test_fine_cell_solve_bending_cell():
    t = bending_plus_tension_tractions()
    net_f, net_m, scale = fine.traction_equilibrium(t, 1.0, 1.0)
    assert_allclose(net_f, 0.0, atol=1e-15)
    assert_allclose(net_m, 0.0, atol=1e-15)
    problem = fine.FineCellProblem(
        cell=0, target=0.5, tractions=t, hx=1.0, hy=1.0, n=16, max_iter=200
    )
    result = fine.fine_cell_solve(problem)
    assert result.converged
    assert result.kind == "optimized"
    assert_allclose(result.rho.mean(), 0.5, atol=2e-3)
    assert np.all(result.rho >= problem.material.rho_min - 1e-15)
    assert np.all(result.rho <= 1.0 + 1e-15)
    # self-equilibrated loading leaves the rigid-body supports unloaded
    assert result.max_reaction <= 1e-6 * result.reaction_scale
    # the grey start forces the projection to engage and sharpen the field
    assert result.beta_final > 1.0
    assert result.m_nd < 60.0
    # bending concentrates material in the outer fibers
    raster = result.rho.reshape(problem.n, problem.n)
    outer = np.concatenate([raster[:, :2].ravel(), raster[:, -2:].ravel()])
    inner = raster[:, 6:10].ravel()
    assert outer.mean() > 2.0 * inner.mean()


def test_fine_cell_solve_without_projection_is_the_coarse_loop():
    # the grey measure never exceeds 100, so the gate stays shut and the fine
    # solve must be bitwise simp_loop without a projection: both scales run
    # one loop
    problem = fine.FineCellProblem(
        cell=0, target=0.5, tractions=bending_plus_tension_tractions(), hx=1.0, hy=1.0,
        n=12, max_iter=60, projection=fine.ProjectionParams(m_nd_min=101.0),
    )
    result = fine.fine_cell_solve(problem)
    solver = fine._cell_solver(problem.n, problem.hx, problem.hy, problem.material)
    g = solver.grid
    args = (solver, fine.apply_cell_tractions(problem, g), np.full(g.n_elems, problem.target),
            problem.target * g.n_elems * g.hx * g.hy, np.zeros(g.n_elems, dtype=np.int8),
            problem.r_min, problem.eps, problem.max_iter)
    gated, _, gated_history = coarse.simp_loop(*args, projection=problem.projection)
    rho, converged, history = coarse.simp_loop(*args)
    assert not any(h["projected"] for h in gated_history)
    assert result.rho.tobytes() == gated.tobytes() == rho.tobytes()
    assert (result.iterations, result.converged) == (len(history), converged)
    assert [{key: row[key] for key in history[0]} for row in gated_history] == history


@pytest.fixture(scope="module")
def example2_cell74():
    """example2 cell 74: its OC step and projection lock into a 2-cycle."""
    from twolevel_topopt import equilibrate, pipeline

    c = pipeline.preset_config("example2")
    g = c.build_grid()
    bc = c.build_bc(g)
    result = coarse.stage_loop(g, c.coarse_material(), bc, c.threshold_policy(),
                               r_min=c.coarse_r_min, eps=c.coarse_eps,
                               max_inner=c.max_inner, stage_cap=c.stage_cap)
    field = equilibrate.equilibrate_all(g, result.rho, c.coarse_material(), bc,
                                        result.solution.u, void_mask=result.frozen == coarse.VOID)
    return fine.FineCellProblem(
        cell=74, target=float(result.rho[74]), tractions=field.tractions[74], hx=g.hx,
        hy=g.hy, n=c.fine_n, material=c.fine_material(), r_min=c.fine_r_min, eps=c.fine_eps,
        projection=c.projection_params(), max_iter=c.fine_max_iter,
    )


@pytest.mark.parametrize("max_iter, mean", [(300, 0.9466), (301, 0.7573)])
def test_fine_cell_solve_stops_a_two_cycle_on_the_capped_phase(example2_cell74, max_iter,
                                                                 mean):
    # the capped run returns mean density 0.9466 after 300 iterations and
    # 0.7573 after 301; the cycle stop returns the same phase long before
    result = fine.fine_cell_solve(replace(example2_cell74, max_iter=max_iter))
    assert not result.converged
    assert result.iterations <= 60
    assert_allclose(result.rho.mean(), mean, atol=1e-3)


# --------------------------------------------------------------- batch farm


def small_coarse_run():
    g = Grid(4, 2, 1.0, 1.0)
    bc = BoundaryConditions()
    for jy in range(3):
        bc.fix_node(g.node_id(0, jy))
    bc.add_edge_traction(g.elem_id(3, 0), 1, (0.0, -1.0), (0.0, -1.0))
    mat = fem.MaterialModel(E=1000.0, nu=0.3, p=1.0)
    policy = coarse.ThresholdPolicy(rho_bar_min=0.12, rho_bar_max=0.88, rho0=0.5)
    result = coarse.stage_loop(g, mat, bc, policy, r_min=1.3, eps=0.02, max_inner=200,
                               stage_cap=50)
    return g, bc, mat, result


def test_solve_all_cells_fills_and_optimizes():
    from twolevel_topopt import equilibrate as eq

    g, bc, mat, cres = small_coarse_run()
    field = eq.equilibrate_all(
        g, cres.rho, mat, bc, cres.solution.u, void_mask=cres.frozen == coarse.VOID
    )
    batch = fine.solve_all_cells(g, cres, field.tractions, n=8, eps=0.02, max_iter=120)
    assert not batch.failures
    assert set(batch.cells) == set(int(e) for e in g.active_elems)
    for e in g.active_elems:
        r = batch.cells[int(e)]
        if cres.frozen[e] == coarse.SOLID:
            assert r.kind == "frozen-solid"
            assert_allclose(r.rho, 1.0)
        elif cres.frozen[e] == coarse.VOID:
            assert r.kind == "frozen-void"
            assert_allclose(r.rho, mat.rho_min)
        else:
            assert r.kind == "optimized"
            # projection perturbs the mean slightly off the cell target
            assert_allclose(r.rho.mean(), cres.rho[e], atol=0.05)

    # the farm is deterministic: a second pass reproduces every raster bitwise
    again = fine.solve_all_cells(g, cres, field.tractions, n=8, eps=0.02, max_iter=120)
    for e, r in batch.cells.items():
        assert np.array_equal(r.rho, again.cells[e].rho)


def test_solve_all_cells_collects_failures():
    g = Grid(2, 1, 1.0, 1.0)
    frozen = np.array([coarse.FREE, coarse.SOLID], dtype=np.int8)
    rho = np.array([0.5, 1.0])
    cres = coarse.CoarseResult(
        rho=rho, frozen=frozen, stages=1, converged=True, history=[], solution=None
    )
    tractions = np.zeros((g.n_elems, 4, 2, 2))
    tractions[0, 1, :, 0] = 1.0  # unbalanced: cell 0 must be rejected
    batch = fine.solve_all_cells(g, cres, tractions, n=4)
    assert list(batch.failures) == [0]
    assert "equilibrated" in batch.failures[0]
    assert batch.cells[1].kind == "frozen-solid"
    assert not any(r.kind == "optimized" for r in batch.cells.values())


def test_solve_all_cells_takes_fine_cell_settings():
    g = Grid(2, 1, 1.0, 1.0)
    cres = coarse.CoarseResult(
        rho=np.array([0.01, 1.0]), frozen=np.array([coarse.VOID, coarse.SOLID], dtype=np.int8),
        stages=1, converged=True, history=[], solution=None,
    )
    tractions = np.zeros((g.n_elems, 4, 2, 2))
    # frozen rasters take their size from the settings, their void density
    # from the fixed floor
    material = fem.MaterialModel(E=1000.0, nu=0.3, p=3.0)
    batch = fine.solve_all_cells(g, cres, tractions, n=5, material=material)
    assert batch.n == 5
    assert np.array_equal(batch.cells[0].rho, np.full(25, fem.MaterialModel.rho_min))
    assert np.array_equal(batch.cells[1].rho, np.ones(25))
    default = fine.solve_all_cells(g, cres, tractions)
    assert default.n == fine.FineCellProblem.n
    with pytest.raises(TypeError):
        fine.solve_all_cells(g, cres, tractions, beta=2.0)


def test_solve_all_cells_pool_matches_serial_bitwise():
    from twolevel_topopt import equilibrate as eq

    g, bc, mat, cres = small_coarse_run()
    field = eq.equilibrate_all(
        g, cres.rho, mat, bc, cres.solution.u, void_mask=cres.frozen == coarse.VOID
    )
    settings = dict(n=8, eps=0.02, max_iter=120)
    serial = fine.solve_all_cells(g, cres, field.tractions, workers=1, **settings)
    pooled = fine.solve_all_cells(g, cres, field.tractions, workers=2, **settings)
    assert sum(r.kind == "optimized" for r in serial.cells.values()) >= 2
    assert not serial.failures and not pooled.failures
    assert list(pooled.cells) == list(serial.cells)
    for e, r in serial.cells.items():
        p = pooled.cells[e]
        assert p.rho.tobytes() == r.rho.tobytes()
        assert (p.kind, p.iterations, p.converged, p.compliance) == (
            r.kind, r.iterations, r.converged, r.compliance)


def test_farm_pool_starts_at_most_one_process_per_free_cell(monkeypatch):
    from twolevel_topopt import equilibrate as eq

    g, bc, mat, cres = small_coarse_run()
    field = eq.equilibrate_all(
        g, cres.rho, mat, bc, cres.solution.u, void_mask=cres.frozen == coarse.VOID
    )
    sizes = []

    class InProcessPool:
        """Records the pool size it is asked for and maps in this process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(fine, "ProcessPoolExecutor", InProcessPool)
    k = int(np.count_nonzero(cres.frozen[g.active_elems] == coarse.FREE))
    assert k >= 2
    batch = fine.solve_all_cells(g, cres, field.tractions, workers=k + 62, n=8, eps=0.02,
                                 max_iter=120)
    assert sizes == [k]
    assert not batch.failures
    assert sum(r.kind == "optimized" for r in batch.cells.values()) == k


def test_cell_solver_is_built_once_per_farm_and_keyed_on_the_material():
    from twolevel_topopt import equilibrate as eq

    g, bc, mat, cres = small_coarse_run()
    field = eq.equilibrate_all(
        g, cres.rho, mat, bc, cres.solution.u, void_mask=cres.frozen == coarse.VOID
    )
    fine._cell_solver.cache_clear()
    batch = fine.solve_all_cells(g, cres, field.tractions, workers=1, n=8, eps=0.02,
                                 max_iter=120)
    k = sum(r.kind == "optimized" for r in batch.cells.values())
    assert k >= 2
    info = fine._cell_solver.cache_info()
    assert (info.misses, info.hits) == (1, k - 1)
    # an equal material record is the same key; another modulus is not
    key = (8, g.hx, g.hy)
    fine._cell_solver(*key, fem.MaterialModel(E=1000.0, nu=0.3, p=3.0))
    assert fine._cell_solver.cache_info().hits == k
    fine._cell_solver(*key, fem.MaterialModel(E=2000.0, nu=0.3, p=3.0))
    assert fine._cell_solver.cache_info().misses == 2


def test_solve_all_cells_shares_one_read_only_raster_per_frozen_kind():
    g = Grid(3, 2, 1.0, 1.0)
    frozen = np.array([coarse.SOLID, coarse.VOID, coarse.SOLID, coarse.VOID, coarse.SOLID,
                       coarse.VOID], dtype=np.int8)
    cres = coarse.CoarseResult(rho=np.where(frozen == coarse.SOLID, 1.0, 1e-3), frozen=frozen,
                               stages=1, converged=True, history=[], solution=None)
    batch = fine.solve_all_cells(g, cres, np.zeros((g.n_elems, 4, 2, 2)), n=4)
    for kind, value in (("frozen-solid", 1.0), ("frozen-void", 1e-3)):
        rasters = [r.rho for r in batch.cells.values() if r.kind == kind]
        assert len(rasters) == 3
        assert all(np.shares_memory(rasters[0], raster) for raster in rasters[1:])
        assert np.array_equal(rasters[0], np.full(16, value))
        with pytest.raises(ValueError):
            rasters[0][0] = 0.5
