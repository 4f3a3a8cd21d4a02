"""Whole-system checks on the two bundled benchmark problems.

These replay the example1 (2x1 cantilever) and example2 (L-bracket) presets
end to end and pin the system-level guarantees: equilibrium quality of the
recovered tractions, exactness properties with known closed-form answers,
convergence and volume bands for the benchmark runs, vanishing fine-cell
support reactions, the expected coarse/fine material patterns, and the
boundary-continuity advantage over loading cells with raw FE stresses.

Each test stands for one guarantee, so `pytest -v` reads as a checklist.
The two Example-1 fine farms dominate the runtime (a few minutes); they are
shared session-wide through fixtures.
"""

import time

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import ndimage

from twolevel_topopt import coarse, equilibrate, fem, fine, pipeline
from twolevel_topopt.grid import BoundaryConditions, Grid

from reference import EDGE_NORMALS, stress_tractions, unchecked_balance

pytestmark = pytest.mark.acceptance


# ------------------------------------------------------------ shared runs


@pytest.fixture(scope="session")
def ex1():
    config = pipeline.preset_config("example1")
    grid = config.build_grid()
    bc = config.build_bc(grid)
    t0 = time.perf_counter()
    result = coarse.stage_loop(
        grid, config.coarse_material(), bc, config.threshold_policy(),
        r_min=config.coarse_r_min, eps=config.coarse_eps,
        max_inner=config.max_inner, stage_cap=config.stage_cap,
    )
    elapsed = time.perf_counter() - t0
    assert result.converged
    return {
        "config": config, "grid": grid, "bc": bc, "result": result,
        "elapsed": elapsed,
    }


@pytest.fixture(scope="session")
def ex1_field(ex1):
    grid, result = ex1["grid"], ex1["result"]
    t0 = time.perf_counter()
    field = equilibrate.equilibrate_all(
        grid, result.rho, ex1["config"].coarse_material(), ex1["bc"],
        result.solution.u, void_mask=result.frozen == coarse.VOID,
    )
    elapsed = time.perf_counter() - t0
    return {"field": field, "elapsed": elapsed}


def run_farm(ex1, tractions):
    # Two workers: a pooled farm is bitwise the serial one
    # (test_fine.py::test_solve_all_cells_pool_matches_serial_bitwise).
    config = ex1["config"]
    return fine.solve_all_cells(
        ex1["grid"], ex1["result"], tractions,
        n=config.fine_n, material=config.fine_material(),
        r_min=config.fine_r_min, eps=config.fine_eps,
        projection=config.projection_params(), max_iter=config.fine_max_iter, workers=2,
    )


@pytest.fixture(scope="session")
def ex1_batch(ex1, ex1_field):
    batch = run_farm(ex1, ex1_field["field"].tractions)
    assert not batch.failures
    return batch


@pytest.fixture(scope="session")
def ex1_control_batch(ex1):
    grid, result = ex1["grid"], ex1["result"]
    raw = stress_tractions(
        grid, result.rho, ex1["config"].coarse_material(), result.solution.u
    )
    with unchecked_balance():
        batch = run_farm(ex1, raw)
    assert not batch.failures
    return batch


@pytest.fixture(scope="session")
def ex2():
    config = pipeline.preset_config("example2")
    grid = config.build_grid()
    bc = config.build_bc(grid)
    t0 = time.perf_counter()
    result = coarse.stage_loop(
        grid, config.coarse_material(), bc, config.threshold_policy(),
        r_min=config.coarse_r_min, eps=config.coarse_eps,
        max_inner=config.max_inner, stage_cap=config.stage_cap,
    )
    elapsed = time.perf_counter() - t0
    assert result.converged
    return {"config": config, "grid": grid, "result": result, "elapsed": elapsed}


# ------------------------------------------------------------ the checks


def test_cantilever_equilibration_certificate(ex1, ex1_field):
    """Recovered tractions balance every active element to 1e-8, fast."""
    grid = ex1["grid"]
    report = ex1_field["field"].report
    scale = report.force_scale
    assert scale > 0
    act = grid.active_elems
    force_residuals = np.linalg.norm(report.net_force[act], axis=1)
    moment_residuals = np.abs(report.net_moment[act])
    assert force_residuals.max() <= 1e-8 * scale
    assert moment_residuals.max() <= 1e-8 * scale
    assert report.max_lambda <= 1e-8 * scale
    assert ex1_field["elapsed"] < 10.0


def test_shared_edges_are_action_reaction_exact(ex1, ex1_field):
    """Facing tractions on every interior edge cancel exactly."""
    residual = equilibrate.action_reaction_residual(
        ex1["grid"], ex1_field["field"]
    )
    assert residual == 0.0


def test_uniaxial_patch_tractions_recovered_exactly():
    """A uniform-stress state comes back as its exact edge tractions."""
    g = Grid(8, 8, 0.25, 0.125)
    bc = BoundaryConditions()
    for jy in range(9):
        bc.fix_node(g.node_id(0, jy), mask=(True, False))
    bc.fix_node(g.node_id(0, 0))
    for iy in range(8):
        bc.add_edge_traction(g.elem_id(7, iy), 1, (1.0, 0.0), (1.0, 0.0))
    rho = np.ones(g.n_elems)
    mat = fem.MaterialModel(E=1000.0, nu=0.3, p=1.0)
    sol = fem.solve(g, rho, mat, bc)
    field = equilibrate.equilibrate_all(g, rho, mat, bc, sol.u, np.zeros(g.n_elems, dtype=bool))
    sigma = np.array([[1.0, 0.0], [0.0, 0.0]])
    worst = 0.0
    for e in g.active_elems:
        for ledge in range(4):
            exact = sigma @ EDGE_NORMALS[ledge]
            t_s, t_e = field.tractions[e, ledge]
            worst = max(worst, np.abs(t_s - exact).max(), np.abs(t_e - exact).max())
    assert worst <= 1e-8


def _assembled_corner_split(forces, pole):
    """Independent route to the internal-node split: solve the full linear
    system in the 16 side-force components plus the closure defect, built
    from the corner identities, the edge action-reaction rows and the pole
    anchor, instead of walking the force polygon."""
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


def test_force_polygon_splitting_matches_assembled_systems():
    """Geometric splitting equals the assembled systems on 1200 polygons."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    for k in range(1200):
        forces = rng.normal(size=(4, 2))
        forces[3] = -forces[:3].sum(axis=0)  # closed force polygon
        if k % 2 == 0:
            pole = equilibrate.polygon_centroid(*forces)
        else:
            pole = rng.normal(size=2)
        sides, lam = equilibrate.split_node(list(forces), np.tile(pole, (4, 1)))
        x, rank = _assembled_corner_split(forces, pole)
        assert rank == 18
        geo = np.concatenate(
            [np.concatenate([sides[c][0], sides[c][1]]) for c in range(4)]
            + [lam]
        )
        worst = max(worst, float(np.abs(x - geo).max()))
    assert worst <= 1e-10


def test_benchmark_stage_counts(ex1, ex2):
    """Both presets converge in 3 to 8 threshold stages, well under 5 min."""
    assert 3 <= ex1["result"].stages <= 8
    assert 3 <= ex2["result"].stages <= 8
    assert ex1["elapsed"] < 300.0
    assert ex2["elapsed"] < 300.0


def test_benchmark_volume_fractions(ex1, ex2):
    """The 0.5 volume constraint holds to 1e-3 on both presets."""
    assert abs(ex1["result"].volume_fraction(ex1["grid"]) - 0.5) <= 1e-3
    assert abs(ex2["result"].volume_fraction(ex2["grid"]) - 0.5) <= 1e-3


def test_projection_suite():
    """Fixed points, monotonicity, the beta -> 0 limit and M_nd anchors."""
    for beta in (0.25, 1.0, 2.0, 4.5, 16.0):
        out = fine.project_density(np.array([0.0, 0.5, 1.0]), beta)
        assert_allclose(out, [0.0, 0.5, 1.0], atol=1e-12)
    rho = np.arange(0.0, 1.0 + 1e-9, 1e-3)
    for beta in (0.5, 2.0, 4.5):
        projected = fine.project_density(rho, beta)
        assert np.all(np.diff(projected) >= -1e-12)
    assert np.abs(fine.project_density(rho, 1e-6) - rho).max() < 1e-5
    assert fine.measure_nondiscreteness(np.full(64, 0.5)) == 100.0
    assert fine.measure_nondiscreteness(np.array([0.0, 1.0, 1.0, 0.0])) == 0.0
    assert_allclose(fine.measure_nondiscreteness(np.full(9, 0.25)), 75.0)


def test_fine_cells_have_vanishing_support_reactions(ex1_batch):
    """Self-equilibrated cell loads leave the three supports unloaded."""
    optimized = [r for r in ex1_batch.cells.values() if r.kind == "optimized"]
    assert optimized
    for r in optimized:
        assert r.reaction_scale > 0
        assert r.max_reaction <= 1e-6 * r.reaction_scale


def _crossing_strands(raster, threshold=0.5):
    """How many of the two cell axes are crossed by a solid strand.

    A strand is an 8-connected component of the thresholded raster; it
    crosses the cell when it touches both opposing sides. An X-shaped cell
    counts 2 (left-right and bottom-top), a single horizontal band 1."""
    solid = raster > threshold
    labels, count = ndimage.label(solid, structure=np.ones((3, 3), dtype=int))
    horizontal = vertical = False
    for k in range(1, count + 1):
        component = labels == k
        spans_x = np.any(component, axis=1)
        spans_y = np.any(component, axis=0)
        horizontal = horizontal or (spans_x[0] and spans_x[-1])
        vertical = vertical or (spans_y[0] and spans_y[-1])
    return int(horizontal) + int(vertical)


def test_benchmark_material_patterns(ex1, ex1_batch, ex2):
    """Dense bending fibers, cross-like shear cells, corner concentration."""
    grid, result = ex1["grid"], ex1["result"]
    image = pipeline.stitch(grid, ex1_batch)
    n = image.n
    domain_mean = image.data.mean()
    bottom_fiber = image.data[:, :n].mean()
    top_fiber = image.data[:, -n:].mean()
    assert bottom_fiber > 1.2 * domain_mean
    assert top_fiber > 1.2 * domain_mean

    # the free cells touching the neutral axis are dominated by shear and
    # show X-like strands; the pattern must hold for a clear majority
    near_axis = []
    for iy in (grid.ny // 2 - 1, grid.ny // 2):
        for ix in range(grid.nx):
            e = grid.elem_id(ix, iy)
            if result.frozen[e] == coarse.FREE:
                cell = image.data[ix * n : (ix + 1) * n, iy * n : (iy + 1) * n]
                near_axis.append(_crossing_strands(cell))
    crossed = sum(1 for c in near_axis if c >= 2)
    assert crossed >= 10
    assert crossed > 0.5 * len(near_axis)

    # the L-bracket concentrates material around the reentrant corner
    g2, r2 = ex2["grid"], ex2["result"]
    corner = (g2.nx // 2 - 1, g2.ny // 2 - 1)
    patch = [
        r2.rho[g2.elem_id(ix, iy)]
        for ix in range(corner[0] - 1, corner[0] + 2)
        for iy in range(corner[1] - 1, corner[1] + 2)
        if g2.active[ix, iy]
    ]
    assert np.mean(patch) > r2.rho[g2.active_elems].mean()


def test_equilibrated_tractions_improve_boundary_continuity(
    ex1, ex1_batch, ex1_control_batch
):
    """Equilibrated cell loads stitch together better than raw FE stresses."""
    grid = ex1["grid"]
    equilibrated = pipeline.continuity_metric(pipeline.stitch(grid, ex1_batch))
    control = pipeline.continuity_metric(pipeline.stitch(grid, ex1_control_batch))
    assert equilibrated["count"] == control["count"] > 0
    assert equilibrated["mean"] < control["mean"]


def test_freezing_monotone_as_thresholds_narrow(ex1):
    """Narrowing the free density band never unfreezes cells."""
    grid, bc, config = ex1["grid"], ex1["bc"], ex1["config"]
    mat = config.coarse_material()
    counts = []
    for lo, hi in [(0.06, 0.94), (0.12, 0.88), (0.25, 0.75), (0.30, 0.70)]:
        if (lo, hi) == (0.12, 0.88):
            result = ex1["result"]
        else:
            policy = coarse.ThresholdPolicy(
                rho_bar_min=lo, rho_bar_max=hi, rho0=0.5
            )
            result = coarse.stage_loop(
                grid, mat, bc, policy, r_min=config.coarse_r_min,
                eps=config.coarse_eps, max_inner=config.max_inner,
                stage_cap=config.stage_cap,
            )
            assert result.converged
        counts.append(int((result.frozen != coarse.FREE).sum()))
    assert all(a <= b for a, b in zip(counts, counts[1:])), counts


def test_compliance_sensitivity_matches_finite_differences():
    """Analytic density sensitivities agree with central differences."""
    g = Grid(4, 2, 0.5, 0.5)
    bc = BoundaryConditions()
    for jy in range(3):
        bc.fix_node(g.node_id(0, jy))
    bc.add_edge_traction(g.elem_id(3, 0), 1, (0.0, -1.0), (0.0, -1.0))
    mat = fem.MaterialModel(E=1000.0, nu=0.3, p=3.0)
    rng = np.random.default_rng(7)
    h = 1e-5
    for _ in range(20):
        rho = rng.uniform(0.3, 1.0, g.n_elems)
        sol = fem.solve(g, rho, mat, bc)
        sens = coarse.sensitivity(g, rho, mat, sol.element_energy)
        for e in range(g.n_elems):
            up, down = rho.copy(), rho.copy()
            up[e] += h
            down[e] -= h
            fd = (
                fem.solve(g, up, mat, bc).compliance
                - fem.solve(g, down, mat, bc).compliance
            ) / (2 * h)
            assert abs(fd - sens[e]) <= 1e-3 * abs(sens[e])
