"""Coarse SIMP loop: sensitivities, filtering, OC update and freezing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from twolevel_topopt import coarse, fem
from twolevel_topopt.coarse import (
    FREE,
    SOLID,
    VOID,
    InfeasibleVolumeError,
    ThresholdPolicy,
)
from twolevel_topopt.grid import BoundaryConditions, Grid


@pytest.fixture
def mat():
    return fem.MaterialModel(E=1.0, nu=0.3, p=3.0)


def cantilever(nx, ny):
    g = Grid(nx, ny, 1.0, 1.0)
    bc = BoundaryConditions()
    for jy in range(ny + 1):
        bc.fix_node(g.node_id(0, jy))
    bc.add_edge_traction(g.elem_id(nx - 1, 0), 1, (0.0, -1.0), (0.0, -1.0))
    return g, bc


def test_sensitivity_is_minus_p_energy_over_rho(mat):
    g = Grid(2, 2, 1.0, 1.0)
    rho = np.array([0.4, 0.8, 1.0, 0.25])
    energy = np.array([2.0, 1.0, 0.5, 4.0])
    s = coarse.sensitivity(g, rho, mat, energy)
    assert_allclose(s, -3.0 * energy / rho)


def test_sensitivity_matches_finite_differences(mat):
    g, bc = cantilever(4, 2)
    rng = np.random.default_rng(0)
    rho = rng.uniform(0.3, 0.9, g.n_elems)
    sol = fem.solve(g, rho, mat, bc)
    s = coarse.sensitivity(g, rho, mat, sol.element_energy)
    h = 1e-6
    for e in [0, 3, 7]:
        bumped = rho.copy()
        bumped[e] += h
        c_plus = fem.solve(g, bumped, mat, bc).compliance
        bumped[e] -= 2 * h
        c_minus = fem.solve(g, bumped, mat, bc).compliance
        assert_allclose(s[e], (c_plus - c_minus) / (2 * h), rtol=1e-5)


def test_filter_hand_oracle_three_elements(mat):
    # 3x1 strip, r_min = 1.5: weights 1.5 self, 0.5 for adjacent cells
    g = Grid(3, 1, 1.0, 1.0)
    rho = np.array([0.5, 1.0, 0.25])
    sens = np.array([-1.0, -2.0, -4.0])
    out = coarse.filter_sensitivities(g, rho, sens, 1.5)
    assert_allclose(out, [-1.75, -1.5, -5.0])


def test_filter_radius_at_most_one_is_identity(mat):
    g = Grid(4, 3, 1.0, 1.0)
    rng = np.random.default_rng(1)
    rho = rng.uniform(0.1, 1.0, g.n_elems)
    sens = rng.normal(size=g.n_elems)
    assert_allclose(coarse.filter_sensitivities(g, rho, sens, 1.0), sens)


def test_filter_uses_index_distance_not_physical(mat):
    # identical grids up to element size must filter identically
    rng = np.random.default_rng(2)
    rho = rng.uniform(0.1, 1.0, 12)
    sens = rng.normal(size=12)
    a = coarse.filter_sensitivities(Grid(4, 3, 1.0, 1.0), rho, sens, 1.5)
    b = coarse.filter_sensitivities(Grid(4, 3, 0.01, 5.0), rho, sens, 1.5)
    assert_allclose(a, b)


def test_filter_preserves_uniform_field(mat):
    g = Grid(5, 4, 1.0, 1.0)
    rho = np.full(g.n_elems, 0.7)
    sens = np.full(g.n_elems, -2.5)
    assert_allclose(coarse.filter_sensitivities(g, rho, sens, 2.0), -2.5)


def test_filter_skips_inactive_elements(mat):
    active = np.ones((3, 1), dtype=bool)
    active[1, 0] = False
    with pytest.raises(Exception):
        # the middle element is missing, so the mask is disconnected
        Grid(3, 1, 1.0, 1.0, active=active)
    # an L-mask keeps connectivity; the filter must not pull values across
    # the void into the dead element's slot
    active = np.ones((2, 2), dtype=bool)
    active[1, 1] = False
    g = Grid(2, 2, 1.0, 1.0, active=active)
    rho = np.array([0.5, 0.5, 0.5, 0.0])
    sens = np.array([-1.0, -1.0, -1.0, 0.0])
    out = coarse.filter_sensitivities(g, rho, sens, 1.5)
    assert_allclose(out[g.active_elems], -1.0)


@pytest.mark.parametrize("r_min", [2.5, 7.0, 1e30])
def test_filter_radius_past_the_grid_matches_all_pairs(r_min):
    # The plan's reach stops at the grid's extent; every pair of active
    # elements within r_min still weighs in, and a huge r_min gives the
    # uniform-weight average.
    active = np.ones((4, 3), dtype=bool)
    active[3, 2] = False
    g = Grid(4, 3, 1.0, 1.0, active=active)
    rng = np.random.default_rng(3)
    rho = rng.uniform(0.1, 1.0, g.n_elems)
    sens = rng.normal(size=g.n_elems)
    act = g.active_elems
    ix, iy = np.divmod(act, g.ny)
    weights = np.maximum(r_min - np.hypot(ix[:, None] - ix, iy[:, None] - iy), 0.0)
    expected = weights @ (rho[act] * sens[act]) / (rho[act] * weights.sum(axis=1))
    out = coarse.filter_sensitivities(g, rho, sens, r_min)
    assert_allclose(out[act], expected, rtol=1e-12)
    if r_min == 1e30:
        assert_allclose(out[act], (rho[act] * sens[act]).mean() / rho[act], rtol=1e-12)


def test_oc_step_values_frozen_examples():
    # B = 4 wants rho*sqrt(4) = 1.0, the 20 percent move limit caps at 0.6
    assert_allclose(coarse.oc_step_values(np.array([0.5]), 4.0 ** 0.5), 0.6)
    # B = 0.25 wants 0.25, the lower move limit caps at 0.4
    assert_allclose(coarse.oc_step_values(np.array([0.5]), 0.25 ** 0.5), 0.4)
    # small B inside the box passes through the damped move
    assert_allclose(
        coarse.oc_step_values(np.array([0.5]), 1.1 ** 0.5),
        0.5 * 1.1**0.5,
    )
    # never below rho_min, never above one
    rho_min = fem.MaterialModel.rho_min
    out = coarse.oc_step_values(np.array([rho_min, 1.0]), 1.0 ** 0.5)
    assert out[0] >= rho_min
    assert out[1] <= 1.0
    # a step far below the floor stops at it
    assert coarse.oc_step_values(np.array([1.1 * rho_min]), 0.1) == rho_min


def test_oc_update_hits_volume_target(mat):
    g, bc = cantilever(6, 3)
    rng = np.random.default_rng(4)
    rho = rng.uniform(0.35, 0.65, g.n_elems)
    sol = fem.solve(g, rho, mat, bc)
    sens = coarse.filter_sensitivities(
        g, rho, coarse.sensitivity(g, rho, mat, sol.element_energy), 1.5
    )
    frozen = np.zeros(g.n_elems, dtype=int)
    target = 0.5 * g.n_elems * g.hx * g.hy
    new, clamped = coarse.oc_update(g, rho, sens, target, frozen)
    assert not clamped
    assert_allclose(new.sum() * g.hx * g.hy, target, rtol=2e-4)
    assert np.all(new >= mat.rho_min - 1e-15)
    assert np.all(new <= 1.0 + 1e-15)
    # move limits respected
    assert np.all(new <= 1.2 * rho + 1e-12)
    assert np.all(new >= 0.8 * rho - 1e-12)


def test_oc_update_leaves_frozen_untouched(mat):
    g, bc = cantilever(4, 2)
    rho = np.full(g.n_elems, 0.5)
    rho[0] = 1.0
    rho[1] = mat.rho_min
    frozen = np.zeros(g.n_elems, dtype=int)
    frozen[0] = SOLID
    frozen[1] = VOID
    sol = fem.solve(g, rho, mat, bc)
    sens = coarse.filter_sensitivities(
        g, rho, coarse.sensitivity(g, rho, mat, sol.element_energy), 1.5
    )
    target = rho.sum() * g.hx * g.hy
    new, _ = coarse.oc_update(g, rho, sens, target, frozen)
    assert new[0] == 1.0
    assert new[1] == mat.rho_min
    assert_allclose(new.sum() * g.hx * g.hy, target, rtol=2e-4)


def test_oc_update_clamps_when_target_out_of_reach(mat):
    g, bc = cantilever(4, 2)
    rho = np.full(g.n_elems, 0.2)
    sol = fem.solve(g, rho, mat, bc)
    sens = coarse.filter_sensitivities(
        g, rho, coarse.sensitivity(g, rho, mat, sol.element_energy), 1.5
    )
    frozen = np.zeros(g.n_elems, dtype=int)
    # target above the +20 percent reachable volume but below the absolute cap
    target = 0.5 * g.n_elems * g.hx * g.hy
    new, clamped = coarse.oc_update(g, rho, sens, target, frozen)
    assert clamped
    assert_allclose(new, 0.24)  # extreme admissible move


def test_oc_update_infeasible_target():
    g, bc = cantilever(4, 2)
    rho = np.full(g.n_elems, 0.5)
    frozen = np.zeros(g.n_elems, dtype=int)
    frozen[:4] = SOLID
    rho[:4] = 1.0
    sens = -np.ones(g.n_elems)
    # frozen solids alone already exceed the target volume
    target = 3.0 * g.hx * g.hy
    with pytest.raises(InfeasibleVolumeError):
        coarse.oc_update(g, rho, sens, target, frozen)


def test_oc_update_zero_drive_target_beyond_limit_move(mat):
    # Zero-drive free densities stay at their lower move limit however small
    # the multiplier, so a target between that limiting volume and vmax is
    # out of reach: the update takes the limiting move and flags it.
    g = Grid(4, 2, 1.0, 1.0)
    rho = np.full(g.n_elems, 0.5)
    sens = -np.ones(g.n_elems)
    sens[:3] = 0.0
    frozen = np.zeros(g.n_elems, dtype=int)
    # limiting move: 3 x 0.4 + 5 x 0.6 = 4.2; vmax = 8 x 0.6 = 4.8
    new, clamped = coarse.oc_update(g, rho, sens, 4.5, frozen)
    assert clamped
    assert np.all(np.isfinite(new))
    assert np.all((new >= mat.rho_min) & (new <= 1.0))
    assert_allclose(new[:3], 0.4)
    assert_allclose(new[3:], 0.6)


def bisection_move(rho_f, drive, target_sum, cell_vol, rho_min):
    """Reference OC move: plain bisection for the free volume target.

    It bisects on y = ETA log(lmbda), so that the move
    rho_f (drive / (lmbda cell_vol))^ETA = rho_f exp(ETA log(drive / cell_vol) - y)
    neither over- nor underflows.
    """
    lo = np.maximum((1 - coarse.ZETA) * rho_f, rho_min)
    hi = np.minimum((1 + coarse.ZETA) * rho_f, 1.0)
    with np.errstate(divide="ignore"):
        log_drive = np.log(drive / cell_vol)

    def move(y):
        return np.clip(rho_f * np.exp(coarse.ETA * log_drive - y), lo, hi)

    y_lo, y_hi = -100.0, 100.0
    for _ in range(200):
        y = 0.5 * (y_lo + y_hi)
        if move(y).sum() > target_sum:
            y_lo = y
        else:
            y_hi = y
    return move(0.5 * (y_lo + y_hi))


@st.composite
def oc_cases(draw):
    nx = draw(st.integers(min_value=1, max_value=6))
    ny = draw(st.integers(min_value=1, max_value=6))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    n = nx * ny
    frozen = rng.choice([FREE, SOLID, VOID], size=n, p=[0.7, 0.15, 0.15])
    rho = rng.uniform(1e-3, 1.0, n)
    rho[frozen == SOLID] = 1.0
    rho[frozen == VOID] = 1e-3
    sens = -10.0 ** rng.uniform(-6.0, 3.0, n)
    sens[rng.random(n) < draw(st.sampled_from([0.0, 0.2, 0.6]))] = 0.0
    # Position of the free target between vmin (0) and vmax (1); values
    # outside [0, 1] reach the clamped and the infeasible branches.
    where = draw(st.floats(min_value=-0.3, max_value=1.3))
    return Grid(nx, ny, 0.5, 0.25), rho, sens, frozen, where


@settings(max_examples=200, deadline=None)
@given(oc_cases())
def test_oc_update_exact_multiplier_matches_bisection(case):
    g, rho, sens, frozen, where = case
    mat = fem.MaterialModel(E=1.0, nu=0.3, p=3.0)
    cv = g.hx * g.hy
    free = frozen == FREE
    rho_f, drive = rho[free], -sens[free]
    lo = np.maximum(0.8 * rho_f, mat.rho_min)
    hi = np.minimum(1.2 * rho_f, 1.0)
    vmin, vmax = lo.sum(), hi.sum()
    target_sum = vmin + where * (vmax - vmin)
    target = (target_sum + rho[~free].sum()) * cv
    if not free.any() or target <= 0:
        return
    if target_sum > free.sum() or target_sum < free.sum() * mat.rho_min:
        with pytest.raises(InfeasibleVolumeError):
            coarse.oc_update(g, rho, sens, target, frozen)
        return

    new, clamped = coarse.oc_update(g, rho, sens, target, frozen)
    assert np.array_equal(new[~free], rho[~free])
    assert np.all((new[free] >= lo) & (new[free] <= hi))
    limit = np.where(drive > 0, hi, lo)
    # Within round-off of a branch boundary either neighbouring branch is right.
    if min(abs(target_sum - v) for v in (vmin, vmax, limit.sum())) <= 1e-12 * vmax:
        return
    if where >= 1:
        assert clamped
        assert_allclose(new[free], hi, rtol=0, atol=0)
    elif where <= 0:
        assert clamped
        assert_allclose(new[free], lo, rtol=0, atol=0)
    elif target_sum > limit.sum():
        assert clamped
        assert_allclose(new[free], limit, rtol=0, atol=0)
    else:
        assert not clamped
        ref = bisection_move(rho_f, drive, target_sum, cv, mat.rho_min)
        assert_allclose(new[free], ref, rtol=0, atol=1e-9)
        assert abs(new.sum() * cv - target) <= coarse.VOL_TOL * target


def test_threshold_policy_validation():
    rho_min = fem.MaterialModel.rho_min
    with pytest.raises(ValueError):
        ThresholdPolicy(rho_bar_min=0.9, rho_bar_max=0.1).validate()
    with pytest.raises(ValueError):
        ThresholdPolicy(rho_bar_min=1e-4).validate()
    with pytest.raises(ValueError, match="rho_bar_min must exceed rho_min"):
        ThresholdPolicy(rho_bar_min=rho_min).validate()
    with pytest.raises(ValueError):
        ThresholdPolicy(rho0=0.0).validate()
    # a start below rho_min is no density the FE model accepts
    with pytest.raises(ValueError, match=r"rho0 must be in \[rho_min, 1\]"):
        ThresholdPolicy(rho0=0.5 * rho_min).validate()
    ThresholdPolicy(rho0=rho_min).validate()
    ThresholdPolicy().validate()


def test_freeze_thresholds_and_ties():
    g = Grid(5, 1, 1.0, 1.0)
    policy = ThresholdPolicy(rho_bar_min=0.12, rho_bar_max=0.88)
    rho = np.array([0.88, 0.95, 0.12, 0.5, 0.121])
    frozen = np.zeros(5, dtype=int)
    n = coarse.freeze_out_of_range(g, rho, frozen, policy)
    assert n == 3  # ties freeze on both ends
    assert frozen.tolist() == [SOLID, SOLID, VOID, FREE, FREE]
    assert rho.tolist() == [1.0, 1.0, fem.MaterialModel.rho_min, 0.5, 0.121]


def test_freeze_voids_surrounded_free_elements():
    # center element keeps a mid density but three edge-neighbours void out,
    # so it must be voided as well (and the cascade can continue)
    g = Grid(3, 3, 1.0, 1.0)
    policy = ThresholdPolicy()
    rho = np.full(9, 0.5)
    center = g.elem_id(1, 1)
    for e in (g.elem_id(0, 1), g.elem_id(1, 0), g.elem_id(1, 2)):
        rho[e] = 0.05
    frozen = np.zeros(9, dtype=int)
    n = coarse.freeze_out_of_range(g, rho, frozen, policy)
    assert frozen[center] == VOID
    assert rho[center] == fem.MaterialModel.rho_min
    assert n == 4


def test_freeze_respects_already_frozen():
    g = Grid(2, 1, 1.0, 1.0)
    policy = ThresholdPolicy()
    rho = np.array([1.0, 0.5])
    frozen = np.array([SOLID, FREE])
    n = coarse.freeze_out_of_range(g, rho, frozen, policy)
    assert n == 0
    assert frozen.tolist() == [SOLID, FREE]


def test_stage_loop_small_cantilever(mat):
    g, bc = cantilever(8, 4)
    policy = ThresholdPolicy(rho_bar_min=0.12, rho_bar_max=0.88, rho0=0.5)
    result = coarse.stage_loop(g, mat, bc, policy, r_min=1.3, eps=0.02, max_inner=200,
                               stage_cap=50)
    assert result.converged
    assert 1 <= result.stages <= 8
    assert_allclose(result.volume_fraction(g), 0.5, atol=1e-3)
    # every free density sits strictly inside the open threshold band
    free = result.frozen == FREE
    assert np.all(result.rho[free] > policy.rho_bar_min)
    assert np.all(result.rho[free] < policy.rho_bar_max)
    # frozen fields carry their canonical values
    assert_allclose(result.rho[result.frozen == SOLID], 1.0)
    assert_allclose(result.rho[result.frozen == VOID], mat.rho_min)
    # the stored solution matches the final field
    resolved = fem.solve(g, result.rho, mat, bc)
    assert_allclose(result.solution.compliance, resolved.compliance, rtol=1e-10)
    assert len(result.stage_fields) == result.stages
    assert result.history  # inner iterations were recorded


def test_stage_loop_records_monotone_frozen_counts(mat):
    g, bc = cantilever(8, 4)
    policy = ThresholdPolicy()
    result = coarse.stage_loop(g, mat, bc, policy, r_min=1.3, eps=0.02, max_inner=200,
                               stage_cap=50)
    # stage snapshots store densities; frozen cells sit exactly at the
    # canonical values, so their count per stage is recoverable
    counts = [
        np.count_nonzero((f == 1.0) | (f == mat.rho_min)) for f in result.stage_fields
    ]
    assert all(b >= a for a, b in zip(counts, counts[1:]))
    assert counts[-1] == np.count_nonzero(result.frozen != FREE)


class AlternatingProjection:
    """A projection stub whose step returns fields[it % 2] whatever the OC
    step proposed, with beta doubling each step when `growing`."""

    def __init__(self, fields, growing=False):
        self.fields, self.growing = fields, growing

    def step(self, it, rho, beta):
        return self.fields[it % 2], 2.0 * beta if self.growing else beta, 0.0, True


@pytest.mark.parametrize("max_iter", [20, 21])
def test_simp_loop_stops_a_cycle_with_the_capped_phase(mat, max_iter):
    g, bc = cantilever(4, 4)
    fields = (np.full(g.n_elems, 0.7), np.full(g.n_elems, 0.3))
    rho, converged, history = coarse.simp_loop(
        fem.Operator(g, mat, bc), fem.load_vector(g, bc), np.full(g.n_elems, 0.5),
        0.5 * g.n_elems, np.zeros(g.n_elems, dtype=np.int8), 1.3, 0.01, max_iter,
        projection=AlternatingProjection(fields),
    )
    # iteration 3 repeats iteration 1, the first repeat two iterations back
    assert not converged
    assert [row["iteration"] for row in history] == [1, 2, 3]
    # the capped run would end on iteration max_iter, whose field is fields[max_iter % 2]
    assert rho is fields[max_iter % 2]


def test_simp_loop_runs_to_the_cap_while_beta_still_moves(mat):
    # the fields repeat, but a changed beta means a changed map: no cycle yet
    g, bc = cantilever(4, 4)
    fields = (np.full(g.n_elems, 0.7), np.full(g.n_elems, 0.3))
    rho, converged, history = coarse.simp_loop(
        fem.Operator(g, mat, bc), fem.load_vector(g, bc), np.full(g.n_elems, 0.5),
        0.5 * g.n_elems, np.zeros(g.n_elems, dtype=np.int8), 1.3, 0.01, 9,
        projection=AlternatingProjection(fields, growing=True),
    )
    assert (converged, len(history)) == (False, 9)
    assert rho is fields[1]
