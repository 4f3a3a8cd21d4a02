"""Coarse-scale SIMP with optimality-criteria updates and threshold freezing.

The inner loop, simp_loop, iterates FE solve -> sensitivity -> cone filter ->
OC update until the largest density change drops below eps, or stops early
once the fields repeat in a cycle; the fine cells run it too, with a
projection step added. The outer stage loop then freezes densities beyond
the prescribed thresholds to solid (1) or void (rho_min) and repeats until
every free density lies inside the range.
"""

from __future__ import annotations

import collections
import functools
import itertools
import logging
from dataclasses import dataclass, field

import numpy as np

from . import fem

log = logging.getLogger(__name__)

FREE, SOLID, VOID = 0, 1, -1


class InfeasibleVolumeError(RuntimeError):
    """The volume target cannot be met with the current frozen set."""


# OC update: move limit, damping exponent and relative volume tolerance.
ZETA, ETA, VOL_TOL = 0.2, 0.5, 1e-4


@dataclass
class ThresholdPolicy:
    """Freezing thresholds and the prescribed volume fraction rho0."""

    rho_bar_min: float = 0.12
    rho_bar_max: float = 0.88
    rho0: float = 0.5

    def validate(self):
        rho_min = fem.MaterialModel.rho_min
        if not 0 < self.rho_bar_min < self.rho_bar_max < 1:
            raise ValueError(
                f"need 0 < rho_bar_min < rho_bar_max < 1, got "
                f"[{self.rho_bar_min}, {self.rho_bar_max}]"
            )
        if self.rho_bar_min <= rho_min:
            raise ValueError("rho_bar_min must exceed rho_min")
        if not rho_min <= self.rho0 <= 1:
            raise ValueError(f"rho0 must be in [rho_min, 1] = [{rho_min}, 1], got {self.rho0}")


@dataclass
class CoarseResult:
    """Converged coarse field: densities, frozen states and run history."""

    rho: np.ndarray
    frozen: np.ndarray
    stages: int
    converged: bool
    history: list
    solution: fem.FESolution
    stage_fields: list = field(default_factory=list)

    def volume_fraction(self, grid):
        act = grid.active_elems
        return float(self.rho[act].sum() / act.size)


def sensitivity(grid, rho, material, element_energy):
    """Compliance sensitivities dc/drho_e = -p rho^(p-1) u_e.K0.u_e (<= 0).

    element_energy holds the rho^p-scaled contributions, so the base energy
    is recovered by dividing once by rho.
    """
    rho = np.asarray(rho, dtype=float)
    sens = np.zeros(grid.n_elems)
    act = grid.active_elems
    sens[act] = -material.p * element_energy[act] / rho[act]
    return sens


@functools.lru_cache(maxsize=8)
def _filter_plan(nx, ny, r_min, active_bytes):
    """Cone weights H_ef = r_min - dist within r_min, per offset as (dst, src,
    weight raster), and their sums; built once per mesh and r_min in each
    process, and shared between callers, which must not mutate them. An
    offset of a grid's extent or more along an axis pairs no elements, so
    the reach along each axis stops short of it."""
    act = np.frombuffer(active_bytes, dtype=bool).reshape(nx, ny).astype(float)
    reach = [int(max(min(np.ceil(r_min), n - 1), 0)) for n in (nx, ny)]
    plan, den = [], np.zeros((nx, ny))
    for dx, dy in itertools.product(*(range(-r, r + 1) for r in reach)):
        dist = np.hypot(dx, dy)
        if dist < r_min:
            src = (slice(max(0, -dx), nx - max(0, dx)), slice(max(0, -dy), ny - max(0, dy)))
            dst = (slice(max(0, dx), nx - max(0, -dx)), slice(max(0, dy), ny - max(0, -dy)))
            plan.append((dst, src, (r_min - dist) * act[src]))
            with np.errstate(over="ignore"):
                den[dst] += plan[-1][2]
    if not np.isfinite(den).all():
        raise fem.SolverError(f"the filter weights of r_min = {r_min!r} overflow")
    return plan, den


def filter_sensitivities(grid, rho, sens, r_min):
    """Sigmund sensitivity filter with cone weights over the index lattice.

    filtered_e = sum_f H_ef rho_f sens_f / (rho_e sum_f H_ef) with
    H_ef = r_min - dist(e, f), distances in element widths. Inactive
    elements never participate; frozen elements participate as neighbours.
    """
    shape = (grid.nx, grid.ny)
    rho2 = np.asarray(rho, dtype=float).reshape(shape)
    sens2 = np.asarray(sens, dtype=float).reshape(shape)
    plan, den = _filter_plan(grid.nx, grid.ny, float(r_min), grid.active.tobytes())

    num = np.zeros(shape)
    out = np.zeros(shape)
    mask = grid.active & (den > 0)
    # Extreme r_min or energies can overflow the sums or underflow the
    # denominator; the result is then checked rather than passed on.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for dst, src, contrib in plan:
            num[dst] += contrib * rho2[src] * sens2[src]
        out[mask] = num[mask] / (rho2[mask] * den[mask])
    if not np.isfinite(out).all():
        raise fem.SolverError(
            "filtered sensitivities are not finite (r_min or loads out of range?)")
    return out.ravel(order="C")


def oc_step_values(rho, B):
    """Pointwise OC move: rho*B clamped to the move-limited box; B is the
    already-damped factor."""
    rho = np.asarray(rho, dtype=float)
    lo = np.maximum((1.0 - ZETA) * rho, fem.MaterialModel.rho_min)
    hi = np.minimum((1.0 + ZETA) * rho, 1.0)
    return np.clip(rho * np.asarray(B, dtype=float), lo, hi)


def oc_update(grid, rho, filtered_sens, volume_target, frozen):
    """One OC density update with the volume multiplier solved exactly.

    volume_target is in absolute units (density times element area summed
    over all active elements, frozen included). Returns (new_rho, clamped),
    clamped telling whether the move limits stopped the step short of the
    target.

    With t = lmbda^(-ETA), each free density is clip(a_i t, lo_i, hi_i) with
    a_i = rho_i (drive_i / cell_vol)^ETA and lo_i, hi_i its move limits, so
    the free volume is continuous, nondecreasing and piecewise linear in t.
    Its value at the sorted clip breakpoints follows from cumulative sums of
    the slope and offset changes, and the target is solved for on the linear
    segment that holds it.
    """
    rho = np.asarray(rho, dtype=float)
    free = (frozen == FREE) & grid.active.ravel(order="C")
    cell_vol = grid.hx * grid.hy
    act = grid.active_elems
    frozen_vol = rho[act[frozen[act] != FREE]].sum() * cell_vol

    if not free.any():
        return rho.copy(), False

    drive = -np.asarray(filtered_sens, dtype=float)[free]
    drive = np.maximum(drive, 0.0)
    rho_f = rho[free]
    lo = np.maximum((1 - ZETA) * rho_f, fem.MaterialModel.rho_min)
    hi = np.minimum((1 + ZETA) * rho_f, 1.0)

    target_free = volume_target - frozen_vol
    vmax = hi.sum() * cell_vol
    vmin = lo.sum() * cell_vol
    new = rho.copy()
    if target_free >= vmax or target_free <= vmin:
        # The move limits cannot reach the target this step. If the target is
        # beyond even the unlimited bounds the configuration is infeasible;
        # otherwise take the extreme admissible move and recover later.
        abs_max = free.sum() * cell_vol
        abs_min = free.sum() * fem.MaterialModel.rho_min * cell_vol
        if target_free > abs_max + 1e-12 or target_free < abs_min - 1e-12:
            raise InfeasibleVolumeError(
                f"volume target {volume_target:.6g} unattainable with the "
                f"current frozen set"
            )
        new[free] = hi if target_free >= vmax else lo
        return new, True

    moving = drive > 0
    a = rho_f[moving] * (drive[moving] / cell_vol) ** ETA
    lo_m, hi_m = lo[moving], hi[moving]
    breaks = np.concatenate([lo_m / a, hi_m / a])
    # Tied breaks sit on one side of any segment of positive length, and a
    # zero-length one clips t to the tie, so their order cannot move t.
    order = np.argsort(breaks)
    # Past its lower breakpoint a density grows as a_i t instead of sitting
    # at lo_i; past its upper one it sits at hi_i again.
    slope = np.cumsum(np.concatenate([a, -a])[order])
    offset = lo.sum() + np.cumsum(np.concatenate([-lo_m, hi_m])[order])
    volume = (offset + slope * breaks[order]) * cell_vol
    if not moving.any() or target_free >= volume[-1]:
        # Zero-drive densities stay at their lower limit however small the
        # multiplier, so the target lies beyond the volume reachable as
        # lmbda -> 0: take that limiting move.
        new[free] = np.where(moving, hi, lo)
        return new, True

    # The cumulative slope cancels when the drives span many decades, so it
    # only locates the segment holding the target; that segment's slope and
    # offset are then summed afresh.
    k = max(np.searchsorted(volume, target_free, side="right") - 1, 0)
    passed = np.zeros(breaks.size, dtype=bool)
    passed[order[: k + 1]] = True
    started, ended = np.split(passed, 2)
    seg_slope = a[started & ~ended].sum()
    seg_offset = lo[~moving].sum() + lo_m[~started].sum() + hi_m[ended].sum()
    t_start, t_end = breaks[order[k]], breaks[order[k + 1]]
    t = t_start
    if seg_slope > 0:
        t = np.clip((target_free / cell_vol - seg_offset) / seg_slope, t_start, t_end)
    # The damped factor (drive / (lmbda cell_vol))^ETA is formed as
    # (drive / cell_vol)^ETA t: the undamped one can overflow.
    damped = (drive / cell_vol) ** ETA * t
    new[free] = oc_step_values(rho_f, damped)
    achieved = new[act].sum() * cell_vol
    if abs(achieved - volume_target) > VOL_TOL * volume_target:
        raise InfeasibleVolumeError(
            f"multiplier search missed: volume {achieved:.6g} vs target "
            f"{volume_target:.6g}"
        )
    return new, False


def simp_loop(operator, loads, rho, volume_target, frozen, r_min, eps, max_iter,
              projection=None, check_each_solve=False):
    """The SIMP loop of both scales: FE solve / sensitivity / filter / OC
    update until max |drho| < eps on an unclamped step.

    operator is the fem.Operator of the grid and its supports, loads the
    full-length load vector. check_each_solve passes every solve through the
    operator's residual gates. projection (the fine scale's fine.ProjectionParams) may sharpen
    each OC field: its step(it, rho, beta) returns the field, the
    next beta, the grey measure and whether it projected, starting from
    beta 1. Delta spans all elements; OC moves free ones only. Returns (rho,
    converged, history), one row per iteration whose volume_fraction is the
    mean active density after the OC step.

    A loop that has locked into a limit cycle stops unconverged: when a
    field and its beta equal those two iterations back to within 1e-3 eps,
    every later iteration repeats the last two, so the field the cap would
    return is the kept one whose iteration has the parity of max_iter. Such
    a stop returns fewer than max_iter history rows.
    """
    grid, material = operator.grid, operator.material
    act = grid.active_elems
    rho = np.array(rho, dtype=float)
    beta = 1.0 if projection is not None else None
    # The projection gate opens on even iterations only, so with or without
    # a projection the loop's map repeats every two iterations.
    period = 2
    kept = collections.deque(maxlen=period + 1)  # (field, beta) of this and 2 back
    history = []
    for it in range(1, max_iter + 1):
        solution = operator.solve(rho, loads)
        if check_each_solve:
            operator.check(rho, solution)
        sens = sensitivity(grid, rho, material, solution.element_energy)
        filtered = filter_sensitivities(grid, rho, sens, r_min)
        new_rho, clamped = oc_update(grid, rho, filtered, volume_target, frozen)
        row = {"iteration": it, "compliance": solution.compliance,
               "volume_fraction": new_rho[act].sum() / act.size}
        if projection is not None:
            new_rho, beta, m_nd, projected = projection.step(it, new_rho, beta)
            row.update(m_nd=m_nd, beta=beta, projected=projected)
        row["max_delta"] = delta = float(np.abs(new_rho - rho).max())
        history.append(row)
        rho = new_rho
        if delta < eps and not clamped:
            return rho, True, history
        kept.append((rho, beta))
        back, back_beta = kept[0]
        if len(kept) > period and back_beta == beta and np.abs(rho - back).max() < 1e-3 * eps:
            return kept[-1 - (it - max_iter) % period][0], False, history
    return rho, False, history


def simp_inner_solve(operator, loads, rho, volume_target, frozen, r_min, eps,
                     max_iter, stage, history):
    """One coarse stage of simp_loop, every solve checked.

    Appends the stage's history rows, tagged with `stage`, to history.
    Returns (rho, converged).
    """
    rho, converged, rows = simp_loop(operator, loads, rho, volume_target, frozen,
                                     r_min, eps, max_iter, check_each_solve=True)
    history.extend({"stage": stage, **row} for row in rows)
    return rho, converged


def freeze_out_of_range(grid, rho, frozen, policy):
    """Freeze densities beyond the thresholds; returns the number frozen.

    Values equal to a threshold freeze too. Free elements left with three or
    more frozen-void edge-neighbours cannot stay in equilibrium and are
    themselves voided, applied repeatedly until stable.
    """
    act_mask = grid.active.ravel(order="C")
    free = (frozen == FREE) & act_mask
    to_solid = free & (rho >= policy.rho_bar_max)
    to_void = free & (rho <= policy.rho_bar_min)
    frozen[to_solid] = SOLID
    frozen[to_void] = VOID
    rho[to_solid] = 1.0
    rho[to_void] = fem.MaterialModel.rho_min
    count = int(to_solid.sum() + to_void.sum())

    while True:
        forced = (frozen == FREE) & act_mask & (grid.count_neighbours(frozen == VOID) >= 3)
        if not forced.any():
            return count
        frozen[forced] = VOID
        rho[forced] = fem.MaterialModel.rho_min
        count += int(forced.sum())


@fem.one_blas_thread()
def stage_loop(grid, material, bc, policy, r_min, eps, max_inner, stage_cap):
    """Fig.-style two-level outer loop at the coarse scale.

    Runs the SIMP inner loop, freezes out-of-range densities and repeats
    until a stage ends with every free density inside the threshold range.
    The caller sets all four loop settings; RunConfig holds their defaults.
    """
    policy.validate()
    operator = fem.Operator(grid, material, bc)
    loads = fem.load_vector(grid, bc)

    act_mask = grid.active.ravel(order="C")
    rho = np.zeros(grid.n_elems)
    rho[act_mask] = policy.rho0
    frozen = np.zeros(grid.n_elems, dtype=np.int8)
    volume_target = policy.rho0 * act_mask.sum() * grid.hx * grid.hy

    history = []
    stage_fields = []
    converged = False
    stages = 0
    for stage in range(1, stage_cap + 1):
        stages = stage
        start = len(history)
        rho, inner_ok = simp_inner_solve(operator, loads, rho, volume_target, frozen,
                                         r_min, eps, max_inner, stage, history)
        if not inner_ok:
            log.warning("stage %d stopped unconverged: %s", stage,
                        "the inner iteration cap" if len(history) - start == max_inner
                        else "a limit cycle")
        n_frozen = freeze_out_of_range(grid, rho, frozen, policy)
        stage_fields.append(rho.copy())
        log.info(
            "stage %d: %d newly frozen, %d free left",
            stage,
            n_frozen,
            int(((frozen == FREE) & act_mask).sum()),
        )
        if n_frozen == 0:
            converged = True
            break

    solution = operator.solve(rho, loads)
    operator.check(rho, solution)
    return CoarseResult(
        rho=rho,
        frozen=frozen,
        stages=stages,
        converged=converged,
        history=history,
        solution=solution,
        stage_fields=stage_fields,
    )
