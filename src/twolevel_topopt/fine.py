"""Fine-scale SIMP solved independently per coarse cell.

Each unfrozen coarse element becomes a small n x n SIMP problem loaded by
the equilibrated edge tractions of its coarse edges. Because those loads
are self-equilibrated, three scalar supports (bottom-left pin plus a
bottom-right vertical roller) suffice and their reactions vanish. The loop
is the coarse one, coarse.simp_loop, plus an exponential density projection
applied on even iterations while the field is still far from 0-1, doubling
the projection steepness from 1 up to beta_max. A cell stops converged,
at the iteration cap, or early once its OC step and projection repeat a
cycle of fields; its stop_reason names which, and all three are usable.
"""

from __future__ import annotations

import functools
import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import coarse, fem
from .grid import CORNER_OFFSETS, EDGE_LNODES, BoundaryConditions, Grid, edge_lengths

log = logging.getLogger(__name__)


class FineSolveError(RuntimeError):
    """A fine cell problem is invalid or failed to solve; the message omits the cell id."""


@dataclass
class ProjectionParams:
    """Exponential projection schedule: beta doubling from 1, the grey gate.

    The threshold is 0.5 and the gate opens on even iterations only; both
    are fixed parts of the method.
    """

    beta_max: float = 2.0
    m_nd_min: float = 50.0

    def __post_init__(self):
        if not self.beta_max >= 1:
            raise ValueError(f"beta_max must be at least 1, got {self.beta_max!r}")

    def step(self, it, rho, beta):
        """The projection step after iteration it's OC update.

        On even iterations, while the grey measure of rho exceeds m_nd_min,
        rho is projected at steepness beta and beta doubles (capped at
        beta_max). Returns (rho, beta, m_nd, projected).
        """
        m_nd = measure_nondiscreteness(rho)
        if it % 2 == 0 and m_nd > self.m_nd_min:
            # The projection maps [0,1] onto itself, so densities near the
            # floor come out below it; pull them back into the FE-valid range.
            rho = np.clip(project_density(rho, beta), fem.MaterialModel.rho_min, 1.0)
            return rho, min(2.0 * beta, self.beta_max), m_nd, True
        return rho, beta, m_nd, False


@dataclass
class FineCellProblem:
    """One cell's fine optimization input.

    tractions has shape (4, 2, 2): per local edge of the coarse cell, the
    linear traction's (start, end) 2-vectors in the cell's counter-clockwise
    orientation; they must be self-equilibrated, and fine_cell_solve always
    checks that they are. hx, hy are the coarse cell's physical dimensions.
    """

    cell: int
    target: float
    tractions: np.ndarray
    hx: float
    hy: float
    n: int = 32
    material: fem.MaterialModel = field(
        default_factory=lambda: fem.MaterialModel(E=1000.0, nu=0.3, p=3.0)
    )
    r_min: float = 1.3
    eps: float = 0.01
    projection: ProjectionParams = field(default_factory=ProjectionParams)
    max_iter: int = 300


@dataclass
class FineCellResult:
    """Fine density raster of one cell plus solve diagnostics."""

    cell: int
    rho: np.ndarray
    kind: str  # frozen-solid | frozen-void | optimized
    stop_reason: str = "frozen"  # or coarse.simp_loop's converged | cycle | iteration-cap
    iterations: int = 0
    m_nd: float = 0.0
    beta_final: float = 0.0
    compliance: float = 0.0
    max_reaction: float = 0.0
    reaction_scale: float = 0.0

    @property
    def converged(self):
        """False after a cycle or iteration-cap stop; kept for bench/run.py."""
        return self.stop_reason in ("frozen", "converged")


def project_density(rho, beta):
    """Exponential projection pushing densities away from 0.5 towards 0/1.

    Piecewise-exponential with fixed points 0, 0.5 and 1; beta = 0 is the
    identity and larger beta sharpens the push. Monotone in rho for any
    beta >= 0.
    """
    rho = np.asarray(rho, dtype=float)
    out = np.empty_like(rho)
    low = rho <= 0.5
    r = rho[low] / 0.5
    out[low] = 0.5 * (np.exp(-beta * (1.0 - r)) - (1.0 - r) * np.exp(-beta))
    r = (rho[~low] - 0.5) / 0.5
    out[~low] = 0.5 * (1.0 - np.exp(-beta * r) + r * np.exp(-beta)) + 0.5
    return out


def measure_nondiscreteness(rho):
    """Grey-level measure M_nd = mean 4 rho (1 - rho) x 100, in percent."""
    rho = np.asarray(rho, dtype=float)
    return float((4.0 * rho * (1.0 - rho)).mean() * 100.0)


def rigid_body_supports(n):
    """Minimal support set: pin the bottom-left node, roll the bottom-right.

    Exactly three scalar constraints, which removes the two translations
    and the rotation and nothing else. With self-equilibrated edge loads
    the associated reactions vanish.
    """
    bc = BoundaryConditions()
    bc.fix_node(0, mask=(True, True))
    bc.fix_node(n * (n + 1), mask=(False, True))
    return bc


class _CellSolver(fem.Operator):
    """The fem.Operator of an n x n cell of a coarse hx x hy element.

    Mesh, supports and unit element stiffness never change while a cell is
    optimized, so the band map is built once and each iteration is one
    sparse product and one banded Cholesky factorization.
    """

    def __init__(self, n, hx, hy, material):
        super().__init__(Grid(n, n, hx / n, hy / n), material, rigid_body_supports(n))

    # The benchmark traces the farm's banded solves under this name.
    solve = fem.Operator.solve


@functools.lru_cache(maxsize=4)
def _cell_solver(n, hx, hy, material):
    """The _CellSolver of an n x n cell of a coarse hx x hy element.

    Every cell of a farm shares its mesh, supports, element stiffness and
    band pattern, so each process builds them once, keyed on the frozen
    material record. The solver and its grid are shared between callers and
    must not be mutated.
    """
    return _CellSolver(n, hx, hy, material)


def apply_cell_tractions(problem, grid):
    """Distribute the 4 coarse edge tractions onto the fine boundary mesh.

    grid is the cell's n x n fine grid, as its _CellSolver holds it. Each
    coarse linear traction is sampled at the fine sub-edge endpoints, and
    fem.load_vector turns the sub-edge tractions into consistent nodal
    loads, preserving the total force of every coarse edge. Returns the
    assembled fine load vector.
    """
    lnodes = np.array(EDGE_LNODES)
    # The fine elements along the bottom, right, top and left sides, each
    # side in order of increasing ix or iy, and their sub-edges' end nodes.
    ids = np.arange(grid.n_elems).reshape(grid.nx, grid.ny)
    side_elems = np.stack([ids[:, 0], ids[-1, :], ids[:, -1], ids[0, :]])
    ends = grid.elem_nodes[side_elems[:, :, None], lnodes[:, None, :]]  # (4, n, 2)
    # Position of each end along its coarse edge a -> b, as a fraction.
    corners = CORNER_OFFSETS * np.array([problem.hx, problem.hy])
    a, b = corners[lnodes[:, 0]], corners[lnodes[:, 1]]
    axis = b - a
    frac = ((grid.node_coords(ends) - a[:, None, None]) * axis[:, None, None]).sum(axis=-1)
    frac /= (axis * axis).sum(axis=1)[:, None, None]
    t_start, t_end = np.asarray(problem.tractions, dtype=float).transpose(1, 0, 2)
    t = t_start[:, None, None] + frac[..., None] * (t_end - t_start)[:, None, None]
    # Side k of the cell is local edge k of each of its fine elements.
    edges = zip(side_elems.ravel().tolist(), np.repeat(np.arange(4), grid.nx).tolist())
    neumann = dict(zip(edges, t.reshape(-1, 2, 2)))
    return fem.load_vector(grid, BoundaryConditions(neumann=neumann))


def traction_equilibrium(tractions, hx, hy):
    """Net force, net moment (about the cell centre) and force scale.

    The force scale is the largest resultant of one edge's traction.
    """
    tractions = np.asarray(tractions, dtype=float)
    net_f, net_m = fem.edge_traction_resultants(tractions, hx, hy)
    lengths = edge_lengths(hx, hy)[:, None]
    resultants = 0.5 * lengths * tractions.sum(axis=1)
    return net_f, float(net_m), float(np.linalg.norm(resultants, axis=1).max())


def fine_cell_solve(problem):
    """Optimize one cell per the fine-scale flowchart.

    Always rejects non-finite tractions and tractions whose net force or
    moment exceeds 1e-6 of their scale (times the longer side, for the
    moment). Runs coarse.simp_loop from a uniform density equal to the cell
    target, with the problem's ProjectionParams sharpening the field;
    convergence is max |drho| < eps on the end-of-iteration field. Hitting
    the iteration cap, or a cycle that would repeat up to it, returns a
    still-usable result whose stop_reason says so; a cycle stop has
    iterations < max_iter and the field the capped run would return.
    """
    if not 0 < problem.target < 1:
        raise FineSolveError(f"target {problem.target} invalid")
    if not np.isfinite(problem.tractions).all():
        raise FineSolveError("tractions are not finite")
    net_f, net_m, scale = traction_equilibrium(problem.tractions, problem.hx, problem.hy)
    char_len = max(problem.hx, problem.hy)
    if scale > 0 and (
        np.linalg.norm(net_f) > 1e-6 * scale or abs(net_m) > 1e-6 * scale * char_len
    ):
        raise FineSolveError(
            "tractions are not self-equilibrated "
            f"(|F| = {np.linalg.norm(net_f):.3e}, |M| = {abs(net_m):.3e}, "
            f"scale = {scale:.3e})"
        )
    solver = _cell_solver(problem.n, problem.hx, problem.hy, problem.material)
    grid = solver.grid
    loads = apply_cell_tractions(problem, grid)
    frozen = np.zeros(grid.n_elems, dtype=np.int8)
    volume_target = problem.target * grid.n_elems * grid.hx * grid.hy

    rho, stop_reason, history = coarse.simp_loop(
        solver, loads, np.full(grid.n_elems, problem.target), volume_target, frozen,
        problem.r_min, problem.eps, problem.max_iter, projection=problem.projection,
    )

    # Final solve on the returned field for compliance and support reactions.
    solution = solver.solve(rho, loads)
    max_reaction = solver.check(rho, solution)

    return FineCellResult(
        cell=problem.cell,
        rho=rho,
        kind="optimized",
        stop_reason=stop_reason,
        iterations=len(history),
        m_nd=measure_nondiscreteness(rho),
        beta_final=history[-1]["beta"] if history else 1.0,
        compliance=solution.compliance,
        max_reaction=max_reaction,
        reaction_scale=scale,
    )


@dataclass
class FineBatchResult:
    """Keyed per-cell results plus any per-cell failures."""

    cells: dict
    failures: dict
    n: int


@fem.one_blas_thread()
def _solve_for_pool(problem):
    """Picklable worker: returns (cell, result, error message or None)."""
    try:
        return problem.cell, fine_cell_solve(problem), None
    except (FineSolveError, coarse.InfeasibleVolumeError, fem.SolverError) as exc:
        return problem.cell, None, str(exc)


@fem.one_blas_thread()
def solve_all_cells(grid, coarse_result, tractions, workers=None, **settings):
    """Fine-solve every active coarse cell; frozen cells are filled directly.

    tractions is an (n_elems, 4, 2, 2) array such as
    EdgeTractionField.tractions. settings are FineCellProblem fields shared
    by every cell (n, material, r_min, eps, projection, max_iter); the rest
    keep the FineCellProblem defaults.
    Frozen-solid cells share one read-only all-ones raster and frozen-void
    cells one all-rho_min raster, without any FE work. Unfrozen cells are
    independent; when workers > 1 they go to a pool of at most one process
    per cell. Per-cell failures are collected into the result instead of
    aborting the batch.
    """
    template = FineCellProblem(cell=-1, target=0.0, tractions=None, hx=grid.hx, hy=grid.hy,
                               **settings)
    n = template.n

    # Shared, not copied per cell: a forked pool worker would hold every copy.
    filled = {coarse.SOLID: (np.ones(n * n), "frozen-solid"),
              coarse.VOID: (np.full(n * n, fem.MaterialModel.rho_min), "frozen-void")}
    for raster, _ in filled.values():
        raster.flags.writeable = False

    problems = []
    results = {}
    for e in grid.active_elems:
        state = coarse_result.frozen[e]
        if state in filled:
            results[e] = FineCellResult(e, *filled[state])
        else:
            problems.append(replace(template, cell=int(e), target=float(coarse_result.rho[e]),
                                    tractions=np.array(tractions[e])))

    failures = {}
    if workers and workers > 1 and len(problems) > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(problems))) as pool:
            outcomes = list(pool.map(_solve_for_pool, problems, chunksize=1))
    else:
        outcomes = [_solve_for_pool(problem) for problem in problems]
    for cell, outcome, error in outcomes:
        if error is None:
            results[cell] = outcome
        else:
            failures[cell] = error
            log.error("cell %d failed: %s", cell, error)

    return FineBatchResult(cells=results, failures=failures, n=n)
