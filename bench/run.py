"""Benchmark of the two-level pipeline, end to end and module by module.

Usage:
  python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md for why each exists):
  ex1-farm-serial  example1: coarse pass, equilibration, an 8-cell fine farm
                   on one process, stitch and render
  ex2-farm-pool    example2: the same composition on a 2-worker process pool
  coarse-verify    run_pipeline(skip_fine=True) on example1 refined 4x per side

A run repeats whole passes of its workload while the timed time stays within
--seconds (at least one pass), checks every pass against properties computed
apart from the program (checks.py), then times set-up in fresh interpreters.
Its timings are medians, divided by the median slowdown of a reference kernel
(speed.py) timed next to them on as many cores, because the machine's speed
drifts. With --trace 0 it reports the end-to-end metrics; with --trace 1 it
times one pass plain and one traced (spans.py) and reports the per-layer
metrics. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
if not (SRC / "twolevel_topopt" / "__init__.py").is_file():
    sys.exit(f"run.py: the twolevel_topopt sources are not under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import speed  # noqa: E402
from twolevel_topopt import coarse, equilibrate, fine, pipeline  # noqa: E402
from twolevel_topopt.coarse import InfeasibleVolumeError  # noqa: E402
from twolevel_topopt.equilibrate import EquilibrationError  # noqa: E402
from twolevel_topopt.fem import SolverError  # noqa: E402
from twolevel_topopt.fine import FineSolveError  # noqa: E402
from twolevel_topopt.grid import GridError  # noqa: E402

PROGRAM_ERRORS = (pipeline.PipelineError, SolverError, EquilibrationError,
                  InfeasibleVolumeError, FineSolveError, GridError)

SETUP_PROBES = 7     # fresh interpreters per run; setup_s is their median
SPEED_REPS = 12      # reference kernel runs after each timed pass
SETUP_SPEED_REPS = 3  # reference kernel runs after each set-up probe
POOL_RECHECKS = 2    # pool cells re-solved serially for the bitwise check


@dataclass(frozen=True)
class Workload:
    preset: str
    workers: int = 1   # fine-farm worker processes; 0 for coarse-verify
    sample: int = 8    # fine cells optimised per pass
    images: tuple = (0,)  # cell images (orient codes) the seed picks from
    refine: int = 1    # coarse elements per preset element side

    @property
    def farm(self):
        return self.workers > 0


# example2 gets only load reversal: mirror images of some of its capped cells
# end in other designs (one differed by 11% in compliance), so mirrors there
# would vary the work with the seed.
WORKLOADS = {
    "ex1-farm-serial": Workload("example1", workers=1, images=tuple(range(8))),
    "ex2-farm-pool": Workload("example2", workers=2, images=(0, 4)),
    "coarse-verify": Workload("example1", workers=0, refine=4),
}


# -- inputs made from the seed --------------------------------------------------


def orient(tractions, code):
    """One of eight images (code 0..7) of one cell's edge tractions.

    Bit 0 mirrors x -> a - x, bit 1 mirrors y -> b - y, bit 2 reverses the
    loads. A mirror swaps two opposite edges, reverses every edge's direction
    and flips one component, so every image is still self-equilibrated and
    has the same optimum up to the mirror. Reversed loads give bitwise the
    same densities; mirrors change only the round-off.
    """
    t = np.array(tractions, dtype=float) * (-1.0 if code & 4 else 1.0)
    if code & 1:
        t = t[[0, 3, 2, 1]][:, ::-1] * np.array([-1.0, 1.0])
    if code & 2:
        t = t[[2, 1, 0, 3]][:, ::-1] * np.array([1.0, -1.0])
    return t


def config_overrides(workload, seed):
    """RunConfig field overrides for the workload's preset.

    coarse-verify refines the preset `refine` times per side and lets the
    seed pick one of four mirror images of the whole problem: bit 0 moves
    the clamp to the right edge and the shear to the left edge, bit 1
    reverses the shear. The images share the mesh and the design up to the
    mirror, so they cost the same.
    """
    base = pipeline.PRESETS[workload.preset]
    r = workload.refine
    over = {"nx": base["nx"] * r, "ny": base["ny"] * r,
            "hx": base["hx"] / r, "hy": base["hy"] / r}
    code = seed % 4 if not workload.farm else 0
    if code == 0:
        return over
    config = pipeline.preset_config(workload.preset, **over)
    grid = config.build_grid()
    bc = config.build_bc(grid)
    flip_x, sign = bool(code & 1), (-1.0 if code & 2 else 1.0)
    neumann = []
    for (e, k), (ts, te) in bc.neumann.items():
        ix, iy = grid.elem_index(e)
        if flip_x:
            ix, k = grid.nx - 1 - ix, (0, 3, 2, 1)[k]
            ts, te = te * [-1.0, 1.0], ts * [-1.0, 1.0]
        neumann.append((ix, iy, k, *(sign * ts), *(sign * te)))
    dirichlet = []
    for node, (mask, _) in bc.dirichlet.items():
        jx, jy = grid.node_index(node)
        comps = "x" * bool(mask[0]) + "y" * bool(mask[1])
        dirichlet.append((grid.nx - jx if flip_x else jx, jy, comps))
    over.update(load_preset="none", support_preset="none",
                neumann=sorted(neumann), dirichlet=sorted(dirichlet))
    return over


def sample_cells(grid, result, k):
    """k free cells at evenly spaced quantiles of the coarse density.

    Densities are rounded to 1e-6 before ranking, with the element id
    breaking ties, so round-off in the coarse pass cannot reshuffle the
    sample.
    """
    free = [int(e) for e in grid.active_elems if result.frozen[e] == coarse.FREE]
    ranked = sorted(free, key=lambda e: (round(float(result.rho[e]), 6), e))
    return sorted(ranked[int((i + 0.5) * len(ranked) / k)] for i in range(k))


# -- one pass of each workload -------------------------------------------------


@dataclass
class Inputs:
    workload: Workload
    config: pipeline.RunConfig
    grid: object
    bc: object
    sample: list = None
    codes: list = None


def prepare(workload, seed):
    config = pipeline.preset_config(workload.preset, **config_overrides(workload, seed))
    grid = config.build_grid()
    inputs = Inputs(workload, config, grid, config.build_bc(grid))
    if workload.farm:
        result = run_coarse(inputs)
        inputs.sample = sample_cells(grid, result, workload.sample)
        rng = np.random.default_rng(seed)
        inputs.codes = [int(c) for c in rng.choice(workload.images, size=len(inputs.sample))]
    return inputs


def run_coarse(inputs):
    c = inputs.config
    return coarse.stage_loop(
        inputs.grid, c.coarse_material(), inputs.bc, c.threshold_policy(),
        r_min=c.coarse_r_min, eps=c.coarse_eps, max_inner=c.max_inner,
        stage_cap=c.stage_cap,
    )


def farm_pass(inputs, out_dir, workers):
    """Coarse pass, equilibration, the sampled farm, stitch and render."""
    c, grid = inputs.config, inputs.grid
    t0 = time.perf_counter()
    result = run_coarse(inputs)
    field = equilibrate.equilibrate_all(
        grid, result.rho, c.coarse_material(), inputs.bc, result.solution.u,
        void_mask=result.frozen == coarse.VOID,
    )
    # Free cells outside the sample go to the farm frozen, so it fills them
    # without FE work; sampled cells get the image the seed picked.
    frozen = result.frozen.copy()
    others = (frozen == coarse.FREE) & grid.active.ravel(order="C")
    others[inputs.sample] = False
    frozen[others] = np.where(result.rho[others] >= 0.5, coarse.SOLID, coarse.VOID)
    tractions = field.tractions.copy()
    for e, code in zip(inputs.sample, inputs.codes):
        tractions[e] = orient(tractions[e], code)
    t1 = time.perf_counter()
    batch = fine.solve_all_cells(
        grid, replace(result, frozen=frozen), tractions, n=c.fine_n,
        material=c.fine_material(), r_min=c.fine_r_min, eps=c.fine_eps,
        projection=c.projection_params(), max_iter=c.fine_max_iter, workers=workers,
    )
    t2 = time.perf_counter()
    image = None
    if not batch.failures:
        image = pipeline.stitch(grid, batch)
        pipeline.render(image, "pgm", out_dir / "highres.pgm")
    t3 = time.perf_counter()
    return dict(run_s=t3 - t0, farm_s=t2 - t1, result=result, field=field,
                tractions=tractions, batch=batch, image=image, out=out_dir)


def verify_pass(inputs, out_dir):
    """The CLI `verify` path into a fresh output directory."""
    config = replace(inputs.config, out=str(out_dir))
    t0 = time.perf_counter()
    try:
        summary = pipeline.run_pipeline(config, skip_fine=True)
    except PROGRAM_ERRORS as exc:
        return dict(run_s=time.perf_counter() - t0, error=str(exc), out=out_dir)
    return dict(run_s=time.perf_counter() - t0, summary=summary, out=out_dir)


def one_pass(inputs, out_dir, workers=None):
    if out_dir.exists():
        shutil.rmtree(out_dir)
    out_dir.mkdir(parents=True)
    if inputs.workload.farm:
        return farm_pass(inputs, out_dir, inputs.workload.workers if workers is None else workers)
    return verify_pass(inputs, out_dir)


# -- checks and figures of one pass --------------------------------------------


def missed_target(inputs, p):
    """Sampled cells the farm returned as optimised but off their volume target.

    These are failed operations, not wrong output: example2 cell 74 ends
    every pass at mean density 0.947 for a target of 0.745 (it stops at
    max_iter with every density in [0.92, 0.99]). The cell and its target do
    not depend on the seed, so it fails in every pass of every run.
    """
    batch, rho = p["batch"], p["result"].rho
    return sorted(e for e in inputs.sample if e in batch.cells and e not in batch.failures
                  and batch.cells[e].kind == "optimized"
                  and checks.off_target(batch.cells[e], float(rho[e])) > checks.VOLUME_TOL)


def check_farm(inputs, p):
    """Check a farm pass; returns (failed cells, quality figures).

    A sampled cell fails when the farm reports it failed or returns it off
    its volume target; the other sampled cells must pass every check.
    """
    c, grid = inputs.config, inputs.grid
    result, batch = p["result"], p["batch"]
    coarse_c = checks.check_coarse(grid, inputs.bc, c.coarse_material(), result.rho,
                                   result.solution.u, p["field"].tractions, c.rho0,
                                   result.solution.compliance)
    fmat = c.fine_material()
    failed = set(batch.failures) | set(missed_target(inputs, p))
    for e in inputs.sample:
        if e in failed:
            continue
        checks.check_fine_cell(batch.cells.get(e), float(result.rho[e]), p["tractions"][e],
                               c.fine_n, grid.hx, grid.hy, fmat.E, fmat.nu, fmat.p,
                               fmat.rho_min)
    done = [batch.cells[e] for e in inputs.sample if e not in failed]
    if p["image"] is not None:
        rasters = np.zeros((grid.n_elems, c.fine_n ** 2))
        for e, r in batch.cells.items():
            rasters[e] = r.rho
        checks.check_stitched(p["image"].data, rasters, grid.active, c.fine_n)
        checks.check_pgm(p["out"] / "highres.pgm", p["image"].data)
    return len(failed), {
        "coarse_compliance": coarse_c,
        "fine_compliance": float(sum(r.compliance for r in done)),
        "grey_pct": float(np.mean([checks.grey_measure(r.rho) for r in done])),
        "cells": len(done),
    }


def check_verify(inputs, p):
    """Check a coarse-verify pass from its artifacts; returns (failed, figures)."""
    if "error" in p:
        return 1, {}
    c, grid, out = inputs.config, inputs.grid, p["out"]
    with np.load(out / "coarse_state.npz") as npz:
        state = {key: npz[key] for key in npz.files}
    tractions = checks.read_tractions_csv(out / "tractions.csv", grid.n_elems)
    coarse_c = checks.check_coarse(grid, inputs.bc, c.coarse_material(), state["rho"],
                                   state["u"], tractions, c.rho0,
                                   p["summary"]["coarse_compliance"])
    stages = int(state["stages"])
    checks.require(p["summary"]["stages"] == stages == len(state["stage_fields"]),
                   "stage count differs between summary and checkpoint")
    for k, values in enumerate(state["stage_fields"], 1):
        field_xy = values.reshape(grid.nx, grid.ny)
        checks.check_pgm(out / f"coarse_stage_{k:02d}.pgm", field_xy)
        checks.check_csv_raster(out / f"coarse_stage_{k:02d}.csv", field_xy)
    rho = state["rho"][grid.active_elems]
    return 0, {
        "coarse_compliance": coarse_c,
        # No fine level runs here: the finest design is the coarse one.
        "fine_compliance": coarse_c,
        "grey_pct": checks.grey_measure(rho),
        "cells": int(grid.active_elems.size),
        "stages": stages,
        "iterations": int(len(state["history"])),
    }


def check_pass(inputs, p):
    return check_farm(inputs, p) if inputs.workload.farm else check_verify(inputs, p)


def check_pool_bitwise(inputs, p, count):
    """Re-solve `count` pool cells in this process: the results must be identical."""
    c, grid, batch = inputs.config, inputs.grid, p["batch"]
    for e in inputs.sample[:count]:
        problem = fine.FineCellProblem(
            cell=e, target=float(p["result"].rho[e]), tractions=p["tractions"][e],
            hx=grid.hx, hy=grid.hy, n=c.fine_n, material=c.fine_material(),
            r_min=c.fine_r_min, eps=c.fine_eps, projection=c.projection_params(),
            max_iter=c.fine_max_iter,
        )
        serial, pooled = fine.fine_cell_solve(problem), batch.cells[e]
        checks.require(
            np.array_equal(serial.rho, pooled.rho)
            and (serial.iterations, serial.converged, serial.compliance)
            == (pooled.iterations, pooled.converged, pooled.compliance),
            f"cell {e}: pool result differs from the serial re-solve",
        )


# -- the run --------------------------------------------------------------------


def artifact_bytes(out_dir):
    return sum(f.stat().st_size for f in out_dir.rglob("*") if f.is_file())


def setup_seconds(workload, seed):
    """Set-up seconds of SETUP_PROBES fresh interpreters and the kernel slowdowns
    of SETUP_SPEED_REPS runs after each."""
    over = json.dumps(config_overrides(workload, seed))
    probe = BENCH / "setup_probe.py"
    times, slowdowns = [], []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, str(probe), workload.preset, over],
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
        speed.slowdown()  # warm-up: the probe has just filled the caches with its own data
        slowdowns += speed.samples(SETUP_SPEED_REPS)[0]
    return times, slowdowns


def peak_rss_mb(workers):
    """Peak RSS of this process plus, for a pool, `workers` times its largest worker."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if workers > 1 else 0
    return (self_kb + workers * child_kb) / 1024.0


def timed_passes(inputs, seconds, out_root):
    """Whole passes while the timed seconds stay within `seconds`; at least one.

    After each pass the reference kernel runs SPEED_REPS times in as many
    processes as the pass keeps busy; its time counts as timed. Checks run
    untimed after each pass. Peak RSS is read after the first pass, before
    any check, so neither the checks nor the pass count move it. Returns
    (passes reduced to their figures, kernel slowdowns, peak RSS in MB).
    """
    passes, slowdowns, spent, rss, step = [], [], 0.0, None, 0.0
    while not passes or spent + step <= seconds:
        p = one_pass(inputs, out_root / f"pass{len(passes)}")
        values, kernel_s = speed.samples(SPEED_REPS, max(inputs.workload.workers, 1))
        slowdowns += values
        step = p["run_s"] + kernel_s
        spent += step
        if rss is None:
            rss = peak_rss_mb(inputs.workload.workers)
            if inputs.workload.workers > 1:
                check_pool_bitwise(inputs, p, POOL_RECHECKS)
        failed, figures = check_pass(inputs, p)
        if passes:
            check_same(passes[0]["figures"], figures)
        passes.append({"run_s": p["run_s"], "farm_s": p.get("farm_s"),
                       "failed": failed, "figures": figures})
    return passes, slowdowns, rss


def check_same(first, later):
    """Repeated passes of one deterministic input give the same figures."""
    if first and later:
        checks.require(first == later, f"pass figures changed between passes: {first} vs {later}")


def end_to_end(inputs, seed, seconds, out_root):
    """End-to-end metrics. Every timing is a median over the run, divided by
    the median slowdown of the reference kernel runs made next to it."""
    w = inputs.workload
    passes, slowdowns, rss = timed_passes(inputs, seconds, out_root)
    setup_times, setup_slowdowns = setup_seconds(w, seed)
    slow = statistics.median(slowdowns)
    setup_slow = statistics.median(setup_slowdowns)
    print("pass run_s:", " ".join(f"{p['run_s']:.4f}" for p in passes),
          f"| kernel slowdown {slow:.4f} over {len(slowdowns)} runs"
          f" | setup {statistics.median(setup_times):.4f} s, slowdown {setup_slow:.4f}",
          file=sys.stderr)
    good = [p for p in passes if p["figures"]]
    figures = good[-1]["figures"] if good else {}
    clock = "farm_s" if w.farm else "run_s"
    rate = (figures["cells"] * slow / statistics.median(p[clock] for p in good)
            if good else 0.0)
    metrics = {
        "run_s": (statistics.median(p["run_s"] for p in passes) / slow, "s"),
        "setup_s": (statistics.median(setup_times) / setup_slow, "s"),
        "peak_rss_mb": (rss, "MB"),
        "cells_per_s": (rate, "cells/s"),
        "coarse_compliance": (figures.get("coarse_compliance", 0.0), "energy"),
        "fine_compliance": (figures.get("fine_compliance", 0.0), "energy"),
        "grey_pct": (figures.get("grey_pct", 0.0), "%"),
    }
    return passes, metrics


def traced(inputs, out_root):
    """One plain pass, then one traced pass; per-layer metrics of the traced one.

    On the pool workload the traced pass runs its cells in this process,
    because the wrappers do not reach the pool's workers. That workload
    also runs one plain serial pass: tracing overhead is measured against
    it, and pool efficiency is its farm time over workers times the pool's.
    """
    import spans

    w = inputs.workload
    plain = one_pass(inputs, out_root / "plain")
    plain["failed"], plain["figures"] = check_pass(inputs, plain)
    plains = [plain]
    if w.workers > 1:
        plains.append(one_pass(inputs, out_root / "plain-serial", workers=1))
        plains[-1]["failed"], plains[-1]["figures"] = check_pass(inputs, plains[-1])
        check_same(plain["figures"], plains[-1]["figures"])
    tracer = spans.Tracer()
    with tracer.install():
        with tracer.span("bench.setup") as setup_root:
            for _ in range(SETUP_PROBES):
                grid = inputs.config.build_grid()
                inputs.config.build_bc(grid)
        with tracer.span("bench.pass") as root:
            p = one_pass(inputs, out_root / "traced", workers=1)
    p["failed"], p["figures"] = check_pass(inputs, p)
    check_same(plain["figures"], p["figures"])
    durations, self_time = tracer.summary(root)
    setup_durations, _ = tracer.summary(setup_root)

    def total(name):
        return float(sum(durations.get(name, ())))

    def count(name):
        return len(durations.get(name, ()))

    def median(values):
        return float(statistics.median(values)) if values else 0.0

    def module_self(prefix):
        return float(sum(v for k, v in self_time.items() if k.startswith(prefix + ".")))

    if w.farm:
        result, batch = p["result"], p["batch"]
        stages, iterations = result.stages, len(result.history)
        cells = [batch.cells[e] for e in inputs.sample if e in batch.cells]
    else:
        stages, iterations = p["figures"].get("stages", 0), p["figures"].get("iterations", 0)
        cells = []
    cell_times = durations.get("fine.cell", [])
    fine_iters = sum(r.iterations for r in cells)
    n = inputs.config.fine_n
    dofs, band = 2 * (n + 1) ** 2 - 3, 2 * n + 5
    # Banded Cholesky plus the two triangular solves, per call.
    flops = dofs * (band * band + 6 * band)
    banded_self = self_time.get("fine.banded_solve", 0.0)
    m = {
        "fine.farm_s": (total("fine.farm"), "s"),
        "fine.cell_s_median": (median(cell_times), "s"),
        "fine.cell_s_max": (max(cell_times, default=0.0), "s"),
        "fine.iterations": (fine_iters, "count"),
        "fine.capped_cells": (sum(not r.converged for r in cells), "count"),
        "fine.iteration_ms": (1e3 * sum(cell_times) / max(fine_iters, 1), "ms"),
        "fine.banded_solve_s": (total("fine.banded_solve"), "s"),
        "fine.banded_gflops": (
            flops * count("fine.banded_solve") / banded_self / 1e9 if banded_self else 0.0,
            "GFLOP/s"),
        "fine.apply_tractions_s": (total("fine.apply_tractions"), "s"),
        "fine.project_s": (total("fine.project"), "s"),
        "fine.pool_efficiency": (
            plains[-1]["farm_s"] / (w.workers * plain["farm_s"]) if w.workers > 1 else 0.0,
            "ratio"),
    }
    oc_calls = count("coarse.oc_update")
    solves = durations.get("fem.solve", [])
    io = sum(self_time.get(k, 0.0) for k in spans.IO_SPANS + ("pipeline.run_pipeline",))
    m.update({
        "coarse.stage_loop_s": (total("coarse.stage_loop"), "s"),
        "coarse.stages": (stages, "count"),
        "coarse.iterations": (iterations, "count"),
        "coarse.oc_update_s": (total("coarse.oc_update"), "s"),
        "coarse.oc_update_calls": (oc_calls, "count"),
        "coarse.oc_volume_evals": (count("coarse.oc_step_values"), "count"),
        "coarse.oc_evals_per_update": (count("coarse.oc_step_values") / max(oc_calls, 1), "ratio"),
        "coarse.filter_s": (total("coarse.filter"), "s"),
        "fem.solve_s": (total("fem.solve"), "s"),
        "fem.solve_calls": (len(solves), "count"),
        "fem.solve_ms_median": (1e3 * median(solves), "ms"),
        "fem.assemble_s": (total("fem.assemble"), "s"),
        "fem.energies_s": (total("fem.energies"), "s"),
        "equilibrate.equilibrate_all_s": (total("equilibrate.equilibrate_all"), "s"),
        "equilibrate.build_report_s": (total("equilibrate.build_report"), "s"),
        "pipeline.certificate_s": (total("pipeline.certificate"), "s"),
        "pipeline.stitch_s": (total("pipeline.stitch"), "s"),
        "pipeline.render_s": (total("pipeline.render"), "s"),
        "pipeline.io_s": (io, "s"),
        "pipeline.artifact_bytes": (artifact_bytes(p["out"]), "bytes"),
        "grid.build_s": (median(setup_durations.get("pipeline.build_grid", [])), "s"),
        "pipeline.build_bc_s": (median(setup_durations.get("pipeline.build_bc", [])), "s"),
        "trace.run_s": (p["run_s"], "s"),
        "trace.plain_run_s": (plains[-1]["run_s"], "s"),
        "trace.overhead_s": (p["run_s"] - plains[-1]["run_s"], "s"),
        "trace.spans": (len(tracer.spans), "count"),
    })
    for module in ("grid", "fem", "coarse", "equilibrate", "fine", "pipeline", "bench"):
        m[f"{module}.self_s"] = (module_self(module), "s")
    return plains + [p], m


def run(workload_name, seed, seconds, trace_on):
    """Run one workload; returns the result object printed as the last line."""
    workload = WORKLOADS[workload_name] if isinstance(workload_name, str) else workload_name
    out_root = OUT / f"{workload.preset}-r{workload.refine}-w{workload.workers}-s{seed}"
    if out_root.exists():
        shutil.rmtree(out_root)
    inputs = prepare(workload, seed)
    try:
        if trace_on:
            passes, metrics = traced(inputs, out_root)
        else:
            passes, metrics = end_to_end(inputs, seed, seconds, out_root)
    except checks.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return {"correct": False, "attempted": 1, "failed": 0, "metrics": {}}
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
    per_pass = len(inputs.sample) if workload.farm else 1
    return {
        "correct": True,
        "attempted": per_pass * len(passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
