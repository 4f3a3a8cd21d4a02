"""Self-test of the benchmark: python3 bench/selftest.py

Runs every workload at a tiny size with its checks on, plain and traced,
then shows that the checks reject corrupted outputs: a traction nudged by
1e-6 of the force scale, a cell raster off its volume target (which a pass
counts as a failed cell), and two swapped blocks in the stitched image.
Prints one line per step and exits non-zero if any step goes the wrong way.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import shutil  # noqa: E402
import sys  # noqa: E402
from dataclasses import replace  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402

TINY_SAMPLE = 2  # fine cells per farm pass; the cells keep the preset resolution


def tiny(name):
    workload = run.WORKLOADS[name]
    if workload.farm:
        return replace(workload, sample=TINY_SAMPLE)
    return replace(workload, refine=1)


def rejects(what, check, *args):
    """True when `check(*args)` raises CheckFailed."""
    try:
        check(*args)
    except checks.CheckFailed as exc:
        print(f"ok    {what} rejected: {exc}")
        return True
    print(f"FAIL  {what} was accepted")
    return False


def corruption_steps():
    inputs = run.prepare(tiny("ex1-farm-serial"), seed=1)
    out_dir = run.OUT / "selftest"
    try:
        p = run.one_pass(inputs, out_dir)
        run.check_pass(inputs, p)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    c, grid = inputs.config, inputs.grid
    result, batch = p["result"], p["batch"]
    ok = True

    # A traction nudged by 1e-6 of the force scale on one interior edge.
    material = c.coarse_material()
    tractions = p["field"].tractions.copy()
    ke = checks.closed_form_stiffness(material.E, material.nu, grid.hx, grid.hy)
    scale = np.where(grid.active.ravel(order="C"), result.rho ** material.p, 0.0)
    force_scale = checks.nodal_force_scale(grid.nx, grid.ny, ke, scale, result.solution.u)
    e = int(grid.elem_id(grid.nx // 2, grid.ny // 2))
    tractions[e, 1, 0, 1] += 1e-6 * force_scale
    ok &= rejects("traction nudged by 1e-6 of the force scale", checks.check_coarse,
                  grid, inputs.bc, material, result.rho, result.solution.u, tractions,
                  c.rho0, result.solution.compliance)

    # A cell raster moved off its volume target.
    e = inputs.sample[0]
    fmat = c.fine_material()
    cell = replace(batch.cells[e], rho=np.clip(batch.cells[e].rho * 1.01, fmat.rho_min, 1.0))
    ok &= rejects("cell raster off its volume target", checks.check_fine_cell,
                  cell, float(result.rho[e]), p["tractions"][e], c.fine_n, grid.hx,
                  grid.hy, fmat.E, fmat.nu, fmat.p, fmat.rho_min)
    # In a pass, such a cell counts as a failed operation.
    off = dict(p, batch=replace(batch, cells={**batch.cells, e: cell}), image=None)
    counted = run.check_farm(inputs, off)[0] == 1
    print(f"{'ok   ' if counted else 'FAIL '} cell off its volume target counted as failed")
    ok &= counted

    # Two blocks of the stitched image swapped.
    n = c.fine_n
    rasters = np.zeros((grid.n_elems, n * n))
    for cell_id, r in batch.cells.items():
        rasters[cell_id] = r.rho
    data = p["image"].data.copy()
    a, b = inputs.sample[:2]
    (ax, ay), (bx, by) = grid.elem_index(a), grid.elem_index(b)
    block_a = data[ax * n:(ax + 1) * n, ay * n:(ay + 1) * n].copy()
    data[ax * n:(ax + 1) * n, ay * n:(ay + 1) * n] = data[bx * n:(bx + 1) * n, by * n:(by + 1) * n]
    data[bx * n:(bx + 1) * n, by * n:(by + 1) * n] = block_a
    ok &= rejects("stitched image with two blocks swapped", checks.check_stitched,
                  data, rasters, grid.active, n)
    return ok


def main():
    ok = True
    for name in run.WORKLOADS:
        for trace_on in (False, True):
            out = run.run(tiny(name), seed=1, seconds=0, trace_on=trace_on)
            good = out["correct"] and out["failed"] == 0 and out["metrics"]
            label = f"{name} ({'traced' if trace_on else 'plain'}, tiny)"
            print(f"{'ok   ' if good else 'FAIL '} {label}: {out['attempted']} attempted, "
                  f"{out['failed']} failed, {len(out['metrics'])} metrics")
            ok &= bool(good)
    ok &= corruption_steps()
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
