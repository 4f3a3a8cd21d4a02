"""End-to-end pipeline: config parsing, presets, artifacts and stitching.

A run executes coarse stage loop -> traction equilibration -> per-cell fine
farm -> stitching, writing rasters (binary PGM and CSV), CSV logs, an
equilibrium certificate and a JSON summary into the output directory.
Expensive stages checkpoint their state as .npz files stamped with a
fingerprint of the config, so rerunning the same config after a partial
failure only recomputes what is missing; everything is deterministic for a
fixed config.

Config files are INI-style (configparser); each RunConfig field declares
the section and key that set it, and unknown sections or keys are rejected.
`preset` in [run] seeds all values from a named benchmark; any other keys
then override it.
"""

from __future__ import annotations

import configparser
import contextlib
import csv
import functools
import hashlib
import json
import logging
import math
import resource
import sys
import time
import typing
import warnings
import zipfile
import zlib
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import coarse, equilibrate, fem, fine
from .grid import BoundaryConditions, Grid, GridError, RigidModeError

log = logging.getLogger(__name__)


class ConfigError(ValueError):
    """Bad run configuration (unknown keys, out-of-range values, ...)."""


class PipelineError(RuntimeError):
    """A pipeline stage failed; partial artifacts are left for inspection."""


def _split_rows(raw):
    for lineno, line in enumerate(raw.strip().splitlines(), 1):
        parts = line.split()
        if parts:
            yield lineno, parts


def _parse_neumann(raw):
    rows = []
    casts = (int, int, int, float, float, float, float)
    for lineno, parts in _split_rows(raw):
        if len(parts) != len(casts):
            raise ConfigError(f"loads.neumann row {lineno}: expected {len(casts)} fields")
        try:
            rows.append(tuple(cast(p) for cast, p in zip(casts, parts)))
        except ValueError as exc:
            raise ConfigError(f"loads.neumann row {lineno}: {exc}") from exc
    return rows


def _parse_dirichlet(raw):
    rows = []
    for lineno, parts in _split_rows(raw):
        if len(parts) != 3 or parts[2] not in ("x", "y", "xy"):
            raise ConfigError(f"supports.dirichlet row {lineno}: expected 'jx jy x|y|xy'")
        rows.append((int(parts[0]), int(parts[1]), parts[2]))
    return rows


def _clamp_line(grid, bc, axis, value):
    """Fix both displacement components of all active nodes on a grid line."""
    if axis == "x":
        nodes = [grid.node_id(value, jy) for jy in range(grid.ny + 1)]
    else:
        nodes = [grid.node_id(jx, value) for jx in range(grid.nx + 1)]
    for node in nodes:
        if grid.node_active[node]:
            bc.fix_node(node)


def apply_parabolic_edge_shear(grid, bc):
    """Parabolic downward shear on the structure's right boundary edges.

    Finds the active boundary edges on the rightmost material column, spans
    a beam-style parabola tau(y) = 1 - (2(y-c)/h)^2 of unit peak over their
    joint vertical extent (zero at the extent's ends, peak at its middle)
    and stores each edge's best linear fit. The per-edge fits are the exact
    L2 projections of the parabola, so every edge keeps its exact share of
    the total load.
    """
    edges = []
    for elem, ledge in grid.boundary_edges():
        ix, iy = grid.elem_index(elem)
        if ledge == 1 and ix == grid.nx - 1:
            edges.append((elem, iy))
    if not edges:
        raise ConfigError("shear-right: no boundary edges on the right side")
    ys = [iy for _, iy in edges]
    y_lo = min(ys) * grid.hy
    y_hi = (max(ys) + 1) * grid.hy
    h = y_hi - y_lo
    c = 0.5 * (y_lo + y_hi)

    def tau(y):
        return 1.0 - (2.0 * (y - c) / h) ** 2

    # L2 projection of the parabola onto each edge's linear shape functions:
    # mass matrix [[L/3, L/6], [L/6, L/3]], right-hand sides by Simpson
    # (exact for the cubic integrands).
    L = grid.hy
    det = L * L / 12.0
    for elem, iy in edges:
        y0 = iy * grid.hy
        y1 = y0 + grid.hy
        ym = 0.5 * (y0 + y1)
        b1 = L / 6.0 * (tau(y0) * 1.0 + 4.0 * tau(ym) * 0.5 + 0.0)
        b2 = L / 6.0 * (0.0 + 4.0 * tau(ym) * 0.5 + tau(y1) * 1.0)
        t_s = (L / 3.0 * b1 - L / 6.0 * b2) / det
        t_e = (L / 3.0 * b2 - L / 6.0 * b1) / det
        bc.add_edge_traction(elem, 1, (0.0, -t_s), (0.0, -t_e))


def load_mask_csv(path, nx, ny):
    """Read an activity mask CSV: ny rows (top first) of nx 0/1 entries."""
    try:
        with warnings.catch_warnings():
            # An empty file is a ConfigError below, not a warning.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            raster = np.loadtxt(path, delimiter=",", dtype=float, ndmin=2)
    except OSError as exc:
        raise ConfigError(f"grid.mask: cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"grid.mask: {path} is not a table of numbers: {exc}") from exc
    if raster.size == 0:
        raise ConfigError(f"grid.mask: {path} is empty")
    if raster.shape != (ny, nx):
        raise ConfigError(
            f"grid.mask: {path} has shape {raster.shape}, expected {(ny, nx)}"
        )
    if not np.isin(raster, (0.0, 1.0)).all():
        raise ConfigError(f"grid.mask: {path} holds entries other than 0 and 1")
    return np.flipud(raster).T.astype(bool)


# Name -> builder of each preset: the activity mask of an nx x ny grid (None
# when every cell is active), or the supports or loads a preset adds to bc.
MASKS = {
    "none": lambda nx, ny: None,
    "upper-right-quadrant": lambda nx, ny: np.logical_or.outer(np.arange(nx) < nx // 2,
                                                               np.arange(ny) < ny // 2),
}
SUPPORT_PRESETS = {
    "clamp-left": lambda grid, bc: _clamp_line(grid, bc, axis="x", value=0),
    "clamp-top": lambda grid, bc: _clamp_line(grid, bc, axis="y", value=grid.ny),
    "none": lambda grid, bc: None,
}
LOAD_PRESETS = {"shear-right": apply_parabolic_edge_shear, "none": lambda grid, bc: None}


def _mask_builder(spec):
    """The builder of mask spec `spec` (a MASKS name or file:<csv path>), or None."""
    if spec.startswith("file:"):
        return functools.partial(load_mask_csv, spec[len("file:") :])
    return MASKS.get(spec)


# Field rules: each returns what is wrong with a value, or None.

def _positive(value):
    return None if value > 0 else f"must be positive, got {value!r}"


def _at_least(low):
    return lambda value: None if value >= low else f"must be at least {low}, got {value!r}"


# The least element side whose square is a normal float, 2**-511: below it
# the mesh's areas and squared lengths underflow.
_MIN_SIDE = np.sqrt(np.finfo(float).tiny)


def _known(lookup, what):
    """Rule: a name that `lookup` maps to its builder."""
    return lambda name: None if lookup(name) else f"unknown {what} {name!r}"


def _ini(section, default, key=None, parse=None, rule=None):
    """A RunConfig field set by `key` (the field name if None) of INI [section].

    The raw value is cast by the field's annotated type, or by `parse`, and
    validate() checks the value by `rule`.
    """
    default = {"default_factory": list} if default == [] else {"default": default}
    return field(metadata={"section": section, "key": key, "parse": parse, "rule": rule},
                 **default)


@dataclass
class RunConfig:
    """Fully validated inputs of one pipeline run.

    The field metadata is the INI schema: parse_config, validate and the
    checkpoint fingerprint read it from here.
    """

    name: str = _ini("run", "custom")
    nx: int = _ini("grid", 32, rule=_positive)
    ny: int = _ini("grid", 16, rule=_positive)
    hx: float = _ini("grid", 0.0625, rule=_at_least(_MIN_SIDE))
    hy: float = _ini("grid", 0.0625, rule=_at_least(_MIN_SIDE))
    mask: str = _ini("grid", "none", rule=_known(_mask_builder, "mask spec"))
    E: float = _ini("material", 1000.0, key="e")
    nu: float = _ini("material", 0.3)
    rho0: float = _ini("thresholds", coarse.ThresholdPolicy.rho0)
    rho_bar_min: float = _ini("thresholds", coarse.ThresholdPolicy.rho_bar_min)
    rho_bar_max: float = _ini("thresholds", coarse.ThresholdPolicy.rho_bar_max)
    coarse_p: float = _ini("coarse", 1.0, key="p")
    coarse_r_min: float = _ini("coarse", 1.5, key="r_min", rule=_positive)
    coarse_eps: float = _ini("coarse", 0.03, key="eps", rule=_positive)
    max_inner: int = _ini("coarse", 200, rule=_at_least(1))
    stage_cap: int = _ini("coarse", 50, rule=_at_least(1))
    fine_n: int = _ini("fine", fine.FineCellProblem.n, key="n", rule=_at_least(2))
    fine_p: float = _ini("fine", 3.0, key="p")
    fine_r_min: float = _ini("fine", fine.FineCellProblem.r_min, key="r_min", rule=_positive)
    fine_eps: float = _ini("fine", fine.FineCellProblem.eps, key="eps", rule=_positive)
    fine_max_iter: int = _ini("fine", fine.FineCellProblem.max_iter, key="max_iter",
                              rule=_at_least(1))
    beta_max: float = _ini("projection", fine.ProjectionParams.beta_max, rule=_at_least(1))
    m_nd_min: float = _ini("projection", fine.ProjectionParams.m_nd_min, rule=_positive)
    # plus rows (ix, iy, ledge, tsx, tsy, tex, tey)
    load_preset: str = _ini("loads", "shear-right", key="preset",
                            rule=_known(LOAD_PRESETS.get, "preset"))
    neumann: list = _ini("loads", [], parse=_parse_neumann)
    # plus rows (jx, jy, "x"|"y"|"xy")
    support_preset: str = _ini("supports", "clamp-left", key="preset",
                               rule=_known(SUPPORT_PRESETS.get, "preset"))
    dirichlet: list = _ini("supports", [], parse=_parse_dirichlet)
    out: str = _ini("run", "out")
    workers: int = _ini("run", 1, rule=_at_least(0))

    def validate(self):
        for (section, key), f in _INI_FIELDS.items():
            value, rule = getattr(self, f.name), f.metadata["rule"]
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{section}.{key}: must be finite, got {value!r}")
            if rule and (error := rule(value)):
                raise ConfigError(f"{section}.{key}: {error}")
        # Material, thresholds and element stiffness are range-checked where
        # they are defined.
        try:
            material = self.coarse_material()
            self.threshold_policy()
            fem.element_stiffness(material, self.hx, self.hy)
            fem.element_stiffness(self.fine_material(), self.hx / self.fine_n,
                                  self.hy / self.fine_n)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.support_preset == "none" and not self.dirichlet:
            raise ConfigError("supports.preset: no supports; set a preset or dirichlet rows")
        size = f"the {self.nx} x {self.ny} grid"
        for row, (ix, iy, ledge, *values) in enumerate(self.neumann, 1):
            if not (0 <= ix < self.nx and 0 <= iy < self.ny and 0 <= ledge <= 3):
                raise ConfigError(
                    f"loads.neumann row {row}: element ({ix}, {iy}) edge {ledge} is not on {size}")
            if not all(map(math.isfinite, values)):
                raise ConfigError(f"loads.neumann row {row}: tractions must be finite")
        for row, (jx, jy, _) in enumerate(self.dirichlet, 1):
            if not (0 <= jx <= self.nx and 0 <= jy <= self.ny):
                raise ConfigError(f"supports.dirichlet row {row}: node ({jx}, {jy}) is not on {size}")
        return self

    # -- factories ---------------------------------------------------------

    def build_grid(self):
        active = _mask_builder(self.mask)(self.nx, self.ny)
        return Grid(self.nx, self.ny, self.hx, self.hy, active=active)

    def build_bc(self, grid):
        """The supports and loads on grid: the presets', plus the explicit
        rows, which add supports and tractions to what a preset put on the
        same node or edge. A conflict among them or with the mask, or an
        edge whose nodal loads overflow, is a ConfigError; too few supports
        leave the stiffness singular, a RigidModeError."""
        bc = BoundaryConditions()
        try:
            SUPPORT_PRESETS[self.support_preset](grid, bc)
            for jx, jy, comps in self.dirichlet:
                node = grid.node_id(int(jx), int(jy))
                bc.fix_node(node, mask=("x" in comps, "y" in comps))
            LOAD_PRESETS[self.load_preset](grid, bc)
            for ix, iy, ledge, tsx, tsy, tex, tey in self.neumann:
                elem = grid.elem_id(int(ix), int(iy))
                bc.add_edge_traction(elem, int(ledge), (tsx, tsy), (tex, tey))
            bc.validate(grid)
        except RigidModeError:
            raise
        except GridError as exc:
            raise ConfigError(f"supports and loads: {exc}") from exc
        with np.errstate(over="ignore"):
            loads = fem.edge_end_forces(grid, bc)
        overflowed = np.argwhere(~np.isfinite(loads).all(axis=(2, 3)))
        if overflowed.size:
            e, k = overflowed[0].tolist()
            raise ConfigError(f"loads: the nodal loads on element {grid.elem_index(e)} "
                              f"edge {k} are not finite")
        return bc

    def coarse_material(self):
        return fem.MaterialModel(E=self.E, nu=self.nu, p=self.coarse_p)

    def fine_material(self):
        return fem.MaterialModel(E=self.E, nu=self.nu, p=self.fine_p)

    def threshold_policy(self):
        return coarse.ThresholdPolicy(self.rho_bar_min, self.rho_bar_max, self.rho0)

    def projection_params(self):
        return fine.ProjectionParams(self.beta_max, self.m_nd_min)


# -- presets ---------------------------------------------------------------

PRESETS = {
    "example1": dict(
        nx=32,
        ny=16,
        hx=2.0 / 32.0,
        hy=1.0 / 16.0,
        mask="none",
        support_preset="clamp-left",
        load_preset="shear-right",
        beta_max=2.0,
        m_nd_min=50.0,
    ),
    "example2": dict(
        nx=32,
        ny=32,
        hx=10.0 / 32.0,
        hy=10.0 / 32.0,
        mask="upper-right-quadrant",
        support_preset="clamp-top",
        load_preset="shear-right",
        beta_max=4.5,
        m_nd_min=45.0,
    ),
}

PRESET_NOTES = {
    "example1": "2 x 1 cantilever, clamped left edge, parabolic end shear",
    "example2": "10 x 10 L-bracket, clamped upper arm, shear on the lower arm tip",
}


def preset_config(name, **overrides):
    """RunConfig for a named benchmark, with optional field overrides."""
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; have {sorted(PRESETS)}")
    params = dict(PRESETS[name], name=name)
    params.update(overrides)
    return RunConfig(**params).validate()


# -- config parsing --------------------------------------------------------

# (section, key) -> RunConfig field: every INI key but [run] preset, which
# names the preset that the other keys override.
_INI_FIELDS = {(f.metadata["section"], f.metadata["key"] or f.name): f
               for f in fields(RunConfig)}


def parse_config(text):
    """Parse and validate an INI run configuration into a RunConfig."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc

    sections = {section for section, _ in _INI_FIELDS}
    for section in parser.sections():
        if section not in sections:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser[section]:
            if (section, key) not in _INI_FIELDS and (section, key) != ("run", "preset"):
                raise ConfigError(f"unknown key {section}.{key}")

    if parser.has_option("run", "preset"):
        config = preset_config(parser.get("run", "preset"))
    else:
        config = RunConfig()

    types = typing.get_type_hints(RunConfig)
    updates = {}
    for (section, key), f in _INI_FIELDS.items():
        if not parser.has_option(section, key):
            continue
        raw = parser.get(section, key)
        try:
            updates[f.name] = (f.metadata["parse"] or types[f.name])(raw)
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"{section}.{key}: bad value {raw!r}") from exc
    return replace(config, **updates).validate()


# -- stitched image and rendering -------------------------------------------

@dataclass
class HighResImage:
    """Stitched fine-density image, indexed [x pixel, y pixel], y upward."""

    data: np.ndarray
    n: int  # pixels per coarse cell side
    active: np.ndarray  # coarse activity mask (nx, ny)

    def raster_rows(self):
        """Rows top-to-bottom for file output (row 0 = top of the domain)."""
        return np.flipud(self.data.T)


def stitch(grid, batch):
    """Place every cell's fine raster into one high-resolution image.

    Inactive coarse cells render as zero-density background. Raises
    PipelineError when an active cell has no raster.
    """
    n = batch.n
    image = np.zeros((grid.nx * n, grid.ny * n))
    for e in grid.active_elems:
        result = batch.cells.get(e)
        if result is None:
            raise PipelineError(f"missing cell raster for element {e}")
        ix, iy = grid.elem_index(e)
        image[ix * n : (ix + 1) * n, iy * n : (iy + 1) * n] = result.rho.reshape(n, n)
    return HighResImage(data=image, n=n, active=grid.active.copy())


def continuity_metric(image):
    """Mean |density jump| across each interior cell boundary of the image.

    Returns {"mean": float, "max": float, "count": int}; boundaries between
    an active and an inactive cell are skipped (there is no facing material
    row to compare).
    """
    n, data, active = image.n, image.data, image.active
    nx, ny = active.shape
    # The jumps between the facing pixel columns (rows) at every cell
    # boundary, as one n-pixel row per boundary: the x boundaries by
    # (ix, iy), then the y boundaries by (ix, iy).
    x_jumps = np.abs(data[n - 1 : -1 : n] - data[n::n]).reshape(nx - 1, ny, n)
    y_jumps = np.abs(data[:, n - 1 : -1 : n] - data[:, n::n]).reshape(nx, n, ny - 1)
    per_boundary = np.concatenate([
        x_jumps[active[:-1] & active[1:]],
        y_jumps.transpose(0, 2, 1)[active[:, :-1] & active[:, 1:]],
    ]).mean(axis=1)
    if not per_boundary.size:
        return {"mean": 0.0, "max": 0.0, "count": 0}
    return {"mean": float(per_boundary.mean()), "max": float(per_boundary.max()),
            "count": per_boundary.size}


def write_pgm(path, raster):
    """Binary 8-bit graymap; density 1.0 renders black, 0.0 white.

    The pixels are converted and written 64 rows at a time, so no temporary
    grows with the image.
    """
    raster = np.asarray(raster, dtype=float)
    h, w = raster.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        for start in range(0, h, 64):
            block = np.clip(raster[start : start + 64], 0.0, 1.0)
            np.subtract(1.0, block, out=block)
            block *= 255.0
            fh.write(np.round(block, out=block).astype(np.uint8).tobytes(order="C"))


def write_csv_raster(path, raster):
    np.savetxt(path, np.asarray(raster, dtype=float), delimiter=",", fmt="%.17g")


def render(image, fmt, path):
    """Write a HighResImage as 'pgm' or 'csv'."""
    raster = image.raster_rows()
    if fmt == "pgm":
        write_pgm(path, raster)
    elif fmt == "csv":
        write_csv_raster(path, raster)
    else:
        raise ConfigError(f"unknown render format {fmt!r}")


def field_raster(grid, values):
    """Top-down (ny, nx) raster view of a per-element field."""
    return np.flipud(np.asarray(values, dtype=float).reshape(grid.nx, grid.ny).T)


# -- pipeline ---------------------------------------------------------------

# A coarse history row: its keys and their types, in coarse_history.csv and
# in the history array of coarse_state.npz.
_HISTORY_COLUMNS = (("stage", int), ("iteration", int), ("compliance", float),
                    ("volume_fraction", float), ("max_delta", float))

# The arrays of cells.npz, one per FineCellResult field; all but rho are also
# the leading columns of cells.csv.
_CELL_ARRAYS = [f.name for f in fields(fine.FineCellResult)]
_CELL_COLUMNS = [name for name in _CELL_ARRAYS if name != "rho"]


def _write_coarse_artifacts(out, grid, result):
    # A previous run may have left more stages than this one has.
    for stale in out.glob("coarse_stage_*"):
        stale.unlink()
    for k, rho_k in enumerate(result.stage_fields, 1):
        base = out / f"coarse_stage_{k:02d}"
        raster = field_raster(grid, rho_k)
        write_pgm(base.with_suffix(".pgm"), raster)
        write_csv_raster(base.with_suffix(".csv"), raster)
    with open(out / "coarse_history.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(name for name, _ in _HISTORY_COLUMNS)
        writer.writerows([row[name] for name, _ in _HISTORY_COLUMNS] for row in result.history)


def _write_checkpoint(path, **arrays):
    """Save arrays as a compressed .npz, atomically: the archive is written
    to a temporary file beside path, then renamed over it."""
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        # A file object, since numpy appends .npz to a name without it.
        with open(tmp, "wb") as fh:
            np.savez_compressed(fh, **arrays)
        tmp.replace(path)
    finally:
        tmp.unlink(missing_ok=True)


def _cast(value, annotation):
    """A checkpoint value as its field's annotated type; arrays stay arrays."""
    return value if annotation is np.ndarray else annotation(value)


def _fields_from(cls, data, skip=()):
    """The fields of cls, less skip, from the checkpoint arrays named after them."""
    types = typing.get_type_hints(cls)
    return {f.name: _cast(data[f.name], types[f.name]) for f in fields(cls)
            if f.name not in skip}


def _save_coarse_state(path, result, fingerprint):
    state = {f.name: getattr(result, f.name) for f in fields(result) if f.name != "solution"}
    state["history"] = np.array(
        [[row[name] for name, _ in _HISTORY_COLUMNS] for row in result.history], dtype=float)
    solution = {f.name: getattr(result.solution, f.name) for f in fields(result.solution)}
    _write_checkpoint(path, fingerprint=fingerprint, **state, **solution)


def _check_shapes(data, **shapes):
    """Raise ValueError unless each named checkpoint array has its shape; a
    None in a shape matches any length."""
    for name, shape in shapes.items():
        got = data[name].shape
        if len(got) != len(shape) or any(s is not None and s != g for g, s in zip(got, shape)):
            raise ValueError(f"{name} has shape {got}, not {shape}")


def _load_coarse_state(data, grid):
    elems, dofs = (grid.n_elems,), (2 * grid.n_nodes,)
    _check_shapes(data, rho=elems, frozen=elems, element_energy=elems, u=dofs, f=dofs,
                  stage_fields=(None, grid.n_elems))
    history = [{name: cast(v) for (name, cast), v in zip(_HISTORY_COLUMNS, row, strict=True)}
               for row in data["history"]]
    return coarse.CoarseResult(
        history=history, solution=fem.FESolution(**_fields_from(fem.FESolution, data)),
        **_fields_from(coarse.CoarseResult, data, skip=("history", "solution")),
    )


def _save_cells(path, batch, fingerprint):
    cells = [batch.cells[i] for i in sorted(batch.cells)]
    columns = {name: [getattr(r, name) for r in cells] for name in _CELL_ARRAYS}
    _write_checkpoint(path, fingerprint=fingerprint, n=batch.n, **columns)


def _load_cells(data, ids, n):
    _check_shapes(data, rho=(None, n * n))
    if not np.array_equal(data["cell"], ids):
        raise ValueError(f"the cell ids are not the {len(ids)} active elements")
    types = typing.get_type_hints(fine.FineCellResult)
    columns = [[_cast(v, types[name]) for v in data[name]] for name in _CELL_ARRAYS]
    cells = [fine.FineCellResult(**dict(zip(_CELL_ARRAYS, row)))
             for row in zip(*columns, strict=True)]
    return fine.FineBatchResult(cells={r.cell: r for r in cells}, failures={}, n=n)


def _write_cells_csv(path, batch, targets):
    """Write cells.csv; returns the counts of cells stopped by a cycle or
    the iteration cap, of those the cycle-stopped ones, and of cells whose
    mean density misses the target, their coarse density, by more than 1e-4."""
    flags = {"cells_not_converged": 0, "cells_cycled": 0, "cells_off_target": 0}
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([*_CELL_COLUMNS, "target", "mean_density"])
        for cell, r in sorted(batch.cells.items()):
            target, mean = float(targets[cell]), float(r.rho.mean())
            flags["cells_not_converged"] += r.stop_reason in ("cycle", "iteration-cap")
            flags["cells_cycled"] += r.stop_reason == "cycle"
            flags["cells_off_target"] += abs(mean - target) > 1e-4
            writer.writerow([*(getattr(r, name) for name in _CELL_COLUMNS), target, mean])
    return flags


def equilibrium_certificate(grid, field_out):
    """Machine-readable certificate of the equilibrated traction field."""
    report = field_out.report
    fs = report.force_scale or 1.0
    ms = report.moment_scale or 1.0
    act = grid.active_elems
    force_rel = np.linalg.norm(report.net_force[act], axis=1) / fs
    moment_rel = np.abs(report.net_moment[act]) / ms
    return {
        "force_scale": report.force_scale,
        "elements": int(act.size),
        "max_force_residual_rel": float(force_rel.max()),
        "max_moment_residual_rel": float(moment_rel.max()),
        "elements_within_1e-8": int(((force_rel <= 1e-8) & (moment_rel <= 1e-8)).sum()),
        "max_lambda_rel": report.max_lambda / fs,
        "action_reaction_residual": equilibrate.action_reaction_residual(grid, field_out),
        "node_classes": report.class_counts,
    }


def _write_json(path, obj):
    """Write obj as strict JSON. A NaN or infinity raises PipelineError
    before the file is opened, so no partial file is left."""
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise PipelineError(f"{path} would hold a non-finite number: {exc}") from exc
    path.write_text(text)


def _fingerprint(config, grid):
    """Hash of every input that can change a result.

    That is the config less its [run] fields (output directory, worker
    count and run name), plus the activity mask the grid was built from,
    since a `file:` mask can change under the same path.
    """
    values = asdict(config)
    for (section, _), f in _INI_FIELDS.items():
        if section == "run":
            del values[f.name]
    digest = hashlib.sha256(json.dumps(values, sort_keys=True).encode())
    digest.update(grid.active.tobytes())
    return digest.hexdigest()


def _read_checkpoint(path, build, fingerprint):
    """A stage's state rebuilt from its checkpoint, or None to recompute the stage.

    A missing file, an unreadable one (truncated, or not an archive of the
    expected arrays and shapes) and one stamped with another config's fingerprint all
    send the stage to be recomputed, which overwrites the file; the last two
    are logged.
    """
    if not path.exists():
        return None
    try:
        with np.load(path) as archive:
            data = dict(archive)
        if str(data.get("fingerprint")) != fingerprint:
            log.warning("checkpoint %s is from another config; recomputing its stage",
                        path)
            return None
        result = build(data)
    except (OSError, ValueError, TypeError, KeyError, EOFError, zipfile.BadZipFile,
            zlib.error) as exc:
        log.warning("unreadable checkpoint %s (%s); recomputing its stage", path, exc)
        return None
    log.info("checkpoint %s found, skipping its stage", path)
    return result


@contextlib.contextmanager
def _timed(timings, key):
    """Add the wall time of the block to timings[key]."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        timings[key] += time.perf_counter() - t0


def _peak_rss_mb(workers):
    """Peak resident memory in MB of this process and, for a pool of workers,
    of its largest child process."""
    # ru_maxrss counts kilobytes on Linux and bytes on macOS.
    mb = 1024.0 ** (2 if sys.platform == "darwin" else 1)
    peak = {"process": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / mb}
    if workers > 1:
        peak["worker"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / mb
    return peak


def run_pipeline(config, skip_fine=False):
    """Execute a full run; returns the summary dict written to summary.json.

    Artifacts land in config.out. Stages checkpoint to .npz files and are
    skipped when their checkpoint holds this config's fingerprint, so reruns
    after a partial failure recompute only what is missing (identically, as
    the whole pipeline is deterministic); every other artifact is rewritten
    from the state in hand. With skip_fine=True the run stops after
    writing the equilibration certificate (CLI `verify`). The summary's
    `timings` split the wall time between the coarse stage loop, the
    equilibration with its certificate, the fine farm and the stitch with
    its continuity metric (`run` only), and artifact and checkpoint I/O;
    its `peak_rss_mb` gives the peak memory of the process and of the
    largest pool worker.
    """
    config.validate()
    t0 = time.perf_counter()
    out = Path(config.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create output directory {out}: {exc}") from exc

    grid = config.build_grid()
    bc = config.build_bc(grid)

    fingerprint = _fingerprint(config, grid)
    timings = {"coarse_s": 0.0, "equilibrate_s": 0.0, "io_s": 0.0}
    coarse_ckpt = out / "coarse_state.npz"
    with _timed(timings, "io_s"):
        result = _read_checkpoint(coarse_ckpt, lambda data: _load_coarse_state(data, grid),
                                  fingerprint)
    if result is None:
        with _timed(timings, "coarse_s"):
            result = coarse.stage_loop(
                grid, config.coarse_material(), bc, config.threshold_policy(),
                r_min=config.coarse_r_min, eps=config.coarse_eps,
                max_inner=config.max_inner, stage_cap=config.stage_cap,
            )
        with _timed(timings, "io_s"):
            _save_coarse_state(coarse_ckpt, result, fingerprint)
    with _timed(timings, "io_s"):
        _write_coarse_artifacts(out, grid, result)
    if not result.converged:
        raise PipelineError(
            f"coarse stage loop did not converge in {config.stage_cap} stages"
        )

    with _timed(timings, "equilibrate_s"):
        field_out = equilibrate.equilibrate_all(
            grid, result.rho, config.coarse_material(), bc, result.solution.u,
            void_mask=result.frozen == coarse.VOID,
        )
        certificate = equilibrium_certificate(grid, field_out)
    with _timed(timings, "io_s"):
        _write_json(out / "equilibrium_certificate.json", certificate)
        equilibrate.dump_tractions_csv(grid, field_out, out / "tractions.csv")

    summary = {
        "name": config.name,
        "stages": result.stages,
        "coarse_converged": result.converged,
        "coarse_compliance": result.solution.compliance,
        "coarse_volume_fraction": result.volume_fraction(grid),
        "frozen_solid": int((result.frozen == coarse.SOLID).sum()),
        "frozen_void": int((result.frozen == coarse.VOID).sum()),
        "free_cells": int(
            ((result.frozen == coarse.FREE) & grid.active.ravel(order="C")).sum()
        ),
        "certificate": certificate,
        "blas_threads": fem.solve_blas_threads(),
        "timings": timings,
    }

    if skip_fine:
        summary["peak_rss_mb"] = _peak_rss_mb(workers=0)
        summary["wall_time_s"] = time.perf_counter() - t0
        _write_json(out / "summary.json", summary)
        return summary

    timings.update(farm_s=0.0, stitch_s=0.0)
    cells_ckpt = out / "cells.npz"
    with _timed(timings, "io_s"):
        batch = _read_checkpoint(
            cells_ckpt, lambda data: _load_cells(data, grid.active_elems, config.fine_n),
            fingerprint)
    if batch is None:
        with _timed(timings, "farm_s"):
            batch = fine.solve_all_cells(
                grid, result, field_out.tractions, n=config.fine_n,
                material=config.fine_material(), r_min=config.fine_r_min,
                eps=config.fine_eps, projection=config.projection_params(),
                max_iter=config.fine_max_iter, workers=config.workers,
            )
        if batch.failures:
            _write_cells_csv(out / "cells.csv", batch, result.rho)
            details = "; ".join(
                f"cell {cell}: {msg}" for cell, msg in sorted(batch.failures.items())
            )
            raise PipelineError(f"fine farm failures: {details}")
        with _timed(timings, "io_s"):
            _save_cells(cells_ckpt, batch, fingerprint)
    with _timed(timings, "io_s"):
        flags = _write_cells_csv(out / "cells.csv", batch, result.rho)

    with _timed(timings, "stitch_s"):
        image = stitch(grid, batch)
        metric = continuity_metric(image)
    with _timed(timings, "io_s"):
        render(image, "pgm", out / "highres.pgm")
        render(image, "csv", out / "highres.csv")

    optimized = [r for r in batch.cells.values() if r.kind == "optimized"]
    iterations = [r.iterations for r in optimized] or [0]
    summary.update(
        {
            "cells_optimized": len(optimized),
            "cells_total": len(batch.cells),
            "cell_iterations_median": float(np.median(iterations)),
            "cell_iterations_max": max(iterations),
            "fine_resolution": config.fine_n,
            "image_size": list(image.data.shape),
            "continuity_mean": metric["mean"],
            "continuity_max": metric["max"],
            "continuity_boundaries": metric["count"],
            "max_cell_reaction_rel": max((r.max_reaction / r.reaction_scale for r in optimized
                                          if r.reaction_scale > 0), default=0.0),
            **flags,
        }
    )
    summary["peak_rss_mb"] = _peak_rss_mb(config.workers)
    summary["wall_time_s"] = time.perf_counter() - t0
    _write_json(out / "summary.json", summary)
    return summary
