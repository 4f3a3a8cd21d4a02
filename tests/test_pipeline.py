"""Config parsing, artifact formats, stitching and the end-to-end pipeline."""

import configparser
import csv
import json
import os
import re
import subprocess
import sys
import tempfile
import typing
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from twolevel_topopt import cli, coarse, fem, fine, pipeline
from twolevel_topopt.grid import Grid

SMALL_RUN = """
[run]
name = small
workers = 1

[grid]
nx = 4
ny = 2
hx = 0.5
hy = 0.5

[coarse]
r_min = 1.3
eps = 0.02

[fine]
n = 4
eps = 0.02
max_iter = 150

[loads]
preset = shear-right

[supports]
preset = clamp-left
"""


# ------------------------------------------------------------------- config


def test_parse_config_defaults_and_overrides():
    config = pipeline.parse_config(SMALL_RUN)
    assert config.name == "small"
    assert (config.nx, config.ny) == (4, 2)
    assert config.hx == 0.5
    assert config.fine_n == 4
    assert config.coarse_r_min == 1.3
    assert config.coarse_eps == 0.02
    # untouched fields keep their defaults
    assert config.E == 1000.0
    assert config.rho_bar_min == 0.12
    assert config.mask == "none"


def test_parse_config_empty_is_default_run():
    config = pipeline.parse_config("")
    assert config.name == "custom"
    assert (config.nx, config.ny) == (32, 16)


def test_parse_config_preset_with_override():
    text = "[run]\npreset = example1\n\n[coarse]\neps = 0.05\n"
    config = pipeline.parse_config(text)
    assert config.name == "example1"
    assert (config.nx, config.ny) == (32, 16)
    assert_allclose(config.hx, 2.0 / 32.0)
    assert config.coarse_eps == 0.05


def test_parse_config_bool_and_int_casting():
    text = "[run]\nworkers = 3\n"
    config = pipeline.parse_config(text)
    assert config.workers == 3


def test_parse_config_rows():
    text = """
[loads]
preset = none
neumann =
    0 0 1 0 -1.5 0 -0.5
    0 1 1 0 -0.5 0 0

[supports]
preset = none
dirichlet =
    0 0 xy
    0 1 x
"""
    config = pipeline.parse_config(text)
    assert config.neumann == [
        (0, 0, 1, 0.0, -1.5, 0.0, -0.5),
        (0, 1, 1, 0.0, -0.5, 0.0, 0.0),
    ]
    assert config.dirichlet == [(0, 0, "xy"), (0, 1, "x")]


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("[nonsense]\nfoo = 1\n", "unknown config section"),
        ("[grid]\nspacing = 1\n", "unknown key grid.spacing"),
        # the projection's start, threshold and cadence are fixed, not keys
        ("[projection]\nbeta0 = 1.0\n", "unknown key projection.beta0"),
        ("[projection]\nmu = 0.5\n", "unknown key projection.mu"),
        ("[projection]\ncadence = 2\n", "unknown key projection.cadence"),
        ("[grid]\nnx = fast\n", "bad value"),
        ("[run]\npreset = example9\n", "unknown preset"),
        ("[loads]\nneumann = 0 0 1 0\n", "expected 7 fields"),
        ("[supports]\ndirichlet = 0 0 z\n", "jx jy x|y|xy"),
        ("[supports]\ndirichlet = a 0 xy\n", "supports.dirichlet: bad value"),
        ("[supports]\npreset = none\n", "no supports"),
        ("[grid]\nnx = 0\n", "positive"),
        ("[material]\nnu = 0.7\n", "nu out of range"),
        ("[thresholds]\nrho_bar_min = 0.9\n", "rho_bar_min < rho_bar_max"),
        ("[projection]\nbeta_max = 0.5\n", "projection.beta_max: must be at least 1"),
        ("[grid]\nmask = blob\n", "unknown mask spec"),
        ("[grid]\nnx = 8\nny = 4\n[loads]\nneumann = 0 0 0 0 -1 0 -1\n  0 4 0 0 -1 0 -1\n",
         "loads.neumann row 2: element (0, 4) edge 0 is not on the 8 x 4 grid"),
        ("[grid]\nnx = 8\nny = 4\n[supports]\ndirichlet = 0 0 xy\n  9 0 xy\n",
         "supports.dirichlet row 2: node (9, 0) is not on the 8 x 4 grid"),
        ("[loads]\nneumann = 0 0 0 nan -1 0 -1\n", "loads.neumann row 1: tractions must be finite"),
        ("[loads]\nneumann = 0 0 0 0 -1 0 -inf\n", "loads.neumann row 1: tractions must be finite"),
    ],
)
def test_parse_config_rejects(text, fragment):
    with pytest.raises(pipeline.ConfigError) as err:
        pipeline.parse_config(text)
    assert fragment in str(err.value)


# An out-of-range INI value for every RunConfig field that has a rule.
OUT_OF_RANGE = {
    "nx": "0", "ny": "0", "hx": "0", "hy": "-0.5", "mask": "blob",
    "coarse_r_min": "0", "coarse_eps": "0", "max_inner": "0", "stage_cap": "0",
    "fine_n": "1", "fine_r_min": "0", "fine_eps": "-0.01", "fine_max_iter": "0",
    "beta_max": "0.5", "m_nd_min": "0", "load_preset": "push-left",
    "support_preset": "clamp-right", "workers": "-1",
}


def test_every_field_rule_has_an_out_of_range_case():
    ruled = {f.name for f in fields(pipeline.RunConfig) if f.metadata["rule"]}
    assert ruled == set(OUT_OF_RANGE)


@pytest.mark.parametrize("name", sorted(OUT_OF_RANGE))
def test_out_of_range_value_error_names_its_ini_key(name):
    [(section, key)] = [k for k, f in pipeline._INI_FIELDS.items() if f.name == name]
    with pytest.raises(pipeline.ConfigError) as err:
        pipeline.parse_config(f"[{section}]\n{key} = {OUT_OF_RANGE[name]}\n")
    assert str(err.value).startswith(f"{section}.{key}: ")


# The (section, key) of every float field.
FLOAT_KEYS = [key for key, f in pipeline._INI_FIELDS.items()
              if typing.get_type_hints(pipeline.RunConfig)[f.name] is float]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("section, key", FLOAT_KEYS)
def test_non_finite_value_error_names_its_ini_key(section, key, value):
    with pytest.raises(pipeline.ConfigError) as err:
        pipeline.parse_config(f"[{section}]\n{key} = {value}\n")
    assert str(err.value).startswith(f"{section}.{key}: must be finite")


@pytest.mark.parametrize("name, value", [
    *(("mask", spec) for spec in pipeline.MASKS),
    *(("support_preset", preset) for preset in pipeline.SUPPORT_PRESETS),
    *(("load_preset", preset) for preset in pipeline.LOAD_PRESETS),
])
def test_every_preset_name_validates_and_builds(name, value):
    base = dict(nx=4, ny=4, support_preset="none", load_preset="none",
                dirichlet=[(0, 0, "xy"), (0, 1, "x")])
    config = pipeline.RunConfig(**{**base, name: value}).validate()
    grid = config.build_grid()
    bc = config.build_bc(grid)
    assert (grid.active.sum() < 16) == (config.mask != "none")
    assert (len(bc.dirichlet) > 2) == (config.support_preset != "none")
    assert bool(bc.neumann) == (config.load_preset != "none")


def test_explicit_rows_add_to_preset_loads_and_supports():
    # the README's example neumann row lands on an edge the preset loads
    text = ("[run]\npreset = example1\n[loads]\nneumann = 31 0 1 0 -1 0 -1\n"
            "[supports]\ndirichlet = 0 0 x\n")
    config = pipeline.parse_config(text)
    grid = config.build_grid()
    bc = config.build_bc(grid)
    preset = pipeline.preset_config("example1").build_bc(grid)
    edge = (grid.elem_id(31, 0), 1)
    for got, base in zip(bc.neumann[edge], preset.neumann[edge]):
        assert np.array_equal(got, base + np.array([0.0, -1.0]))
    assert bc.neumann.keys() == preset.neumann.keys()
    mask, values = bc.dirichlet[grid.node_id(0, 0)]
    assert mask.tolist() == [True, True] and values.tolist() == [0.0, 0.0]
    assert bc.constrained_dofs().tolist() == preset.constrained_dofs().tolist()


def test_build_bc_names_an_edge_whose_nodal_loads_overflow():
    # each traction is finite, but 2 t_start + t_end is not
    config = pipeline.parse_config(
        "[grid]\nnx = 2\nny = 2\n[loads]\npreset = none\nneumann = 1 0 1 0 1.7e308 0 1.7e308\n"
        "[supports]\npreset = none\ndirichlet = 0 0 xy\n  0 1 xy\n")
    with pytest.raises(pipeline.ConfigError, match=r"element \(1, 0\) edge 1 are not finite"):
        config.build_bc(config.build_grid())


def test_readme_ini_example_parses_and_sets_every_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    config = pipeline.parse_config(block)
    assert (config.name, config.workers, config.mask) == ("my-run", 4, "none")
    assert config.neumann == [(31, 0, 1, 0.0, -1.0, 0.0, -1.0)]
    assert config.dirichlet == [(0, 0, "xy")]
    # the example documents the whole schema derived from RunConfig
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
    parser.read_string(block)
    keys = {(section, key) for section in parser.sections() for key in parser[section]}
    assert keys == set(pipeline._INI_FIELDS) | {("run", "preset")}


# A valid non-default INI value for every RunConfig field.
NON_DEFAULT = {
    "name": "other", "nx": "33", "ny": "17", "hx": "0.125", "hy": "0.25",
    "mask": "upper-right-quadrant", "E": "2000.0", "nu": "0.25", "rho0": "0.4",
    "rho_bar_min": "0.1", "rho_bar_max": "0.9", "coarse_p": "1.5", "coarse_r_min": "2.0",
    "coarse_eps": "0.05", "max_inner": "20", "stage_cap": "5", "fine_n": "8",
    "fine_p": "2.5", "fine_r_min": "1.5", "fine_eps": "0.02", "fine_max_iter": "40",
    "beta_max": "3.0", "m_nd_min": "40.0",
    "load_preset": "none", "neumann": "0 0 1 0 -1 0 -1", "support_preset": "clamp-top",
    "dirichlet": "0 0 xy", "out": "elsewhere", "workers": "2",
}


def test_parse_config_each_key_sets_only_its_field():
    default = pipeline.RunConfig()
    assert set(NON_DEFAULT) == {f.name for f in fields(pipeline.RunConfig)}
    for (section, key), f in pipeline._INI_FIELDS.items():
        config = pipeline.parse_config(f"[{section}]\n{key} = {NON_DEFAULT[f.name]}\n")
        value, before = getattr(config, f.name), getattr(default, f.name)
        assert value != before and type(value) is type(before), f.name
        assert replace(config, **{f.name: before}) == default, f.name


def test_preset_config_fields():
    ex1 = pipeline.preset_config("example1")
    assert (ex1.nx, ex1.ny) == (32, 16)
    assert_allclose(ex1.nx * ex1.hx, 2.0)
    assert_allclose(ex1.ny * ex1.hy, 1.0)
    assert ex1.support_preset == "clamp-left"
    ex2 = pipeline.preset_config("example2", out="elsewhere")
    assert (ex2.nx, ex2.ny) == (32, 32)
    assert ex2.mask == "upper-right-quadrant"
    assert ex2.support_preset == "clamp-top"
    assert ex2.out == "elsewhere"
    with pytest.raises(pipeline.ConfigError):
        pipeline.preset_config("example3")


def test_build_grid_quadrant_mask():
    config = pipeline.preset_config("example2")
    g = config.build_grid()
    assert g.active.shape == (32, 32)
    assert g.active.sum() == 32 * 32 - 16 * 16
    assert not g.active[16, 16]
    assert g.active[15, 31] and g.active[31, 15]


def test_mask_file_roundtrip(tmp_path):
    # 2 x 3 domain with the top-right cell carved out; rows are top-first
    path = tmp_path / "mask.csv"
    path.write_text("1,1,0\n1,1,1\n")
    config = pipeline.parse_config(
        f"[grid]\nnx = 3\nny = 2\nmask = file:{path}\n"
    )
    g = config.build_grid()
    assert g.active.sum() == 5
    assert not g.active[2, 1]
    assert g.active[2, 0]


@pytest.mark.parametrize("nx, ny, rows, active", [
    (1, 3, "1\n1\n0\n", [[False, True, True]]),  # one column, top row first
    (3, 1, "0,1,1\n", [[False], [True], [True]]),  # one row
])
def test_mask_file_of_one_column_or_row(tmp_path, nx, ny, rows, active):
    path = tmp_path / "mask.csv"
    path.write_text(rows)
    config = pipeline.parse_config(f"[grid]\nnx = {nx}\nny = {ny}\nmask = file:{path}\n")
    assert config.build_grid().active.tolist() == active


def test_mask_file_errors(tmp_path):
    # the file itself is only read when the grid is built
    path = tmp_path / "mask.csv"
    path.write_text("1,1\n")
    config = pipeline.parse_config(f"[grid]\nnx = 3\nny = 2\nmask = file:{path}\n")
    with pytest.raises(pipeline.ConfigError, match="expected"):
        config.build_grid()
    gone = pipeline.parse_config(
        f"[grid]\nnx = 3\nny = 2\nmask = file:{tmp_path / 'gone.csv'}\n"
    )
    with pytest.raises(pipeline.ConfigError, match="cannot read"):
        gone.build_grid()


@pytest.mark.filterwarnings("error")
def test_empty_mask_file_is_a_config_error_without_a_warning(tmp_path):
    path = tmp_path / "mask.csv"
    path.write_text("")
    with pytest.raises(pipeline.ConfigError, match="is empty"):
        pipeline.load_mask_csv(path, 2, 1)


def test_parabolic_shear_preserves_edge_shares():
    g = Grid(2, 4, 0.5, 0.25)
    config = pipeline.parse_config(
        "[grid]\nnx = 2\nny = 4\nhx = 0.5\nhy = 0.25\n"
    )
    bc = config.build_bc(g)
    f = fem.load_vector(g, bc)
    fy = f.reshape(-1, 2)[:, 1]
    assert_allclose(f.reshape(-1, 2)[:, 0], 0.0)
    # the parabola tau(y) = 1 - (2(y-c)/h)^2 integrates to 2h/3 over its span
    assert_allclose(fy.sum(), -2.0 / 3.0 * 1.0, rtol=1e-12)
    # every edge keeps its exact share of the load
    h, c = 1.0, 0.5
    for (elem, ledge), (t_s, t_e) in bc.neumann.items():
        assert ledge == 1
        _, iy = g.elem_index(elem)
        y0, y1 = iy * g.hy, (iy + 1) * g.hy
        exact = (y1 - y0) - 4.0 / (3.0 * h * h) * ((y1 - c) ** 3 - (y0 - c) ** 3)
        assert_allclose(0.5 * g.hy * (t_s[1] + t_e[1]), -exact, rtol=1e-12)
    # symmetric loading about the midline
    top = bc.neumann[(g.elem_id(1, 3), 1)]
    bottom = bc.neumann[(g.elem_id(1, 0), 1)]
    assert_allclose(top[0][1], bottom[1][1])
    assert_allclose(top[1][1], bottom[0][1])


# -------------------------------------------------------- stitch and rasters


def fake_batch(rasters, n):
    cells = {
        e: fine.FineCellResult(cell=e, rho=np.asarray(r, dtype=float), kind="optimized")
        for e, r in rasters.items()
    }
    return fine.FineBatchResult(cells=cells, failures={}, n=n)


def test_stitch_places_cells():
    g = Grid(2, 1, 1.0, 1.0)
    batch = fake_batch({0: np.arange(4) / 4.0, 1: np.arange(4, 8) / 8.0}, n=2)
    image = pipeline.stitch(g, batch)
    assert image.data.shape == (4, 2)
    assert_allclose(image.data[0:2, 0:2], (np.arange(4) / 4.0).reshape(2, 2))
    assert_allclose(image.data[2:4, 0:2], (np.arange(4, 8) / 8.0).reshape(2, 2))
    # row 0 of the file raster is the top of the domain
    rows = image.raster_rows()
    assert rows.shape == (2, 4)
    assert_allclose(rows[0], image.data[:, 1])
    assert_allclose(rows[1], image.data[:, 0])


def test_stitch_missing_cell_raises():
    g = Grid(2, 1, 1.0, 1.0)
    batch = fake_batch({0: np.arange(4) / 4.0}, n=2)
    with pytest.raises(pipeline.PipelineError, match="missing cell raster"):
        pipeline.stitch(g, batch)


def test_continuity_metric_hand_example():
    data = np.zeros((4, 2))
    data[1, :] = [0.2, 0.4]  # last column of the left cell
    data[2, :] = [0.5, 0.1]  # first column of the right cell
    image = pipeline.HighResImage(
        data=data, n=2, active=np.ones((2, 1), dtype=bool)
    )
    metric = pipeline.continuity_metric(image)
    assert metric["count"] == 1
    assert_allclose(metric["mean"], 0.3)
    assert_allclose(metric["max"], 0.3)


def test_continuity_metric_skips_inactive_neighbors():
    image = pipeline.HighResImage(
        data=np.random.default_rng(0).uniform(size=(4, 2)),
        n=2,
        active=np.array([[True], [False]]),
    )
    metric = pipeline.continuity_metric(image)
    assert metric["count"] == 0
    assert metric["mean"] == 0.0


def _ref_continuity(image):
    """The mean jump across each interior cell boundary, one boundary at a time."""
    n, active = image.n, image.active
    nx, ny = active.shape
    per_boundary = []
    for ix in range(nx - 1):
        for iy in range(ny):
            if active[ix, iy] and active[ix + 1, iy]:
                a = image.data[(ix + 1) * n - 1, iy * n : (iy + 1) * n]
                b = image.data[(ix + 1) * n, iy * n : (iy + 1) * n]
                per_boundary.append(float(np.abs(a - b).mean()))
    for ix in range(nx):
        for iy in range(ny - 1):
            if active[ix, iy] and active[ix, iy + 1]:
                a = image.data[ix * n : (ix + 1) * n, (iy + 1) * n - 1]
                b = image.data[ix * n : (ix + 1) * n, (iy + 1) * n]
                per_boundary.append(float(np.abs(a - b).mean()))
    return per_boundary


def test_continuity_metric_matches_boundary_loop_on_random_masks():
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 8, 32, 200):
        for _ in range(20):
            nx, ny = rng.integers(1, 6, size=2)
            image = pipeline.HighResImage(rng.uniform(size=(nx * n, ny * n)), n,
                                          rng.uniform(size=(nx, ny)) < 0.7)
            ref = _ref_continuity(image)
            metric = pipeline.continuity_metric(image)
            assert metric["count"] == len(ref)
            if ref:  # bitwise
                assert (metric["mean"], metric["max"]) == (np.mean(ref), np.max(ref))


def test_write_pgm_format(tmp_path):
    path = tmp_path / "img.pgm"
    pipeline.write_pgm(path, np.array([[1.0, 0.0], [0.5, 0.25]]))
    blob = path.read_bytes()
    assert blob.startswith(b"P5\n2 2\n255\n")
    pixels = blob[len(b"P5\n2 2\n255\n") :]
    assert list(pixels) == [0, 255, 128, 191]


@pytest.mark.parametrize("height", [1, 7, 64, 65, 130])
def test_write_pgm_row_blocks_match_whole_image_formula(tmp_path, height):
    # out-of-range values, and a transposed, flipped view as render passes
    data = np.random.default_rng(height).uniform(-0.5, 1.5, size=(9, height))
    raster = np.flipud(data.T)
    path = tmp_path / "img.pgm"
    pipeline.write_pgm(path, raster)
    header = f"P5\n9 {height}\n255\n".encode("ascii")
    pixels = np.round((1.0 - np.clip(raster, 0.0, 1.0)) * 255.0).astype(np.uint8)
    assert path.read_bytes() == header + pixels.tobytes()


def test_write_pgm_memory_stays_below_the_image(tmp_path):
    import tracemalloc

    raster = np.random.default_rng(0).uniform(size=(1024, 1024))
    tracemalloc.start()
    try:
        pipeline.write_pgm(tmp_path / "big.pgm", raster)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < raster.nbytes / 4


def test_csv_raster_roundtrip(tmp_path):
    path = tmp_path / "field.csv"
    raster = np.random.default_rng(3).uniform(size=(3, 5))
    pipeline.write_csv_raster(path, raster)
    assert np.array_equal(np.loadtxt(path, delimiter=","), raster)


def test_field_raster_orientation():
    g = Grid(2, 2, 1.0, 1.0)
    values = np.array([10.0, 11.0, 20.0, 21.0])  # elem (ix, iy) -> 10*ix+iy+10
    raster = pipeline.field_raster(g, values)
    assert_allclose(raster, [[11.0, 21.0], [10.0, 20.0]])


def test_render_rejects_unknown_format(tmp_path):
    with pytest.raises(pipeline.ConfigError):
        image = pipeline.HighResImage(np.zeros((2, 2)), n=1, active=np.ones((2, 2), dtype=bool))
        pipeline.render(image, "bmp", tmp_path / "x.bmp")


# ----------------------------------------------------------------- pipeline


def _results(summary):
    """The summary less what measures the run rather than its results."""
    return {k: v for k, v in summary.items()
            if k not in ("wall_time_s", "timings", "peak_rss_mb")}


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("small_run")
    config = pipeline.parse_config(SMALL_RUN)
    config.out = str(out)
    summary = pipeline.run_pipeline(config)
    return config, out, summary


def test_run_pipeline_artifacts(small_run):
    config, out, summary = small_run
    for name in (
        "coarse_state.npz",
        "coarse_history.csv",
        "coarse_stage_01.pgm",
        "coarse_stage_01.csv",
        "equilibrium_certificate.json",
        "tractions.csv",
        "cells.npz",
        "cells.csv",
        "highres.pgm",
        "highres.csv",
        "summary.json",
    ):
        assert (out / name).exists(), name
    on_disk = json.loads((out / "summary.json").read_text())
    assert on_disk["name"] == "small"
    assert on_disk["image_size"] == [4 * 4, 2 * 4]
    assert on_disk["cells_total"] == 8
    assert summary["coarse_converged"] is True
    assert abs(summary["coarse_volume_fraction"] - 0.5) < 1e-3
    assert summary["certificate"]["max_force_residual_rel"] <= 1e-8
    assert summary["certificate"]["max_moment_residual_rel"] <= 1e-8
    assert summary["max_cell_reaction_rel"] <= 1e-6
    highres = np.loadtxt(out / "highres.csv", delimiter=",")
    assert highres.shape == (2 * 4, 4 * 4)
    assert summary["continuity_mean"] >= 0.0


def test_run_pipeline_resumes_from_checkpoints(small_run, monkeypatch):
    config, out, summary = small_run

    def boom(*args, **kwargs):
        raise AssertionError("stage should have been resumed from checkpoint")

    monkeypatch.setattr(coarse, "stage_loop", boom)
    monkeypatch.setattr(fine, "solve_all_cells", boom)
    (out / "summary.json").unlink()
    again = pipeline.run_pipeline(config)
    assert (out / "summary.json").exists()
    assert again["cells_total"] == summary["cells_total"]
    assert_allclose(again["coarse_compliance"], summary["coarse_compliance"])


def test_run_pipeline_names_a_failing_cell_once(tmp_path, monkeypatch):
    """A farm failure names its cell once, however the failure arose."""
    solve_all_cells = fine.solve_all_cells
    unbalanced = []

    def unbalance_one(grid, coarse_result, tractions, **settings):
        cell = int(np.flatnonzero(coarse_result.frozen == coarse.FREE)[0])
        unbalanced.append(cell)
        tractions = np.array(tractions)
        tractions[cell, 1, :, 0] += 1.0
        return solve_all_cells(grid, coarse_result, tractions, **settings)

    monkeypatch.setattr(fine, "solve_all_cells", unbalance_one)
    config = replace(pipeline.parse_config(SMALL_RUN), out=str(tmp_path))
    with pytest.raises(pipeline.PipelineError) as failure:
        pipeline.run_pipeline(config)
    message = str(failure.value)
    assert "tractions are not self-equilibrated" in message
    assert message.count(f"cell {unbalanced[0]}:") == 1


def test_run_pipeline_deterministic_reruns(small_run, tmp_path):
    config, out, _ = small_run
    from dataclasses import replace

    rerun = replace(config, out=str(tmp_path / "b"))
    pipeline.run_pipeline(rerun)
    first = (out / "highres.csv").read_bytes()
    second = (tmp_path / "b" / "highres.csv").read_bytes()
    assert first == second


def test_run_pipeline_verify_only(tmp_path):
    config = pipeline.parse_config(SMALL_RUN)
    config.out = str(tmp_path / "verify")
    summary = pipeline.run_pipeline(config, skip_fine=True)
    assert "cells_total" not in summary
    assert (tmp_path / "verify" / "equilibrium_certificate.json").exists()
    assert not (tmp_path / "verify" / "cells.npz").exists()
    cert = json.loads(
        (tmp_path / "verify" / "equilibrium_certificate.json").read_text()
    )
    assert cert["elements"] == 8
    assert cert["max_force_residual_rel"] <= 1e-8


def test_verify_without_loads_keeps_the_volume(tmp_path):
    # no load drives any density, so the first OC step scales the uniform
    # start onto its own volume target and the stage converges at once
    path = tmp_path / "unloaded.ini"
    path.write_text(SMALL_RUN.replace("preset = shear-right", "preset = none"))
    out = tmp_path / "out"
    assert cli.main(["verify", "--config", str(path), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["stages"] == 1 and summary["coarse_converged"]
    assert abs(summary["coarse_volume_fraction"] - 0.5) <= 1e-12
    with open(out / "coarse_history.csv") as f:
        assert len(list(csv.DictReader(f))) == 1


# ---------------------------------------------------------------------- CLI


def test_cli_preset_list(capsys):
    assert cli.main(["preset-list"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert any(line.startswith("example1:") for line in lines)
    assert any(line.startswith("example2:") for line in lines)


def test_cli_run_small_config(tmp_path, capsys):
    path = tmp_path / "run.ini"
    path.write_text(SMALL_RUN)
    code = cli.main(
        ["run", "--config", str(path), "--out", str(tmp_path / "out")]
    )
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["name"] == "small"
    assert (tmp_path / "out" / "highres.pgm").exists()


def test_cli_rejects_bad_config(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[grid]\nnx = -3\n")
    assert cli.main(["run", "--config", str(path)]) == cli.EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


def test_cli_rejects_missing_config(tmp_path, capsys):
    missing = tmp_path / "nope.ini"
    assert cli.main(["run", "--config", str(missing)]) == cli.EXIT_CONFIG
    assert "cannot read" in capsys.readouterr().err


def test_cli_numerical_failure_exit_code(tmp_path, capsys):
    # a single pinned node leaves a rotation mode, which the loaded solve
    # must report as a numerical failure, not crash or hang
    path = tmp_path / "singular.ini"
    path.write_text(
        "[grid]\nnx = 2\nny = 2\nhx = 0.5\nhy = 0.5\n"
        "[supports]\npreset = none\ndirichlet = 0 0 xy\n"
    )
    code = cli.main(
        ["run", "--config", str(path), "--out", str(tmp_path / "out")]
    )
    assert code == cli.EXIT_NUMERICAL
    assert "run failed" in capsys.readouterr().err


def _strict_json(path):
    """The JSON in path, refusing the NaN and Infinity of non-strict JSON."""
    def refuse(constant):
        raise ValueError(f"{path.name} holds {constant}")

    return json.loads(path.read_text(), parse_constant=refuse)


def test_cli_non_finite_certificate_is_a_numerical_failure(tmp_path, capsys):
    # a finite 1e300 traction overflows the compliance of the first coarse
    # solve, which stops the run before any artifact would hold inf
    path = tmp_path / "huge.ini"
    path.write_text(
        "[grid]\nnx = 2\nny = 2\n[thresholds]\nrho0 = 1.0\n"
        "[loads]\npreset = none\nneumann = 0 0 3 0 0 0 1e300\n"
        "[supports]\npreset = none\ndirichlet = 1 1 xy\n    0 1 y\n"
    )
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == cli.EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "run failed: compliance is not finite" in err
    assert "Traceback" not in err
    assert not (out / "coarse_history.csv").exists()
    assert not (out / "equilibrium_certificate.json").exists()
    for written in out.glob("*.json"):
        _strict_json(written)


def test_write_json_refuses_a_non_finite_number(tmp_path):
    path = tmp_path / "summary.json"
    with pytest.raises(pipeline.PipelineError, match="summary.json would hold a non-finite"):
        pipeline._write_json(path, {"compliance": float("nan")})
    assert not path.exists()


_EXTREMES = (0.0, -1.0, 5e-324, 1e-300, 1e-9, 0.5, 1.0, 1e9, 1e300, -1e300, sys.float_info.max)
_NUMBERS = st.one_of(st.sampled_from(_EXTREMES), st.floats(-10.0, 10.0),
                     st.floats(allow_nan=False, allow_infinity=False))
# INI keys by section that a drawn config may override, each with its values.
_ABUSE_KEYS = {
    ("grid", "hx"): _NUMBERS, ("grid", "hy"): _NUMBERS,
    ("grid", "mask"): st.sampled_from(sorted(pipeline.MASKS)),
    ("material", "e"): _NUMBERS, ("material", "nu"): _NUMBERS,
    ("thresholds", "rho0"): _NUMBERS, ("thresholds", "rho_bar_min"): _NUMBERS,
    ("thresholds", "rho_bar_max"): _NUMBERS,
    ("coarse", "p"): _NUMBERS, ("coarse", "r_min"): _NUMBERS, ("coarse", "eps"): _NUMBERS,
    ("fine", "p"): _NUMBERS, ("fine", "r_min"): _NUMBERS, ("fine", "eps"): _NUMBERS,
    ("projection", "beta_max"): _NUMBERS, ("projection", "m_nd_min"): _NUMBERS,
    ("loads", "preset"): st.sampled_from(sorted(pipeline.LOAD_PRESETS)),
    ("supports", "preset"): st.sampled_from(sorted(pipeline.SUPPORT_PRESETS)),
}


@st.composite
def abuse_configs(draw):
    """INI text of a small run: a few keys set to extreme but finite values,
    plus explicit load and support rows on the grid's elements and nodes."""
    nx, ny = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    sections = {
        "run": {"workers": draw(st.sampled_from([0, 1]))},
        "grid": {"nx": nx, "ny": ny},
        "coarse": {"max_inner": draw(st.integers(1, 20)), "stage_cap": draw(st.integers(1, 5))},
        "fine": {"n": draw(st.integers(2, 4)), "max_iter": draw(st.integers(1, 20))},
    }
    for section, key in draw(st.sets(st.sampled_from(sorted(_ABUSE_KEYS)), max_size=4)):
        sections.setdefault(section, {})[key] = draw(_ABUSE_KEYS[section, key])
    neumann = draw(st.lists(st.tuples(st.integers(0, nx - 1), st.integers(0, ny - 1),
                                      st.integers(0, 3), *[_NUMBERS] * 4), max_size=3))
    dirichlet = draw(st.lists(st.tuples(st.integers(0, nx), st.integers(0, ny),
                                        st.sampled_from(["x", "y", "xy"])), max_size=3))
    for section, key, rows in (("loads", "neumann", neumann), ("supports", "dirichlet", dirichlet)):
        if rows:
            sections.setdefault(section, {})[key] = "\n    ".join(" ".join(map(str, row))
                                                               for row in rows)
    return "".join(f"[{section}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())
                   for section, keys in sections.items())


# An element side whose square underflows to 0, which the fine cell loads
# divide by: the config must be rejected before any stage runs.
_TINY_SIDES = ("[run]\nworkers = 0\n[grid]\nnx = 1\nny = 1\nhx = 2.6206234595857217e-267\n"
               "[coarse]\nmax_inner = 1\nstage_cap = 1\n[fine]\nn = 2\nmax_iter = 1\n"
               "[material]\ne = 2.6206234595857217e-267\n")


@settings(max_examples=100, deadline=None)
@given(abuse_configs())
@example(_TINY_SIDES)
def test_cli_survives_abusive_configs(text):
    # whatever the config, the run ends in a mapped exit code, and a run that
    # succeeds writes strict JSON
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "abuse.ini"
        path.write_text(text)
        code = cli.main(["run", "--config", str(path), "--out", str(Path(tmp) / "out")])
        assert code in (0, cli.EXIT_CONFIG, cli.EXIT_NUMERICAL, cli.EXIT_IO)
        if code == 0:
            for name in ("summary.json", "equilibrium_certificate.json"):
                _strict_json(Path(tmp) / "out" / name)


@pytest.mark.parametrize(
    "command, checkpoint", [("verify", "coarse_state.npz"), ("run", "cells.npz")]
)
def test_cli_recomputes_truncated_checkpoint(tmp_path, capsys, command, checkpoint):
    path = tmp_path / "run.ini"
    path.write_text(SMALL_RUN)
    args = [command, "--config", str(path), "--out", str(tmp_path / "out")]
    assert cli.main(args) == 0
    fresh = json.loads(capsys.readouterr().out)
    ckpt = tmp_path / "out" / checkpoint
    ckpt.write_bytes(ckpt.read_bytes()[:300])
    assert cli.main(args) == 0
    again = json.loads(capsys.readouterr().out)
    assert _results(again) == _results(fresh)


# Fields with this config's fingerprint that do not fit it, by (command,
# checkpoint, edit), each edit returning the arrays it replaces: the coarse
# stage count as [1, 2] and the cells' iteration counts as 2-D, one
# dimension too deep; each cell raster cut to 9 of its 16 entries; the
# coarse densities cut to 5 of the 8 elements; each coarse stage field cut
# to 5 columns; the cell ids shifted by 100 off the grid; the first cell
# dropped from every array; the second cell's id set to the first's.
_MISSHAPEN = {
    ("verify", "coarse_state.npz", "stages"): lambda a: {"stages": np.array([1, 2])},
    ("run", "cells.npz", "iterations"):
        lambda a: {"iterations": np.stack([a["iterations"]] * 2, 1)},
    ("run", "cells.npz", "rho"): lambda a: {"rho": a["rho"][:, :9]},
    ("verify", "coarse_state.npz", "rho"): lambda a: {"rho": a["rho"][:5]},
    ("verify", "coarse_state.npz", "stage_fields"):
        lambda a: {"stage_fields": a["stage_fields"][:, :5]},
    ("run", "cells.npz", "shifted-ids"): lambda a: {"cell": a["cell"] + 100},
    ("run", "cells.npz", "dropped-cell"):
        lambda a: {name: a[name][1:] for name in pipeline._CELL_ARRAYS},
    ("run", "cells.npz", "duplicated-id"): lambda a: {"cell": a["cell"][[0, 0, *range(2, 8)]]},
}


@pytest.mark.parametrize("command, checkpoint, name", list(_MISSHAPEN))
def test_cli_recomputes_checkpoint_with_a_misshapen_field(tmp_path, capsys, caplog, command,
                                                          checkpoint, name):
    path = tmp_path / "run.ini"
    path.write_text(SMALL_RUN)
    args = [command, "--config", str(path), "--out", str(tmp_path / "out")]
    assert cli.main(args) == 0
    fresh = json.loads(capsys.readouterr().out)
    ckpt = tmp_path / "out" / checkpoint
    with np.load(ckpt) as data:
        arrays = dict(data)
    arrays.update(_MISSHAPEN[command, checkpoint, name](arrays))
    np.savez_compressed(ckpt, **arrays)
    caplog.set_level("WARNING", logger="twolevel_topopt.pipeline")
    assert cli.main(args) == 0
    assert f"unreadable checkpoint {ckpt}" in caplog.text
    again = json.loads(capsys.readouterr().out)
    assert _results(again) == _results(fresh)


def test_cli_io_failure_exit_code(tmp_path, capsys, monkeypatch):
    path = tmp_path / "run.ini"
    path.write_text(SMALL_RUN)

    def boom(config, skip_fine=False):
        raise OSError("disk full")

    monkeypatch.setattr(pipeline, "run_pipeline", boom)
    assert cli.main(["run", "--config", str(path)]) == cli.EXIT_IO
    assert "I/O error" in capsys.readouterr().err


def test_cli_workers_override(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(SMALL_RUN)
    config = cli._load_config(
        cli.build_parser().parse_args(
            ["run", "--config", str(path), "--workers", "2"]
        )
    )
    assert config.workers == 2


@pytest.mark.parametrize(
    "text",
    [
        "[material]\nnu = -0.2\n",
        "[thresholds]\nrho_bar_min = 0.0005\n",
        "[coarse]\np = 0.5\n",
        # a start below rho_min, and an edge too short for the shear's fit
        "[thresholds]\nrho0 = 5e-324\n",
        "[grid]\nhy = 1e-300\n",
        # boundary rows off an 8 x 4 grid, and a clamp on the loaded corner
        "[grid]\nnx = 8\nny = 4\n[loads]\npreset = none\nneumann = 0 4 0 0 -1 0 -1\n",
        "[grid]\nnx = 8\nny = 4\n[loads]\npreset = none\nneumann = 8 0 0 0 -1 0 -1\n",
        "[grid]\nnx = 8\nny = 4\n[loads]\npreset = none\nneumann = 0 0 4 0 -1 0 -1\n",
        "[grid]\nnx = 8\nny = 4\n[supports]\ndirichlet = 0 5 xy\n",
        "[grid]\nnx = 8\nny = 4\n[supports]\ndirichlet = 99 0 xy\n",
        "[grid]\nnx = 8\nny = 4\n[supports]\ndirichlet = -1 0 xy\n",
        "[grid]\nnx = 8\nny = 4\n[supports]\npreset = clamp-top\n",
    ],
)
def test_cli_rejects_parameters_out_of_model_range(tmp_path, capsys, text):
    # each value passes a loose check but not the material, threshold or
    # projection object it builds, or the grid its supports and loads go on,
    # which must still end as a config error
    path = tmp_path / "bad.ini"
    path.write_text(text)
    args = ["verify", "--config", str(path), "--out", str(tmp_path / "out")]
    assert cli.main(args) == cli.EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "rows, message",
    [
        ("1,x,1,1\n1,1,1,1\n", "not a table of numbers"),  # a non-numeric entry
        ("1,1,1,1\n1,1,1\n", "not a table of numbers"),  # a ragged row
        ("1,2,1,1\n1,1,1,1\n", "other than 0 and 1"),
    ],
)
def test_cli_rejects_bad_mask_file(tmp_path, capsys, rows, message):
    mask = tmp_path / "mask.csv"
    mask.write_text(rows)
    path = tmp_path / "run.ini"
    path.write_text(SMALL_RUN.replace("[grid]\n", f"[grid]\nmask = file:{mask}\n"))
    args = ["verify", "--config", str(path), "--out", str(tmp_path / "out")]
    assert cli.main(args) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "configuration error" in err and message in err


# Run before main in the child interpreter; forked farm workers inherit the
# patch. A dead worker (an OOM kill looks the same) breaks the pool.
DIE_IN_WORKER = """
import os
from twolevel_topopt import fine
def die(problem):
    os._exit(1)
fine._solve_for_pool = die
"""
NO_MEMORY = """
from twolevel_topopt import pipeline
def no_memory(*args, **kwargs):
    raise MemoryError
pipeline.Grid = no_memory
"""


@pytest.mark.parametrize("old, new, code, patch", [(*case, None) for case in [
    ("r_min = 1.3", "r_min = inf", cli.EXIT_CONFIG),
    ("r_min = 1.3", "r_min = 1e30", 0),  # the filter's reach stops at the grid
    ("[coarse]\n", "[coarse]\np = nan\n", cli.EXIT_CONFIG),
    ("[grid]\n", "[material]\ne = nan\n\n[grid]\n", cli.EXIT_CONFIG),
    ("hx = 0.5", "hx = inf", cli.EXIT_CONFIG),
    ("preset = shear-right\n", "preset = shear-right\nneumann = 3 0 1 nan 0 0 0\n",
     cli.EXIT_CONFIG),
    ("[grid]\n", "[grid]\nmask = file:{empty}\n", cli.EXIT_CONFIG),
    # a finite traction whose compliance overflows, two finite rows on one
    # edge whose sum does, and a finite row whose nodal loads do
    ("preset = shear-right\n", "preset = shear-right\nneumann = 3 0 1 0 0 0 1e300\n",
     cli.EXIT_NUMERICAL),
    ("preset = shear-right\n",
     "preset = shear-right\nneumann = 3 0 1 1e308 0 1e308 0\n    3 0 1 1e308 0 1e308 0\n",
     cli.EXIT_CONFIG),
    ("preset = shear-right\n", "preset = shear-right\nneumann = 3 0 1 0 1.7e308 0 1.7e308\n",
     cli.EXIT_CONFIG),
    # an element stiffness, filter weights, a filtered sensitivity, residual
    # norms and force polygons that would overflow or divide 0 by 0
    ("hx = 0.5", "hx = 1e308", cli.EXIT_CONFIG),
    ("r_min = 1.3", "r_min = 1e308", cli.EXIT_NUMERICAL),
    ("r_min = 1.3", "r_min = 5e-324", cli.EXIT_NUMERICAL),
    ("preset = shear-right\n",
     "preset = shear-right\nneumann = 3 0 1 0 0 0 1e160\n\n[material]\ne = 1e300\n",
     cli.EXIT_NUMERICAL),
    ("preset = shear-right\n", "preset = shear-right\nneumann = 3 0 1 0 0 0 1e104\n",
     cli.EXIT_NUMERICAL),
]] + [
    # a patched run: the farm's two workers die, or the grid finds no memory
    ("workers = 1", "workers = 2", cli.EXIT_NUMERICAL, DIE_IN_WORKER),
    ("workers = 1", "workers = 1", cli.EXIT_NUMERICAL, NO_MEMORY),
], ids=["r_min-inf", "r_min-1e30", "p-nan", "e-nan", "hx-inf", "neumann-nan", "empty-mask",
        "compliance-overflow", "neumann-sum-overflow", "nodal-load-overflow", "stiffness-overflow",
        "filter-weight-overflow", "filter-underflow", "residual-norm-overflow",
        "force-polygon-overflow", "worker-died", "out-of-memory"])
def test_cli_ends_without_traceback_or_warning(tmp_path, old, new, code, patch):
    # a separate interpreter, so that stderr shows whatever escapes main
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    path = tmp_path / "run.ini"
    assert old in SMALL_RUN
    path.write_text(SMALL_RUN.replace(old, new.format(empty=empty), 1))
    src = str(Path(pipeline.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get(
        "PYTHONPATH")]))}
    args = ["--config", str(path), "--out", str(tmp_path / "out")]
    if patch is None:
        command = ["-m", "twolevel_topopt.cli", "verify", *args]
    else:
        main = "import sys\nfrom twolevel_topopt import cli\nsys.exit(cli.main(sys.argv[1:]))"
        command = ["-c", patch + main, "run", *args]
    done = subprocess.run([sys.executable, *command], capture_output=True, text=True, env=env,
                          timeout=300)
    assert done.returncode == code, done.stderr
    assert "Traceback" not in done.stderr and "Warning" not in done.stderr, done.stderr
    if code == cli.EXIT_CONFIG:
        assert done.stderr.startswith("configuration error: ")
    if patch is not None:
        assert done.stderr.startswith("run failed: ")
    if patch is NO_MEMORY:
        assert done.stderr == "run failed: out of memory\n"


@pytest.mark.parametrize("command", ["verify", "run"])
def test_summary_timings_split_the_wall_time(tmp_path, capsys, command):
    path = tmp_path / "run.ini"
    path.write_text(SMALL_RUN)
    assert cli.main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    summary = json.loads(capsys.readouterr().out)
    keys = {"coarse_s", "equilibrate_s", "io_s"} | (
        {"farm_s", "stitch_s"} if command == "run" else set())
    assert set(summary["timings"]) == keys
    assert all(t > 0.0 for t in summary["timings"].values())
    assert sum(summary["timings"].values()) <= summary["wall_time_s"]
    assert json.loads((tmp_path / "out" / "summary.json").read_text())["timings"] == (
        summary["timings"])


@pytest.mark.parametrize("command", ["verify", "run"])
def test_cli_rerun_with_another_config_recomputes(tmp_path, capsys, command):
    first, second = tmp_path / "first.ini", tmp_path / "second.ini"
    first.write_text(SMALL_RUN)
    second.write_text(SMALL_RUN + "\n[thresholds]\nrho0 = 0.3\n")
    reused, fresh = tmp_path / "reused", tmp_path / "fresh"
    assert cli.main([command, "--config", str(first), "--out", str(reused)]) == 0
    capsys.readouterr()
    # as if the first config had taken more coarse stages
    (reused / "coarse_stage_99.csv").write_text("stale")
    summaries = []
    for out in (reused, fresh):
        assert cli.main([command, "--config", str(second), "--out", str(out)]) == 0
        summaries.append(_results(json.loads(capsys.readouterr().out)))
    assert abs(summaries[0]["coarse_volume_fraction"] - 0.3) < 1e-3
    assert summaries[0] == summaries[1]
    # every artifact but the checkpoints and the timed summary, byte for byte
    names = sorted(p.name for p in fresh.iterdir() if p.suffix != ".npz")
    assert sorted(p.name for p in reused.iterdir() if p.suffix != ".npz") == names
    names.remove("summary.json")
    for name in names:
        assert (reused / name).read_bytes() == (fresh / name).read_bytes(), name


def test_verify_rerun_after_mask_file_edit(tmp_path):
    # the config text is unchanged, but the mask file it names is not
    mask = tmp_path / "mask.csv"
    text = SMALL_RUN.replace("[grid]\n", f"[grid]\nmask = file:{mask}\n")
    summaries = []
    for rows, out in (("1,1,1,1\n1,1,1,1\n", "reused"), ("1,1,1,0\n1,1,1,1\n", "reused"),
                      ("1,1,1,0\n1,1,1,1\n", "fresh")):
        mask.write_text(rows)
        config = pipeline.parse_config(text)
        config.out = str(tmp_path / out)
        summaries.append(_results(pipeline.run_pipeline(config, skip_fine=True)))
    assert summaries[1]["certificate"]["elements"] == 7
    assert summaries[1] == summaries[2]


def test_cells_csv_flags_capped_and_off_target_cells(tmp_path):
    rho_off = np.full(16, 0.6)
    rho_off[0] = 0.6 + 16 * 2e-4  # mean 0.6002 for a target of 0.6
    cells = {
        3: fine.FineCellResult(3, np.full(16, 0.4), "optimized", "converged"),
        5: fine.FineCellResult(5, rho_off, "optimized", "converged"),
        7: fine.FineCellResult(7, np.full(16, 0.5), "optimized", "iteration-cap",
                               iterations=20),
        8: fine.FineCellResult(8, np.ones(16), "frozen-solid"),
        9: fine.FineCellResult(9, np.full(16, 0.7), "optimized", "cycle", iterations=19),
    }
    batch = fine.FineBatchResult(cells=cells, failures={}, n=4)
    targets = np.zeros(10)
    targets[[3, 5, 7, 8, 9]] = [0.4 + 5e-5, 0.6, 0.5, 1.0, 0.7]
    path = tmp_path / "cells.csv"
    assert pipeline._write_cells_csv(path, batch, targets) == {
        "cells_not_converged": 2, "cells_cycled": 1, "cells_off_target": 1}
    import csv

    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0])[:3] == ["cell", "kind", "stop_reason"]
    assert [int(r["cell"]) for r in rows] == [3, 5, 7, 8, 9]
    assert [r["stop_reason"] for r in rows] == ["converged", "converged", "iteration-cap",
                                                "frozen", "cycle"]
    assert [float(r["target"]) for r in rows] == targets[[3, 5, 7, 8, 9]].tolist()
    assert [float(r["mean_density"]) for r in rows] == [
        float(cells[c].rho.mean()) for c in (3, 5, 7, 8, 9)]


def test_run_pipeline_records_cell_flags_and_blas_threads(small_run):
    config, out, summary = small_run
    on_disk = json.loads((out / "summary.json").read_text())
    assert on_disk["cells_not_converged"] == summary["cells_not_converged"]
    assert on_disk["cells_cycled"] == summary["cells_cycled"]
    assert on_disk["cells_off_target"] == summary["cells_off_target"]
    assert on_disk["blas_threads"] == (1 if fem._openblas() else None)
    import csv

    with open(out / "cells.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert sum(r["stop_reason"] in ("iteration-cap", "cycle") for r in rows) == summary[
        "cells_not_converged"]
    assert sum(r["stop_reason"] == "cycle" for r in rows) == summary["cells_cycled"]
    assert sum(abs(float(r["mean_density"]) - float(r["target"])) > 1e-4 for r in rows) == (
        summary["cells_off_target"])
    iterations = sorted(int(r["iterations"]) for r in rows if r["kind"] == "optimized")
    assert on_disk["cell_iterations_max"] == iterations[-1]
    assert on_disk["cell_iterations_median"] == float(np.median(iterations))
    for r in rows:
        assert (r["stop_reason"] == "frozen") == r["kind"].startswith("frozen")
        if r["stop_reason"] == "cycle":
            assert int(r["iterations"]) < config.fine_max_iter
        if r["stop_reason"] == "iteration-cap":
            assert int(r["iterations"]) == config.fine_max_iter


@pytest.mark.parametrize("command, workers, keys", [
    ("verify", 2, {"process"}), ("run", 1, {"process"}), ("run", 2, {"process", "worker"})])
def test_summary_records_peak_memory(tmp_path, command, workers, keys):
    config = replace(pipeline.parse_config(SMALL_RUN), out=str(tmp_path), workers=workers)
    summary = pipeline.run_pipeline(config, skip_fine=command == "verify")
    assert set(summary["peak_rss_mb"]) == keys
    assert all(mb > 0 for mb in summary["peak_rss_mb"].values())
    on_disk = json.loads((tmp_path / "summary.json").read_text())
    assert on_disk["peak_rss_mb"] == summary["peak_rss_mb"]


def test_verify_records_blas_threads(tmp_path):
    config = pipeline.parse_config(SMALL_RUN)
    config.out = str(tmp_path / "verify")
    pipeline.run_pipeline(config, skip_fine=True)
    summary = json.loads((tmp_path / "verify" / "summary.json").read_text())
    assert summary["blas_threads"] == (1 if fem._openblas() else None)


def test_cli_uncreatable_output_directory_is_an_io_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    args = ["verify", "--preset", "example1", "--out", str(blocker / "sub")]
    assert cli.main(args) == cli.EXIT_IO
    assert "I/O error: cannot create output directory" in capsys.readouterr().err


# -------------------------------------------------------------- checkpoints


def test_checkpoint_write_cut_short_keeps_the_previous_file(tmp_path):
    path = tmp_path / "state.npz"
    pipeline._write_checkpoint(path, fingerprint="a", rho=np.arange(3.0))
    before = path.read_bytes()

    class Interrupt:
        def __array__(self, dtype=None, copy=None):
            raise KeyboardInterrupt

    # rho is in the archive when the second array fails
    with pytest.raises(KeyboardInterrupt):
        pipeline._write_checkpoint(path, fingerprint="b", rho=np.arange(5.0), bad=Interrupt())
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["state.npz"]


def assert_same_fields(loaded, original, skip=()):
    """Arrays bitwise equal with the same dtype; other values equal, same type."""
    for f in fields(original):
        if f.name in skip:
            continue
        back, value = getattr(loaded, f.name), getattr(original, f.name)
        if isinstance(value, np.ndarray):
            assert back.dtype == value.dtype and back.tobytes() == value.tobytes(), f.name
        else:
            assert back == value and type(back) is type(value), f.name


def test_cells_checkpoint_round_trip(tmp_path):
    rho = np.random.default_rng(5).uniform(1e-3, 1.0, size=16)
    cells = {
        2: fine.FineCellResult(2, rho, "optimized", "cycle", iterations=17,
                               m_nd=12.5, beta_final=2.0, compliance=3.25e-3,
                               max_reaction=1e-15, reaction_scale=1.5),
        4: fine.FineCellResult(4, np.ones(16), "frozen-solid"),
        9: fine.FineCellResult(9, np.full(16, 1e-3), "frozen-void"),
    }
    path = tmp_path / "cells.npz"
    pipeline._save_cells(path, fine.FineBatchResult(cells=cells, failures={}, n=4), "fp")
    loaded = pipeline._read_checkpoint(path, lambda data: pipeline._load_cells(data, [2, 4, 9], 4),
                                       "fp")
    assert (loaded.n, loaded.failures, list(loaded.cells)) == (4, {}, [2, 4, 9])
    for cell, result in cells.items():
        assert_same_fields(loaded.cells[cell], result)


def test_cells_checkpoint_keeps_a_solved_cell_whole(tmp_path):
    # a fresh cell is exactly the record that cells.npz stores
    t = np.zeros((4, 2, 2))
    t[1], t[3] = [(-2.0, 0.0), (4.0, 0.0)], [(-4.0, 0.0), (2.0, 0.0)]  # bending and tension
    result = fine.fine_cell_solve(fine.FineCellProblem(
        cell=3, target=0.4, tractions=t, hx=1.0, hy=1.0, n=6, max_iter=40))
    assert result.kind == "optimized" and result.iterations > 1
    path = tmp_path / "cells.npz"
    pipeline._save_cells(path, fine.FineBatchResult(cells={3: result}, failures={}, n=6), "fp")
    loaded = pipeline._read_checkpoint(path, lambda data: pipeline._load_cells(data, [3], 6), "fp")
    assert_same_fields(loaded.cells[3], result)


def test_coarse_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    history = [{"stage": s, "iteration": i, "compliance": float(rng.uniform()),
                "volume_fraction": 0.5, "max_delta": float(rng.uniform())}
               for s, i in ((1, 1), (1, 2), (2, 1))]
    solution = fem.FESolution(u=rng.normal(size=30), f=rng.normal(size=30),
                              compliance=0.0123, element_energy=rng.uniform(size=8))
    result = coarse.CoarseResult(
        rho=rng.uniform(size=8), frozen=np.array([0, 1, 2, 0, 0, 1, 0, 0], dtype=np.int8),
        stages=2, converged=True, history=history, solution=solution,
        stage_fields=[rng.uniform(size=8), rng.uniform(size=8)],
    )
    path = tmp_path / "coarse_state.npz"
    pipeline._save_coarse_state(path, result, "fp")
    loaded = pipeline._read_checkpoint(
        path, lambda data: pipeline._load_coarse_state(data, Grid(4, 2, 1.0, 1.0)), "fp")
    assert_same_fields(loaded, result, skip=("history", "solution", "stage_fields"))
    assert_same_fields(loaded.solution, solution)
    assert loaded.history == history
    assert [type(v) for row in loaded.history for v in row.values()] == [
        type(v) for row in history for v in row.values()]
    assert len(loaded.stage_fields) == 2
    for back, stage in zip(loaded.stage_fields, result.stage_fields):
        assert back.tobytes() == stage.tobytes()


def test_cells_checkpoint_in_the_old_layout_is_recomputed(tmp_path, capsys, caplog):
    path = tmp_path / "run.ini"
    path.write_text(SMALL_RUN)
    args = ["run", "--config", str(path), "--out", str(tmp_path / "out")]
    assert cli.main(args) == 0
    fresh = json.loads(capsys.readouterr().out)
    ckpt = tmp_path / "out" / "cells.npz"
    with np.load(ckpt) as data:
        arrays = dict(data)
    codes = {"frozen-solid": 0, "frozen-void": 1, "optimized": 2}
    renamed = {"cell": "ids", "rho": "rasters", "kind": "kinds"}
    reasons = arrays.pop("stop_reason")
    old_layouts = [
        # before the arrays were named after the FineCellResult fields: ids,
        # rasters and integer kind codes
        {**{renamed.get(k, k): v for k, v in arrays.items()},
         "kinds": np.array([codes[k] for k in arrays["kind"]])},
        # before the stop reason: a converged flag in its place
        {**arrays, "converged": np.isin(reasons, ["frozen", "converged"])},
    ]
    caplog.set_level("WARNING", logger="twolevel_topopt.pipeline")
    for layout in old_layouts:
        np.savez_compressed(ckpt, **layout)
        caplog.clear()
        assert cli.main(args) == 0
        assert f"unreadable checkpoint {ckpt}" in caplog.text
        again = json.loads(capsys.readouterr().out)
        assert _results(again) == _results(fresh)
