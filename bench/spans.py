"""In-memory span tracer that wraps the package's public functions from outside.

A span records a name, a start, an end and the index of the span that was
open when it began. Self time is a span's duration minus the time its
direct children cover; calls are single-threaded, so children never overlap.
Wrapping replaces module (or class) attributes, which reaches every call the
package makes through a module global or an attribute lookup. Pool workers
run their own copies of the modules, so their calls are not recorded.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict


from twolevel_topopt import coarse, equilibrate, fem, fine, grid, pipeline

# (owner, attribute, span name): the public functions through which the
# modules call each other, plus the banded cell solve, the one boundary the
# farm crosses below fine_cell_solve. Grid accessors such as node_fan are left
# out: they are called per node and their time belongs to the caller.
TARGETS = (
    (grid.Grid, "__init__", "grid.build"),
    (fem, "solve", "fem.solve"),
    (fem, "assemble", "fem.assemble"),
    (fem, "element_compliance_contributions", "fem.energies"),
    (fem, "element_nodal_forces", "fem.nodal_forces"),
    (fem, "load_vector", "fem.load_vector"),
    (fem, "element_stiffness", "fem.element_stiffness"),
    (coarse, "stage_loop", "coarse.stage_loop"),
    (coarse, "simp_inner_solve", "coarse.inner_solve"),
    (coarse, "sensitivity", "coarse.sensitivity"),
    (coarse, "filter_sensitivities", "coarse.filter"),
    (coarse, "oc_update", "coarse.oc_update"),
    (coarse, "oc_step_values", "coarse.oc_step_values"),
    (coarse, "freeze_out_of_range", "coarse.freeze"),
    (equilibrate, "equilibrate_all", "equilibrate.equilibrate_all"),
    (equilibrate, "classify_nodes", "equilibrate.classify_nodes"),
    (equilibrate, "build_report", "equilibrate.build_report"),
    (equilibrate, "action_reaction_residual", "equilibrate.action_reaction_residual"),
    (equilibrate, "dump_tractions_csv", "equilibrate.dump_tractions_csv"),
    (fine, "solve_all_cells", "fine.farm"),
    (fine, "fine_cell_solve", "fine.cell"),
    (fine._CellSolver, "solve", "fine.banded_solve"),
    (fine, "apply_cell_tractions", "fine.apply_tractions"),
    (fine, "project_density", "fine.project"),
    (fine, "traction_equilibrium", "fine.traction_equilibrium"),
    (pipeline, "run_pipeline", "pipeline.run_pipeline"),
    (pipeline, "preset_config", "pipeline.preset_config"),
    (pipeline.RunConfig, "build_grid", "pipeline.build_grid"),
    (pipeline.RunConfig, "build_bc", "pipeline.build_bc"),
    (pipeline, "equilibrium_certificate", "pipeline.certificate"),
    (pipeline, "stitch", "pipeline.stitch"),
    (pipeline, "render", "pipeline.render"),
    (pipeline, "write_pgm", "pipeline.write_pgm"),
    (pipeline, "write_csv_raster", "pipeline.write_csv_raster"),
)

# Spans whose self time is artifact I/O.
IO_SPANS = (
    "pipeline.render", "pipeline.write_pgm", "pipeline.write_csv_raster",
    "equilibrate.dump_tractions_csv",
)


class Tracer:
    """Collects spans while installed; install() is a context manager."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self._open = []

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None,
                               self._open[-1] if self._open else -1])
            self._open.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self._open.pop()
                self.spans[index][2] = time.perf_counter()

        return traced

    @contextlib.contextmanager
    def install(self):
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in TARGETS]
        try:
            for (owner, attr, name), (_, _, fn) in zip(TARGETS, saved):
                setattr(owner, attr, self._wrap(fn, name))
            yield self
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, e.g. around one pass."""
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._open[-1] if self._open else -1])
        self._open.append(index)
        try:
            yield index
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def summary(self, root):
        """Durations per span name, and self time per name, under span `root`.

        The root itself counts in the self times, not in the durations.
        """
        inside = {root}
        durations = defaultdict(list)
        covered = defaultdict(float)
        for i in range(root + 1, len(self.spans)):
            name, start, end, parent = self.spans[i]
            if parent in inside:
                inside.add(i)
                durations[name].append(end - start)
                covered[parent] += end - start
        self_time = defaultdict(float)
        for i in inside:
            name, start, end, _ = self.spans[i]
            self_time[name] += (end - start) - covered[i]
        return durations, self_time
