"""The benchmark still finds what it reads of the program: every function
its span tracer wraps, and the (mask, values) pair of each support."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from twolevel_topopt import pipeline

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_bench_span_target_is_an_attribute_of_its_owner():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    # Tracer.install reads owner.__dict__[attr], so an inherited or renamed
    # attribute breaks a traced bench run.
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in spans.TARGETS
               if attr not in owner.__dict__]
    assert not missing


@pytest.mark.parametrize("name", sorted(pipeline.PRESETS))
def test_every_support_unpacks_as_a_mask_and_zero_values(name):
    # bench/run.py and bench/checks.py unpack each support as (mask, _); a
    # bare (x, y) mask would unpack there too, into two wrong masks
    config = pipeline.preset_config(name)
    bc = config.build_bc(config.build_grid())
    assert bc.dirichlet
    for mask, values in bc.dirichlet.values():
        assert isinstance(mask, np.ndarray) and mask.dtype == bool and mask.shape == (2,)
        assert np.array_equal(values, [0.0, 0.0])
