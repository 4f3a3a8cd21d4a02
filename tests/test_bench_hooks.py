"""The benchmark's span tracer still finds every function it wraps."""

import importlib.util
from pathlib import Path

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
