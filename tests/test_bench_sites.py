"""Every call site the bench tracer wraps exists in a2cf.

bench/spans.py replaces `a2cf.<module>.<attribute>` for each site in LAYERS
and POOL_SITE; a refactor that drops or renames one would otherwise surface
only when a traced bench run fails to install its wrappers."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


spans = _load_spans()
SITES = sorted({site for layer in spans.LAYERS for site in layer.sites}
               | {spans.POOL_SITE})


@pytest.mark.parametrize("module, attr", SITES,
                         ids=[f"{m}.{a}" for m, a in SITES])
def test_bench_site_is_a_callable_module_attribute(module, attr):
    assert callable(getattr(importlib.import_module(f"a2cf.{module}"), attr,
                            None))
