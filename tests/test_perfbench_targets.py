"""The benchmark tracer's targets must all exist in the package.

perfbench/tracer.py wraps (module, attribute) pairs of bvp3 by name and
reports a metric as null when its target is missing, which leaves the
benchmark run without a number.  A rename in bvp3 should fail here, at once,
rather than there.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _load_tracer()
PAIRS = [(m, a) for m, a, _, _ in TRACER.TARGETS] + [tuple(TRACER.F_HOOK)]


@pytest.mark.parametrize("modname, attr", PAIRS,
                         ids=["%s.%s" % pair for pair in PAIRS])
def test_tracer_target_resolves(modname, attr):
    module = importlib.import_module(modname)
    assert callable(getattr(module, attr, None)), "%s.%s" % (modname, attr)
