"""The benchmark's layer trace wraps package attributes by name
(`perfbench/tracer.py`'s SITES) and reads `homology.HAVE_COMPILED`
(`perfbench/run.py`).  A rename or removal in the package breaks
`perfbench/run.py --trace 1`, so every such name must resolve."""

import importlib
import importlib.util
from pathlib import Path

from extremal_cech import homology

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{module}.{attr}" for module, attr, _, _ in tracer.SITES
               if not hasattr(importlib.import_module(f"extremal_cech.{module}"), attr)]
    assert tracer.SITES
    assert missing == []
    assert isinstance(homology.HAVE_COMPILED, bool)
