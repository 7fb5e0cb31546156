"""The benchmark's layer trace wraps package attributes by name
(`perfbench/tracer.py`'s SITES) and reads `homology.HAVE_COMPILED`
(`perfbench/run.py`).  A rename or removal in the package breaks
`perfbench/run.py --trace 1`, so every such name must resolve.  And only
`complexgen` reads a FilteredComplex's private fields; every other module
goes through its methods."""

import importlib
import importlib.util
import re
from pathlib import Path

from extremal_cech import homology

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
PRIVATE_FIELDS = re.compile(r"(\.|[\"'])_(faces|values|dims|ids|rows|entries|touch|short)\b")


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{module}.{attr}" for module, attr, _, _ in tracer.SITES
               if not hasattr(importlib.import_module(f"extremal_cech.{module}"), attr)]
    assert tracer.SITES
    assert missing == []
    assert isinstance(homology.HAVE_COMPILED, bool)


def test_only_complexgen_reads_private_complex_fields():
    modules = sorted((ROOT / "src").rglob("*.py"))
    assert any(path.name == "homology.py" for path in modules)
    reads = [f"{path.relative_to(ROOT)}:{lineno}: {line.strip()}"
             for path in modules if path.name != "complexgen.py"
             for lineno, line in enumerate(path.read_text().splitlines(), 1)
             if PRIVATE_FIELDS.search(line)]
    assert reads == []
