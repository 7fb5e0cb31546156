"""The benchmark's layer trace wraps package attributes by name
(`perfbench/tracer.py`'s SITES) and reads `homology.HAVE_COMPILED`
(`perfbench/run.py`).  A rename or removal in the package breaks
`perfbench/run.py --trace 1`, so every such name must resolve, and the
workloads' checks (`perfbench/workloads.py`) must hold on the package's
outputs, the census that reads `FilteredComplex.entries` included.  Only
`complexgen` reads a FilteredComplex's private fields; every other module
goes through its methods.  Only `construct` calls a builder or makes a
PointSet, directly or by `replace`, and a PointSet holds its parameters
and coordinates alone.  The mosaic size rule is applied in two places only.
Every per-class count and even radius is read from `construct.class_table`:
the mosaic size, the exact Betti vectors, the 3d census and the radius
claims call it.  The CLI compares nothing with a kind name and spells
none: which parameters a kind reads is `construct.build`'s rule, and its
kind choices are `construct.KINDS` and `MOSAIC_KINDS`.  And
the numerical slacks are one record,
`geometry.DEFAULT_TOL`, that no public function takes as a parameter.
Every module-level import is read, exported or wrapped by the trace, and
every exported name is read in the package or wrapped by the trace.  The
oracle reads nothing of `geometry` but `DEFAULT_TOL` and
`min_enclosing_ball`, so its face test keeps arithmetic of its own.  No
module reads a diagram's derived tuple list `pairs`."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import pkgutil
import re
from pathlib import Path

import extremal_cech
from extremal_cech import homology
from extremal_cech.construct import PointSet, build_validated

ROOT = Path(__file__).resolve().parents[1]
PRIVATE_FIELDS = re.compile(r"(\.|[\"'])_(faces|values|dims|ids|rows|entries|touch|short|classes)\b")


def load_bench(name):
    """`perfbench/<name>.py`, loaded as a module of its own."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracer = load_bench("tracer")
    missing = [f"{module}.{attr}" for module, attr, _, _ in tracer.SITES
               if not hasattr(importlib.import_module(f"extremal_cech.{module}"), attr)]
    assert tracer.SITES
    assert missing == []
    assert isinstance(homology.HAVE_COMPILED, bool)


def test_workload_checks_hold(tmp_path):
    """The smoke-size ops of the two in-process workloads report correct
    outputs; their census and radii read a complex's entries, one pass per
    read."""
    workloads = load_bench("workloads")
    assert workloads.Pipeline3d(0, True, tmp_path).op() is True
    queries = workloads.DiagramQueries(0, True, tmp_path)
    queries.setup()
    assert queries.op() is True
    fc = build_validated("3d", k=1, n=4)[1]
    assert [cs.dim for _, cs in fc.entries] == fc.dims().tolist()
    assert workloads.dim_counts(fc) == workloads.census(4)


def test_only_complexgen_reads_private_complex_fields():
    modules = sorted((ROOT / "src").rglob("*.py"))
    assert any(path.name == "homology.py" for path in modules)
    reads = [f"{path.relative_to(ROOT)}:{lineno}: {line.strip()}"
             for path in modules if path.name != "complexgen.py"
             for lineno, line in enumerate(path.read_text().splitlines(), 1)
             if PRIVATE_FIELDS.search(line)]
    assert reads == []


def calls(path):
    """(enclosing function or None, callee name) for each call in a module."""
    found = []

    def visit(node, function):
        if isinstance(node, ast.FunctionDef):
            function = node.name
        if isinstance(node, ast.Call):
            found.append((function, getattr(node.func, "id", getattr(node.func, "attr", None))))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text()), None)
    return found


def test_one_gate_from_parameters_to_a_mosaic():
    # every point set comes from `construct.build`, and every mosaic passes
    # the size rule: early in `build_validated`, and in the enumeration
    builders = {"build_even", "build_3d", "build_odd", "build_suspended", "PointSet", "replace"}
    modules = sorted((ROOT / "src").rglob("*.py"))
    found = {path.name: calls(path) for path in modules}
    assert any(name in builders for _, name in found["construct.py"])
    outside = [f"{name}: {function}: {callee}" for name, pairs in found.items()
               if name != "construct.py" for function, callee in pairs if callee in builders]
    assert outside == []
    sized = {(name, function) for name, pairs in found.items()
             for function, callee in pairs if callee == "_check_mosaic_size"}
    assert sized == {("construct.py", "build_validated"), ("complexgen.py", "_mosaic")}


def test_one_class_table():
    # the per-class counts and even radii are written once, in
    # `construct.class_table`; each of their readers calls it
    readers = {(path.name, function) for path in sorted((ROOT / "src").rglob("*.py"))
               for function, callee in calls(path) if callee == "class_table"}
    assert readers >= {("construct.py", "mosaic_size"), ("verify.py", "_exact_betti"),
                       ("verify.py", "verify_betti_3d"), ("verify.py", "_even_class_radii")}


def test_a_point_set_is_its_parameters_and_its_coordinates():
    # the layout (dim, labels, apexes) is derived from these, not stored
    names = [field.name for field in dataclasses.fields(PointSet)]
    assert names == ["kind", "k", "n", "delta", "points", "h"]


def test_the_cli_compares_nothing_with_a_kind():
    # which of k, delta and h a kind reads is `construct.build`'s rule
    # alone; the CLI passes its flags through and defers to it, and it
    # reads its kind choices from `construct`, so it spells no kind name
    kinds = {"even", "3d", "odd", "suspended"}

    def names_a_kind(node):
        if isinstance(node, ast.Constant):
            return node.value in kinds
        return getattr(node, "id", getattr(node, "attr", "")).startswith("KIND_")

    tree = ast.parse((ROOT / "src" / "extremal_cech" / "cli.py").read_text())
    assert [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and node.value in kinds] == []
    compares = [node for node in ast.walk(tree) if isinstance(node, ast.Compare)]
    assert compares
    assert [node.lineno for node in compares
            if any(names_a_kind(sub) for operand in (node.left, *node.comparators)
                   for sub in ast.walk(operand))] == []


def public_routines():
    """(qualified name, routine) for every function in a package module's
    `__all__` and every method of a class there."""
    for info in pkgutil.iter_modules(extremal_cech.__path__):
        module = importlib.import_module(f"extremal_cech.{info.name}")
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if inspect.isclass(obj):
                for attr, member in inspect.getmembers(obj, inspect.isroutine):
                    yield f"{info.name}.{name}.{attr}", member
            elif inspect.isroutine(obj):
                yield f"{info.name}.{name}", obj


def test_no_public_function_takes_a_tolerance():
    routines = dict(public_routines())
    assert "geometry.circumspheres" in routines
    assert "complexgen.FilteredComplex.faces" in routines
    with_tol = []
    for name, routine in routines.items():
        try:
            params = inspect.signature(routine).parameters
        except ValueError:  # a builtin without a signature
            continue
        if "tol" in params:
            with_tol.append(name)
    assert with_tol == []
    constructions = [f"{path.relative_to(ROOT)}:{lineno}: {line.strip()}"
                     for path in sorted((ROOT / "src").rglob("*.py"))
                     for lineno, line in enumerate(path.read_text().splitlines(), 1)
                     if "Tolerance(" in line]
    assert len(constructions) == 1
    assert constructions[0].endswith("DEFAULT_TOL = Tolerance()")


def test_every_module_import_is_used():
    # a module-level import is read in its module, exported by its
    # `__all__`, or wrapped by a tracer site for that module; the package's
    # `__init__` imports only to export
    traced = {(module, attr) for module, attr, _, _ in load_bench("tracer").SITES}
    unused, trace_only = [], set()
    for path in sorted((ROOT / "src" / "extremal_cech").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        read |= set(getattr(importlib.import_module(f"extremal_cech.{path.stem}"),
                            "__all__", ()))
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if getattr(node, "module", None) == "__future__" or name in read:
                    continue
                if (path.stem, name) in traced:
                    trace_only.add((path.stem, name))
                else:
                    unused.append(f"{path.name}:{node.lineno}: {name}")
    assert unused == []
    assert trace_only == {("complexgen", "barycentric_interior"), ("complexgen", "circumsphere"),
                          ("complexgen", "is_empty_sphere"), ("complexgen", "min_enclosing_ball"),
                          ("verify", "affine_distance"), ("verify", "circumsphere")}


def test_every_export_is_read():
    # a name in a module's `__all__` is loaded somewhere under src/, as a
    # name or an attribute, or is an attribute a tracer site wraps; an
    # export that nothing reads is dead public API
    traced = {attr for _, attr, _, _ in load_bench("tracer").SITES}
    read = set()
    modules = sorted((ROOT / "src" / "extremal_cech").glob("*.py"))
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(getattr(node, "ctx", None), ast.Load):
                read.add(getattr(node, "id", getattr(node, "attr", None)))
    exported = [(path.stem, name) for path in modules
                for name in getattr(importlib.import_module(f"extremal_cech.{path.stem}"),
                                    "__all__", ())]
    assert ("complexgen", "FilteredComplex") in exported
    assert [f"{module}.{name}" for module, name in exported
            if name not in read and name not in traced] == []


def test_the_oracle_reads_only_the_tolerance_and_the_miniball_of_geometry():
    # every top-level name of `geometry`, and the module itself, that
    # `oracle` imports or reads, as a name or as an attribute of any
    # object: the face test must not drift onto the build's sphere kernel
    src = ROOT / "src" / "extremal_cech"
    defined = {"geometry"}
    for node in ast.parse((src / "geometry.py").read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            defined.update(target.id for target in node.targets
                           if isinstance(target, ast.Name) and not target.id.startswith("__"))
    assert {"circumspheres", "_first_inside", "is_empty_sphere"} <= defined
    from_geometry, used = set(), set()
    for node in ast.walk(ast.parse((src / "oracle.py").read_text())):
        if isinstance(node, ast.ImportFrom) and node.module == "geometry":
            from_geometry.update(alias.name for alias in node.names)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            used.update(alias.name.split(".")[-1] for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    assert from_geometry == {"DEFAULT_TOL", "min_enclosing_ball"}
    assert used & defined == from_geometry


def test_no_query_reads_the_tuple_list():
    # a diagram's queries, its files and the CLI read its three arrays;
    # `PersistenceDiagram.pairs` is derived for the tests and the trace,
    # and no module under src/ loads an attribute of that name
    loads = [f"{path.relative_to(ROOT)}:{node.lineno}"
             for path in sorted((ROOT / "src").rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and node.attr == "pairs"
             and isinstance(node.ctx, ast.Load)]
    assert loads == []
