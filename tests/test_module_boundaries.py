"""Structure checks over the package sources: each public name is written
once, in the ``__all__`` of the module that defines it, and ``qsep.__all__``
is their union; no private helper crosses a module boundary, no module calls
``is_physical`` (the package checks weights through
``states.checked_weights``), only ``states`` names ``WEIGHT_TOL``, the
default verdict bands are named only in their definitions and in
``separability.CLASSIFIERS``, only ``separability`` enumerates a grid
and keys a result by its Bell-weight multiset, and a record's fields are
stored only through its slots' own setters, ``Record._stores``."""

import ast
from pathlib import Path

import qsep
from qsep.records import Record

SOURCES = sorted(Path(qsep.__file__).resolve().parent.glob("*.py"))


def _trees():
    for path in SOURCES:
        yield path.name, ast.parse(path.read_text(encoding="utf-8"))


# the public contract: qsep.__all__, name for name and in order
PUBLIC = (
    "BracketError", "ConvergenceError", "NumericalError", "UnphysicalStateError",
    "Spectrum", "hermitian_eigenvalues", "partial_trace", "partial_transpose", "tensor_product",
    "BellDiagonalState", "PhysicalityCheck", "TwoQubitState", "bell_diagonal_density",
    "bell_projectors", "bell_spectrum", "bell_weights", "is_physical", "werner",
    "EPS_SUPPORT", "ConditionalEntropyValue", "chain_rule_check", "conditional_entropy",
    "conditional_entropy_bell", "pseudoadditive_combine", "rescaled_power_sum", "trace_power",
    "tsallis_entropy",
    "Classification", "GridCell", "RegionGrid", "ar_classify_asymptotic", "ar_classify_scan",
    "ar_residual", "classify_state", "default_q_grid", "ppt_classify", "region_scan",
    "threshold_x",
    "CriticalityReport", "eta_field", "inflexion_point", "order_parameter",
    "__version__",
)
# the modules that export no public name of their own
NO_ALL = {"__init__.py", "__main__.py", "cli.py", "records.py"}


def test_the_public_names_are_pinned():
    assert tuple(qsep.__all__) == PUBLIC
    namespace = {}
    exec("from qsep import *", namespace)
    assert tuple(name for name in namespace if name != "__builtins__") == PUBLIC


def _declared_all(tree) -> list[str] | None:
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == "__all__"):
            return ast.literal_eval(node.value)
    return None


def _top_level_names(tree) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def test_each_public_name_is_written_once():
    trees = dict(_trees())
    lists = {name: _declared_all(tree) for name, tree in trees.items() if name not in NO_ALL}
    assert [name for name, listed in lists.items() if listed is None] == []
    undefined = [f"{name}: {public}" for name, listed in lists.items()
                 for public in set(listed) - _top_level_names(trees[name])]
    assert undefined == []
    listed = [public for names in lists.values() for public in names]
    assert len(listed) == len(set(listed))
    # __init__ builds its __all__ from the modules' lists and names none of them
    named = {
        getattr(node, field)
        for node in ast.walk(trees["__init__.py"])
        for field in ("id", "name", "asname", "attr", "value")
        if isinstance(getattr(node, field, None), str)
    }
    assert sorted(named & set(listed)) == []


def test_no_private_name_is_imported_from_another_module():
    found = [
        f"{name}: from {'.' * node.level}{node.module or ''} import {alias.name}"
        for name, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "qsep")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert len(SOURCES) > 5 and found == []


def test_only_states_calls_is_physical():
    callers = sorted(
        name
        for name, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "is_physical"
    )
    assert callers == []


def _called(node, name: str) -> bool:
    return isinstance(node, ast.Call) and getattr(node.func, "id", None) == name


def test_only_separability_enumerates_grids_and_keys_multisets():
    # one grid-evaluation path: every grid goes through grid_results, and
    # by_weight_multiset holds the one sorted(xyz_weights(...)) memo key
    runs_callers = sorted(
        name
        for name, tree in _trees()
        for node in ast.walk(tree)
        if _called(node, "physical_runs")
    )
    key_makers = sorted(
        name
        for name, tree in _trees()
        for node in ast.walk(tree)
        if _called(node, "sorted") and node.args and _called(node.args[0], "xyz_weights")
    )
    assert runs_callers == ["separability.py"]
    assert key_makers == ["separability.py"]


def test_only_states_names_weight_tol():
    # the physicality rule is stated once, in states.nonnegative_weights:
    # a grid enumeration must call it rather than restate the tolerance
    namers = [path.name for path in SOURCES if "WEIGHT_TOL" in path.read_text(encoding="utf-8")]
    assert namers == ["states.py"]


def _band_named(node) -> str | None:
    # the id of a Name, the attr of an Attribute, the name of an import alias
    names = (getattr(node, field, None) for field in ("id", "attr", "name"))
    return next((n for n in names if n in ("BOUNDARY_TOL_ANALYTIC", "BOUNDARY_TOL_SCAN")), None)


def test_only_separability_names_the_default_bands():
    # each band is named in its own definition and in CLASSIFIERS, nowhere
    # else: every other use takes its band from boundary_tol_for
    owners = ("BOUNDARY_TOL_ANALYTIC", "BOUNDARY_TOL_SCAN", "CLASSIFIERS")
    owned, stray = [], []
    for name, tree in _trees():
        allowed = {
            id(child)
            for node in ast.walk(tree)
            if name == "separability.py" and isinstance(node, ast.Assign)
            and len(node.targets) == 1 and getattr(node.targets[0], "id", None) in owners
            for child in ast.walk(node)
        }
        for node in ast.walk(tree):
            band = _band_named(node)
            if band and id(node) in allowed:
                owned.append(band)
            elif band:
                stray.append(f"{name}:{node.lineno}: {band}")
    assert stray == []
    assert sorted(owned) == ["BOUNDARY_TOL_ANALYTIC"] * 3 + ["BOUNDARY_TOL_SCAN"] * 2


def _record_classes(cls=Record) -> list[type]:
    return [cls] + [sub for child in cls.__subclasses__() for sub in _record_classes(child)]


def test_a_record_field_is_stored_one_way():
    calls = [
        f"{name}:{node.lineno}"
        for name, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "__setattr__"
        and getattr(node.value, "id", None) == "object"
    ]
    assert calls == []
    records = _record_classes()[1:]
    assert len(records) >= 9
    for cls in records:
        assert len(cls._stores) == len(cls._field_names) > 0, cls
        for store, name in zip(cls._stores, cls._field_names):
            # the bound __set__ of the slot that holds the field
            assert store.__name__ == "__set__" and store.__self__ is getattr(cls, name), (cls, name)
            record = object.__new__(cls)
            store(record, name)
            assert getattr(record, name) == name
