"""Every module-level import in the package and in the tests is used by its
module; every module-level function or class is referenced by some package
module, and every method and property of one is read as an attribute by some
package module, so code that only tests read lives in the tests; and every
annotated class field is read."""

import ast
from pathlib import Path

import pytest

import upcr

PACKAGE = sorted(Path(upcr.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]
ROOT = Path(__file__).resolve().parent.parent
TESTS = sorted((ROOT / "tests").glob("*.py"))
# every source that may read a package field; the guard only parses them
READERS = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = stmt.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in used]


def test_guard_flags_an_unused_import():
    src = "import os\nimport sys\nfrom json import dumps, loads as ld\nprint(sys.argv, ld)\n"
    assert unused_imports(src) == ["os (line 1)", "dumps (line 3)"]


def test_guard_sees_annotations_and_attribute_bases():
    src = ("from __future__ import annotations\nimport numpy as np\n"
           "from typing import Callable\n"
           "def f(x: Callable) -> None:\n    return np.zeros(1)\n")
    assert unused_imports(src) == []


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def imported_names(source: str) -> set[str]:
    """Every module and name that some import statement of ``source`` names."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names |= {node.module or ""} | {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
    return names


def test_features_imports_nothing_from_autodiff():
    """Features are plain NumPy tables: how they are pooled on a tape is
    decided in ``autodiff`` and ``encoder`` alone."""
    names = imported_names(Path(upcr.__file__).with_name("features.py").read_text(encoding="utf-8"))
    assert "geom" in names
    assert [n for n in names if "autodiff" in n.split(".")] == []


def definitions(tree: ast.Module):
    """(qualified name, node) of each module-level function and class, and of
    each method and property of those classes."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            yield stmt.name, stmt
        if isinstance(stmt, ast.ClassDef):
            for member in stmt.body:
                if isinstance(member, ast.FunctionDef):
                    yield f"{stmt.name}.{member.name}", member


def unreferenced_defs(sources: dict[str, str], public_in: tuple[str, ...] = ()) -> list[str]:
    """Module-level functions and classes that no module reads, by plain name,
    as an attribute or through an import, and methods and properties that no
    module reads as an attribute (``obj.name``): every ``_name`` one, and the
    public ones of the modules in ``public_in``. Dunder names are exempt."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    attrs, names = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return [f"{mod}.{qualname} (line {node.lineno})"
            for mod, tree in trees.items() for qualname, node in definitions(tree)
            if (mod in public_in or node.name.startswith("_"))
            and not node.name.startswith("__")
            and node.name not in (attrs if "." in qualname else attrs | names)]


def test_guard_flags_an_unreferenced_private_def():
    sources = {
        "a": "def _dead():\n    pass\n\ndef _local():\n    pass\n\nclass _Gone:\n    pass\n"
             "def public():\n    return _local()\n",
        "b": "from . import a\nfrom .c import _imported\nx = a._attr\n",
        "c": "def _imported():\n    pass\n\ndef _attr():\n    pass\n",
    }
    assert unreferenced_defs(sources) == ["a._dead (line 1)", "a._Gone (line 7)"]


def test_guard_flags_an_unreferenced_public_op_only_where_asked():
    sources = {
        "ops": "def add(a, b):\n    return a\n\ndef old_max(a, b):\n    return add(a, b)\n",
        "user": "from . import ops\ndef public():\n    return ops.add(1, 2)\n",
    }
    assert unreferenced_defs(sources) == []
    assert unreferenced_defs(sources, public_in=("ops",)) == ["ops.old_max (line 4)"]


def test_guard_flags_an_unreferenced_method_or_property():
    sources = {
        "a": "class Model:\n    def __post_init__(self):\n        pass\n\n"
             "    def copy(self):\n        return self\n\n"
             "    def constants(self):\n        return {}\n\n"
             "    @property\n    def dim(self):\n        return 3\n\n"
             "    @property\n    def parts(self):\n        return ()\n\n"
             "    def _helper(self):\n        return 1\n",
        "b": "from .a import Model\n\ndef run(m: Model):\n    return m.copy().dim\n",
    }
    assert unreferenced_defs(sources) == ["a.Model._helper (line 19)"]
    assert unreferenced_defs(sources, public_in=("a",)) == [
        "a.Model.constants (line 8)", "a.Model.parts (line 16)", "a.Model._helper (line 19)"]


def test_guard_needs_an_attribute_read_for_a_member():
    """A parameter or variable that shares a member's name is no reference to it."""
    sources = {
        "a": "class Rng:\n    @property\n    def seed(self):\n        return 0\n\n"
             "    def spawn(self):\n        return self\n",
        "b": "from .a import Rng\n\ndef make(seed):\n    return Rng().spawn(), seed\n",
    }
    assert unreferenced_defs(sources, public_in=("a",)) == ["a.Rng.seed (line 3)"]


def test_package_has_no_unreferenced_private_defs():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE}
    assert unreferenced_defs(sources) == []


def traced_names() -> set[str]:
    """The ``module.function`` names that perfbench's span tracer looks up by
    string, its ``spans.TRACED`` pairs: the benchmark reads them with
    ``getattr``, so each must stay defined even with no package caller."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    (traced,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TRACED"]]
    return {".".join(part.value for part in pair.elts) for pair in traced.elts}


def test_package_has_no_unreferenced_public_defs():
    """A removed op leaves no shim behind, and no test-only helper lives in the
    library: the package reads every public function and class it defines,
    or the benchmark traces it by name (``autodiff.matmul`` has no package
    caller since the edge convolution became one op)."""
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE}
    traced = traced_names()
    assert "autodiff.matmul" in traced and "encoder.edge_conv_layer" in traced
    unread = unreferenced_defs(sources, public_in=tuple(sources))
    assert [d for d in unread if d.split(" ")[0] not in traced] == []


def unread_fields(package: dict[str, str], readers: list[str]) -> list[str]:
    """Annotated class fields of the ``package`` modules whose name no source
    in ``readers`` loads as an attribute (``obj.name``); a store alone is no read."""
    read = {node.attr for src in readers for node in ast.walk(ast.parse(src))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return [f"{mod}.{cls.name}.{stmt.target.id} (line {stmt.lineno})"
            for mod, src in package.items() for cls in ast.walk(ast.parse(src))
            if isinstance(cls, ast.ClassDef)
            for stmt in cls.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
            and stmt.target.id not in read]


def test_guard_flags_an_unread_field():
    package = {"a": "class Result:\n    report: dict\n    dead: list\n    kept: int = 0\n"
                    "    def __init__(self):\n        self.dead = []\n"}
    readers = [package["a"], "def f(r):\n    return r.report, r.kept\n"]
    assert unread_fields(package, readers) == ["a.Result.dead (line 3)"]


def test_every_annotated_field_is_read():
    package = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE}
    readers = [p.read_text(encoding="utf-8") for p in READERS]
    assert unread_fields(package, readers) == []
