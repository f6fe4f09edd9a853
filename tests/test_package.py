import ast
import importlib.util
import sys
from pathlib import Path

import pytest

import planwise


def test_every_export_resolves_once():
    names = planwise.__all__
    assert len(names) == len(set(names)), sorted(n for n in names if names.count(n) > 1)
    missing = [name for name in names if not hasattr(planwise, name)]
    assert missing == []


def _unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads (``__all__`` entries count)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    return sorted(f"line {line}: {name}" for name, line in imported.items()
                  if name not in used)


def test_no_module_imports_a_name_it_never_uses():
    package = Path(planwise.__file__).parent
    unused = {
        path.name: found
        for path in sorted(package.glob("*.py"))
        if (found := _unused_imports(path.read_text(encoding="utf-8")))
    }
    assert unused == {}


def test_unused_import_check_sees_a_leftover():
    source = "from .planners import DEFAULT_SEED, make_planner\nmake_planner('x')\n"
    assert _unused_imports(source) == ["line 1: DEFAULT_SEED"]


def _orphaned_helpers(sources: dict[str, str]) -> list[str]:
    """Module-level ``_name`` functions that no module references beyond
    their own ``def`` (a call, an attribute or an import counts)."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return sorted(
        f"{module}: {node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and node.name not in used
    )


def test_no_private_helper_is_left_without_a_caller():
    package = Path(planwise.__file__).parent
    sources = {
        path.name: path.read_text(encoding="utf-8")
        for path in sorted(package.glob("*.py"))
    }
    assert _orphaned_helpers(sources) == []


def test_orphaned_helper_check_sees_a_leftover():
    sources = {
        "a.py": "def _kept():\n    pass\n\ndef _left():\n    return 1\n",
        "b.py": "from .a import _kept\n\nparser.set_defaults(func=_kept)\n",
    }
    assert _orphaned_helpers(sources) == ["a.py: _left"]


# What reads the process environment through the os module.
_ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def _environment_reads(source: str) -> list[str]:
    """Where a module reads the environment: ``os.environ`` or ``os.getenv``
    (and their bytes forms), as an attribute of ``os`` or imported from it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr in _ENVIRONMENT
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            found.append(f"line {node.lineno}: os.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [f"line {node.lineno}: from os import {alias.name}"
                      for alias in node.names if alias.name in _ENVIRONMENT]
    return sorted(found)


def test_no_module_reads_the_environment():
    # Options come from the command line only, so the arguments fix a run.
    package = Path(planwise.__file__).parent
    reads = {
        path.name: found
        for path in sorted(package.glob("*.py"))
        if (found := _environment_reads(path.read_text(encoding="utf-8")))
    }
    assert reads == {}


def test_environment_check_sees_a_read():
    source = ("import os\nfrom os import getenv, path\n"
              "a = os.environ.get('X', 1)\nb = os.getenv('Y')\nc = os.urandom(6)\n")
    assert _environment_reads(source) == [
        "line 2: from os import getenv", "line 3: os.environ", "line 4: os.getenv",
    ]


def _outside_the_standard_library(source: str) -> list[str]:
    """The modules a module imports that are neither in the standard library
    nor relative imports of its own package."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        found += [f"line {node.lineno}: {name}" for name in names
                  if name.split(".")[0] not in sys.stdlib_module_names]
    return found


def test_every_module_imports_only_the_standard_library():
    package = Path(planwise.__file__).parent
    imports = {
        path.name: found
        for path in sorted(package.glob("*.py"))
        if (found := _outside_the_standard_library(path.read_text(encoding="utf-8")))
    }
    assert imports == {}


def test_standard_library_check_sees_a_third_party_import():
    source = ("import math, numpy as np\nfrom os import path\nfrom . import stats\n"
              "from .tree import build_tree\n\ndef f():\n    from scipy.stats import norm\n")
    assert _outside_the_standard_library(source) == ["line 1: numpy", "line 7: scipy.stats"]


def test_the_package_declares_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    assert "dependencies" not in tomllib.loads(pyproject.read_text())["project"]


def _script(name):
    path = Path(__file__).resolve().parent.parent / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# A ``git diff -U0`` of three files: tree.py changed, gone.py deleted and
# new.py added. tree.py's hunks change one line, add three lines (one of
# them reading "++ x", so "+++ x" in the diff), and delete "-- y" (so
# "--- y") without a newline at the end of the file.
STUB_DIFF = """\
diff --git a/src/planwise/tree.py b/src/planwise/tree.py
index 1111111..2222222 100644
--- a/src/planwise/tree.py
+++ b/src/planwise/tree.py
@@ -5 +5 @@ def locate(tree, record):
-    old = 1
+    new = 1
@@ -10,0 +11,3 @@ def leaves(node):
+a
+++ x
+b
@@ -20,2 +23,0 @@
-x
--- y
\\ No newline at end of file
diff --git a/src/planwise/gone.py b/src/planwise/gone.py
deleted file mode 100644
index 3333333..0000000
--- a/src/planwise/gone.py
+++ /dev/null
@@ -1,2 +0,0 @@
-a
-b
diff --git a/src/planwise/new.py b/src/planwise/new.py
new file mode 100644
index 0000000..4444444
--- /dev/null
+++ b/src/planwise/new.py
@@ -0,0 +1,2 @@
+a
+b
"""


def test_mutate_reads_the_changed_lines_of_a_zero_context_diff():
    assert _script("mutate").changed_lines(STUB_DIFF) == {
        "src/planwise/tree.py": {5, 11, 12, 13},
        "src/planwise/new.py": {1, 2},
    }


def mutated_lines(source: str) -> list[tuple[str, str]]:
    """Each mutant of ``source`` that ``scripts/mutate.py`` makes: its
    mutated line and its swap."""
    mutate = _script("mutate")
    mutants = [mutate.mutant(source, k)
               for k in range(len(mutate.mutation_sites(ast.parse(source))))]
    return [(code.splitlines()[lines.start - 1], swap) for code, lines, swap in mutants]


def test_mutate_swaps_the_bitwise_operators():
    # Outer operators come first; the one inside the raise builds a message.
    source = "x = a & b | c\ny = d << 2 >> 1\nz |= 1\nraise E(a | b)\n"
    assert mutated_lines(source) == [
        ("x = a & b & c", "| -> &"),
        ("x = a | b | c", "& -> |"),
        ("y = d << 2 << 1", ">> -> <<"),
        ("y = d >> 2 >> 1", "<< -> >>"),
        ("z &= 1", "| -> &"),
    ]


def test_mutate_swaps_the_membership_tests():
    # A comprehension's ``for c in d`` is no comparison; the raise builds a message.
    source = "x = a in b\ny = [c for c in d if c not in e]\nraise E(a in b)\n"
    assert mutated_lines(source) == [
        ("x = a not in b", "in -> not in"),
        ("y = [c for c in d if c in e]", "not in -> in"),
    ]


def test_mutate_swaps_and_with_or():
    # A chain of three operands is one operator; the raise builds a message.
    source = "x = a and b\ny = c or d or e\nz = (a or b) and c\nraise E(a and b)\n"
    assert mutated_lines(source) == [
        ("x = a or b", "and -> or"),
        ("y = c and d and e", "or -> and"),
        ("z = (a or b) or c", "and -> or"),
        ("z = (a and b) and c", "or -> and"),
    ]


def test_mutate_swaps_multiplication_with_division():
    # Outer operators come first; the one inside the raise builds a message.
    source = "x = a * b / c\ny //= 2\nz *= 3\nraise E(a / b)\n"
    assert mutated_lines(source) == [
        ("x = a * b * c", "/ -> *"),
        ("x = a / b / c", "* -> /"),
        ("z /= 3", "* -> /"),
    ]


def test_mutate_swaps_min_with_max():
    # Only the builtins' calls: a method or attribute of that name is kept,
    # and the raise builds a message.
    source = ("x = min(a, max(b, c))\ny = np.min(d) + e.max()\nz = max\n"
              "raise E(min(a))\n")
    assert mutated_lines(source) == [
        ("x = max(a, max(b, c))", "min -> max"),
        ("x = min(a, min(b, c))", "max -> min"),
        ("y = np.min(d) - e.max()", "+ -> -"),
    ]


def test_mutate_leaves_annotations_alone():
    # Annotations are never evaluated; a default value and a body are.
    source = "def f(a: int | None = b | c) -> A | B:\n    d: C | D = a | 1\n"
    assert mutated_lines(source) == [
        ("def f(a: int | None=b & c) -> A | B:", "| -> &"),
        ("    d: C | D = a & 1", "| -> &"),
    ]


def test_mutate_drops_a_not():
    # Each ``not`` of a nested pair is dropped alone; ``is not`` is a
    # comparison, and the raise builds a message.
    source = ("x = not a\ny = f(b and not c)\nz = not (not d)\n"
              "w = e is not f\nraise E(not a)\n")
    assert mutated_lines(source) == [
        ("x = a", "not -> (dropped)"),
        ("y = f(b or not c)", "and -> or"),
        ("y = f(b and c)", "not -> (dropped)"),
        ("z = not d", "not -> (dropped)"),
        ("z = not d", "not -> (dropped)"),
    ]


def test_loc_counts_neither_comments_nor_docstrings():
    source = (
        '"""Module\ndocstring."""\n'
        "\n"
        "# a comment\n"
        "x = 1  # code, then a comment\n"
        's = """a string\nthat is no docstring"""\n'
        "\n"
        "class C:\n"
        "    '''Class docstring.'''\n"
        "    def f(self):\n"
        '        """Function\n        docstring."""\n'
        "        return (\n"
        "            1)\n"
    )
    # x, both lines of s, class, def and both lines of the return.
    assert _script("loc").code_lines(source) == 7
