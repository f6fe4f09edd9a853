import ast
import importlib.util
from pathlib import Path

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


def _loc_script():
    path = Path(__file__).resolve().parent.parent / "scripts" / "loc.py"
    spec = importlib.util.spec_from_file_location("loc", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    assert _loc_script().code_lines(source) == 7
