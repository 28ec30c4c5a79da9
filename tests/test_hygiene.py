import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "oddballoon"


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)  # string annotations and __all__ entries
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


def test_imports_at_module_top():
    # every import of the package sits in its module's body, so the modules
    # import in one order and none hides a dependency inside a function or
    # a TYPE_CHECKING block
    nested = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for tree in [ast.parse(path.read_text(encoding="utf-8"))]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and node not in tree.body
    ]
    assert nested == []


def _private_definitions(tree: ast.Module):
    """Module-level private functions, classes and constants, dunders aside."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                yield name, node


def _references(tree: ast.Module):
    """(name, line) of every name, attribute, imported name and string; a
    "module.name" string counts as its last part."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            yield from ((alias.name, node.lineno) for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # monkeypatch.setattr(module, "_name", ...), the bench's "generate.trees_up_to"
            yield node.value.rpartition(".")[2], node.lineno


def _unused_definitions(folders, definitions):
    """`path:line name` of each (name, node) that definitions(tree) yields
    for a module of the package and that nothing in folders references
    outside the node itself."""
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for folder in folders
        for path in sorted(folder.glob("*.py"))
    }
    refs: dict[str, list[tuple[Path, int]]] = {}
    for path, tree in trees.items():
        for name, line in _references(tree):
            refs.setdefault(name, []).append((path, line))
    return [
        f"{path.name}:{node.lineno} {name}"
        for path in sorted(SRC.glob("*.py"))
        for name, node in definitions(trees[path])
        if all(where == path and node.lineno <= line <= node.end_lineno for where, line in refs.get(name, []))
    ]


def test_no_dead_private_helpers():
    # every private helper of the package is used in src/, tests/ or bench/
    # outside its own definition
    assert _unused_definitions((SRC, ROOT / "tests", ROOT / "bench"), _private_definitions) == []


def _unexported_functions(tree: ast.Module):
    """Public module-level functions that the package's __init__ does not export."""
    exported = {
        node.value
        for node in ast.walk(ast.parse((SRC / "__init__.py").read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name[0] != "_" and node.name not in exported:
            yield node.name, node


def test_no_unused_public_functions():
    # every public module-level function of the package is exported by
    # __init__ or used in src/ or bench/ outside its own definition; tests
    # do not count, so test-only code lives in tests/helpers.py
    assert _unused_definitions((SRC, ROOT / "bench"), _unexported_functions) == []


def _defaulted_parameters(tree: ast.Module):
    """(function, parameter, position or None if keyword-only) of every
    defaulted parameter of each module-level function."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        positional = node.args.posonlyargs + node.args.args
        first = len(positional) - len(node.args.defaults)
        for pos in range(first, len(positional)):
            yield node.name, positional[pos].arg, pos
        for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
            if default is not None:
                yield node.name, arg.arg, None


# options that only tests set, each kept for a named reason
TEST_ONLY_OPTIONS = {
    ("graph_levels", "forbidden"): "the OEIS count tests and helpers.reference_ex_exact",
    ("main", "argv"): "the CLI tests call main with an argument list",
}


def _calls():
    """(name, positional count, starred, keyword names) of every call in
    src/ or bench/ to a name or an attribute; a **mapping counts as the
    keyword "**"."""
    for folder in (SRC, ROOT / "bench"):
        for path in sorted(folder.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name is None:
                    continue
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                yield name, len(node.args), starred, {kw.arg or "**" for kw in node.keywords}


def _package_defaults():
    """{(function, parameter): (position or None, module file name)} of every
    defaulted parameter of a module-level function of the package."""
    return {
        (func, param): (pos, path.name)
        for path in sorted(SRC.glob("*.py"))
        for func, param, pos in _defaulted_parameters(ast.parse(path.read_text(encoding="utf-8")))
    }


def test_every_option_is_set():
    # every defaulted parameter of a module-level function of the package is
    # passed, by keyword or by position, by some call in src/ or bench/ to a
    # function of that name; an option only tests set is an option no
    # caller needs, unless TEST_ONLY_OPTIONS names it
    keywords: dict[str, set[str]] = {}
    positions: dict[str, float] = {}
    for name, count, starred, kws in _calls():
        positions[name] = max(positions.get(name, 0), float("inf") if starred else count)
        keywords.setdefault(name, set()).update(kws)
    unset = {
        (func, param): where
        for (func, param), (pos, where) in _package_defaults().items()
        if not {param, "**"} & keywords.get(func, set())
        and (pos is None or positions.get(func, 0) <= pos)
    }
    assert [f"{unset[o]}: {o[0]}({o[1]}=...)" for o in sorted(unset.keys() - TEST_ONLY_OPTIONS.keys())] == []
    assert sorted(TEST_ONLY_OPTIONS.keys() - unset.keys()) == []  # an entry a caller now sets goes


def test_every_default_is_used():
    # every defaulted parameter of a module-level function of the package is
    # left out by some call in src/ or bench/ to a function of that name; a
    # default that every caller overrides restates the callers' value, so the
    # parameter should be required. A starred or ** call may leave out any.
    defaults = _package_defaults()
    omitted = {
        (func, param)
        for name, count, starred, kws in _calls()
        for (func, param), (pos, _) in defaults.items()
        if func == name and (starred or "**" in kws or (param not in kws and (pos is None or count <= pos)))
    }
    unused = [f"{where}: {f}({p}=...)" for (f, p), (_, where) in sorted(defaults.items()) if (f, p) not in omitted]
    assert unused == []
