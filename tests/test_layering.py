"""Import layering of the package, read from the source alone.

The two check routes stay independent of the index route: matrix.py
takes only a number conversion from metrics.py, and the brute-force
oracles take nothing from it.  Modules share no private names beyond the
atom-matching helpers that metrics.py builds its joins on, and only kg.py
reads the graph's private indexes.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hornforge"
ALLOWED_PRIVATE = {
    ("metrics", "kg", "_compile"),
    ("metrics", "kg", "_estimate"),
    ("metrics", "kg", "_ext_candidates"),
}


def imports_from(path):
    """(module, imported name) per name imported with `from`; package-relative
    modules are given without their leading dots."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            out.extend((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            out.extend((alias.name, None) for alias in node.names)
    return out


def module_names(path):
    """Names bound at the top level of a module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_no_private_names_across_modules():
    siblings = {p.stem for p in PACKAGE.glob("*.py")}
    crossings = []
    for path in sorted(PACKAGE.glob("*.py")):
        for module, name in imports_from(path):
            if module is None or name is None or not name.startswith("_"):
                continue
            source = module.split(".")[-1]
            if source in siblings and (path.stem, source, name) not in ALLOWED_PRIVATE:
                crossings.append(f"{path.stem} imports {name} from {module}")
    assert crossings == []


def test_matrix_takes_only_as_fraction_from_metrics():
    taken = [
        (module, name)
        for module, name in imports_from(PACKAGE / "matrix.py")
        if module is not None and (module.split(".")[-1] == "metrics" or name == "metrics")
    ]
    assert taken == [("metrics", "as_fraction")]


def test_oracles_take_nothing_from_metrics():
    metrics_names = module_names(PACKAGE / "metrics.py")
    taken = [
        (module, name)
        for module, name in imports_from(ROOT / "tests" / "oracles.py")
        if module is not None
        and module.split(".")[0] == "hornforge"
        and (module.endswith("metrics") or name in metrics_names or name == "metrics")
    ]
    assert taken == []


def test_graph_internals_read_only_in_kg():
    reads = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "kg":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "kg"
                and node.attr.startswith("_")
            ):
                reads.append(f"{path.stem} reads kg.{node.attr}")
    assert reads == []
