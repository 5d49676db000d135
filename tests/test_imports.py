"""Every imported name in the package and its tests is used."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(source):
    """(line, name) of each name the module imports and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported.setdefault(alias.asname or alias.name,
                                        node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_no_unused_imports():
    files = sorted([*(ROOT / "src" / "nullctrl").glob("*.py"),
                    *(ROOT / "tests").glob("*.py")])
    assert len(files) > 2
    found = {path.relative_to(ROOT).as_posix(): unused
             for path in files
             if (unused := unused_imports(path.read_text()))}
    assert found == {}


def private_definitions(tree):
    """(line, name) of the module-level private functions and classes and
    the private methods a module defines; dunder names are not private."""
    def private(node):
        return (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                and node.name.startswith("_")
                and not node.name.startswith("__"))

    found = []
    for node in tree.body:
        if private(node):
            found.append((node.lineno, node.name))
        if isinstance(node, ast.ClassDef):
            found += [(item.lineno, item.name) for item in node.body
                      if private(item)]
    return found


def test_no_unread_private_helpers():
    # a private helper that no package code reads is dead, whatever the
    # tests call
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted((ROOT / "src" / "nullctrl").glob("*.py"))}
    assert len(trees) > 2
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = {name: dead for name, tree in trees.items()
              if (dead := [d for d in private_definitions(tree)
                           if d[1] not in read])}
    assert unread == {}


def unread_parameters(tree):
    """(line, function, parameter) of each parameter of a function or
    lambda that its body never reads; self and cls are exempt."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        a = node.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs,
                  *filter(None, (a.vararg, a.kwarg))]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name)}
        name = getattr(node, "name", "<lambda>")
        found += [(node.lineno, name, p.arg) for p in params
                  if p.arg not in ("self", "cls") and p.arg not in read]
    return found


def test_no_unread_parameters():
    files = sorted((ROOT / "src" / "nullctrl").glob("*.py"))
    assert len(files) > 2
    unread = {path.name: found for path in files
              if (found := unread_parameters(ast.parse(path.read_text())))}
    assert unread == {}
