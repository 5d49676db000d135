"""Lint checks on the package source: every imported name is used, no
helper or parameter is unread, no private library API is read, no private
name crosses a module boundary, no module rebinds its own state, only
the I/O modules open files and the forward verifier imports nothing from
the package."""

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


def global_statements(tree):
    """(line, name) of each name a `global` statement declares."""
    return [(node.lineno, name) for node in ast.walk(tree)
            if isinstance(node, ast.Global) for name in node.names]


def test_no_module_level_mutable_state():
    # state a module's functions rebind is shared by every caller in the
    # process; it belongs to an object that callers create and pass
    files = sorted((ROOT / "src" / "nullctrl").glob("*.py"))
    assert len(files) > 2
    found = {path.name: names for path in files
             if (names := global_statements(ast.parse(path.read_text())))}
    assert found == {}


def _private(name):
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def private_library_names(sources):
    """(module, line, name) of each private numpy/scipy module or name that
    the given modules import, and of each private attribute they read that
    none of them defines; the package defines its own private names, so
    such an attribute is a library's (`sp._sparsetools`,
    `M._matmul_vector`).  Dunder names are public."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    defined = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                                ast.Store):
                defined.add(node.attr)
            elif isinstance(node, ast.Name) and isinstance(node.ctx,
                                                           ast.Store):
                defined.add(node.id)
    found = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                paths = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                paths = [f"{node.module}.{alias.name}"
                         for alias in node.names]
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)
                  and _private(node.attr) and node.attr not in defined):
                found.append((module, node.lineno, node.attr))
                continue
            else:
                continue
            for path in paths:
                parts = path.split(".")
                if parts[0] in ("numpy", "scipy") and any(
                        _private(part) for part in parts[1:]):
                    found.append((module, node.lineno, path))
    return sorted(found)


def test_no_private_library_api():
    sources = {path.name: path.read_text()
               for path in sorted((ROOT / "src" / "nullctrl").glob("*.py"))}
    assert len(sources) > 2
    assert private_library_names(sources) == []


def test_private_library_api_detected():
    source = ("import numpy as np\n"
              "import scipy.sparse as sp\n"
              "import scipy.sparse._sputils\n"
              "from scipy.sparse._sparsetools import csr_sort_indices\n"
              "from numpy import _core\n"
              "class Own:\n"
              "    def _helper(self, M, v):\n"
              "        self._cache = M.__matmul__(v)\n"
              "        return self._cache, self._helper, M._matmul_vector(v)\n"
              "sp._sparsetools.coo_tocsr(np.__version__)\n")
    assert private_library_names({"m.py": source}) == [
        ("m.py", 3, "scipy.sparse._sputils"),
        ("m.py", 4, "scipy.sparse._sparsetools.csr_sort_indices"),
        ("m.py", 5, "numpy._core"),
        ("m.py", 9, "_matmul_vector"),
        ("m.py", 10, "_sparsetools"),
    ]


def private_package_imports(sources, package="nullctrl"):
    """(module, name) of each private name a package module takes from
    another: by a relative or package import, or as an attribute of a
    package module it imported.  Dunder names are public."""
    found = []
    for module, source in sources.items():
        modules = set()   # local names of the package modules imported
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0]
                    == package):
                for alias in node.names:
                    if _private(alias.name):
                        found.append((module, alias.name))
                    elif node.module is None or node.module == package:
                        modules.add(alias.asname or alias.name)
            elif isinstance(node, ast.Import):
                modules.update(alias.asname for alias in node.names
                               if alias.asname and alias.name.split(".")[0]
                               == package)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id in modules and _private(node.attr)):
                found.append((module, node.attr))
    return sorted(found)


def test_no_private_name_crosses_a_module_boundary():
    sources = {path.name: path.read_text()
               for path in sorted((ROOT / "src" / "nullctrl").glob("*.py"))}
    assert len(sources) > 2
    assert private_package_imports(sources) == []


def test_private_package_import_detected():
    source = ("from .forms import SaddleSystem, _row_cuts\n"
              "from . import config as cfgmod, fem\n"
              "from nullctrl.saddle import _row_blocks\n"
              "import nullctrl.vtkout as vtk\n"
              "from numpy import _core\n"
              "from .weights import __doc__\n"
              "cfgmod._coerce(fem.__name__, fem._private, vtk._write, 1)\n"
              "cfgmod.validate(_core)\n")
    assert private_package_imports({"m.py": source}) == [
        ("m.py", "_coerce"), ("m.py", "_private"), ("m.py", "_row_blocks"),
        ("m.py", "_row_cuts"), ("m.py", "_write")]


def package_imports(source, package="nullctrl"):
    """(line, module) of each import the module makes from the package: a
    relative import, or an absolute one of the package or its modules."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            if node.level or module.split(".")[0] == package:
                found.append((node.lineno, module))
        elif isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name.split(".")[0] == package]
    return found


def test_verifier_imports_nothing_from_the_package():
    # the forward solvers check the space-time solver's control, so they
    # share no code with it: not a saddle helper, not an element table
    source = (ROOT / "src" / "nullctrl" / "forward.py").read_text()
    assert "import" in source
    assert package_imports(source) == []


def test_package_imports_detected():
    source = ("import numpy as np\n"
              "from scipy.sparse import linalg\n"
              "from .saddle import KktSolver\n"
              "from . import fem\n"
              "import nullctrl.forms as forms\n"
              "from nullctrl import weights\n"
              "import nullctrlx\n")
    assert package_imports(source) == [(3, ".saddle"), (4, "."),
                                       (5, "nullctrl.forms"),
                                       (6, "nullctrl")]


# the modules that read or write files: the command line driver, the config
# reader and the VTK writer; the numerics hand their records to the driver
FILE_IO_MODULES = {"cli.py", "config.py", "vtkout.py"}


def file_opens(tree):
    """Lines of the module's calls of `open(...)` or `<expr>.open(...)`."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and (isinstance(node.func, ast.Name)
                       and node.func.id == "open"
                       or isinstance(node.func, ast.Attribute)
                       and node.func.attr == "open"))


def test_numerics_modules_open_no_files():
    files = sorted((ROOT / "src" / "nullctrl").glob("*.py"))
    assert FILE_IO_MODULES <= {path.name for path in files}
    found = {path.name: lines for path in files
             if path.name not in FILE_IO_MODULES
             and (lines := file_opens(ast.parse(path.read_text())))}
    assert found == {}


def test_file_opens_detected():
    source = ("import pathlib\n"
              "with open('a.csv', 'w') as fh:\n"
              "    fh.write('x')\n"
              "pathlib.Path('b').open()\n"
              "opener = open\n")
    assert file_opens(ast.parse(source)) == [2, 4]
