import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
# modules whose imports are their content: the package's public names and
# the old builder name the benchmark's tracer patches
REEXPORTS = {"src/intcomplexity/__init__.py", "src/intcomplexity/sieve.py"}
# definitions of the program that only the benchmark's harness reads
HARNESS_NAMES = {"src/intcomplexity/storage.py:load_table"}
SOURCES = sorted(
    path.relative_to(ROOT).as_posix()
    for top in ("src", "scripts", "tests")
    for path in (ROOT / top).rglob("*.py")
)
PROGRAM = [path for path in SOURCES if not path.startswith("tests/")]


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_scan_sees_unused_imports():
    assert unused_imports("import os\nimport sys\nfrom math import pi, tau\nsys.exit(pi)\n") == [
        "os",
        "tau",
    ]
    assert unused_imports("import os.path\nos.path.join('a')\n") == []


def test_no_unused_imports():
    found = {}
    for path in SOURCES:
        if path not in REEXPORTS:
            names = unused_imports((ROOT / path).read_text())
            if names:
                found[path] = names
    assert found == {}


def reads(tree: ast.AST) -> set[str]:
    """Every name a module reads: as a name, an attribute, an imported name
    or a string (``cli._VERIFY`` looks checks up by name)."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def defines(tree: ast.Module) -> list[str]:
    """The names a module defines at its top level: functions, classes and
    the names assigned, dunder names left out."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for target in targets for t in ast.walk(target)
                      if isinstance(t, ast.Name) and isinstance(t.ctx, ast.Store)]
    return [name for name in names if not (name.startswith("__") and name.endswith("__"))]


def test_scan_sees_unread_definitions():
    tree = ast.parse("import m\ndef f(): pass\ndef g(): pass\nclass C: pass\n"
                     "m.h(f, 'C')\nfrom m import k\nv = 1\n")
    assert {"m", "h", "f", "C", "k"} <= reads(tree) and not {"g", "v"} & reads(tree)
    tree = ast.parse("def f(): pass\nclass C: pass\nA = B = 1\nx, (y, z) = 1, (2, 3)\n"
                     "w: int = 0\n__all__ = []\nif A: q = 1\nm.a = 1\n")
    assert defines(tree) == ["f", "C", "A", "B", "x", "y", "z", "w"]


def test_program_calls_every_function_it_defines():
    # a function, class or module-level name of the program that only tests
    # read belongs in the tests
    trees = {path: ast.parse((ROOT / path).read_text()) for path in PROGRAM}
    read = set().union(*map(reads, trees.values()))
    unread = [f"{path}:{name}" for path, tree in trees.items() for name in defines(tree)
              if name not in read and f"{path}:{name}" not in HARNESS_NAMES]
    assert unread == []
