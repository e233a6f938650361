import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
# modules whose imports are their content: the package's public names and
# the old builder name the benchmark's tracer patches
REEXPORTS = {"src/intcomplexity/__init__.py", "src/intcomplexity/sieve.py"}
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
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def test_scan_sees_unread_definitions():
    tree = ast.parse("import m\ndef f(): pass\ndef g(): pass\nclass C: pass\n"
                     "m.h(f, 'C')\nfrom m import k\n")
    assert {"m", "h", "f", "C", "k"} <= reads(tree) and "g" not in reads(tree)


def test_program_calls_every_function_it_defines():
    # a function or class of the program that only tests read belongs in the tests
    trees = {path: ast.parse((ROOT / path).read_text()) for path in PROGRAM}
    read = set().union(*map(reads, trees.values()))
    unread = [f"{path}:{node.name}" for path, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in read
              and not (node.name.startswith("__") and node.name.endswith("__"))]
    assert unread == []
