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
