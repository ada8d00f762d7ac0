"""Every function, class and method of the library has a caller.

The check parses ``src/mixlm`` and the benchmark's non-test files with
``ast``.  A definition counts as called when its name appears anywhere in
them as a ``Name``, an ``Attribute`` or a string constant (the benchmark's
tracer names what it wraps with strings).  Imports do not count, so a
re-export alone is not a caller, and neither do the tests.  Dunder methods
are called by Python itself and are not checked; nothing else is exempt.  A
definition wanted only by code not yet written comes back with that code.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "mixlm"
BENCH = ROOT / "bench"


def _trees(paths):
    return [(path, ast.parse(path.read_text(), filename=str(path))) for path in paths]


def _sources():
    library = sorted(LIBRARY.rglob("*.py"))
    bench = sorted(p for p in BENCH.glob("*.py") if not p.name.startswith("test_"))
    return _trees(library), _trees(library + bench)


def _definitions(trees):
    """(name, where) of every function, class and method, dunders excepted."""
    out = []
    for path, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    out.append((node.name, f"{path.relative_to(ROOT)}:{node.lineno}"))
    return out


def _named(trees) -> set[str]:
    names = set()
    for _, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def _uncalled():
    library, everything = _sources()
    named = _named(everything)
    return [(name, where) for name, where in _definitions(library) if name not in named]


def test_every_definition_has_a_caller():
    missing = [f"{where} {name}" for name, where in _uncalled()]
    assert not missing, "defined but never named in src/mixlm or bench/:\n" + "\n".join(missing)


def test_check_finds_an_uncalled_definition():
    tree = ast.parse("def used():\n    pass\n\ndef unused():\n    used()\n\n"
                     "class C:\n    def __len__(self):\n        return 0\n")
    trees = [(LIBRARY / "example.py", tree)]
    named = _named(trees)
    assert [n for n, _ in _definitions(trees) if n not in named] == ["unused", "C"]
