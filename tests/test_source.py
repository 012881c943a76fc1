"""Checks on the library source itself."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import latmod

SOURCES = sorted(Path(latmod.__file__).parent.glob("*.py"))


def test_library_has_no_assert_statements():
    # `python -O` strips asserts and `if __debug__:` blocks, so invariants
    # must raise typed errors.
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ] + [
        f"{path.name}:{lineno}"
        for path in SOURCES
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if "__debug__" in line
    ]
    assert SOURCES
    assert found == []


def test_library_has_no_cached_property():
    # Filling a cached property writes the instance dict, and every later
    # attribute read of that object gets slower; derived tables are plain
    # attributes or are built where they are read.
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if (isinstance(node, ast.Name) and node.id == "cached_property")
        or (isinstance(node, ast.Attribute) and node.attr == "cached_property")
        or (
            isinstance(node, ast.alias)
            and "cached_property" in (node.name, node.asname)
        )
    ]
    assert SOURCES
    assert found == []


def test_only_arrows_spells_out_the_closure_kinds():
    # Each closure kind is a kernel bound once in arrows._Tables; other
    # modules call t.transfer, t.wide, t.localize[side] and so on, and
    # never import the raw kernel or read its rule tables.
    spelled = {"_extend", "compose_at", "two_of_three_at"}
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        if path.name != "arrows.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if (isinstance(node, ast.Name) and node.id in spelled)
        or (isinstance(node, ast.Attribute) and node.attr in spelled)
        or (isinstance(node, ast.alias) and {node.name, node.asname} & spelled)
    ]
    assert len(SOURCES) > 1
    assert found == []


def _run_python(code: str) -> subprocess.CompletedProcess:
    src = Path(latmod.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_runs_without_numpy():
    # A None entry in sys.modules makes every `import numpy` fail.
    blocked = _run_python(
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from latmod.cli import main\n"
        "sys.exit(main(['reproduce', '--paper-checks']))\n"
    )
    assert blocked.returncode == 0, blocked.stderr
    imported = _run_python("import sys, latmod.cli; print('numpy' in sys.modules)")
    assert (imported.returncode, imported.stdout) == (0, "False\n")


# sha256 of `latmod models enumerate --lattice builtin:n5 --format csv`.
N5_CSV_SHA256 = "913bf2521f642ce921c9503f1cd971e7bb3354d14355d2fa435aaf10c4ee5b42"


def test_runs_without_dataclasses_or_an_eager_csv():
    # Records are slotted classes or named tuples, so nothing needs
    # dataclasses; csv is imported by the CSV export alone, and json only
    # where JSON is read or written.
    blocked = _run_python(
        "import sys\n"
        "sys.modules['dataclasses'] = None\n"
        "from latmod.cli import main\n"
        "sys.exit(main(['reproduce', '--paper-checks']))\n"
    )
    assert blocked.returncode == 0, blocked.stderr
    imported = _run_python(
        "import sys\n"
        "json_at_start = 'json' in sys.modules\n"
        "import latmod.cli\n"
        "print('dataclasses' in sys.modules, 'csv' in sys.modules,\n"
        "      json_at_start or 'json' in sys.modules)\n"
    )
    assert (imported.returncode, imported.stdout) == (0, "False False False\n")
    exported = _run_python(
        "import hashlib, io, sys\n"
        "from contextlib import redirect_stdout\n"
        "from latmod.cli import main\n"
        "out = io.StringIO()\n"
        "with redirect_stdout(out):\n"
        "    code = main(['models', 'enumerate', '--lattice', 'builtin:n5',\n"
        "                 '--format', 'csv'])\n"
        "print(code, hashlib.sha256(out.getvalue().encode()).hexdigest())\n"
    )
    assert (exported.returncode, exported.stdout) == (0, f"0 {N5_CSV_SHA256}\n")


def test_all_lists_exactly_the_imported_public_names():
    # __all__ resolves, is sorted without repeats, and names every public
    # name that __init__ imports from the submodules, and nothing else.
    init = Path(latmod.__file__)
    imported = {
        alias.asname or alias.name
        for node in ast.parse(init.read_text()).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }
    names = latmod.__all__
    assert [n for n in names if not hasattr(latmod, n)] == []
    assert names == sorted(set(names))
    assert set(names) == imported
