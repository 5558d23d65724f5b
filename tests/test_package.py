import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import minimaxkern

ROOT = Path(__file__).resolve().parents[1]


def test_every_export_resolves():
    # a name left in __all__ after its object is deleted fails here
    missing = [name for name in minimaxkern.__all__
               if not hasattr(minimaxkern, name)]
    assert missing == []


def _unused_imports(path: Path) -> list[str]:
    """Module-level imported names that the module never references.

    ``__future__`` imports and statements marked ``# noqa: F401`` are
    exempt."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for stmt in tree.body:
        if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if any("# noqa: F401" in line
               for line in lines[stmt.lineno - 1:stmt.end_lineno]):
            continue
        for alias in stmt.names:
            name = alias.asname or alias.name.split(".")[0]
            imported[name] = stmt.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}"
            for name, line in imported.items() if name not in used]


def test_no_src_module_imports_scipy():
    # scipy is a test-only dependency: every law carries its closed forms,
    # so no import of it, at module level or inside a function, stays in src
    found = []
    for path in sorted((ROOT / "src" / "minimaxkern").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] == "scipy"]
    assert found == []


def test_numpy_is_the_only_runtime_dependency():
    import tomllib

    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = [re.split(r"[<>=!~ \[;]", dep, maxsplit=1)[0]
             for dep in project["dependencies"]]
    assert names == ["numpy"]
    assert any(dep.startswith("scipy")
               for dep in project["optional-dependencies"]["test"])


def test_no_unused_imports():
    modules = sorted((ROOT / "src" / "minimaxkern").glob("*.py"))
    unused = [entry for path in modules if path.name != "__init__.py"
              for entry in _unused_imports(path)]
    assert unused == []


def test_readme_config_block_names_every_key():
    # the README's example config names exactly the keys parse_config
    # accepts, so the docs cannot drift from the key table
    from minimaxkern import cli

    readme = (ROOT / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    keys = {line.split("=", 1)[0].strip() for line in block.splitlines()
            if "=" in line.split("#", 1)[0]}
    assert keys == set(cli._KEYS) | {"command"}


def test_trace_driver_installs():
    # bench/trace_driver.py wraps package names where other modules import
    # them; a dropped or renamed name makes install raise
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]))
    code = "import trace_driver; trace_driver.install(trace_driver.Tracer())"
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_cli_import_leaves_thread_pool_unloaded():
    # clt-check imports concurrent.futures only when it runs a pool, so
    # importing the CLI (the benchmark's set-up time) never pays for it
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = ("import sys, minimaxkern.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('concurrent')))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# The message of every range rule, which its owner states once in src: a
# second copy of a rule, with its own wording, would fail here.
_RANGE_RULES = [
    "n must be >= 1",
    "beta must lie in (1, 2]",
    "z0 must lie in (0, 1)",
    "delta must lie in (0, 1)",
    "nu must lie in (0, 1/4)",
    "b must exceed 1",
    "alpha0 must be positive",
    "alpha1..alpha3 must be non-negative",
    "reps must be >= 2",
    "reps must be >= {NORMAL_CHECK_MIN_REPS}",  # clt-check's floor, 100
    "a must be positive and finite",
    "probe bandwidths must be positive",
    "leaves [0, 1] for h=",
    "unknown noise label",
]


def test_each_range_rule_is_written_once():
    source = "".join(path.read_text() for path in
                     sorted((ROOT / "src" / "minimaxkern").glob("*.py")))
    counts = {rule: source.count(rule) for rule in _RANGE_RULES}
    assert counts == dict.fromkeys(_RANGE_RULES, 1)
