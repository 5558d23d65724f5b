import ast
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

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


# Parameters that a protocol fixes but one implementation does not need:
# the zero law draws nothing from its generator.
_UNREAD_PROTOCOL_SLOTS = {
    ("model.py", "_zero_sampler", "rng"),
}


def test_every_src_parameter_is_read():
    # a parameter that no line of its function reads is an input with no
    # effect: callers pass it, and nothing tells them it is ignored
    unread = set()
    for path in sorted((ROOT / "src" / "minimaxkern").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            params = [a.arg for a in (*args.posonlyargs, *args.args,
                                      *args.kwonlyargs, args.vararg,
                                      args.kwarg) if a is not None]
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread |= {(path.name, node.name, p) for p in params
                       if p not in read}
    assert unread == _UNREAD_PROTOCOL_SLOTS


def test_function_list_is_read_by_one_function():
    # one resolver gives function_list the same meaning in every command:
    # no other function, and no module-level code, in src reads the key
    readers = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        elif (isinstance(node, ast.Attribute) and node.attr == "function_list"
              and isinstance(node.ctx, ast.Load)):
            readers.add(f"{path.name}:{where}")
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in sorted((ROOT / "src" / "minimaxkern").glob("*.py")):
        visit(ast.parse(path.read_text()), "<module>")
    assert readers == {"cli.py:_curves"}


def test_no_src_function_takes_a_worker_count():
    # clt-check sizes its pool from the CPUs available (capped through CPU
    # affinity), so no function takes a worker count of its own
    found = []
    for path in sorted((ROOT / "src" / "minimaxkern").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                found += [f"{path.name}:{node.lineno} {node.name}({a.arg})"
                          for a in (*args.posonlyargs, *args.args,
                                    *args.kwonlyargs)
                          if a.arg in ("threads", "workers")]
    assert found == []


def test_readme_library_example_runs(capsys):
    # the README's python block runs as written, so its signatures cannot
    # go stale; it prints one row per default member, then the supremum
    from minimaxkern.risk import DEFAULT_TABLE_LABELS

    readme = (ROOT / "README.md").read_text()
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == [*DEFAULT_TABLE_LABELS, "sup"]


def test_readme_config_block_names_every_key():
    # the README's example config names exactly the keys parse_config
    # accepts, so the docs cannot drift from the key table
    from minimaxkern import cli

    readme = (ROOT / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    keys = {line.split("=", 1)[0].strip() for line in block.splitlines()
            if "=" in line.split("#", 1)[0]}
    assert keys == set(cli._KEYS) | {"command"}


def test_readme_synopsis_names_every_option(capsys):
    # the README's `minimaxkern --config ...` synopsis names exactly the
    # options of cli.main's parser (--help aside), so the docs cannot keep
    # a removed flag or miss a new one
    from minimaxkern import cli

    readme = (ROOT / "README.md").read_text()
    synopsis = [line for line in readme.splitlines()
                if line.startswith("minimaxkern --config")]
    assert len(synopsis) == 1
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    option = re.compile(r"(?<![\w-])--[a-z][\w-]*")
    parsed = set(option.findall(capsys.readouterr().out)) - {"--help"}
    assert set(option.findall(synopsis[0])) == parsed
    assert parsed  # the help text was read


# A small config of each command for the README schema check.
_SCHEMA_CONFIGS = {
    "risk-table": "n_list = 400\nreps = 10\n",
    "lower-bound": "nu_list = 0.1\nb_list = 4\n",
    "clt-check": "n_list = 400\nreps = 100\n",
    "holder-check": "n_list = 400\n",
    "convergence": "n_list = 400\n",
}


def test_readme_schema_table_names_every_column(tmp_path):
    # the README's `| command | columns |` table names exactly the header
    # each command writes, so the docs cannot drift from the CSVs
    from minimaxkern import cli

    readme = (ROOT / "README.md").read_text()
    table = readme.split("| command | columns |\n", 1)[1].split("\n\n", 1)[0]
    documented = dict(re.findall(r"^\| `([a-z-]+)` \| `([\w,]+)` \|$", table,
                                 re.MULTILINE))
    assert sorted(documented) == sorted(cli.COMMANDS) == sorted(_SCHEMA_CONFIGS)
    for command, body in _SCHEMA_CONFIGS.items():
        out = tmp_path / command
        config = cli.parse_config(f"command = {command}\n{body}")
        assert cli.run(config, out_dir=str(out), quiet=True) == 0
        stem = command.replace("-", "_")
        header = (out / f"{stem}.csv").read_text().splitlines()[0]
        assert header == documented[command], command


def test_readme_model_row_names_every_noise_field():
    # the README's `minimaxkern.model` row names each NoiseSpec field in
    # a code span, so the docs cannot keep a removed field or miss a new one
    from minimaxkern.model import NoiseSpec

    readme = (ROOT / "README.md").read_text()
    rows = [line for line in readme.splitlines()
            if line.startswith("| `minimaxkern.model` |")]
    assert len(rows) == 1
    documented = set(re.findall(r"\w+", " ".join(
        re.findall(r"`([^`]*)`", rows[0]))))
    fields = {f.name for f in dataclasses.fields(NoiseSpec)}
    assert fields - documented == set()
    assert "truncated_mean" not in rows[0]


def test_readme_manifest_names_every_key(tmp_path):
    # every key of a risk-table certification entry and of the counters of
    # risk-table and clt-check, and the workers entry of every manifest, is
    # named in code spans of the README's manifest paragraph, so the docs
    # cannot drift from the manifest
    from minimaxkern import cli

    readme = (ROOT / "README.md").read_text()
    paragraph = readme.split("Each command writes `<stem>.csv`", 1)[1]
    paragraph = paragraph.split("\n\n", 1)[0]
    documented = set(re.findall(r"\w+", " ".join(
        re.findall(r"`([^`]*)`", paragraph))))
    keys = set()
    for command in ("risk-table", "clt-check"):
        out = tmp_path / command
        config = cli.parse_config(
            f"command = {command}\n{_SCHEMA_CONFIGS[command]}")
        assert cli.run(config, out_dir=str(out), quiet=True) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert "threads" not in manifest
        keys |= {"workers"} & set(manifest)
        keys |= set(manifest["counters"])
        for entry in manifest.get("certification", []):
            keys |= set(entry)
    assert {"certificates", "max_defect_over_delta", "workers"} <= keys
    assert keys - documented == set()
    assert "worst_h" not in paragraph

def test_trace_driver_installs():
    # bench/trace_driver.py wraps package names where other modules import
    # them; a dropped or renamed name makes install raise
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]))
    code = "import trace_driver; trace_driver.install(trace_driver.Tracer())"
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# A small config of each command for the traced-run check.
_TRACE_CONFIGS = {
    "risk-table": "n_list = 400, 1000\nreps = 100\n"
                  "noise_list = gaussian, laplace_std\n",
    "lower-bound": "nu_list = 0.1, 0.05\nb_list = 4, 16\n",
    "clt-check": "n_list = 400, 1000\nreps = 100\n"
                 "noise_list = gaussian, laplace_std\n",
    "holder-check": "n_list = 400, 1000\n",
    "convergence": "n_list = 400, 1000\n",
}


def _one_cpu() -> None:
    # The driver's tracer records only this process's spans, and a forked
    # worker's are lost, so the traced child runs clt-check's cells on one
    # worker.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


@pytest.mark.parametrize("command", sorted(_TRACE_CONFIGS))
def test_traced_run_matches_untraced(tmp_path, command):
    # bench/trace_driver.py wraps package functions and reads their
    # arguments (by position or name); a call it cannot read fails the
    # traced run, and a wrapper must not change a byte of the table
    from minimaxkern import cli

    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(f"command = {command}\n{_TRACE_CONFIGS[command]}")
    plain, traced = tmp_path / "plain", tmp_path / "traced"
    assert cli.main(["--config", str(cfg_file), "--out", str(plain),
                     "--quiet"]) == 0
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "trace_driver.py"),
         "--config", str(cfg_file), "--out", str(traced),
         "--trace-out", str(tmp_path / "trace.json")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        preexec_fn=_one_cpu)
    assert proc.returncode == 0, proc.stderr
    stem = command.replace("-", "_")
    assert ((traced / f"{stem}.csv").read_bytes()
            == (plain / f"{stem}.csv").read_bytes())
    trace = json.loads((tmp_path / "trace.json").read_text())
    if command == "clt-check":  # the driver read each cell's reps
        assert trace["counters"]["martingale.reps"] == 4 * 100
    if command == "holder-check":  # one Simpson call per certificate row
        rows = (plain / f"{stem}.csv").read_text().splitlines()[1:]
        simpson = trace["by_name"]["numerics.composite_simpson"]["calls"]
        assert simpson >= len(rows) > 0


def test_cli_import_leaves_thread_pool_unloaded():
    # clt-check forks its workers with os.fork, never through
    # concurrent.futures or multiprocessing (tests/test_cli.py checks a
    # run), imports minimaxkern.workers and probes the samplers only when
    # it dispatches, so importing the CLI (the benchmark's set-up time)
    # pays for none of them.  numpy.random counts only if the CLI loads it:
    # an older numpy loads it itself.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = ("import sys, numpy; numpy_own = set(sys.modules); "
            "import minimaxkern.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in "
            "('concurrent', 'multiprocessing') or m == 'minimaxkern.workers')); "
            "print(sorted(m for m in set(sys.modules) - numpy_own "
            "if m.startswith('numpy.random')))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["[]", "[]"]


# The message of every range rule, which its owner states once in src: a
# second copy of a rule, with its own wording, would fail here.
_RANGE_RULES = [
    "n must be >= 1",
    "beta must lie in (1, 2]",
    "z0 must lie in (0, 1)",
    "delta must lie in (0, 1)",
    "nu must lie in (0, 1/4)",
    "b must exceed 1",
    "g_z0 must be positive and finite",
    "alpha0 must be positive",
    "alpha1..alpha3 must be non-negative",
    "reps must be >= 2",
    "weights must be one or more rows of one length >= 1",
    "reps must be >= {NORMAL_CHECK_MIN_REPS}",  # clt-check's floor, 100
    "a must be positive and finite",
    "bandwidth h must be positive",
    "leaves [0, 1] for h=",
    "unknown noise label",
    "seed must be an integer in [0, 2^64)",
    "l_prime_sup must be positive and finite",
    "m must not be NaN",
    "s must be positive and finite",
    "observations, got shape",
]


def test_each_range_rule_is_written_once():
    source = "".join(path.read_text() for path in
                     sorted((ROOT / "src" / "minimaxkern").glob("*.py")))
    counts = {rule: source.count(rule) for rule in _RANGE_RULES}
    assert counts == dict.fromkeys(_RANGE_RULES, 1)


def test_window_sums_follow_one_rule():
    # model.replicate is the one place a Monte Carlo row is reduced (a
    # numpy row reduction of weighted draws), and every other sum over the
    # window is numerics.window_sum: an attribute call named sum (np.sum,
    # x.sum) appears only in Simpson's rule and in replicate
    callers = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{where}.{node.name}"
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr == "sum"):
            callers.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in sorted((ROOT / "src" / "minimaxkern").glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    assert callers == {"numerics.composite_simpson", "model.replicate"}
