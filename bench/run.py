"""minimaxkern benchmark: drives the CLI as a user would and checks its tables.

Usage, from the repository root:

    python3 bench/run.py --workload risk_large_n --seed 1 --seconds 20 --trace 0

Each pass of a workload runs every command of the workload as a fresh
``python -m minimaxkern.cli`` process, one after another (a closed loop
with one client).  Passes repeat until ``--seconds`` have elapsed, at
least twice, all with the same seed, so every pass must reproduce the
first pass's CSV bytes.

``--trace 0`` reports the end-to-end metrics: the median pass wall time,
the median set-up time (fresh interpreter until ``minimaxkern.cli`` is
imported and the workload's configs are parsed) and the median peak RSS.
``--trace 1`` alternates untraced passes with passes under
``trace_driver.py`` and reports the per-layer metrics, the tracing
overhead and the failed share.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; metric units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from trace_driver import LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PROCESS_TIMEOUT_S = 150
MIN_SETUP_SAMPLES = 5

PINNED_THREADS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

# Runs in a fresh interpreter: import the CLI from this checkout and parse
# the workload's configs.  Exits 3 if the package came from elsewhere.
SETUP_PROBE = """\
import sys
import minimaxkern.cli as cli
if not cli.__file__.startswith(sys.argv[1]):
    sys.exit(3)
for path in sys.argv[2:]:
    with open(path) as fh:
        cli.parse_config(fh.read())
"""


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if k not in ("MINIMAXKERN_SEED", "PYTHONPATH")}
    env.update(PINNED_THREADS)
    env["PYTHONPATH"] = str(SRC)
    return env


def _on_alarm(signum, frame):
    raise TimeoutError


def run_process(argv: list[str], env: dict) -> tuple[float, float, int]:
    """Run one child to completion: (wall seconds, peak RSS in MB, exit code)."""
    with tempfile.TemporaryFile() as err:
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        signal.alarm(PROCESS_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except TimeoutError:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            err.seek(0)
            tail = err.read().decode(errors="replace").strip().splitlines()[-3:]
            print(f"# {argv[1:3]} exited {proc.returncode}: {' | '.join(tail)}")
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


@dataclass
class Tally:
    """Checked outputs (CSV rows) attempted and failed, plus CSV hashes."""

    attempted: int = 0
    failed: int = 0
    reference: dict[str, str] = field(default_factory=dict)
    diagnostics: dict[str, float] = field(default_factory=dict)
    csv_bytes: int = 0

    def record(self, command: workloads.Command, code: int, csv_path: Path) -> None:
        text = csv_path.read_text() if code == 0 and csv_path.is_file() else None
        if text is None:
            self.attempted += command.rows
            self.failed += command.rows
            return
        self.csv_bytes += len(text.encode())
        digest = hashlib.sha256(text.encode()).hexdigest()
        reproduced = self.reference.setdefault(command.name, digest) == digest
        try:
            rows = workloads.parse_csv(text)
            ok = workloads.check_rows(command, rows)
            self.diagnostics.update(workloads.diagnostics(command, rows))
        except (KeyError, ValueError):
            rows, ok = [], []
        attempted = max(len(rows), command.rows)
        failed = ok.count(False) + abs(len(rows) - command.rows)
        self.attempted += attempted
        self.failed += attempted if not reproduced else min(failed, attempted)


def run_pass(workload: workloads.Workload, configs: list[Path], out: Path,
             env: dict, tally: Tally, trace_dir: Path | None = None
             ) -> tuple[float, float, list[dict]]:
    """One pass over the workload's commands: (wall s, peak RSS MB, traces)."""
    wall, peak, traces = 0.0, 0.0, []
    for command, config in zip(workload.commands, configs):
        cmd_out = out / config.stem
        if trace_dir is None:
            argv = [sys.executable, "-m", "minimaxkern.cli", "--config",
                    str(config), "--out", str(cmd_out), "--quiet"]
        else:
            trace_path = trace_dir / f"{config.stem}.json"
            argv = [sys.executable, str(BENCH / "trace_driver.py"), "--config",
                    str(config), "--out", str(cmd_out), "--trace-out", str(trace_path)]
        seconds, rss, code = run_process(argv, env)
        wall += seconds
        peak = max(peak, rss)
        tally.record(command, code,
                     cmd_out / (command.name.replace("-", "_") + ".csv"))
        if trace_dir is not None and code == 0:
            traces.append(json.loads(trace_path.read_text()))
    return wall, peak, traces


def setup_sample(configs: list[Path], env: dict) -> float:
    seconds, _, code = run_process(
        [sys.executable, "-c", SETUP_PROBE, str(SRC)] + [str(c) for c in configs],
        env)
    if code != 0:
        raise RuntimeError(f"set-up probe exited {code}")
    return seconds


def merge_traces(traces: list[dict]) -> dict:
    """Sum per-process trace records of one pass."""
    merged: dict = {"by_name": {}, "by_layer": {}, "counters": {}, "import_s": 0.0}
    for t in traces:
        merged["import_s"] += t["import_s"]
        for key in ("by_name", "by_layer"):
            for name, entry in t[key].items():
                acc = merged[key].setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
                for k in acc:
                    acc[k] += entry[k]
        for name, value in t["counters"].items():
            merged["counters"][name] = merged["counters"].get(name, 0) + value
    return merged


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass (see README.md for the table)."""
    by_name, counters = trace["by_name"], trace["counters"]

    def stat(name: str, key: str):
        return by_name.get(name, {}).get(key, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    drawn = counters.get("model.values_drawn", 0)
    reps = counters.get("risk.reps", 0)
    certify_calls = stat("holder.check_weak_holder", "calls")
    metrics = {
        "model.draw_s": stat("model.sampler", "s"),
        "model.values_drawn": drawn,
        "model.draw_useful_ratio": ratio(counters.get("model.window_values_used", 0), drawn),
        "model.seed_calls": stat("model.derive_seed", "calls") + stat("model.rng_from_seed", "calls"),
        "model.seed_s": stat("model.derive_seed", "s") + stat("model.rng_from_seed", "s"),
        "numerics.window_sum_calls": stat("numerics.window_sum", "calls"),
        "numerics.window_sum_values": counters.get("numerics.window_sum_values", 0),
        "numerics.window_sum_s": stat("numerics.window_sum", "s"),
        "numerics.simpson_calls": stat("numerics.composite_simpson", "calls"),
        "numerics.simpson_s": stat("numerics.composite_simpson", "s"),
        "numerics.ks_s": stat("numerics.ks_statistic", "s"),
        "estimator.kernel_estimate_calls": stat("estimator.kernel_estimate", "calls"),
        "estimator.kernel_estimate_self_s": stat("estimator.kernel_estimate", "self_s"),
        "estimator.decompose_calls": stat("estimator.decompose", "calls"),
        "estimator.decompose_s": stat("estimator.decompose", "s"),
        "estimator.sigma_limit_s": stat("estimator.sigma_n_limit_check", "s"),
        "holder.certify_calls": certify_calls,
        "holder.certify_distinct": counters.get("holder.certify_distinct", 0),
        "holder.certify_useful_ratio": ratio(counters.get("holder.certify_distinct", 0),
                                             certify_calls),
        "holder.certify_s": stat("holder.check_weak_holder", "s"),
        "risk.cells": stat("risk.monte_carlo_risk", "calls"),
        "risk.reps": reps,
        "risk.mc_self_s": stat("risk.monte_carlo_risk", "self_s"),
        "risk.reps_per_s": ratio(reps, stat("risk.monte_carlo_risk", "s")),
        "risk.oracle_s": stat("risk.exact_gaussian_risk", "s"),
        "risk.family_s": stat("risk.default_family", "s"),
        "lowerbound.build_kernel_calls": stat("lowerbound.build_kernel", "calls"),
        "lowerbound.build_kernel_s": stat("lowerbound.build_kernel", "s"),
        "lowerbound.bayes_bound_s": stat("lowerbound.bayes_bound", "s"),
        "lowerbound.kernel_values_s": stat("lowerbound.PlateauKernel.values", "s"),
        "martingale.normal_check_calls": stat("martingale.normal_approx_check", "calls"),
        "martingale.reps": counters.get("martingale.reps", 0),
        "martingale.normal_check_self_s": stat("martingale.normal_approx_check", "self_s"),
        "martingale.split_s": stat("martingale.truncation_split", "s"),
        "cli.import_s": trace["import_s"],
        "cli.parse_s": stat("cli.parse_config", "s"),
        "cli.dispatch_s": stat("cli.dispatch", "s"),
        "cli.write_s": stat("cli.write_csv", "s"),
    }
    for layer in LAYERS:
        entry = trace["by_layer"].get(layer, {})
        for key in ("calls", "s", "self_s"):
            metrics[f"{layer}.{key}"] = entry.get(key, 0)
    return metrics


def machine() -> dict:
    """Description of the machine and libraries the numbers were taken on."""
    import numpy

    info: dict = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "pinned_threads": PINNED_THREADS,
    }
    try:
        from importlib.metadata import version
        info["scipy"] = version("scipy")
    except ImportError:
        info["scipy"] = None
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu_model"] = next((line.split(":", 1)[1].strip() for line in fh
                                      if line.startswith("model name")), None)
    except OSError:
        info["cpu_model"] = None
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}_{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    info["caches"] = caches
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        info["blas"] = {k: {"name": v.get("name"), "version": v.get("version"),
                            "config": v.get("openblas configuration")}
                        for k, v in deps.items()}
    except (TypeError, KeyError):
        info["blas"] = None
    return info


def measure(workload: workloads.Workload, work: Path, seconds: float,
            trace: bool) -> tuple[Tally, dict[str, float]]:
    env = child_env()
    configs = []
    for i, command in enumerate(workload.commands):
        path = work / f"{i}_{command.name}.cfg"
        path.write_text(command.config)
        configs.append(path)

    tally = Tally()
    walls, peaks, setups, traced_walls, traced = [], [], [], [], []
    # Start another iteration only if one more is expected to end before
    # the deadline, so a run lasts about ``seconds`` whatever the pass size.
    deadline = time.perf_counter() + seconds
    k = 0
    while True:
        started = time.perf_counter()
        if not trace:
            setups.append(setup_sample(configs, env))
        wall, peak, _ = run_pass(workload, configs, work / f"pass{k}", env, tally)
        walls.append(wall)
        peaks.append(peak)
        if trace:
            trace_dir = work / f"trace{k}"
            trace_dir.mkdir()
            wall, _, records = run_pass(workload, configs, work / f"traced{k}",
                                        env, tally, trace_dir)
            traced_walls.append(wall)
            if len(records) == len(workload.commands):
                traced.append(layer_metrics(merge_traces(records)))
        k += 1
        now = time.perf_counter()
        if k >= (1 if trace else 2) and now + (now - started) > deadline:
            break
    while not trace and len(setups) < MIN_SETUP_SAMPLES:
        setups.append(setup_sample(configs, env))

    median = statistics.median
    for name, samples in (("wall_s", walls), ("setup_s", setups),
                          ("peak_rss_mb", peaks), ("trace.wall_s", traced_walls)):
        if samples:
            print(f"# {name} samples ({len(samples)}): "
                  + " ".join(f"{v:.4f}" for v in samples))
    if not trace:
        return tally, {"wall_s": median(walls), "setup_s": median(setups),
                       "peak_rss_mb": median(peaks)}
    if not traced:
        raise RuntimeError("no traced pass completed")
    metrics = {name: median(m[name] for m in traced) for name in traced[0]}
    passes = len(walls) + len(traced_walls)
    metrics.update({
        "cli.csv_bytes": tally.csv_bytes / passes,
        "trace.wall_s": median(traced_walls),
        "trace.untraced_wall_s": median(walls),
        "trace.overhead_s": median(traced_walls) - median(walls),
        "failed_frac": tally.failed / tally.attempted,
        "risk.max_abs_z": tally.diagnostics.get("risk.max_abs_z", 0.0),
        "martingale.max_ks_over_band": tally.diagnostics.get(
            "martingale.max_ks_over_band", 0.0),
    })
    return tally, metrics


def declared_units(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "minimaxkern" / "cli.py").is_file():
        print(f"error: no minimaxkern sources under {SRC}", file=sys.stderr)
        return 2
    units = declared_units(bool(args.trace))
    workload = workloads.build(args.workload, args.seed)

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=work_root))
    try:
        tally, metrics = measure(workload, work, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} do not match "
              f"BENCHMARK.json", file=sys.stderr)
        return 2
    print("# machine " + json.dumps(machine(), sort_keys=True))
    print(f"# workload {workload.name} seed {args.seed}: csv sha256 "
          + json.dumps(tally.reference, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
