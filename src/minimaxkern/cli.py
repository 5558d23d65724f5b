"""Config-driven batch runner.

Reads a line-oriented ``key = value`` experiment file, dispatches to the
estimation/risk/diagnostic modules and writes one CSV per command plus a
JSON manifest.  Identical configs produce byte-identical CSV bodies.  A
ranged key is checked by the library's own rule for it (see ``_KEYS``);
non-finite numbers and empty or repeated list entries are config errors.
``function_list`` is read by ``_curves`` alone: ``risk-table`` and
``holder-check`` call it per (n, delta), since the bump follows n, and
``clt-check`` and ``convergence`` once, at their one delta.

``clt-check`` deals its (noise, n) cells into one bin per CPU this
process may use (``available_cpus``), at most one per cell: costliest
first, by expected draw time (q_n times the seconds per value of the
cell's law, which one warm probe of each law's sampler measures on a
throwaway generator), each into the bin with the least expected time so
far, since the longest cell bounds the wall time.  Bin 0 runs in the
calling process.  On POSIX every other bin runs in a forked worker
process (``workers.run_bins``), which inherits the window laws, filled
before the first fork, so the peak memory holds one worker's scratch,
not the sum of all workers'.  Without ``os.fork`` one bin runs every
cell in the calling process.  CPU affinity (e.g. ``taskset``) caps the
workers; on one CPU nothing forks.  The children make no BLAS call.  On
Python >= 3.12 ``os.fork`` warns when the process already runs other
threads, such as an unpinned BLAS pool; the benchmark pins BLAS to one
thread.  Every cell keeps the seed of its position in the sorted cell
list and rows are assembled in that order, so results never depend on
the worker count or on where a cell ran.  A failing cell stops its bin,
and its error is raised once every child has been reaped.  The other
commands run serially: their cells are small and bound by the
interpreter lock (``risk-table`` got slower on a pool).  The manifest
records the number of workers used.  ``--out DIR`` (default
``results``) is the output directory.

Exit codes: 0 success, 2 config error, 3 numeric or module error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .estimator import (EstimatorConfig, check_beta, check_z0,
                        sigma_n_limit_check, window_law)
from .holder import WeakHolderParams, check_delta, check_weak_holder
from .lowerbound import (bayes_bound, build_kernel, check_b, check_nu,
                         pure_noise_scale, sigma_nu_sq)
# truncation_split is not called here, but bench/trace_driver.py wraps it
# under this module's name, so the name stays importable from cli.
from .martingale import (check_clt_reps, normal_approx_check,
                         truncation_report, truncation_split)  # noqa: F401
from .model import (NoiseSpec, ScaleSpec, check_alpha0, check_alpha123, check_n,
                    check_reps, check_seed, function_catalog, get_noise,
                    derive_seed, rng_from_seed)
from .risk import (DEFAULT_TABLE_LABELS, RiskConfig, family_bump,
                   family_candidates, sup_risks)


class ConfigError(Exception):
    """Invalid experiment configuration (maps to exit code 2)."""


DEFAULT_SEED = 42


@dataclass(frozen=True)
class ExperimentConfig:
    command: str
    n_list: tuple[int, ...] = (1000, 10000)
    beta: float = 2.0
    z0: float = 0.5
    delta_list: tuple[float, ...] = (0.1,)
    reps: int = 4000
    seed: int = DEFAULT_SEED
    alpha0: float = 1.0
    alpha1: float = 0.5
    alpha2: float = 0.5
    alpha3: float = 0.5
    noise_list: tuple[str, ...] = ("gaussian",)
    function_list: tuple[str, ...] = ("default",)
    nu_list: tuple[float, ...] = (0.2, 0.1, 0.05, 0.01)
    b_list: tuple[float, ...] = (4.0, 16.0, 100.0, 10000.0)
    seed_source: str = "config"


# Every key but ``command``: (item type, whether the value is a
# comma-separated list of nonempty items, range check).  The range check is
# the library's owner of the parameter's rule; it raises ValueError per item.
_KEYS = {
    "n_list": (int, True, check_n),
    "beta": (float, False, check_beta),
    "z0": (float, False, check_z0),
    "delta_list": (float, True, check_delta),
    "reps": (int, False, check_reps),
    "seed": (int, False, check_seed),
    "alpha0": (float, False, check_alpha0),
    **dict.fromkeys(("alpha1", "alpha2", "alpha3"), (float, False, check_alpha123)),
    "noise_list": (str, True, get_noise),
    "function_list": (str, True, None),
    "nu_list": (float, True, check_nu),
    "b_list": (float, True, check_b),
}

_EXPECTS = {int: "an integer", float: "a number"}


def parse_config(text: str) -> ExperimentConfig:
    """Parse and fully validate a line-oriented experiment file."""
    raw: dict[str, tuple[int, str]] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key != "command" and key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        raw[key] = (lineno, value)

    if "command" not in raw:
        raise ConfigError("missing required key 'command'")

    fields: dict = {}
    lineno, value = raw.pop("command")
    if value not in COMMANDS:
        raise ConfigError(
            f"line {lineno}: unknown command {value!r}; choose from {COMMANDS}")
    fields["command"] = value

    for key, (lineno, value) in raw.items():
        conv, is_list, check = _KEYS[key]
        items = [v.strip() for v in value.split(",")] if is_list else [value]
        parsed = []
        for item in items:
            if not item:
                raise ConfigError(f"line {lineno}: {key} has an empty item")
            try:
                parsed.append(conv(item))
            except ValueError:
                raise ConfigError(f"line {lineno}: {key} expects "
                                  f"{_EXPECTS[conv]}, got {item!r}")
            try:
                check and check(parsed[-1])
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: {exc}") from None
            if parsed[-1] in parsed[:-1]:
                raise ConfigError(f"line {lineno}: {key} repeats {parsed[-1]!r}")
        fields[key] = tuple(parsed) if is_list else parsed[0]

    if "seed" not in fields:
        fields["seed_source"] = "default"
    return ExperimentConfig(**fields)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".12g")


def _scale_from(config: ExperimentConfig) -> ScaleSpec:
    return ScaleSpec(config.alpha0, config.alpha1, config.alpha2,
                     config.alpha3)


def _curves(config: ExperimentConfig, delta: float, default: tuple,
            cfg: EstimatorConfig | None = None) -> list:
    """The one reading of ``function_list``: the curves it names, in its
    order, or those of the command's ``default`` labels when it is
    ``default``.  A label names a curve of ``function_catalog``, of
    ``family_candidates`` at ``delta`` or, only when ``cfg`` fixes n, the
    plateau bump ``bump``; any other label is a config error."""
    known = {**function_catalog(config.z0),
             **{S.label: S for S in family_candidates(config.z0, delta)}}
    if cfg is not None:
        known["bump"] = family_bump(cfg, delta)
    labels = (default if tuple(config.function_list) == ("default",)
              else config.function_list)
    for label in labels:
        if label not in known:
            raise ConfigError(
                f"unknown function label {label!r}; known: {sorted(known)}")
    return [known[label] for label in labels]


def _one_delta(config: ExperimentConfig) -> float:
    """The one class budget at which clt-check and convergence build their
    family curves: neither CSV has a delta column, so a second delta would
    be silently dropped (config error)."""
    if len(config.delta_list) != 1:
        raise ConfigError(f"{config.command} builds its curves at one delta; "
                          f"delta_list names {len(config.delta_list)}")
    return config.delta_list[0]


def _risk_table(config: ExperimentConfig) -> tuple[list[str], list[list], dict]:
    """Risk rows per (n, delta, function, noise), plus two manifest entries.

    Every member is certified on the bandwidth class at its (n, delta)
    (``WeakHolderParams(cfg, delta)``), so the window [z0 - h_n, z0 + h_n]
    of every n must lie in [0, 1] (config error otherwise).
    ``certification`` holds each member's margins: sup|S'| * delta and
    max_defect / delta, both at most 1 when certified.  ``counters`` holds
    the work done: (n, delta) cells, draw streams (``replicate`` calls),
    values drawn and certificates computed (one per member per cell)."""
    # Serial on purpose: its cells are small certification and decompose
    # steps that hold the interpreter lock, and a pool made them slower.
    # The curves are built per (n, delta), since the class and the bump
    # follow n; at each n, every delta's family is scored on one stream
    # per noise.
    scale = _scale_from(config)
    noises = [get_noise(l) for l in sorted(config.noise_list)]
    deltas = sorted(config.delta_list)
    rows: list[list] = []
    margins: list[dict] = []
    counters = dict.fromkeys(
        ("cells", "draw_streams", "values_drawn", "certificates"), 0)
    for n in sorted(config.n_list):
        cfg = EstimatorConfig(n=n, beta=config.beta, z0=config.z0)
        rcs = []
        for delta in deltas:
            family = _curves(config, delta, DEFAULT_TABLE_LABELS, cfg)
            try:  # RiskConfig certifies every member at (n, delta)
                rc = RiskConfig(cfg=cfg, delta=delta, reps=config.reps,
                                seed=config.seed, family=tuple(family),
                                scale=scale)
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
            rcs.append(rc)
            counters["certificates"] += len(rc.reports)
            for S, rep in sorted(zip(rc.family, rc.reports),
                                 key=lambda pair: pair[0].label):
                margins.append({"n": n, "delta": delta, "function": S.label,
                                "sup_deriv_times_delta": rep.sup_deriv * delta,
                                "max_defect_over_delta": rep.max_defect / delta})
        for rc, report in zip(rcs, sup_risks(rcs, noises)):
            for row in sorted(report.rows, key=lambda r: (r.function, r.noise)):
                rows.append([n, config.beta, config.z0, rc.delta, row.function,
                             row.noise, cfg.q_n, cfg.phi_n, row.risk_mc,
                             row.stderr, row.risk_oracle, row.phin_bn])
        counters["cells"] += len(rcs)
        counters["draw_streams"] += len(noises)
        counters["values_drawn"] += len(noises) * config.reps * cfg.q_n
    columns = ["n", "beta", "z0", "delta", "function", "noise", "qn", "phin",
               "risk_mc", "stderr", "risk_oracle", "bias_phin_Bn"]
    return columns, rows, {"certification": margins, "counters": counters}


def _lower_bound(config: ExperimentConfig) -> tuple[list[str], list[list], dict]:
    scale = _scale_from(config)
    g_z0 = pure_noise_scale(scale, config.z0)
    rows: list[list] = []
    for nu in sorted(config.nu_list, reverse=True):
        kernel = build_kernel(nu)
        sigma_sq = sigma_nu_sq(kernel, g_z0)
        for b in sorted(config.b_list):
            rows.append([nu, b, sigma_sq, bayes_bound(kernel, b, g_z0)])
    return ["nu", "b", "sigma_nu_sq", "bayes_bound"], rows, {}


#: Values in each of the two draws of ``_seconds_per_value``'s probe.
PROBE_VALUES = 4096


def _seconds_per_value(noise: NoiseSpec) -> float:
    """Seconds ``noise``'s sampler takes per value: of two draws of
    PROBE_VALUES values from a throwaway generator, the second, warm one is
    timed.  No cell's stream is touched."""
    rng, buf = rng_from_seed(0), np.empty(PROBE_VALUES)
    noise.sampler(rng, PROBE_VALUES, out=buf)
    start = time.perf_counter()
    noise.sampler(rng, PROBE_VALUES, out=buf)
    return (time.perf_counter() - start) / PROBE_VALUES


def _costliest_first(cells: list, rates: dict[str, float]) -> list[int]:
    """Positions of the clt-check ``cells`` (label, noise, cfg, seed) by
    decreasing expected draw time, reps * q_n * rates[label]; reps is the
    same for every cell, so q_n * rates[label] orders them.  Equal times
    keep position order."""
    return sorted(range(len(cells)),
                  key=lambda i: -cells[i][2].q_n * rates[cells[i][0]])


def _clt_check(config: ExperimentConfig) -> tuple[list[str], list[list], dict]:
    # Every check here runs before any draw, so a bad config is exit 2, not 3.
    try:
        check_clt_reps(config.reps)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    scale = _scale_from(config)
    delta = _one_delta(config)
    functions = _curves(config, delta, ("const_plus",))
    if len(functions) != 1:
        raise ConfigError(f"clt-check scores one curve; function_list names "
                          f"{len(functions)}")
    S = functions[0]
    noises = {label: get_noise(label) for label in sorted(config.noise_list)}
    # One window law per n: it is (S, scale, cfg)'s, not the noise's, so
    # that n's noise cells share it.  Its weights and sigma_n_sq are filled
    # here, before any worker is forked, so every worker inherits them.
    laws = {}
    for n in sorted(config.n_list):
        law = window_law(S, scale, EstimatorConfig(n=n, beta=config.beta,
                                                   z0=config.z0))
        law.weights, law.sigma_n_sq
        laws[n] = law
    # One cell per (noise, n) in sorted order; its seed is fixed by position.
    cells = []
    for label, noise in noises.items():
        for law in laws.values():
            cells.append((label, noise, law.cfg,
                          derive_seed(config.seed, len(cells))))

    def cell_row(label, noise, cfg, seed) -> list:
        law = laws[cfg.n]
        report = truncation_report(law, noise)
        # by keyword: bench/trace_driver.py reads reps at position 4 or by name
        ks = normal_approx_check(law, noise, reps=config.reps, seed=seed)
        return [label, cfg.n, report.a_n, report.k_p, report.r_n, ks]

    rates = {label: _seconds_per_value(noise) for label, noise in noises.items()}
    # Costliest cell first, by measured draw time, each into the bin with
    # the least expected time so far (longest processing time first): the
    # longest cell bounds the wall time, so it must not start last.
    workers = min(available_cpus(), len(cells)) if hasattr(os, "fork") else 1
    bins: list[list[int]] = [[] for _ in range(workers)]
    loads = [0.0] * workers
    for i in _costliest_first(cells, rates):
        b = loads.index(min(loads))
        bins[b].append(i)
        loads[b] += cells[i][2].q_n * rates[cells[i][0]]
    # imported here: the commands that never fork do not compile it
    from .workers import run_bins
    by_position = run_bins(bins, lambda i: cell_row(*cells[i]))
    rows = [by_position[i] for i in range(len(cells))]
    counters = {"cells": len(cells), "draw_streams": len(cells),
                "values_drawn": sum(config.reps * cfg.q_n
                                    for _, _, cfg, _ in cells)}
    return (["noise", "n", "a_n", "K_p", "r_n", "ks_distance"], rows,
            {"workers": workers, "counters": counters})


def _holder_check(config: ExperimentConfig) -> tuple[list[str], list[list], dict]:
    """Certificate rows per (n, delta, function) on the bandwidth class at
    (n, delta) (``WeakHolderParams(cfg, delta)``), so the window
    [z0 - h_n, z0 + h_n] of every n must lie in [0, 1] (config error
    otherwise).  The curves are built per (n, delta), as in
    ``_risk_table``; the default ones are the 11 family candidates and the
    bump."""
    deltas = sorted(config.delta_list)
    default = (*(S.label for S in family_candidates(config.z0, deltas[0])),
               "bump")
    rows: list[list] = []
    for n in sorted(config.n_list):
        cfg = EstimatorConfig(n=n, beta=config.beta, z0=config.z0)
        for delta in deltas:
            try:
                params = WeakHolderParams(cfg, delta)
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
            functions = _curves(config, delta, default, cfg)
            for S in sorted(functions, key=lambda s: s.label):
                rep = check_weak_holder(S, params)
                rows.append([n, S.label, config.z0, config.beta, delta,
                             rep.sup_deriv, rep.max_defect, rep.certified])
    return ["n", "function", "z0", "beta", "delta", "sup_deriv", "max_defect",
            "certified"], rows, {}


def _convergence(config: ExperimentConfig) -> tuple[list[str], list[list], dict]:
    scale = _scale_from(config)
    functions = _curves(config, _one_delta(config), ("sine",))
    rows: list[list] = []
    for S in sorted(functions, key=lambda s: s.label):
        for row in sigma_n_limit_check(S, scale, config.z0, config.beta,
                                       sorted(config.n_list)):
            rows.append([row.n, config.beta, config.z0, S.label,
                         row.sigma_n_sq, row.g_sq_z0, row.abs_gap])
    return ["n", "beta", "z0", "function", "sigma_n_sq", "g_sq_z0",
            "abs_gap"], rows, {}


# Each command takes the config and returns its CSV columns and rows plus
# extra manifest entries.  Only clt-check runs several workers (see the
# module docstring); its entries carry the workers it used.
_DISPATCH = {
    "risk-table": _risk_table,
    "lower-bound": _lower_bound,
    "clt-check": _clt_check,
    "holder-check": _holder_check,
    "convergence": _convergence,
}

COMMANDS = tuple(_DISPATCH)


def _write_csv(path: Path, columns: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def available_cpus() -> int:
    """The CPUs this process may run on: clt-check's worker budget."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def run(config: ExperimentConfig, out_dir: str, quiet: bool = False) -> int:
    """Execute one experiment; writes <stem>.csv plus manifest.json into
    ``out_dir``, where <stem> is the command with '-' replaced by '_'
    (e.g. clt_check.csv).

    Any failure removes files written so far, so output directories never
    hold partial tables.
    """
    start = time.perf_counter()
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}")

    written: list[Path] = []
    try:
        # The manifest entries never reach the CSV.
        columns, rows, notes = _DISPATCH[config.command](config)
        stem = config.command.replace("-", "_")
        csv_path = out / f"{stem}.csv"
        written.append(csv_path)
        _write_csv(csv_path, columns, rows)

        manifest = {
            "command": config.command,
            "config": {k: (list(v) if isinstance(v, tuple) else v)
                       for k, v in dataclasses.asdict(config).items()},
            "seed": config.seed,
            "seed_source": config.seed_source,
            "workers": 1,  # clt-check's notes give its workers
            "version": __version__,
            "wall_clock_s": round(time.perf_counter() - start, 3),
            "outputs": [csv_path.name],
            **notes,
        }
        man_path = out / "manifest.json"
        written.append(man_path)
        with open(man_path, "w", newline="\n") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except Exception:
        for p in written:
            p.unlink(missing_ok=True)
        raise

    if not quiet:
        print(f"wrote {csv_path}")
        print(f"wrote {man_path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="minimaxkern",
        description="Batch experiments for the pointwise kernel estimator "
                    "under heteroscedastic noise.")
    parser.add_argument("--config", required=True, help="experiment file")
    parser.add_argument("--out", default="results", help="output directory")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        return run(parse_config(text), out_dir=args.out, quiet=args.quiet)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
