"""Traced run of one minimaxkern CLI command.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``):

    python3 bench/trace_driver.py --config X.cfg --out DIR --trace-out T.json

The driver wraps the public functions of every package module at the
names through which other modules call them (``risk.kernel_estimate``,
``cli.check_weak_holder``, ``PlateauKernel.values``, the sampler of every
noise handed out by ``cli.get_noise``, ...), then calls
``minimaxkern.cli.main`` exactly as ``python -m minimaxkern.cli`` would.
Each wrapped call records a span (name, layer, start, end, parent) in
memory; at exit the spans are reduced to per-name and per-layer calls,
busy seconds and self seconds and written to ``--trace-out`` together
with the work counters.  No file of the package is changed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("cli", "model", "numerics", "estimator", "holder", "risk",
          "lowerbound", "martingale")


class Tracer:
    """In-memory span recorder for a single-threaded call tree."""

    def __init__(self) -> None:
        # Each span is [name, layer, start, end, parent index or -1].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.qn_context: int | None = None

    def wrap(self, name: str, layer: str, fn, on_call=None):
        """Return ``fn`` wrapped so that each call records one span.

        ``on_call(args, kwargs, result)`` runs after the call, outside the
        span, to update work counters.
        """
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, layer, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx][2] = start
                spans[idx][3] = end
            if on_call is not None:
                on_call(args, kwargs, result)
            return result

        return traced


def summarize(spans: list[list]) -> tuple[dict, dict]:
    """Reduce spans to per-name and per-layer {calls, s, self_s}.

    ``self_s`` of a span is its duration minus the durations of its direct
    children.  ``s`` (busy time) sums only the spans that have no ancestor
    of the same name (per name) or of the same layer (per layer), so
    recursion and intra-layer nesting are not counted twice.
    """
    child_time = [0.0] * len(spans)
    for name, layer, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start

    def has_ancestor(idx: int, pos: int, value: str) -> bool:
        parent = spans[idx][4]
        while parent >= 0:
            if spans[parent][pos] == value:
                return True
            parent = spans[parent][4]
        return False

    by_name: dict[str, dict] = {}
    by_layer: dict[str, dict] = {}
    for idx, (name, layer, start, end, _) in enumerate(spans):
        dur = end - start
        for table, key, pos in ((by_name, name, 0), (by_layer, layer, 1)):
            entry = table.setdefault(key, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += dur - child_time[idx]
            if not has_ancestor(idx, pos, key):
                entry["s"] += dur
    return by_name, by_layer


def _arg(args, kwargs, pos: int, key: str):
    return kwargs[key] if key in kwargs else args[pos]


def install(tracer: Tracer) -> None:
    """Wrap the package's public functions where they are imported."""
    from minimaxkern import (cli, estimator, holder, lowerbound, martingale,
                             model, risk)
    from minimaxkern.lowerbound import PlateauKernel

    w = tracer.wrap
    count = tracer.counters

    # Family members built for a given n; certification keys on (label, n,
    # delta).  The list keeps the members alive so their ids stay unique.
    member_n: dict[int, int | None] = {}
    members: list = []
    certified_keys: set = set()

    def on_family(args, kwargs, result):
        n = kwargs.get("n", args[3] if len(args) > 3 else None)
        for S in result:
            member_n[id(S)] = n
            members.append(S)

    def on_certify(args, kwargs, result):
        S, params = args[0], _arg(args, kwargs, 1, "p")
        certified_keys.add((S.label, member_n.get(id(S)), params.delta))
        count["holder.certify_distinct"] = len(certified_keys)

    def on_window_sum(args, kwargs, result):
        count["numerics.window_sum_values"] += len(args[0])

    def on_normal_check(args, kwargs, result):
        count["martingale.reps"] += _arg(args, kwargs, 4, "reps")

    def on_mc(args, kwargs, result):
        count["risk.reps"] += _arg(args, kwargs, 1, "rc").reps

    real_mc = risk.monte_carlo_risk

    def mc_with_window(S, rc):
        tracer.qn_context = rc.cfg.q_n
        try:
            return real_mc(S, rc)
        finally:
            tracer.qn_context = None

    def traced_sampler(sampler):
        def on_draw(args, kwargs, result):
            size = int(_arg(args, kwargs, 1, "size"))
            qn = tracer.qn_context
            count["model.values_drawn"] += size
            count["model.window_values_used"] += size if qn is None else min(size, qn)
        return w("model.sampler", "model", sampler, on_draw)

    real_get_noise = cli.get_noise

    def get_noise(label):
        noise = real_get_noise(label)
        return dataclasses.replace(noise, sampler=traced_sampler(noise.sampler))

    # model
    for mod in (risk, martingale, cli):
        mod.derive_seed = w("model.derive_seed", "model", model.derive_seed)
    for mod in (risk, martingale):
        mod.rng_from_seed = w("model.rng_from_seed", "model", model.rng_from_seed)
    cli.get_noise = get_noise

    # numerics
    estimator.window_sum = w("numerics.window_sum", "numerics",
                             estimator.window_sum, on_window_sum)
    for mod in (model, estimator, holder, lowerbound):
        mod.composite_simpson = w("numerics.composite_simpson", "numerics",
                                  mod.composite_simpson)
    martingale.ks_statistic = w("numerics.ks_statistic", "numerics",
                                martingale.ks_statistic)

    # estimator
    risk.kernel_estimate = w("estimator.kernel_estimate", "estimator",
                             risk.kernel_estimate)
    risk.decompose = w("estimator.decompose", "estimator", risk.decompose)
    cli.sigma_n_limit_check = w("estimator.sigma_n_limit_check", "estimator",
                                cli.sigma_n_limit_check)

    # holder
    for mod in (cli, risk):
        mod.check_weak_holder = w("holder.check_weak_holder", "holder",
                                  holder.check_weak_holder, on_certify)

    # risk
    risk.monte_carlo_risk = w("risk.monte_carlo_risk", "risk", mc_with_window, on_mc)
    risk.exact_gaussian_risk = w("risk.exact_gaussian_risk", "risk",
                                 risk.exact_gaussian_risk)
    cli.sup_risk = w("risk.sup_risk", "risk", risk.sup_risk)
    cli.default_family = w("risk.default_family", "risk", risk.default_family)
    family = w("risk.family_candidates", "risk", risk.family_candidates, on_family)
    risk.family_candidates = family
    cli.family_candidates = family

    # lowerbound
    build = w("lowerbound.build_kernel", "lowerbound", lowerbound.build_kernel)
    for mod in (cli, risk, lowerbound):
        mod.build_kernel = build
    cli.bayes_bound = w("lowerbound.bayes_bound", "lowerbound", cli.bayes_bound)
    PlateauKernel.values = w("lowerbound.PlateauKernel.values", "lowerbound",
                             PlateauKernel.values)

    # martingale
    cli.normal_approx_check = w("martingale.normal_approx_check", "martingale",
                                cli.normal_approx_check, on_normal_check)
    cli.truncation_split = w("martingale.truncation_split", "martingale",
                             cli.truncation_split)

    # cli
    cli.parse_config = w("cli.parse_config", "cli", cli.parse_config)
    cli._write_csv = w("cli.write_csv", "cli", cli._write_csv)
    cli.run = w("cli.run", "cli", cli.run)
    for command, fn in list(cli._DISPATCH.items()):
        cli._DISPATCH[command] = w("cli.dispatch", "cli", fn)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace-out", required=True)
    args = parser.parse_args(argv)

    import_start = time.perf_counter()
    from minimaxkern import cli
    import_s = time.perf_counter() - import_start

    tracer = Tracer()
    install(tracer)
    code = cli.main(["--config", args.config, "--out", args.out, "--quiet"])

    by_name, by_layer = summarize(tracer.spans)
    record = {
        "import_s": import_s,
        "by_name": by_name,
        "by_layer": by_layer,
        "counters": dict(tracer.counters),
    }
    Path(args.trace_out).write_text(json.dumps(record, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main())
