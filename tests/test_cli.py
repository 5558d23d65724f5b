import dataclasses
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import minimaxkern

from minimaxkern import cli, estimator, model
from minimaxkern.cli import ConfigError, main, parse_config, run
from minimaxkern.estimator import EstimatorConfig, check_beta, check_z0
from minimaxkern.holder import WeakHolderParams, check_delta, check_weak_holder
from minimaxkern.lowerbound import build_kernel, check_b, check_nu
from minimaxkern.model import (ScaleSpec, check_alpha0, check_alpha123, check_n,
                               check_seed, function_catalog, get_noise)
from minimaxkern import risk as risk_module
from minimaxkern.risk import (DEFAULT_TABLE_LABELS, FAMILY_BUMP_NU, RiskConfig,
                              default_family, family_candidates,
                              monte_carlo_risk, sup_risk)


class TestParseConfig:
    def test_minimal(self):
        cfg = parse_config("command = risk-table\n")
        assert cfg.command == "risk-table"
        assert cfg.seed == 42
        assert cfg.seed_source == "default"
        assert cfg.beta == 2.0

    def test_full_roundtrip(self):
        text = """
        # experiment
        command = clt-check
        n_list = 1000, 5000
        beta = 1.8
        z0 = 0.4            # estimation point
        delta_list = 0.2, 0.1
        reps = 250
        seed = 7
        alpha0 = 2.0
        alpha1 = 0.25
        noise_list = gaussian, rademacher
        """
        cfg = parse_config(text)
        assert cfg.n_list == (1000, 5000)
        assert cfg.beta == 1.8
        assert cfg.z0 == 0.4
        assert cfg.delta_list == (0.2, 0.1)
        assert cfg.seed == 7
        assert cfg.seed_source == "config"
        assert cfg.alpha0 == 2.0
        assert cfg.noise_list == ("gaussian", "rademacher")

    def test_missing_command(self):
        with pytest.raises(ConfigError, match="command"):
            parse_config("beta = 2.0\n")

    def test_unknown_key_cites_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("command = risk-table\nfrobnicate = 1\n")

    def test_out_is_not_a_key(self):
        # --out is the one output setting
        with pytest.raises(ConfigError) as err:
            parse_config("command = risk-table\nout = x\n")
        assert str(err.value) == "line 2: unknown key 'out'"

    @pytest.mark.parametrize("key, text", [
        ("n_list", "1000,,2000"),
        ("delta_list", "0.1,"),
        ("noise_list", "gaussian, ,laplace_std"),
        ("nu_list", ",0.1"),
    ])
    def test_empty_list_item(self, key, text):
        with pytest.raises(ConfigError) as err:
            parse_config(f"command = risk-table\nbeta = 2.0\n{key} = {text}\n")
        assert str(err.value) == f"line 3: {key} has an empty item"

    def test_every_config_field_has_a_key(self):
        # a field that no config can set fails here
        fields = {f.name for f in dataclasses.fields(cli.ExperimentConfig)}
        assert fields == set(cli._KEYS) | {"command", "seed_source"}

    def test_beta_out_of_range(self):
        with pytest.raises(ConfigError, match=r"beta must lie in \(1, 2\]"):
            parse_config("command = risk-table\nbeta = 3.0\n")

    def test_unknown_command(self):
        with pytest.raises(ConfigError, match="unknown command"):
            parse_config("command = make-coffee\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("command = risk-table\nbeta = 2.0\nbeta = 1.5\n")

    def test_unknown_noise(self):
        with pytest.raises(ConfigError, match="cauchy"):
            parse_config("command = risk-table\nnoise_list = cauchy\n")

    def test_bad_nu(self):
        with pytest.raises(ConfigError, match="nu"):
            parse_config("command = lower-bound\nnu_list = 0.3\n")

    def test_bad_b(self):
        with pytest.raises(ConfigError, match="b must exceed 1"):
            parse_config("command = lower-bound\nb_list = 0.5\n")

    def test_bad_integer(self):
        with pytest.raises(ConfigError, match="integer"):
            parse_config("command = risk-table\nreps = many\n")


    @pytest.mark.parametrize("key, text, value", [
        ("n_list", "400, 400", "400"),
        ("delta_list", "0.1, 0.10", "0.1"),
        ("noise_list", "gaussian, rademacher, gaussian", "'gaussian'"),
        ("function_list", "zero, zero", "'zero'"),
        ("nu_list", "0.1, 0.2, 1e-1", "0.1"),
        ("b_list", "4, 4.0", "4.0"),
    ])
    def test_repeated_list_entry(self, key, text, value):
        with pytest.raises(ConfigError) as err:
            parse_config(f"command = risk-table\n{key} = {text}\n")
        assert str(err.value) == f"line 2: {key} repeats {value}"


# Every ranged key: its owner (the library's one definition of the rule),
# a command that reads the key, and finite values with the decision the
# documented domain gives.  NaN, +inf and -inf are rejected for every key.
_RANGES = {
    "n_list": (check_n, "clt-check",
               [(1, True), (0, False), (-5, False), (400, True)]),
    "beta": (check_beta, "risk-table",
             [(1.0, False), (2.0, True), (2.5, False), (1.5, True)]),
    "z0": (check_z0, "risk-table",
           [(0.0, False), (1.0, False), (-0.5, False), (0.5, True)]),
    "delta_list": (check_delta, "risk-table",
                   [(0.0, False), (1.0, False), (1.5, False), (0.1, True)]),
    "alpha0": (check_alpha0, "risk-table",
               [(0.0, False), (-1.0, False), (1.0, True)]),
    **{key: (check_alpha123, "risk-table",
             [(0.0, True), (-0.1, False), (0.5, True)])
       for key in ("alpha1", "alpha2", "alpha3")},
    "nu_list": (check_nu, "lower-bound",
                [(0.0, False), (0.25, False), (0.3, False), (0.1, True)]),
    "b_list": (check_b, "lower-bound",
               [(1.0, False), (0.5, False), (4.0, True)]),
    "seed": (check_seed, "risk-table",
             [(0, True), (-1, False), (2 ** 64 - 1, True), (2 ** 64, False),
              (2 ** 65 - 1, False)]),
}


def _range_cases():
    for key, (owner, command, finite) in _RANGES.items():
        for value, accepted in [(math.nan, False), (math.inf, False),
                                (-math.inf, False), *finite]:
            yield pytest.param(key, owner, command, value, accepted,
                               id=f"{key}={value!r}")


@pytest.mark.parametrize("key, owner, command, value, accepted", _range_cases())
def test_range_owner_decides_library_and_config(key, owner, command, value,
                                                accepted):
    assert cli._KEYS[key][2] is owner
    conv, is_list, _ = cli._KEYS[key]
    text = f"command = {command}\n{key} = {value!r}\n"
    if accepted:
        owner(value)
        parsed = getattr(parse_config(text), key)
        assert parsed == ((value,) if is_list else value)
        return
    with pytest.raises(ValueError) as lib:
        owner(value)
    with pytest.raises(ConfigError) as config:
        parse_config(text)
    if conv is int and isinstance(value, float):  # never an integer
        assert str(config.value) == (
            f"line 2: {key} expects an integer, got {repr(value)!r}")
    else:
        assert str(config.value) == f"line 2: {lib.value}"


RISK_CFG = """
command = risk-table
n_list = 400, 800
delta_list = 0.1
reps = 60
seed = 7
noise_list = gaussian, rademacher
"""


# One row per block, and budgets whose blocks leave a short last block.
BLOCK_BUDGETS = (8, 23_000)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("risk")
    assert run(parse_config(RISK_CFG), out_dir=str(out), quiet=True) == 0
    return out


class TestRunRiskTable:
    def test_files_written(self, outputs):
        assert (outputs / "risk_table.csv").exists()
        assert (outputs / "manifest.json").exists()

    def test_header_and_shape(self, outputs):
        lines = (outputs / "risk_table.csv").read_text().splitlines()
        assert lines[0] == ("n,beta,z0,delta,function,noise,qn,phin,"
                            "risk_mc,stderr,risk_oracle,bias_phin_Bn")
        # 2 n-values x 5 default members x 2 noises
        assert len(lines) == 1 + 2 * 5 * 2

    def test_rows_sorted_and_oracle_column(self, outputs):
        lines = (outputs / "risk_table.csv").read_text().splitlines()[1:]
        keys = []
        for line in lines:
            parts = line.split(",")
            keys.append((int(parts[0]), float(parts[3]), parts[4], parts[5]))
            if parts[5] == "rademacher":
                assert parts[10] == ""
            else:
                float(parts[10])
        assert keys == sorted(keys)

    def test_values_match_module(self, outputs):
        # one gaussian cell recomputed through the library API
        lines = (outputs / "risk_table.csv").read_text().splitlines()[1:]
        row = next(l.split(",") for l in lines
                   if l.startswith("400,") and ",const_plus,gaussian," in l)
        cfg = EstimatorConfig(n=400, beta=2.0, z0=0.5)
        fam = default_family(cfg, 0.1)
        S = next(f for f in fam if f.label == "const_plus")
        rc = RiskConfig(cfg=cfg, delta=0.1, reps=60, seed=7, family=(S,),
                        scale=ScaleSpec(1.0, 0.5, 0.5, 0.5))
        mc, se = monte_carlo_risk(S, rc, get_noise("gaussian"))
        assert float(row[8]) == pytest.approx(mc, rel=1e-12)
        assert float(row[9]) == pytest.approx(se, rel=1e-12)

    def test_manifest_contents(self, outputs):
        manifest = json.loads((outputs / "manifest.json").read_text())
        assert manifest["command"] == "risk-table"
        assert manifest["seed"] == 7
        assert manifest["seed_source"] == "config"
        assert manifest["config"]["alpha3"] == 0.5
        assert "out" not in manifest["config"]  # the directory is --out's
        assert manifest["outputs"] == ["risk_table.csv"]

    def test_manifest_certification_margins(self, outputs):
        """One entry per (n, delta, member), from the member's certificate
        on the bandwidth class at (n, delta)."""
        entries = json.loads((outputs / "manifest.json").read_text())["certification"]
        assert [(e["n"], e["delta"], e["function"]) for e in entries] == [
            (n, 0.1, label) for n in (400, 800)
            for label in sorted(DEFAULT_TABLE_LABELS)]
        assert {tuple(sorted(e)) for e in entries} == {(
            "delta", "function", "max_defect_over_delta", "n",
            "sup_deriv_times_delta")}
        for n in (400, 800):
            cfg = EstimatorConfig(n=n, beta=2.0, z0=0.5)
            params = WeakHolderParams(cfg, 0.1)
            family = {S.label: S for S in default_family(cfg, 0.1)}
            for e in (e for e in entries if e["n"] == n):
                rep = check_weak_holder(family[e["function"]], params)
                assert e["sup_deriv_times_delta"] == rep.sup_deriv * 0.1
                assert e["max_defect_over_delta"] == rep.max_defect / 0.1
                assert e["sup_deriv_times_delta"] <= 1.0
                assert e["max_defect_over_delta"] <= 1.0

    def test_byte_identical_rerun(self, outputs, tmp_path):
        assert run(parse_config(RISK_CFG), out_dir=str(tmp_path),
                   quiet=True) == 0
        assert ((tmp_path / "risk_table.csv").read_bytes()
                == (outputs / "risk_table.csv").read_bytes())

    @pytest.mark.parametrize("budget", BLOCK_BUDGETS)
    def test_block_budget_never_changes_csv(self, outputs, tmp_path,
                                            monkeypatch, budget):
        monkeypatch.setattr(model, "REPLICATION_BLOCK_BYTES", budget)
        assert run(parse_config(RISK_CFG), out_dir=str(tmp_path),
                   quiet=True) == 0
        assert ((tmp_path / "risk_table.csv").read_bytes()
                == (outputs / "risk_table.csv").read_bytes())

    def test_version_matches_pyproject(self, outputs):
        # same-seed Monte Carlo columns change with the replication streams,
        # so the manifest's version is what tells old results from new
        tomllib = pytest.importorskip("tomllib")
        root = Path(minimaxkern.__file__).resolve().parents[2]
        with open(root / "pyproject.toml", "rb") as fh:
            version = tomllib.load(fh)["project"]["version"]
        assert version == minimaxkern.__version__
        manifest = json.loads((outputs / "manifest.json").read_text())
        assert manifest["version"] == version


CLT_CFG = """
command = clt-check
n_list = 1000, 2000
reps = 200
seed = 7
noise_list = gaussian, laplace_std
"""


def _cap_cpus(monkeypatch, cpus: int) -> None:
    """Make clt-check see ``cpus`` usable CPUs, as a CPU affinity would."""
    monkeypatch.setattr(cli, "available_cpus", lambda: cpus)


@pytest.fixture(scope="module")
def clt_outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("clt")
    with pytest.MonkeyPatch.context() as monkeypatch:
        _cap_cpus(monkeypatch, 1)
        assert run(parse_config(CLT_CFG), out_dir=str(out), quiet=True) == 0
    return out


def _main_in_thread(tmp_path, out) -> int:
    """Exit code of ``main`` on CLT_CFG with outputs in ``out``, run on a
    thread named ``main-call`` that must end within 60 s."""
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(CLT_CFG)
    codes = []
    caller = threading.Thread(target=lambda: codes.append(main(
        ["--config", str(cfg_file), "--out", str(out), "--quiet"])),
        name="main-call", daemon=True)
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive()
    assert len(codes) == 1
    return codes[0]


class TestCltCheckReproducibility:
    # The reference run has one worker.  CLT_CFG has 4 cells, so no test
    # here runs more than 4 workers, whatever the CPUs available.
    def test_byte_identical_rerun(self, clt_outputs, tmp_path):
        assert run(parse_config(CLT_CFG), out_dir=str(tmp_path),
                   quiet=True) == 0
        assert ((tmp_path / "clt_check.csv").read_bytes()
                == (clt_outputs / "clt_check.csv").read_bytes())

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_thread_count_never_changes_csv(self, clt_outputs, tmp_path,
                                            monkeypatch, cpus):
        _cap_cpus(monkeypatch, cpus)
        assert run(parse_config(CLT_CFG), out_dir=str(tmp_path),
                   quiet=True) == 0
        assert ((tmp_path / "clt_check.csv").read_bytes()
                == (clt_outputs / "clt_check.csv").read_bytes())

    def test_four_workers_with_fast_switching_never_change_csv(
            self, clt_outputs, tmp_path, monkeypatch):
        # four workers, more than a 2-CPU machine has cores, and a thread
        # switch every microsecond: a cell missing from the bins would
        # break the table, and a row put at a wrong position would change it
        _cap_cpus(monkeypatch, 4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert run(parse_config(CLT_CFG), out_dir=str(tmp_path),
                       quiet=True) == 0
        finally:
            sys.setswitchinterval(interval)
        assert ((tmp_path / "clt_check.csv").read_bytes()
                == (clt_outputs / "clt_check.csv").read_bytes())

    @pytest.mark.parametrize("budget", BLOCK_BUDGETS)
    def test_block_budget_never_changes_csv(self, clt_outputs, tmp_path,
                                            monkeypatch, budget):
        monkeypatch.setattr(model, "REPLICATION_BLOCK_BYTES", budget)
        _cap_cpus(monkeypatch, 2)
        assert run(parse_config(CLT_CFG), out_dir=str(tmp_path),
                   quiet=True) == 0
        assert ((tmp_path / "clt_check.csv").read_bytes()
                == (clt_outputs / "clt_check.csv").read_bytes())

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_one_window_law_per_n(self, tmp_path, monkeypatch, cpus):
        # g is evaluated over each n's window once: that n's noise cells,
        # and in each the truncation report and the normal check, share
        # one law
        calls = []
        real = estimator.scale_profile

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(estimator, "scale_profile", counting)
        _cap_cpus(monkeypatch, cpus)
        assert run(parse_config(CLT_CFG), out_dir=str(tmp_path),
                   quiet=True) == 0
        assert len(calls) == 2  # CLT_CFG's n_list

    @pytest.mark.parametrize("cpus, cells, used", [
        (1, 4, 1), (2, 4, 2), (3, 4, 3), (4, 4, 4), (3, 2, 2)])
    def test_manifest_records_workers_used(self, tmp_path, monkeypatch, cpus,
                                           cells, used):
        _cap_cpus(monkeypatch, cpus)
        text = CLT_CFG if cells == 4 else CLT_CFG.replace(", 2000", "")
        assert run(parse_config(text), out_dir=str(tmp_path), quiet=True) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["workers"] == used

    def test_costliest_first_orders_by_expected_draw_time(self):
        # cells are (label, noise, cfg, seed); reps is common to all of them
        cells = [(label, get_noise(label), EstimatorConfig(n=n, beta=2.0, z0=0.5),
                  0) for label in ("gaussian", "student5_std")
                 for n in (1000, 2000)]
        q1, q2 = (cells[i][2].q_n for i in (0, 1))
        assert q2 > 1.5 * q1  # the orders below rest on it
        order = cli._costliest_first
        # by q_n * rate, descending: a dearer law can overtake a larger window
        assert order(cells, {"gaussian": 1.0, "student5_std": 1.0}) == [1, 3, 0, 2]
        assert order(cells, {"gaussian": 1.0, "student5_std": 1.5}) == [3, 1, 2, 0]
        assert order(cells, {"gaussian": 1.0, "student5_std": 2.0}) == [3, 2, 1, 0]
        assert order(cells, {"gaussian": 3.0, "student5_std": 1.0}) == [1, 0, 3, 2]
        # equal expected times keep cell position: cells 0 and 3 tie here
        assert order(cells, {"gaussian": float(q2), "student5_std": float(q1)}
                     ) == [1, 0, 3, 2]
        tied = [cells[0], cells[2], cells[0], cells[2]]
        assert order(tied, {"gaussian": 1.0, "student5_std": 1.0}) == [0, 1, 2, 3]
        assert order(cells, dict.fromkeys(("gaussian", "student5_std"), 0.0)
                     ) == [0, 1, 2, 3]

    # one CPU runs the same path, probe included, and forks nothing
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_pool_probes_each_law_once(self, tmp_path, monkeypatch, cpus):
        calls = []
        monkeypatch.setattr(cli, "_seconds_per_value",
                            lambda noise: calls.append(noise.label) or 1.0)
        _cap_cpus(monkeypatch, cpus)
        assert run(parse_config(CLT_CFG), out_dir=str(tmp_path), quiet=True) == 0
        assert calls == ["gaussian", "laplace_std"]

    def test_probe_draws_twice_from_one_generator(self):
        # a warm-up draw, then the timed one, both of PROBE_VALUES values
        noise, draws = get_noise("student5_std"), []

        def sampler(rng, size, out=None):
            draws.append((rng, size))
            return noise.sampler(rng, size, out=out)

        assert cli._seconds_per_value(
            dataclasses.replace(noise, sampler=sampler)) > 0.0
        assert [size for _, size in draws] == [cli.PROBE_VALUES] * 2
        assert draws[0][0] is draws[1][0]

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("rates, order", [
        ({"gaussian": 1.0, "laplace_std": 2.0}, [3, 2, 1, 0]),  # reversed
        ({"gaussian": 1.0, "laplace_std": 1.5}, [3, 1, 2, 0]),  # shuffled
    ], ids=["reversed", "shuffled"])
    def test_submission_order_never_changes_csv(self, clt_outputs, tmp_path,
                                                monkeypatch, cpus, rates,
                                                order):
        monkeypatch.setattr(cli, "_seconds_per_value",
                            lambda noise: rates[noise.label])
        orders, real = [], cli._costliest_first

        def recorded(*args):
            orders.append(real(*args))
            return orders[-1]

        monkeypatch.setattr(cli, "_costliest_first", recorded)
        _cap_cpus(monkeypatch, cpus)
        assert run(parse_config(CLT_CFG), out_dir=str(tmp_path),
                   quiet=True) == 0
        assert orders == [order]
        assert ((tmp_path / "clt_check.csv").read_bytes()
                == (clt_outputs / "clt_check.csv").read_bytes())

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_manifest_counts_cells_streams_and_values(self, tmp_path,
                                                      monkeypatch, cpus):
        # the probe's draws are not counted
        _cap_cpus(monkeypatch, cpus)
        assert run(parse_config(CLT_CFG), out_dir=str(tmp_path), quiet=True) == 0
        counters = json.loads((tmp_path / "manifest.json").read_text())["counters"]
        qn = sum(EstimatorConfig(n=n, beta=2.0, z0=0.5).q_n for n in (1000, 2000))
        assert counters == {"cells": 4, "draw_streams": 4,
                            "values_drawn": 2 * 200 * qn}

    @pytest.mark.parametrize("text", [
        "command = lower-bound\nnu_list = 0.1\nb_list = 4\n",
        "command = risk-table\nn_list = 400\ndelta_list = 0.1\nreps = 10\n"
        "noise_list = gaussian\nfunction_list = zero\n",
        "command = holder-check\nn_list = 400\ndelta_list = 0.1\n"
        "function_list = zero\n",
        "command = convergence\nn_list = 400\nfunction_list = zero\n",
    ], ids=lambda text: text.split("\n")[0].split(" = ")[1])
    def test_serial_commands_record_one_worker(self, tmp_path, monkeypatch,
                                               text):
        # only clt-check runs a pool; the others use one worker whatever
        # the CPUs available
        _cap_cpus(monkeypatch, 2)
        assert run(parse_config(text), out_dir=str(tmp_path), quiet=True) == 0
        assert json.loads((tmp_path / "manifest.json").read_text())["workers"] == 1

    def test_failing_cell_exits_three_without_outputs(self, tmp_path,
                                                      monkeypatch):
        real = cli.normal_approx_check

        def failing(*args, **kwargs):
            law, noise = args
            if noise.label == "laplace_std" and law.cfg.n == 1000:
                raise ValueError("injected cell failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "normal_approx_check", failing)
        _cap_cpus(monkeypatch, 2)
        out = tmp_path / "out"
        assert _main_in_thread(tmp_path, out) == 3
        assert not list(out.glob("*"))

    def test_failing_first_cell_starts_no_other_on_one_cpu(self, tmp_path,
                                                           monkeypatch):
        orders, real_order = [], cli._costliest_first

        def recorded(*args):
            orders.append(real_order(*args))
            return orders[-1]

        calls = []

        def failing(law, noise, **kwargs):
            calls.append((noise.label, law.cfg.n))
            raise ValueError("injected cell failure")

        monkeypatch.setattr(cli, "_costliest_first", recorded)
        monkeypatch.setattr(cli, "normal_approx_check", failing)
        _cap_cpus(monkeypatch, 1)
        out = tmp_path / "out"
        assert _main_in_thread(tmp_path, out) == 3
        # CLT_CFG's cells, in position order: (noise, n) both sorted
        cells = [(label, n) for label in ("gaussian", "laplace_std")
                 for n in (1000, 2000)]
        assert calls == [cells[orders[0][0]]]
        assert not list(out.glob("*"))

    @pytest.mark.parametrize("in_parent", [True, False],
                             ids=["parent", "child"])
    def test_failing_cell_in_either_bin_exits_three(self, tmp_path,
                                                    monkeypatch, capsys,
                                                    in_parent):
        # Two workers: bin 0 runs in this process and bin 1 in a forked
        # child, which inherits the patched check.  The chosen bin's first
        # cell fails with a message naming where it ran.
        real, parent = cli.normal_approx_check, os.getpid()

        def failing(*args, **kwargs):
            if (os.getpid() == parent) == in_parent:
                where = "parent" if in_parent else "child"
                raise ValueError(f"injected cell failure in the {where}")
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "normal_approx_check", failing)
        _cap_cpus(monkeypatch, 2)
        out = tmp_path / "out"
        assert _main_in_thread(tmp_path, out) == 3
        where = "parent" if in_parent else "child"
        assert (f"error: injected cell failure in the {where}\n"
                in capsys.readouterr().err)
        assert not list(out.glob("*"))
        with pytest.raises(ChildProcessError):  # every child was reaped
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("outcome", [None, ValueError, KeyboardInterrupt],
                             ids=["success", "failure", "interrupt"])
    def test_every_child_is_reaped(self, tmp_path, monkeypatch, outcome):
        # three workers; a failure or an interrupt in the calling process's
        # bin kills the two children, and every path reaps them
        with pytest.raises(ChildProcessError):  # no child before the run
            os.waitpid(-1, os.WNOHANG)
        real, parent = cli.normal_approx_check, os.getpid()

        def cell(*args, **kwargs):
            if outcome is not None and os.getpid() == parent:
                raise outcome("injected in the calling process's bin")
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "normal_approx_check", cell)
        _cap_cpus(monkeypatch, 3)
        config = parse_config(CLT_CFG)
        if outcome is None:
            assert run(config, out_dir=str(tmp_path), quiet=True) == 0
        else:
            with pytest.raises(outcome, match="injected"):
                run(config, out_dir=str(tmp_path), quiet=True)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("threads", ["2", "0", "-1"])
    def test_threads_option_is_usage_error(self, tmp_path, capsys, threads):
        # the worker count has one source, the CPUs available; no value of
        # the old option, valid or not, is read
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(CLT_CFG)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg_file), "--out", str(out),
                  f"--threads={threads}", "--quiet"])
        assert exc.value.code == 2
        assert (f"unrecognized arguments: --threads={threads}"
                in capsys.readouterr().err)
        assert not out.exists()


class TestRunOtherCommands:
    def test_lower_bound_schema(self, tmp_path):
        cfg = parse_config("command = lower-bound\nnu_list = 0.1\nb_list = 4, 100\n")
        assert run(cfg, out_dir=str(tmp_path), quiet=True) == 0
        lines = (tmp_path / "lower_bound.csv").read_text().splitlines()
        assert lines[0] == "nu,b,sigma_nu_sq,bayes_bound"
        assert len(lines) == 3
        vals = [float(l.split(",")[3]) for l in lines[1:]]
        assert vals[0] < vals[1]  # monotone in b

    def test_clt_check_schema(self, tmp_path):
        cfg = parse_config(
            "command = clt-check\nn_list = 2000\nreps = 400\n"
            "noise_list = rademacher\n")
        assert run(cfg, out_dir=str(tmp_path), quiet=True) == 0
        lines = (tmp_path / "clt_check.csv").read_text().splitlines()
        assert lines[0] == "noise,n,a_n,K_p,r_n,ks_distance"
        parts = lines[1].split(",")
        assert parts[0] == "rademacher"
        assert float(parts[2]) == 1.0  # a_n exact for two-point noise
        assert float(parts[3]) == 0.0
        assert 0.0 < float(parts[5]) < 0.2

    def test_convergence_schema(self, tmp_path):
        cfg = parse_config("command = convergence\nn_list = 1000, 10000\n")
        assert run(cfg, out_dir=str(tmp_path), quiet=True) == 0
        lines = (tmp_path / "convergence.csv").read_text().splitlines()
        assert lines[0] == "n,beta,z0,function,sigma_n_sq,g_sq_z0,abs_gap"
        gaps = [float(l.split(",")[6]) for l in lines[1:]]
        assert gaps[-1] < gaps[0]

    def test_holder_check_schema(self, tmp_path):
        cfg = parse_config(
            "command = holder-check\nn_list = 1000\ndelta_list = 0.1\n")
        assert run(cfg, out_dir=str(tmp_path), quiet=True) == 0
        lines = (tmp_path / "holder_check.csv").read_text().splitlines()
        assert lines[0] == ("n,function,z0,beta,delta,sup_deriv,max_defect,"
                            "certified")
        certified = {l.split(",")[1]: l.split(",")[7] for l in lines[1:]}
        assert certified["zero"] == "true"
        assert certified["bump"] == "true"

    def test_explicit_function_labels(self, tmp_path):
        cfg = parse_config(
            "command = holder-check\nn_list = 1000\ndelta_list = 0.2\n"
            "function_list = sine, zero\n")
        assert run(cfg, out_dir=str(tmp_path), quiet=True) == 0
        lines = (tmp_path / "holder_check.csv").read_text().splitlines()[1:]
        rows = {l.split(",")[1]: l.split(",")[7] for l in lines}
        assert rows == {"sine": "false", "zero": "true"}

    @pytest.mark.parametrize("command, label", [
        *((command, label)
          for command in ("risk-table", "holder-check", "clt-check",
                          "convergence")
          for label in ("nonexistent", "const02", "const_neg")),
        ("clt-check", "bump"), ("convergence", "bump")])
    def test_unknown_function_label(self, tmp_path, capsys, command, label):
        # the constants 0.2 and -0.4 have one label each, the family's
        # const_plus and const_minus; the bump's shape follows n, so only
        # the commands that build curves per (n, delta) know it.  The error
        # lists every label the command knows.
        known = [*function_catalog(0.5),
                 *(S.label for S in family_candidates(0.5, 0.1))]
        if command in ("risk-table", "holder-check"):
            known.append("bump")
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(f"command = {command}\nfunction_list = {label}\n")
        out = tmp_path / "out"
        assert main(["--config", str(cfg_file), "--out", str(out),
                     "--quiet"]) == 2
        assert capsys.readouterr().err == (
            f"config error: unknown function label {label!r}; "
            f"known: {sorted(known)}\n")
        assert not list(out.glob("*"))


def _holder_rows(tmp_path, text):
    """holder-check's CSV rows for config ``text``, as dicts."""
    assert run(parse_config(f"command = holder-check\n{text}"),
               out_dir=str(tmp_path), quiet=True) == 0
    header, *lines = (tmp_path / "holder_check.csv").read_text().splitlines()
    return [dict(zip(header.split(","), line.split(","))) for line in lines]


class TestHolderCheck:
    """holder-check certifies on the bandwidth class at each (n, delta),
    the class risk-table certifies its families on."""

    def test_default_members_certified_at_1e5(self, tmp_path):
        # the benchmark's holder-check config and its correctness check
        rows = _holder_rows(tmp_path, "n_list = 100000\n"
                            "delta_list = 0.5, 0.2, 0.1, 0.05\n")
        assert len(rows) == 4 * 12
        members = [r for r in rows if r["function"] in DEFAULT_TABLE_LABELS]
        assert len(members) == 4 * len(DEFAULT_TABLE_LABELS)
        assert all(r["certified"] == "true" for r in members)

    def test_rows_equal_bandwidth_class_certificates(self):
        # one row per (n, delta, function), in that order, each exactly
        # the certificate on WeakHolderParams(cfg, delta)
        config = parse_config("command = holder-check\n"
                              "n_list = 10000, 1000\ndelta_list = 0.5, 0.1\n")
        columns, rows, _ = cli._holder_check(config)
        assert columns[:2] == ["n", "function"]
        expected = []
        for n in (1000, 10000):
            cfg = EstimatorConfig(n=n, beta=2.0, z0=0.5)
            for delta in (0.1, 0.5):
                params = WeakHolderParams(cfg, delta)
                curves = [*family_candidates(0.5, delta),
                          risk_module.family_bump(cfg, delta)]
                for S in sorted(curves, key=lambda S: S.label):
                    rep = check_weak_holder(S, params)
                    expected.append([n, S.label, 0.5, 2.0, delta,
                                     rep.sup_deriv, rep.max_defect,
                                     rep.certified])
        assert rows == expected  # exact, not approx

    def test_window_outside_unit_interval_exit_two(self, tmp_path, capsys):
        # as in risk-table: at z0 = 0.85, n = 1000 has h_n = 0.2512
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(
            "command = holder-check\nn_list = 1000\nz0 = 0.85\n"
            "delta_list = 0.1\n")
        out = tmp_path / "out"
        assert main(["--config", str(cfg_file), "--out", str(out),
                     "--quiet"]) == 2
        h = EstimatorConfig(n=1000, beta=2.0, z0=0.85).h
        assert capsys.readouterr().err == (
            f"config error: window [z0-h, z0+h] leaves [0, 1] for h={h}\n")
        assert not list(out.glob("*"))


class TestMainEntry:
    def test_success_exit_zero(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("command = lower-bound\nnu_list = 0.1\nb_list = 4\n")
        assert main(["--config", str(cfg_file), "--out", str(tmp_path / "o"),
                     "--quiet"]) == 0

    def test_out_defaults_to_results(self, tmp_path, monkeypatch):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("command = lower-bound\nnu_list = 0.1\nb_list = 4\n")
        monkeypatch.chdir(tmp_path)
        assert main(["--config", str(cfg_file), "--quiet"]) == 0
        assert sorted(p.name for p in (tmp_path / "results").iterdir()) == [
            "lower_bound.csv", "manifest.json"]

    def test_config_error_exit_two(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("command = risk-table\nbeta = 5\n")
        assert main(["--config", str(cfg_file), "--quiet"]) == 2

    def test_missing_file_exit_two(self, tmp_path):
        assert main(["--config", str(tmp_path / "nope.cfg")]) == 2

    def test_module_error_exit_three_and_cleanup(self, tmp_path, monkeypatch):
        # a numeric failure inside a module is exit 3
        def failing(*args, **kwargs):
            raise ValueError("injected module failure")

        monkeypatch.setattr(cli, "normal_approx_check", failing)
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(
            "command = clt-check\nn_list = 500\nreps = 100\n"
            "noise_list = gaussian\n")
        out = tmp_path / "out"
        assert main(["--config", str(cfg_file), "--out", str(out),
                     "--quiet"]) == 3
        assert not list(out.glob("*"))

    @pytest.mark.parametrize("reps, code", [(99, 2), (100, 0)])
    def test_clt_check_reps_floor_is_config_error(self, tmp_path, capsys,
                                                  reps, code):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(
            f"command = clt-check\nn_list = 500\nreps = {reps}\n"
            "noise_list = gaussian\n")
        out = tmp_path / "out"
        assert main(["--config", str(cfg_file), "--out", str(out),
                     "--quiet"]) == code
        if code:
            err = capsys.readouterr().err
            assert "config error: reps must be >= 100" in err
            assert not list(out.glob("*"))

    def test_clt_check_rejects_several_curves(self, tmp_path, capsys):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(
            "command = clt-check\nn_list = 500\nreps = 100\n"
            "noise_list = gaussian\nfunction_list = sine, const_plus\n")
        out = tmp_path / "out"
        assert main(["--config", str(cfg_file), "--out", str(out),
                     "--quiet"]) == 2
        assert "one curve" in capsys.readouterr().err
        assert not list(out.glob("*"))

    @pytest.mark.parametrize("command, sink", [
        ("clt-check", "window_law"), ("convergence", "sigma_n_limit_check")])
    def test_one_delta_commands_reject_several(self, tmp_path, capsys,
                                               monkeypatch, command, sink):
        # neither CSV has a delta column, so the family curves are built at
        # the one delta given; a second one is an error before any curve is
        # scored or drawn for
        def refuse(*args, **kwargs):
            raise AssertionError(f"{sink} called")

        monkeypatch.setattr(cli, sink, refuse)
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(
            f"command = {command}\nn_list = 500\nreps = 100\n"
            "delta_list = 0.2, 0.1\nfunction_list = odd_wiggle\n")
        out = tmp_path / "out"
        assert main(["--config", str(cfg_file), "--out", str(out),
                     "--quiet"]) == 2
        assert (f"config error: {command} builds its curves at one delta; "
                "delta_list names 2") in capsys.readouterr().err
        assert not list(out.glob("*"))

    @pytest.mark.parametrize("seed, code", [
        (-1, 2), (2 ** 64, 2), (2 ** 65 - 1, 2), (0, 0), (2 ** 64 - 1, 0)])
    def test_seed_range(self, tmp_path, capsys, seed, code):
        # seeds outside [0, 2^64) once wrapped onto in-range streams
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("command = risk-table\nn_list = 400\nreps = 10\n"
                            f"seed = {seed}\n")
        out = tmp_path / "out"
        assert main(["--config", str(cfg_file), "--out", str(out),
                     "--quiet"]) == code
        if code:
            assert ("config error: line 4: seed must be an integer in "
                    "[0, 2^64)") in capsys.readouterr().err
            assert not list(out.glob("*"))
        else:
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["seed"] == seed

    def test_env_seed_changes_nothing(self, tmp_path, monkeypatch):
        # the config file alone decides a run: MINIMAXKERN_SEED, which once
        # overrode the config seed, is not read
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(
            "command = clt-check\nn_list = 800\nreps = 150\n"
            "noise_list = rademacher\nseed = 5\n")
        tables = []
        for env_seed in (None, "123", "not-a-number"):
            if env_seed is None:
                monkeypatch.delenv("MINIMAXKERN_SEED", raising=False)
            else:
                monkeypatch.setenv("MINIMAXKERN_SEED", env_seed)
            out = tmp_path / f"out{len(tables)}"
            assert main(["--config", str(cfg_file), "--out", str(out),
                         "--quiet"]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert (manifest["seed"], manifest["seed_source"]) == (5, "config")
            tables.append((out / "clt_check.csv").read_bytes())
        assert tables[1:] == [tables[0]] * 2

    def test_uncertified_function_exit_two(self, tmp_path, capsys):
        # the catalog "sine" carries curvature at z0 and fails certification
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(
            "command = risk-table\nn_list = 1000\ndelta_list = 0.1\n"
            "reps = 20\nfunction_list = zero, sine\n")
        out = tmp_path / "out"
        assert main(["--config", str(cfg_file), "--out", str(out),
                     "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "delta=0.1" in err and "'sine'" in err and "'zero'" not in err
        assert not list(out.glob("*"))

    def test_explicit_list_skips_default_family(self, tmp_path):
        # the default bump fails at delta = 0.5, n = 1000; the named curves
        # certify, so the default family must not be built at all
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(
            "command = risk-table\nn_list = 1000\ndelta_list = 0.5\n"
            "reps = 20\nfunction_list = zero, const_plus\n")
        assert main(["--config", str(cfg_file), "--out", str(tmp_path / "o"),
                     "--quiet"]) == 0

    def test_uncertified_default_member_exit_two(self, tmp_path, capsys):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(
            "command = risk-table\nn_list = 1000\ndelta_list = 0.5\n"
            "reps = 20\n")
        out = tmp_path / "out"
        assert main(["--config", str(cfg_file), "--out", str(out),
                     "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "delta=0.5" in err and "'bump'" in err
        assert not list(out.glob("*"))

    def test_window_outside_unit_interval_exit_two(self, tmp_path, capsys):
        # the bandwidth class needs h_n <= min(z0, 1 - z0); at z0 = 0.85,
        # n = 1000 has h_n = 0.2512, and the window is not clipped
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(
            "command = risk-table\nn_list = 1000\nz0 = 0.85\n"
            "delta_list = 0.1\nreps = 20\n")
        out = tmp_path / "out"
        assert main(["--config", str(cfg_file), "--out", str(out),
                     "--quiet"]) == 2
        h = EstimatorConfig(n=1000, beta=2.0, z0=0.85).h
        assert capsys.readouterr().err == (
            f"config error: window [z0-h, z0+h] leaves [0, 1] for h={h}\n")
        assert not list(out.glob("*"))


@pytest.mark.parametrize("command, line, message", [
    ("risk-table", "alpha1 = nan",
     "alpha1..alpha3 must be non-negative and finite, got nan"),
    ("lower-bound", "b_list = inf", "b must exceed 1 and be finite, got inf"),
    ("clt-check", "n_list = 400, 400", "n_list repeats 400"),
])
def test_non_finite_or_repeated_entry_exits_two(tmp_path, capsys, command,
                                                line, message):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(f"command = {command}\nreps = 100\n{line}\n")
    out = tmp_path / "out"
    assert main(["--config", str(cfg_file), "--out", str(out),
                 "--quiet"]) == 2
    assert capsys.readouterr().err == f"config error: line 3: {message}\n"
    assert not out.exists() or not list(out.iterdir())


def _samples(S, x):
    """S's values and derivatives on ``x`` (a constant's are scalars)."""
    return [np.broadcast_to(f(x), x.shape) for f in (S.eval, S.deriv)]


@pytest.mark.parametrize("z0", [0.3, 0.5, 0.77])
@pytest.mark.parametrize("delta", [0.05, 0.1, 0.5])
def test_catalog_and_family_labels_are_disjoint(z0, delta):
    # the catalog and the family share no label, and no two of their
    # labels name one curve (equal values and derivatives on [0, 1])
    catalog = function_catalog(z0)
    family = {S.label: S for S in family_candidates(z0, delta)}
    assert len(family) == 11
    assert not set(catalog) & set(family)
    assert "bump" not in {*catalog, *family}
    x = np.linspace(0.0, 1.0, 101)
    curves = [(S.label, _samples(S, x))
              for S in (*catalog.values(), *family.values())]
    same = [(a, b) for i, (a, sa) in enumerate(curves)
            for b, sb in curves[i + 1:]
            if all(np.array_equal(u, v) for u, v in zip(sa, sb))]
    assert same == []


# Labels defined by the family alone that the catalog once defined too.
SHARED_LABELS = ("zero", "odd_sine", "cos_dip", "bowl", "odd_cubic")

# command: (extra config, the CLI name that receives the curves, the curves
# among one call's arguments)
_CURVE_SINKS = {
    "risk-table": ("reps = 10\n", "sup_risks",
                   lambda rcs, noises: [S for rc in rcs for S in rc.family]),
    "clt-check": ("reps = 100\n", "window_law", lambda S, *rest: [S]),
    "holder-check": ("", "check_weak_holder", lambda S, *rest: [S]),
    "convergence": ("", "sigma_n_limit_check", lambda S, *rest: [S]),
}


@pytest.mark.parametrize("command", sorted(_CURVE_SINKS))
def test_shared_labels_name_family_members(tmp_path, monkeypatch, command):
    """Each label in SHARED_LABELS names the family member at the config's
    delta in every command (delta 0.2 tells it from the fixed curves
    of delta 0.1 and 0.5)."""
    extra, name, curves_of = _CURVE_SINKS[command]
    real = getattr(cli, name)
    seen = []

    def sink(*args):
        seen.extend(curves_of(*args))
        return real(*args)

    monkeypatch.setattr(cli, name, sink)
    # clt-check scores one curve per run
    lists = ([[l] for l in SHARED_LABELS] if command == "clt-check"
             else [SHARED_LABELS])
    for labels in lists:
        text = (f"command = {command}\nn_list = 400\ndelta_list = 0.2\n"
                f"{extra}function_list = {', '.join(labels)}\n")
        assert run(parse_config(text), out_dir=str(tmp_path), quiet=True) == 0
    family = {S.label: S for S in family_candidates(0.5, 0.2)}
    x = np.linspace(0.0, 1.0, 101)
    assert sorted(S.label for S in seen) == sorted(SHARED_LABELS)
    for S in seen:
        assert np.array_equal(S.eval(x), family[S.label].eval(x)), S.label
        assert np.array_equal(S.deriv(x), family[S.label].deriv(x)), S.label


def test_clt_check_default_curve_is_family_const_plus(tmp_path, monkeypatch):
    """With no function_list, clt-check scores the family's const_plus at
    the config's delta."""
    real = cli.window_law
    seen = []

    def sink(S, *rest):
        seen.append(S)
        return real(S, *rest)

    monkeypatch.setattr(cli, "window_law", sink)
    text = ("command = clt-check\nn_list = 400\ndelta_list = 0.2\n"
            "reps = 100\nnoise_list = gaussian\n")
    assert run(parse_config(text), out_dir=str(tmp_path), quiet=True) == 0
    const_plus = {S.label: S
                  for S in family_candidates(0.5, 0.2)}["const_plus"]
    x = np.linspace(0.0, 1.0, 101)
    assert [S.label for S in seen] == ["const_plus"]
    assert np.array_equal(seen[0].eval(x), const_plus.eval(x))
    assert np.array_equal(seen[0].deriv(x), const_plus.deriv(x))


def test_risk_table_certifies_each_member_once(tmp_path, monkeypatch):
    """Default-family risk-table: each (curve, n, delta) is certified once
    per run, on the bandwidth class at (n, delta), so a delta's n-free
    members are certified at every n; each (n, noise) stream is drawn
    once."""
    members: list = []  # keeps ids unique
    calls: list[tuple[int, float, EstimatorConfig]] = []
    scored: list = []
    streams: list[tuple[int, int]] = []
    real_check = risk_module.check_weak_holder
    real_replicate = risk_module.replicate
    real_sup_risks = risk_module.sup_risks

    def check(S, params, *args, **kwargs):
        members.append(S)
        calls.append((id(S), params.delta, params.cfg))
        return real_check(S, params, *args, **kwargs)

    def replicate(sampler, weights, reps, seed):
        streams.append((len(weights[0]), reps))
        return real_replicate(sampler, weights, reps, seed)

    def sup_risks(rcs, noises):
        scored.extend(rcs)
        return real_sup_risks(rcs, noises)

    monkeypatch.setattr(risk_module, "check_weak_holder", check)
    monkeypatch.setattr(risk_module, "replicate", replicate)
    monkeypatch.setattr(cli, "sup_risks", sup_risks)
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(
        "command = risk-table\nn_list = 400, 1000\ndelta_list = 0.2, 0.1\n"
        "reps = 10\nnoise_list = gaussian, rademacher\n")
    assert main(["--config", str(cfg_file), "--out", str(tmp_path / "o"),
                 "--quiet"]) == 0
    # 5 members per (n, delta): the n-free ones are certified at every n
    assert len(calls) == 5 * 2 * 2
    assert len(set(calls)) == len(calls)
    assert sorted((rc.cfg.n, rc.delta) for rc in scored) == [
        (n, delta) for n in (400, 1000) for delta in (0.1, 0.2)]
    for rc in scored:
        assert [S.label for S in rc.family] == list(DEFAULT_TABLE_LABELS)
        assert all((id(S), rc.delta, rc.cfg) in calls for S in rc.family)
    # one stream per (n, noise), shared by both deltas
    qn = {n: EstimatorConfig(n=n, beta=2.0, z0=0.5).q_n for n in (400, 1000)}
    assert sorted(streams) == sorted([(qn[n], 10) for n in (400, 1000)] * 2)
    counters = json.loads((tmp_path / "o" / "manifest.json").read_text())["counters"]
    assert counters["draw_streams"] == len(streams) == 2 * 2
    assert counters["certificates"] == len(calls)


@pytest.fixture
def fresh_kernels():
    """build_kernel's per-nu cache, empty before and after the test."""
    build_kernel.cache_clear()
    yield
    build_kernel.cache_clear()


@pytest.mark.parametrize("text", [
    "command = risk-table\nn_list = 400\ndelta_list = 0.1\nreps = 10\n"
    "noise_list = gaussian\n",
    "command = holder-check\nn_list = 400\ndelta_list = 0.1\n",
], ids=["risk-table", "holder-check"])
def test_upper_side_commands_skip_the_v_squared_quadrature(
        tmp_path, fresh_kernels, text):
    # the bump member's kernel is built, but int V^2 (read only by the
    # lower-side quantities) is never evaluated
    assert run(parse_config(text), out_dir=str(tmp_path), quiet=True) == 0
    assert "sq_integral" not in build_kernel(FAMILY_BUMP_NU).__dict__


# Multi-delta risk-table: at each n every delta shares one stream per noise.
MULTI_DELTA_CFG = """
command = risk-table
n_list = 400, 1000
delta_list = 0.2, 0.1, 0.05
reps = 40
seed = 11
noise_list = gaussian, rademacher, student5_std
"""


@pytest.fixture(scope="module")
def multi_delta_outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("risk_multi")
    assert run(parse_config(MULTI_DELTA_CFG), out_dir=str(out), quiet=True) == 0
    return out


class TestRiskTableSharedDraws:
    def test_rows_equal_separate_cells(self):
        """Every row equals, bit for bit, the row of its (n, delta) cell
        scored on its own through sup_risk."""
        config = parse_config(MULTI_DELTA_CFG)
        _, rows, _ = cli._risk_table(config)
        noises = [get_noise(l) for l in sorted(config.noise_list)]
        scale = ScaleSpec(1.0, 0.5, 0.5, 0.5)
        expected = []
        for n in (400, 1000):
            cfg = EstimatorConfig(n=n, beta=2.0, z0=0.5)
            for delta in (0.05, 0.1, 0.2):
                rc = RiskConfig(cfg=cfg, delta=delta, reps=40, seed=11,
                                family=tuple(default_family(cfg, delta)),
                                scale=scale)
                report = sup_risk(rc, noises)
                for r in sorted(report.rows, key=lambda r: (r.function, r.noise)):
                    expected.append([n, 2.0, 0.5, delta, r.function, r.noise,
                                     cfg.q_n, cfg.phi_n, r.risk_mc, r.stderr,
                                     r.risk_oracle, r.phin_bn])
        assert len(rows) == 2 * 3 * 5 * 3
        for got, want in zip(rows, expected):
            assert got == want  # exact, not approx

    def test_margins_equal_fresh_certificates(self, multi_delta_outputs):
        entries = json.loads((multi_delta_outputs / "manifest.json")
                             .read_text())["certification"]
        assert [(e["n"], e["delta"], e["function"]) for e in entries] == [
            (n, delta, label) for n in (400, 1000) for delta in (0.05, 0.1, 0.2)
            for label in sorted(DEFAULT_TABLE_LABELS)]
        for e in entries:
            cfg = EstimatorConfig(n=e["n"], beta=2.0, z0=0.5)
            family = {S.label: S for S in default_family(cfg, e["delta"])}
            params = WeakHolderParams(cfg, e["delta"])
            rep = check_weak_holder(family[e["function"]], params)
            assert e["sup_deriv_times_delta"] == rep.sup_deriv * e["delta"]
            assert e["max_defect_over_delta"] == rep.max_defect / e["delta"]

    @pytest.mark.parametrize("budget", BLOCK_BUDGETS)
    def test_block_budget_never_changes_csv(self, multi_delta_outputs,
                                            tmp_path, monkeypatch, budget):
        monkeypatch.setattr(model, "REPLICATION_BLOCK_BYTES", budget)
        assert run(parse_config(MULTI_DELTA_CFG), out_dir=str(tmp_path),
                   quiet=True) == 0
        assert ((tmp_path / "risk_table.csv").read_bytes()
                == (multi_delta_outputs / "risk_table.csv").read_bytes())

    def test_counters_on_small_n_grid(self, tmp_path):
        # the shape of the benchmark's risk_grid_small_n command
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(
            "command = risk-table\nn_list = 1000, 3000\n"
            "delta_list = 0.2, 0.1, 0.05\nreps = 10\nnoise_list = gaussian, "
            "laplace_std, rademacher, student5_std, uniform_std\n")
        assert main(["--config", str(cfg_file), "--out", str(tmp_path / "o"),
                     "--quiet"]) == 0
        counters = json.loads((tmp_path / "o" / "manifest.json")
                              .read_text())["counters"]
        qn = sum(EstimatorConfig(n=n, beta=2.0, z0=0.5).q_n for n in (1000, 3000))
        assert counters == {"cells": 6, "draw_streams": 10,
                            "values_drawn": 5 * 10 * qn, "certificates": 30}


# Each command on a small config; clt-check covers every catalog noise.
_STARTUP_CONFIGS = {
    "risk-table": "n_list = 1000\nreps = 20\nnoise_list = gaussian, laplace_std\n",
    "lower-bound": "nu_list = 0.1\nb_list = 4\n",
    "clt-check": ("n_list = 1000\nreps = 100\nnoise_list = gaussian, "
                  "laplace_std, rademacher, student5_std, uniform_std\n"),
    "holder-check": "n_list = 1000\ndelta_list = 0.1\n",
    "convergence": "n_list = 1000, 10000\n",
}

_STARTUP_SCRIPT = """
import json, sys
from minimaxkern import cli
codes = [cli.main(["--config", path, "--out", out, "--quiet"])
         for path, out in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes,
                  "scipy": sorted(m for m in sys.modules
                                  if m == "scipy" or m.startswith("scipy."))}))
"""


def test_cli_commands_do_not_import_scipy(tmp_path):
    """Every command runs on numpy alone: scipy is a test-only dependency."""
    jobs = []
    for command, body in _STARTUP_CONFIGS.items():
        cfg = tmp_path / f"{command}.cfg"
        cfg.write_text(f"command = {command}\n{body}")
        jobs.append([str(cfg), str(tmp_path / command)])
    src = str(Path(minimaxkern.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", _STARTUP_SCRIPT,
                           json.dumps(jobs)],
                          capture_output=True, text=True, env=env, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0] * len(jobs)
    assert result["scipy"] == []
    for command in _STARTUP_CONFIGS:
        assert (tmp_path / command / f"{command.replace('-', '_')}.csv").exists()


_WORKERS_SCRIPT = """
import json, os, sys, threading
from minimaxkern import cli
children, fork = [], os.fork


def counted():
    pid = fork()
    if pid:
        children.append(pid)
    return pid


os.fork = counted
cli.available_cpus = lambda: int(sys.argv[3])
code = cli.main(["--config", sys.argv[1], "--out", sys.argv[2], "--quiet"])
try:
    os.waitpid(-1, os.WNOHANG)
    reaped = False
except ChildProcessError:
    reaped = True
print(json.dumps({
    "code": code, "children": len(children), "reaped": reaped,
    "threads": threading.active_count(),
    "workers": json.load(open(sys.argv[2] + "/manifest.json"))["workers"],
    "pools": sorted(m for m in sys.modules
                    if m.split(".")[0] in ("concurrent", "multiprocessing"))}))
"""


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_clt_check_forks_workers_minus_one_children(tmp_path, cpus):
    """The calling process is one of clt-check's workers: it forks
    min(cpus, cells) - 1 children and reaps them all, starts no thread,
    and loads neither concurrent.futures nor multiprocessing."""
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(CLT_CFG)
    src = str(Path(minimaxkern.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", _WORKERS_SCRIPT, str(cfg),
                           str(tmp_path / "out"), str(cpus)],
                          capture_output=True, text=True, env=env, check=True,
                          timeout=120)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"code": 0, "children": cpus - 1, "reaped": True,
                      "threads": 1, "workers": cpus, "pools": []}


# Minor page faults allowed across cli.run for the config below.  A run that
# allocates a window-sized array per replication and has glibc hand each one
# back to the kernel (MALLOC_TRIM_THRESHOLD_=0) takes about 80 faults per
# replication, 8000 more here; with one reused block buffer the whole run
# takes about 1000, nearly all of it set-up.  Other C libraries ignore the
# variable, so the bound holds there too.
_FAULT_BOUND = 2000

_FAULT_SCRIPT = """
import resource, sys
from minimaxkern import cli
config = cli.parse_config(sys.argv[1])
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
cli.run(config, out_dir=sys.argv[2], quiet=True)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_clt_check_page_faults_do_not_grow_with_reps(tmp_path):
    pytest.importorskip("resource")
    config = ("command = clt-check\nn_list = 100000\nreps = 100\n"
              "noise_list = gaussian\n")
    src = str(Path(minimaxkern.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    env["MALLOC_TRIM_THRESHOLD_"] = "0"
    proc = subprocess.run([sys.executable, "-c", _FAULT_SCRIPT, config,
                           str(tmp_path / "out")],
                          capture_output=True, text=True, env=env, check=True)
    faults = int(proc.stdout.splitlines()[-1])
    assert faults < _FAULT_BOUND, faults
