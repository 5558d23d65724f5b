import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import minimaxkern

from minimaxkern import model
from minimaxkern.cli import ConfigError, main, parse_config, run
from minimaxkern.estimator import EstimatorConfig
from minimaxkern.holder import WeakHolderParams, check_weak_holder
from minimaxkern.model import ScaleSpec, get_noise
from minimaxkern import risk as risk_module
from minimaxkern.risk import (DEFAULT_TABLE_LABELS, RiskConfig, default_family,
                              monte_carlo_risk)


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
        out = somewhere
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
        assert cfg.out == "somewhere"

    def test_missing_command(self):
        with pytest.raises(ConfigError, match="command"):
            parse_config("beta = 2.0\n")

    def test_unknown_key_cites_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("command = risk-table\nfrobnicate = 1\n")

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
        with pytest.raises(ConfigError, match="b values"):
            parse_config("command = lower-bound\nb_list = 0.5\n")

    def test_bad_integer(self):
        with pytest.raises(ConfigError, match="integer"):
            parse_config("command = risk-table\nreps = many\n")


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
        fam = default_family(0.5, 0.1, 2.0, 400)
        S = next(f for f in fam if f.label == "const_plus")
        rc = RiskConfig(cfg=cfg, delta=0.1, reps=60, seed=7, family=(S,),
                        scale=ScaleSpec(1.0, 0.5, 0.5, 0.5),
                        noise=get_noise("gaussian"))
        mc, se = monte_carlo_risk(S, rc)
        assert float(row[8]) == pytest.approx(mc, rel=1e-12)
        assert float(row[9]) == pytest.approx(se, rel=1e-12)

    def test_manifest_contents(self, outputs):
        manifest = json.loads((outputs / "manifest.json").read_text())
        assert manifest["command"] == "risk-table"
        assert manifest["seed"] == 7
        assert manifest["seed_source"] == "config"
        assert manifest["config"]["alpha3"] == 0.5
        assert manifest["outputs"] == ["risk_table.csv"]

    def test_manifest_certification_margins(self, outputs):
        """One entry per (n, delta, member), from the member's certificate."""
        entries = json.loads((outputs / "manifest.json").read_text())["certification"]
        assert [(e["n"], e["delta"], e["function"]) for e in entries] == [
            (n, 0.1, label) for n in (400, 800)
            for label in sorted(DEFAULT_TABLE_LABELS)]
        params = WeakHolderParams(z0=0.5, delta=0.1, beta=2.0)
        for n in (400, 800):
            family = {S.label: S for S in default_family(0.5, 0.1, 2.0, n)}
            for e in (e for e in entries if e["n"] == n):
                rep = check_weak_holder(family[e["function"]], params)
                assert e["sup_deriv_times_delta"] == rep.sup_deriv * 0.1
                assert e["max_defect_over_delta"] == rep.max_defect / 0.1
                assert e["worst_h"] == rep.worst_h
                assert e["sup_deriv_times_delta"] <= 1.0
                assert e["max_defect_over_delta"] <= 1.0

    def test_byte_identical_rerun(self, outputs, tmp_path):
        assert run(parse_config(RISK_CFG), out_dir=str(tmp_path),
                   quiet=True, threads=4) == 0
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


@pytest.fixture(scope="module")
def clt_outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("clt")
    assert run(parse_config(CLT_CFG), out_dir=str(out), quiet=True) == 0
    return out


class TestCltCheckReproducibility:
    def test_byte_identical_rerun(self, clt_outputs, tmp_path):
        assert run(parse_config(CLT_CFG), out_dir=str(tmp_path),
                   quiet=True) == 0
        assert ((tmp_path / "clt_check.csv").read_bytes()
                == (clt_outputs / "clt_check.csv").read_bytes())

    @pytest.mark.parametrize("budget", BLOCK_BUDGETS)
    def test_block_budget_never_changes_csv(self, clt_outputs, tmp_path,
                                            monkeypatch, budget):
        monkeypatch.setattr(model, "REPLICATION_BLOCK_BYTES", budget)
        assert run(parse_config(CLT_CFG), out_dir=str(tmp_path),
                   quiet=True) == 0
        assert ((tmp_path / "clt_check.csv").read_bytes()
                == (clt_outputs / "clt_check.csv").read_bytes())


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
        assert lines[0] == "function,z0,beta,delta,sup_deriv,max_defect,certified"
        certified = {l.split(",")[0]: l.split(",")[6] for l in lines[1:]}
        assert certified["zero"] == "true"
        assert certified["bump"] == "true"

    def test_explicit_function_labels(self, tmp_path):
        cfg = parse_config(
            "command = holder-check\nn_list = 1000\ndelta_list = 0.2\n"
            "function_list = sine, zero\n")
        assert run(cfg, out_dir=str(tmp_path), quiet=True) == 0
        lines = (tmp_path / "holder_check.csv").read_text().splitlines()[1:]
        rows = {l.split(",")[0]: l.split(",")[6] for l in lines}
        assert rows == {"sine": "false", "zero": "true"}

    def test_unknown_function_label(self, tmp_path):
        cfg = parse_config(
            "command = holder-check\nfunction_list = nonexistent\n")
        with pytest.raises(ConfigError, match="nonexistent"):
            run(cfg, out_dir=str(tmp_path), quiet=True)


class TestMainEntry:
    def test_success_exit_zero(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("command = lower-bound\nnu_list = 0.1\nb_list = 4\n")
        assert main(["--config", str(cfg_file), "--out", str(tmp_path / "o"),
                     "--quiet"]) == 0

    def test_config_error_exit_two(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("command = risk-table\nbeta = 5\n")
        assert main(["--config", str(cfg_file), "--quiet"]) == 2

    def test_missing_file_exit_two(self, tmp_path):
        assert main(["--config", str(tmp_path / "nope.cfg")]) == 2

    def test_module_error_exit_three_and_cleanup(self, tmp_path):
        # reps below the normal-approximation floor fails inside the module
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(
            "command = clt-check\nn_list = 500\nreps = 50\n"
            "noise_list = gaussian\n")
        out = tmp_path / "out"
        assert main(["--config", str(cfg_file), "--out", str(out),
                     "--quiet"]) == 3
        assert not list(out.glob("*"))

    def test_env_seed_override(self, tmp_path, monkeypatch):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(
            "command = clt-check\nn_list = 800\nreps = 150\n"
            "noise_list = rademacher\nseed = 5\n")
        monkeypatch.setenv("MINIMAXKERN_SEED", "123")
        out = tmp_path / "env_out"
        assert main(["--config", str(cfg_file), "--out", str(out),
                     "--quiet"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 123
        assert manifest["seed_source"] == "env"

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

    def test_bad_env_seed_is_config_error(self, tmp_path, monkeypatch):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("command = lower-bound\n")
        monkeypatch.setenv("MINIMAXKERN_SEED", "not-a-number")
        assert main(["--config", str(cfg_file), "--quiet"]) == 2


def test_risk_table_certifies_each_member_once(tmp_path, monkeypatch):
    """Default-family risk-table: five certificates per (n, delta) cell,
    none repeated."""
    member_n: dict[int, int] = {}
    members: list = []  # keeps ids unique
    calls: list[tuple[str, int, float]] = []
    real_candidates = risk_module.family_candidates
    real_check = risk_module.check_weak_holder

    def candidates(z0, delta, beta, n=None, kernel=None):
        out = real_candidates(z0, delta, beta, n, kernel)
        members.extend(out)
        member_n.update((id(S), n) for S in out)
        return out

    def check(S, params, *args, **kwargs):
        calls.append((S.label, member_n[id(S)], params.delta))
        return real_check(S, params, *args, **kwargs)

    monkeypatch.setattr(risk_module, "family_candidates", candidates)
    monkeypatch.setattr(risk_module, "check_weak_holder", check)
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(
        "command = risk-table\nn_list = 400, 1000\ndelta_list = 0.2, 0.1\n"
        "reps = 10\n")
    assert main(["--config", str(cfg_file), "--out", str(tmp_path / "o"),
                 "--quiet"]) == 0
    assert len(calls) == 20
    assert len(set(calls)) == 20
    for n in (400, 1000):
        for delta in (0.2, 0.1):
            cell = sorted(lab for lab, m, d in calls if (m, d) == (n, delta))
            assert cell == sorted(DEFAULT_TABLE_LABELS)


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
    """Every command runs on numpy alone: scipy is left for laws that carry
    only a density."""
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
