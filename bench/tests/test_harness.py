"""Self-tests of the benchmark harness.

Run from the repository root:

    python3 -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from trace_driver import Tracer, summarize

ROOT = Path(__file__).resolve().parents[2]


def _span(name, layer, start, end, parent):
    return [name, layer, float(start), float(end), parent]


def test_self_time_from_nested_spans():
    spans = [
        _span("a", "x", 0, 10, -1),   # 0
        _span("b", "y", 1, 4, 0),     # 1
        _span("c", "x", 5, 9, 0),     # 2
        _span("d", "y", 6, 7, 2),     # 3
        _span("d", "y", 7, 8, 2),     # 4
        _span("d", "y", 7.25, 7.5, 4),  # 5: recursion inside 4
    ]
    by_name, by_layer = summarize(spans)
    assert by_name["a"] == {"calls": 1, "s": 10.0, "self_s": 3.0}
    assert by_name["b"] == {"calls": 1, "s": 3.0, "self_s": 3.0}
    assert by_name["c"] == {"calls": 1, "s": 4.0, "self_s": 2.0}
    # The recursive call is counted in calls and self time, not busy time.
    assert by_name["d"] == {"calls": 3, "s": 2.0, "self_s": 2.0}
    # c sits inside a (same layer), so layer x is busy for a's 10 s only.
    assert by_layer["x"] == {"calls": 2, "s": 10.0, "self_s": 5.0}
    assert by_layer["y"] == {"calls": 4, "s": 5.0, "self_s": 5.0}
    total_self = sum(e["self_s"] for e in by_layer.values())
    assert total_self == pytest.approx(10.0)


def test_tracer_records_parents_and_counters():
    tracer = Tracer()
    seen = []

    def leaf(v):
        return v + 1

    traced_leaf = tracer.wrap("leaf", "inner", leaf,
                              lambda args, kwargs, result: seen.append(result))

    def outer(v):
        return traced_leaf(v) + traced_leaf(v)

    traced_outer = tracer.wrap("outer", "outer", outer)
    assert traced_outer(1) == 4
    assert [s[0] for s in tracer.spans] == ["outer", "leaf", "leaf"]
    assert [s[4] for s in tracer.spans] == [-1, 0, 0]
    assert seen == [2, 2]
    by_name, _ = summarize(tracer.spans)
    assert by_name["leaf"]["calls"] == 2
    assert 0.0 <= by_name["outer"]["self_s"] <= by_name["outer"]["s"]


def _rows(header, *lines):
    return workloads.parse_csv("\n".join([header, *lines]) + "\n")


def test_checks_flag_wrong_rows():
    risk = workloads.risk_table(1, [100_000], [0.1], ["gaussian"], reps=10)
    header = ("n,beta,z0,delta,function,noise,qn,phin,risk_mc,stderr,"
              "risk_oracle,bias_phin_Bn")
    rows = _rows(header,
                 "100000,2,0.5,0.1,bowl,gaussian,20001,100,0.56,0.01,0.5649,0.04",
                 "100000,2,0.5,0.1,bump,gaussian,20001,100,0.80,0.01,0.5649,0.0",
                 "100000,2,0.5,0.1,cos_dip,gaussian,20001,100,0.70,0.01,0.70,0.0",
                 "100000,2,0.5,0.1,odd_sine,gaussian,20001,100,nan,0.01,0.56,0.0")
    assert workloads.check_rows(risk, rows) == [True, False, False, False]

    bound = workloads.lower_bound(1, [0.1], [4, 16, 100])
    rows = _rows("nu,b,sigma_nu_sq,bayes_bound",
                 "0.1,4,1.9,0.30", "0.1,16,1.9,0.29", "0.1,100,1.9,0.6")
    assert workloads.check_rows(bound, rows) == [True, False, False]

    conv = workloads.convergence(1, [10, 100, 1000])
    rows = _rows("n,beta,z0,function,sigma_n_sq,g_sq_z0,abs_gap",
                 "10,2,0.5,sine,1,1,0.1", "100,2,0.5,sine,1,1,0.01",
                 "1000,2,0.5,sine,1,1,0.02")
    assert workloads.check_rows(conv, rows) == [True, True, False]

    holder = workloads.holder_check(1, 1000, [0.1])
    rows = _rows("function,z0,beta,delta,sup_deriv,max_defect,certified",
                 "bump,0.5,2,0.1,1,0.2,false", "tilt,0.5,2,0.1,1,0.01,false",
                 "bowl,0.5,2,0.1,1,0.01,true")
    assert workloads.check_rows(holder, rows) == [False, True, True]

    clt = workloads.clt_check(1, [1000], ["gaussian", "rademacher"], reps=400)
    rows = _rows("noise,n,a_n,K_p,r_n,ks_distance",
                 "gaussian,1000,1,0,1,0.03", "rademacher,1000,1,0,1,0.5")
    assert workloads.check_rows(clt, rows) == [True, False]


def test_config_seed_is_stable_and_distinct():
    a = workloads.build("risk_large_n", 3)
    assert a == workloads.build("risk_large_n", 3)
    assert a != workloads.build("risk_large_n", 4)
    assert workloads.derive_config_seed("risk_large_n", 3) < 2 ** 63


def _tiny_workload(name, seed):
    s = workloads.derive_config_seed(name, seed)
    return workloads.Workload(name, (
        workloads.risk_table(s, [1000], [0.1], ["gaussian", "laplace_std"], reps=20),
        workloads.clt_check(s, [1000], ["gaussian"], reps=100),
        workloads.lower_bound(s, [0.2], [4, 16]),
        workloads.holder_check(s, 1000, [0.1]),
        workloads.convergence(s, [1000, 10_000]),
    ))


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_pass_emits_every_declared_metric(trace, monkeypatch, capsys):
    monkeypatch.setattr(workloads, "build", _tiny_workload)
    code = run.main(["--workload", "risk_large_n", "--seed", "5",
                     "--seconds", "0", "--trace", str(trace)])
    assert code == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == 2 * (10 + 1 + 2 + 12 + 2)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in
                spec["per_layer" if trace else "end_to_end"]}
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    assert emitted == declared
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())
    if trace:
        from minimaxkern.estimator import EstimatorConfig
        q_n = EstimatorConfig(n=1000, beta=2.0, z0=0.5).q_n
        m = {k: v["value"] for k, v in result["metrics"].items()}
        # Five default-family members times two noises, 20 replications each.
        assert m["risk.cells"] == 10 and m["risk.reps"] == 200
        assert m["martingale.reps"] == 100
        # Risk draws n values per replication but uses the q_n-point
        # window; the CLT check draws window-sized vectors (100 replications
        # plus one truncation split).
        assert m["model.values_drawn"] == 200 * 1000 + 101 * q_n
        assert m["model.draw_useful_ratio"] == pytest.approx(
            301 * q_n / (200 * 1000 + 101 * q_n))
        assert m["holder.certify_calls"] > m["holder.certify_distinct"] > 0
        assert m["failed_frac"] == 0


def test_fails_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "risk_large_n",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
