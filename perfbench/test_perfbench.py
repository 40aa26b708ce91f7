"""Tests of the benchmark's own code: the tracer's wrappers and a tiny run
of every workload against the metric names declared in BENCHMARK.json.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import os
import signal
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (os.path.join(ROOT, "src"), HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

import bench  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
from swarmflow import (autodiff, dataio, flowmatch, metrics, models,  # noqa: E402
                       navigation, sampling)
from tracing import Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

OWNERS = (autodiff, dataio, flowmatch, metrics, models, navigation, sampling,
          autodiff.Node, flowmatch.Adam, models.PointSetEncoder,
          models.GatedContextualNet)


def test_tracer_restores_every_original():
    before = [(owner, dict(vars(owner))) for owner in OWNERS]
    original = sampling.orca_adjust
    with Tracer() as tr:
        bench.trace_layers(tr)
        assert sampling.orca_adjust is not original
        assert tr.absent == []
    for owner, names in before:
        now = vars(owner)
        assert set(now) == set(names), owner
        assert all(now[k] is v for k, v in names.items()), owner


def test_tracer_removes_a_wrapper_put_on_a_subclass():
    class Base:
        def f(self):
            return 1

    class Child(Base):
        pass

    with Tracer() as tr:
        tr.span(Child, "f", "f")
        assert Child().f() == 1
        assert "f" in vars(Child)
    assert "f" not in vars(Child) and Child.f is Base.f
    assert tr.get("f").calls == 1


def test_tracer_tolerates_a_missing_function():
    module = types.ModuleType("gone")
    with Tracer() as tr:
        tr.span(module, "renamed", "gone.renamed")
        tr.count(models.GatedContextualNet, "no_such_method", "field.none",
                 lambda *a: None)
    assert tr.absent == ["gone.renamed", "field.none"]
    assert not hasattr(module, "renamed")
    assert "no_such_method" not in vars(models.GatedContextualNet)


def test_missing_layer_drops_only_its_metrics():
    tr = Tracer()
    tr.absent.append("navigation.solve_velocity_lp")
    out = bench.layer_metrics(tr, Tracer(), None, {})
    assert "navigation.lp_ms" not in out and "navigation.scan_ms" not in out
    assert "navigation.infeasible_frac" not in out
    assert "navigation.halfspace_ms" in out and "models.field_ms" in out


def test_span_self_time_excludes_wrapped_children():
    module = types.ModuleType("nested")
    module.inner = lambda: sum(range(20000))
    module.outer = lambda: module.inner() + module.inner()
    with Tracer() as tr:
        tr.span(module, "outer", "outer")
        tr.span(module, "inner", "inner")
        module.outer()
    outer, inner = tr.get("outer"), tr.get("inner")
    assert (outer.calls, inner.calls) == (1, 2)
    assert outer.self_total == pytest.approx(outer.total - inner.total, abs=1e-4)


def test_speed_probe_subtracts_its_bursts_and_restores_the_timer():
    before = signal.getsignal(signal.SIGALRM)
    with pytest.raises(ZeroDivisionError):
        with speed.SpeedProbe(speed.LOOP_BURST, interval=0.01) as probe:
            t0 = speed.clock()
            while speed.clock() - t0 < 0.1:
                pass
            t1 = speed.clock()
            1 / 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.bursts) >= 2
    spent = sum(d for s, d in probe.bursts if t0 <= s <= t1)
    assert probe.speed(t0, t1) > 0
    assert probe.seconds(t0, t1) == pytest.approx(
        (t1 - t0 - spent) * probe.speed(t0, t1))
    assert speed.SpeedProbe(speed.LOOP_BURST).speed() == 1.0  # no bursts: no correction


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tiny_run_reports_the_declared_metrics(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the run's scratch files go under cwd
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result, context = bench.run_workload(name, bench.Seeds(), 0.0, trace,
                                             bench.TINY)
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in SPEC[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
        assert context["seeds"] == {"seed": 0, "data": 20, "train": 0,
                                    "sample": 1}
    assert os.listdir(tmp_path) == []


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(bench.WORKLOADS)


def test_run_refuses_a_directory_without_the_program(tmp_path, monkeypatch,
                                                     capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "show-512"]) != 0
    assert capsys.readouterr().out == ""
