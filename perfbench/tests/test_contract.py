"""BENCHMARK.json, the run and the ledger name the same metrics, and
the ledger's boundaries exist."""

import json
from pathlib import Path

from perfbench import ledger, run
from perfbench.tracer import Tracer, import_all
from perfbench.workloads import WORKLOADS, Recorder, StoreLarge

BENCH = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_metric_names_match_benchmark_json():
    assert [m["name"] for m in BENCH["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in BENCH["per_layer"]] == \
        [m.name for m in ledger.METRICS] + \
        [name for name, _unit, _better in ledger.RUN_METRICS]
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)


def test_every_boundary_is_a_wrapped_callable():
    tracer = Tracer(extra=ledger.EXTRA_BOUNDARIES).install(import_all())
    tracer.uninstall()
    named = {b for m in ledger.METRICS for b in m.boundaries
             if not b.startswith("module:")}
    named |= set(ledger.SPAN_VALUES) | set(ledger.PUBLISH) | \
        set(ledger.ADOPT)
    assert named <= set(tracer.wrapped), named - set(tracer.wrapped)


class _ShortStore(StoreLarge):
    SEAL_BATCHES = 1
    MIX = {"new": 4, "overwrite": 6, "delete": 2, "verify": 4, "get": 4}


def test_one_seed_gives_the_same_counts_twice():
    workload = _ShortStore(5)
    rec = Recorder()
    first = workload.episode(rec)
    second = workload.episode(rec)
    assert rec.failed == 0, rec.notes
    assert first.counts == second.counts
    assert _ShortStore(6).inputs != workload.inputs
