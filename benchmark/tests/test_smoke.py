"""Each workload at tiny sizes, with its output checks, plus negative
self-checks: a swapped hit, a dropped log message and a replayed one must
be caught.

    python3 -m pytest -q benchmark/tests
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import ann_hnsw
import rag_turns
import store_churn
from harness import RunContext, clock

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent

TINY = {
    "rag_turns": rag_turns.Config(
        docs=300, profiles=40, sessions=8, prior_exchanges=2, questions=24,
        p_switch=0.3, p_fail=0.1, turns_per_second=150, setups=2,
        reopens=3, inserts=3),
    "ann_hnsw": ann_hnsw.Config(docs=200, queries_per_second=120, setups=2,
                                reopens=3),
    "store_churn": store_churn.Config(
        docs=400, nlist=10, nprobe=2, profiles=40, sessions=8,
        prior_messages=4, checkpoint_every=10, restart_every=40,
        ticks_per_second=130, setups=2, reopens=3),
}
MODULES = {"rag_turns": rag_turns, "ann_hnsw": ann_hnsw,
           "store_churn": store_churn}
END_TO_END = [m["name"] for m in
              json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]


def _run(name, tmp_path, trace=False, module=None):
    ctx = RunContext(seed=7, seconds=1, workdir=tmp_path / name, trace=trace,
                     deadline=clock() + 600)
    result = (module or MODULES[name]).run(ctx, TINY[name])
    return ctx, result


@pytest.mark.parametrize("name", sorted(MODULES))
def test_workload_runs_clean(name, tmp_path):
    ctx, result = _run(name, tmp_path)
    assert ctx.checks.unexpected == []
    assert result["attempted"] >= 100
    metrics = result["metrics"]
    for metric in END_TO_END:
        if metric == "peak_rss_mb":  # added by run.py
            continue
        assert math.isfinite(metrics[metric]) and metrics[metric] > 0, metric


@pytest.mark.parametrize("name", sorted(MODULES))
def test_ops_cut_by_the_deadline_count_as_failed(name, tmp_path):
    ctx = RunContext(seed=7, seconds=1, workdir=tmp_path / name, trace=False,
                     deadline=clock())
    result = MODULES[name].run(ctx, dataclasses.replace(TINY[name], setups=4))
    assert ctx.truncated and ctx.checks.unexpected == []
    assert ctx.checks.not_run == result["attempted"] >= 100
    assert ctx.checks.failed_ops == ctx.checks.not_run
    # no set-up starts past the deadline beyond the one a reopen needs
    assert result["record"]["setup_runs"] <= 2
    assert result["record"]["restart_runs"] >= 1


def test_rag_turns_checks_fire_on_known_defect_and_faults(tmp_path):
    ctx, result = _run("rag_turns", tmp_path)
    record = result["record"]
    assert record["injected_failures"] > 0
    # the cache ignores the filter: a repeat with a new filter is served the
    # old answer, and each such turn is a failed op
    stale = ctx.checks.known["cache.stale_hits"]
    assert stale > 0 and ctx.checks.failed_ops == stale


def test_store_churn_restarts_both_kinds(tmp_path):
    ctx, result = _run("store_churn", tmp_path)
    restarts = result["record"]["restarts"]
    assert restarts["crash"] >= 1 and restarts["clean"] >= 1
    assert restarts["healed_conversation"] == restarts["crash"]
    assert restarts["healed_profiles"] == restarts["crash"]


@pytest.mark.parametrize("name", sorted(MODULES))
def test_traced_run_accounts_for_op_time(name, tmp_path):
    ctx, result = _run(name, tmp_path, trace=True)
    assert ctx.checks.unexpected == []
    metrics = result["metrics"]
    spans = metrics["_spans"]
    assert spans["ops"] > 0
    assert spans["max_residual_s"] < 1e-9
    assert 0.9 < metrics["bench.span_coverage"] <= 1.0
    assert metrics["bench.trace_overhead"] > 0
    assert any(key.endswith(".p50") for key in metrics)


class _SwappingHnsw(ann_hnsw.HnswIndex):
    """Returns a wrong document in place of the last hit of the fifth
    search (the first ones are the set-up builds' readiness probes)."""

    calls = 0
    swapped = False

    def search(self, query, k, ef_search=None):
        hits = super().search(query, k, ef_search=ef_search)
        _SwappingHnsw.calls += 1
        if _SwappingHnsw.calls == 5:
            others = [i for i in self._slot_of if i not in
                      {h.doc_id for h in hits}]
            last = hits[-1]
            hits[-1] = type(last)(doc_id=others[0], distance=last.distance,
                                  rank=last.rank)
            _SwappingHnsw.swapped = True
        return hits


def test_swapped_hit_is_caught(tmp_path, monkeypatch):
    monkeypatch.setattr(ann_hnsw, "HnswIndex", _SwappingHnsw)
    _SwappingHnsw.calls, _SwappingHnsw.swapped = 0, False
    ctx, _ = _run("ann_hnsw", tmp_path)
    assert _SwappingHnsw.swapped
    assert ctx.checks.failed_ops >= 1 and ctx.checks.unexpected


class _DroppingStore(rag_turns.ConversationStore):
    """Acknowledges one assistant message without logging it."""

    dropped = False

    def append_message(self, session_id, role, text, metadata=None):
        if not _DroppingStore.dropped and text.startswith("[mock]"):
            _DroppingStore.dropped = True
            return None
        return super().append_message(session_id, role, text, metadata)


def test_dropped_message_is_caught(tmp_path, monkeypatch):
    monkeypatch.setattr(rag_turns, "ConversationStore", _DroppingStore)
    _DroppingStore.dropped = False
    ctx, _ = _run("rag_turns", tmp_path)
    assert _DroppingStore.dropped
    assert any("persisted 1 messages" in p for p in ctx.checks.unexpected)


class _ReplayingStore(store_churn.ConversationStore):
    """Logs the first message of a store twice: a replayed record at the
    start of a session, beyond any window of its latest messages."""

    def append_message(self, session_id, role, text, metadata=None):
        if not getattr(self, "replayed", False):
            self.replayed = True
            super().append_message(session_id, role, text, metadata)
        return super().append_message(session_id, role, text, metadata)


def test_replayed_message_is_caught(tmp_path, monkeypatch):
    monkeypatch.setattr(store_churn, "ConversationStore", _ReplayingStore)
    ctx, _ = _run("store_churn", tmp_path)
    assert any("message counts differ" in p for p in ctx.checks.unexpected)


def test_exits_2_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark, the
    command fails without printing a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "rag_turns",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
