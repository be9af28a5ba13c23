"""EngineStats is one declarative metric table: every row round-trips,
old snapshots still load, render blocks and the per-tier predicates
follow the table, and every feed site and doc names real metrics."""

from __future__ import annotations

import ast
import json
import pathlib

import pytest

import repro
from repro.engine.stats import METRICS, RATES, EngineStats

TESTS = pathlib.Path(__file__).parent
REPO = TESTS.parent

#: Predicate -> the render blocks it watches.
PREDICATES = {
    "served": {"ingest", "sessions", "latency"},
    "replicating": {"replication", "replica", "replica lag"},
    "remote": {"remote", "resilience", "remote wire", "remote pool"},
    "cascading": {"cascade"},
}


def _value(metric, i):
    """A distinct non-zero value of the metric's kind."""
    if metric.kind == "shards":
        return [i, i + 1, 0]
    if metric.kind == "seconds":
        return i + 0.5
    return i


def _filled():
    stats = EngineStats()
    for i, m in enumerate(METRICS, start=1):
        setattr(stats, m.attr, _value(m, i))
    return stats


class TestTable:
    def test_rows_are_unique_and_well_formed(self):
        for field in ("attr", "key"):
            names = [getattr(m, field) for m in METRICS]
            assert len(set(names)) == len(names), field
        for m in METRICS:
            assert m.kind in ("counter", "gauge", "seconds", "shards")
            assert m.block and m.label and m.help
        labels = [(m.block, m.label) for m in METRICS]
        assert len(set(labels)) == len(labels)
        rate_keys = {key for key, _, _, _ in RATES}
        assert rate_keys.isdisjoint(m.key for m in METRICS)

    def test_every_row_round_trips_through_json(self):
        stats = _filled()
        clone = EngineStats.from_dict(json.loads(json.dumps(stats.as_dict())))
        for i, m in enumerate(METRICS, start=1):
            assert getattr(clone, m.attr) == _value(m, i), m.attr
            assert type(getattr(clone, m.attr)) is type(_value(m, i))
        assert clone.as_dict() == stats.as_dict()

    def test_fresh_stats_are_all_zero_and_own_their_lists(self):
        a, b = EngineStats(), EngineStats()
        assert not any(getattr(a, m.attr) for m in METRICS)
        assert a.shard_occupancy is not b.shard_occupancy

    def test_add_rejects_unknown_names(self):
        stats = EngineStats()
        with pytest.raises(AttributeError):
            stats.add(no_such_counter=1)
        with pytest.raises(AttributeError):
            stats.n_shedd = 1  # a misspelled attribute never appears
        stats.add(n_shed=2, n_late=1)
        stats.add(n_shed=3)
        assert (stats.n_shed, stats.n_late) == (5, 1)


class TestSnapshots:
    def test_checked_in_snapshot_loads_with_the_same_values(self):
        # Written by as_dict() before the metric table existed: every
        # key it emitted must still load, and come back out unchanged —
        # but for retired counters, which load and are dropped.
        payload = json.loads(
            (TESTS / "data" / "engine_stats_snapshot.json").read_text()
        )
        assert len(payload) == 61
        retired = {"index_demotions"}
        stats = EngineStats.from_dict(payload)
        again = stats.as_dict()
        rates = {key for key, _, _, _ in RATES}
        for key, value in payload.items():
            if key not in rates | retired:  # rates are recomputed
                assert again[key] == value, key
        assert set(payload) - retired <= set(again)
        assert not retired & set(again)

    def test_snapshot_carries_every_derived_rate(self):
        stats = EngineStats()
        stats.add(n_batches=2, n_executions=5, n_unknowns=1, n_lookups=8,
                  n_hits=6, n_latencies=4, total_latency=0.002,
                  family_coarse_hits=6, family_shortcircuits=4,
                  family_refinements=2)
        snapshot = stats.as_dict()
        assert snapshot["mean_batch"] == 2.5
        assert snapshot["unknown_rate"] == 0.2
        assert snapshot["hit_rate"] == 0.75
        assert snapshot["mean_latency_s"] == 0.0005
        assert snapshot["coarse_absorption"] == 0.8
        # Rates are recomputed on load, whatever the snapshot claimed.
        snapshot["hit_rate"] = 0.01
        assert EngineStats.from_dict(snapshot).hit_rate == 0.75

    @pytest.mark.parametrize("payload, named", [
        ([1, 2], "list"),
        ({"shed": "lots"}, "'shed'"),
        ({"shard_occupancy": 3}, "'shard_occupancy'"),
        ({"max_latency_s": None}, "'max_latency_s'"),
    ])
    def test_malformed_snapshot_raises_a_named_value_error(
        self, payload, named
    ):
        with pytest.raises(ValueError, match=named):
            EngineStats.from_dict(payload)


class TestRender:
    def test_idle_stats_render_nothing(self):
        assert EngineStats().render() == ""
        assert not any(getattr(EngineStats(), p) for p in PREDICATES)

    @pytest.mark.parametrize("metric", METRICS, ids=lambda m: m.attr)
    def test_a_block_appears_only_when_one_of_its_metrics_moved(
        self, metric
    ):
        stats = EngineStats()
        setattr(stats, metric.attr, _value(metric, 3))
        lines = stats.render().splitlines()
        assert [line.split(" : ")[0].rstrip() for line in lines] == [
            metric.block
        ]
        assert f"{metric.label}=" in lines[0]
        for name, blocks in PREDICATES.items():
            assert getattr(stats, name) == (metric.block in blocks), name


class TestFeedSites:
    def test_every_add_keyword_names_a_metric(self):
        """``add(**deltas)`` turns an attribute access into a string
        keyword, and some feed sites only run on fault paths: every
        keyword passed to ``.add(...)`` or ``_rec(...)`` under ``src/``
        must name a :data:`METRICS` attribute."""
        attrs = {m.attr for m in METRICS}
        root = pathlib.Path(repro.__file__).parent
        seen, bad = 0, []
        for path in root.rglob("*.py"):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            relay = {  # _rec's own ``add(**deltas)`` passes names through
                id(node) for rec in ast.walk(tree)
                if isinstance(rec, ast.FunctionDef) and rec.name == "_rec"
                for node in ast.walk(rec)
            }
            for node in ast.walk(tree):
                if not (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in ("add", "_rec")):
                    continue
                for kw in node.keywords:
                    if kw.arg is None and id(node) in relay:
                        continue
                    seen += 1
                    if kw.arg not in attrs:
                        bad.append(f"{path.name}:{node.lineno} {kw.arg}")
        assert bad == []
        assert seen > 30  # the guard really saw the feed sites


class TestDocs:
    def test_observability_section_lists_every_key(self):
        text = (REPO / "docs" / "serving.md").read_text(encoding="utf-8")
        section = text.split("## Observability", 1)[1].split("\n## ", 1)[0]
        keys = [m.key for m in METRICS] + [key for key, _, _, _ in RATES]
        missing = [key for key in keys if f"`{key}`" not in section]
        assert missing == []
