from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

AB_PATH = Path(__file__).resolve().parent.parent / "tools" / "ab.py"

END_TO_END = [
    {"name": "query_ms.p90", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "queries_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
]


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location("ab", AB_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result(p90: float, qps: float) -> dict:
    values = {"setup_s": 0.2, "queries_per_s": qps, "query_ms.p50": 1.0, "query_ms.p90": p90, "peak_rss_mb": 35.0}
    metrics = {name: {"value": value, "unit": ""} for name, value in values.items()}
    return {"correct": True, "attempted": 100, "failed": 0, "metrics": metrics}


def _log(parent: list[float], change: list[float], higher: bool = False) -> list[dict]:
    # one pair per seed, the side that runs first alternating as the tool does
    records = []
    for seed, (p, c) in enumerate(zip(parent, change)):
        runs = {"parent": p, "change": c}
        for side in ("parent", "change") if seed % 2 == 0 else ("change", "parent"):
            value = runs[side]
            result = _result(1.0, value) if higher else _result(value, 1.0)
            records.append({"workload": "paper", "seed": seed, "side": side, "result": result})
    return records


def _row(ab, records: list[dict], metric: str) -> dict:
    rows = ab.summarize(ab.pairs_of(records, "paper"), END_TO_END)
    return next(row for row in rows if row["metric"] == metric)


PARENT = [4.0, 4.1, 3.9, 4.2, 3.8, 4.0, 4.1, 3.9, 4.0, 4.05]


def test_pairs_follow_seed_and_side_whatever_the_order(ab) -> None:
    records = _log(PARENT, [p - 1.0 for p in PARENT])
    pairs = ab.pairs_of(records + [{"workload": "walks", "seed": 0, "side": "parent", "result": {}}], "paper")
    assert [(p["metrics"]["query_ms.p90"]["value"], c["metrics"]["query_ms.p90"]["value"]) for p, c in pairs] == [
        (p, p - 1.0) for p in PARENT
    ]


@pytest.mark.parametrize("higher", [False, True], ids=["lower-is-better", "higher-is-better"])
@pytest.mark.parametrize("wins, gain", [(10, True), (9, True), (8, False)])
def test_nine_in_ten_boundary(ab, higher, wins, gain) -> None:
    # the change is 1.0 better on `wins` pairs and 0.5 worse on the others
    better = 1.0 if higher else -1.0
    change = [p + better if i < wins else p - 0.5 * better for i, p in enumerate(PARENT)]
    row = _row(ab, _log(PARENT, change, higher), "queries_per_s" if higher else "query_ms.p90")
    assert (row["wins"], row["pairs"], row["gain"]) == (wins, 10, gain)
    assert not row["beyond_bound"]


def test_ties_count_for_neither_side(ab) -> None:
    row = _row(ab, _log(PARENT, list(PARENT)), "query_ms.p90")
    assert (row["wins"], row["gain"], row["relative"]) == (0, False, 0.0)


def test_gain_needs_a_median_gap_beyond_the_parent_iqr(ab) -> None:
    # wins on every pair, but by less than the parent's spread between its quartiles
    row = _row(ab, _log(PARENT, [p - 0.01 for p in PARENT]), "query_ms.p90")
    assert row["wins"] == 10
    assert row["parent_q3"] - row["parent_q1"] > 0.01
    assert not row["gain"]


def test_gain_needs_ten_pairs(ab) -> None:
    row = _row(ab, _log(PARENT[:9], [p - 1.0 for p in PARENT[:9]]), "query_ms.p90")
    assert (row["wins"], row["pairs"], row["gain"]) == (9, 9, False)


@pytest.mark.parametrize("higher", [False, True], ids=["lower-is-better", "higher-is-better"])
def test_worse_than_bound_is_flagged(ab, higher) -> None:
    change = [p * (0.7 if higher else 1.3) for p in PARENT]
    row = _row(ab, _log(PARENT, change, higher), "queries_per_s" if higher else "query_ms.p90")
    assert row["wins"] == 0 and row["beyond_bound"]


def test_main_alternates_sides_and_logs_every_run(ab, tmp_path, monkeypatch, capsys) -> None:
    calls = []

    def fake_run(tree, workload, seed, seconds):
        calls.append((tree.name, seed, seconds))
        return _result(3.0 if tree.name == "change" else 4.0, 1.0)

    monkeypatch.setattr(ab, "run_once", fake_run)
    log = tmp_path / "runs.jsonl"
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
            "--workload", "paper", "--seeds", "7-8", "--log", str(log)]
    assert ab.main(argv) == 0
    seconds = json.loads((AB_PATH.parent.parent / "BENCHMARK.json").read_text())["run_seconds"]
    assert calls == [("change", 7, seconds), ("parent", 7, seconds), ("parent", 8, seconds), ("change", 8, seconds)]
    records = [json.loads(line) for line in log.read_text().splitlines()]
    assert [(r["seed"], r["side"]) for r in records] == [(7, "change"), (7, "parent"), (8, "parent"), (8, "change")]
    out = capsys.readouterr().out
    assert "paper: 2 pairs" in out and "2/2" in out
