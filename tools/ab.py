"""Alternating parent/change runs of the benchmark, and the gain rule applied to them.

    python3 tools/ab.py --parent DIR --change DIR --workload W --seeds A-B [--log runs.jsonl]

For each seed S in A..B, runs ``python3 bench/run.py --workload W --seed S
--seconds T`` in the parent tree and in the change tree, one after the
other; the parent goes first on even seeds and the change on odd ones. T
is ``run_seconds`` of the BENCHMARK.json next to this script's tools/
directory. Each run's last stdout line (its JSON result) is appended to
the log as soon as the run ends, so an interrupted series keeps every run
made. The tool measures nothing itself.

Then, over every pair of the workload in the log, it prints per
end-to-end metric of BENCHMARK.json: the parent's median and quartiles,
the change's median, the relative change, and the pairs the change won
(ties count for neither side). "better" is read from BENCHMARK.json. A
gain holds when the change won at least 9 of every 10 pairs (and at least
10 pairs ran) and the medians differ, in the better direction, by more
than the parent's interquartile range. A metric whose change median is
worse than the parent median by more than its bound is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
#: a gain needs this many wins per 10 pairs, over at least MIN_PAIRS pairs
WINS_PER_10 = 9
MIN_PAIRS = 10


def parse_seeds(text: str) -> list[int]:
    first, sep, last = text.partition("-")
    seeds = list(range(int(first), int(last if sep else first) + 1))
    if not seeds:
        raise ValueError(f"empty seed range {text!r}")
    return seeds


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON result line of one bench/run.py run in tree."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise SystemExit(f"{tree}: bench/run.py exited {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def pairs_of(records: list[dict], workload: str) -> list[tuple[dict, dict]]:
    """(parent, change) results per seed of the workload, in log order."""
    waiting: dict[tuple[str, int], list[dict]] = {}
    pairs = []
    for record in records:
        if record["workload"] != workload:
            continue
        other = "change" if record["side"] == "parent" else "parent"
        queue = waiting.get((other, record["seed"]))
        if queue:
            match = queue.pop(0)
            pair = (match, record) if other == "parent" else (record, match)
            pairs.append((pair[0]["result"], pair[1]["result"]))
        else:
            waiting.setdefault((record["side"], record["seed"]), []).append(record)
    return pairs


def summarize(pairs: list[tuple[dict, dict]], end_to_end: list[dict]) -> list[dict]:
    """One row per end-to-end metric: medians, parent quartiles, wins and the gain verdict."""
    rows = []
    for metric in end_to_end:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        q1, median, q3 = statistics.quantiles(parent, n=4, method="inclusive") if len(parent) > 1 else parent * 3
        change_median = statistics.median(change)
        gap = (median - change_median) if lower else (change_median - median)
        worse = -gap / abs(median) if median else 0.0
        rows.append({
            "metric": name,
            "better": metric["better"],
            "parent_median": median,
            "parent_q1": q1,
            "parent_q3": q3,
            "change_median": change_median,
            "relative": (change_median - median) / abs(median) if median else 0.0,
            "wins": wins,
            "pairs": len(pairs),
            "gain": len(pairs) >= MIN_PAIRS and 10 * wins >= WINS_PER_10 * len(pairs) and gap > q3 - q1,
            "beyond_bound": worse > metric["bound"],
        })
    return rows


def render(workload: str, pairs: list[tuple[dict, dict]], rows: list[dict]) -> str:
    failed = [(p["failed"], c["failed"]) for p, c in pairs]
    correct = all(p["correct"] and c["correct"] for p, c in pairs)
    lines = [
        f"{workload}: {len(pairs)} pairs; all runs correct: {correct}; "
        f"failed (parent, change) per pair: {failed}",
        f"{'metric':16s} {'better':6s} {'parent median [q1, q3]':>34s} {'change median':>14s} "
        f"{'change':>8s} {'won':>7s}  verdict",
    ]
    for r in rows:
        verdict = "gain holds" if r["gain"] else "no gain"
        if r["beyond_bound"]:
            verdict += "; WORSE THAN BOUND"
        quartiles = f"{r['parent_median']:.6g} [{r['parent_q1']:.6g}, {r['parent_q3']:.6g}]"
        lines.append(
            f"{r['metric']:16s} {r['better']:6s} {quartiles:>34s} {r['change_median']:14.6g} "
            f"{r['relative']:+8.2%} {r['wins']:>3d}/{r['pairs']:<3d}  {verdict}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="A-B, both included")
    parser.add_argument("--log", type=Path, default=Path("ab_runs.jsonl"), help="JSONL file the runs are appended to")
    args = parser.parse_args(argv)
    benchmark = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for seed in args.seeds:
        order = ("parent", "change") if seed % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(sides[side], args.workload, seed, benchmark["run_seconds"])
            record = {"workload": args.workload, "seed": seed, "side": side, "tree": str(sides[side]), "result": result}
            with args.log.open("a", encoding="utf-8") as fh:
                fh.write(json.dumps(record) + "\n")
    records = [json.loads(line) for line in args.log.read_text(encoding="utf-8").splitlines() if line.strip()]
    pairs = pairs_of(records, args.workload)
    if not pairs:
        print(f"{args.workload}: no parent/change pair in {args.log}", file=sys.stderr)
        return 1
    print(render(args.workload, pairs, summarize(pairs, benchmark["end_to_end"])))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
