"""Self-test of the output checks: genuine outputs pass, altered ones fail.

    python3 bench/selftest.py

Runs a few glwalk queries of every kind, confirms the checker accepts each
genuine output, then feeds one altered output per check and confirms the
checker rejects it. It also cross-checks the closed-form walk counts with
integer matrix powers. Exits 1 if any expectation fails.
"""

from __future__ import annotations

import json
import sys

import run  # pins BLAS threads before numpy loads
import checks
import workloads as W


def edit_json(fn):
    def mutate(output: str) -> str:
        report = json.loads(output)
        fn(report)
        return json.dumps(report, indent=2) + "\n"

    return mutate


def edit_csv(row: int, column: int, fn):
    def mutate(output: str) -> str:
        lines = output.splitlines()
        cells = lines[row].split(",")
        cells[column] = repr(fn(float(cells[column])))
        lines[row] = ",".join(cells)
        return "\n".join(lines) + "\n"

    return mutate


def _lower_fidelity(r):
    r["fidelity"] -= 0.05
    r["probability"] = r["fidelity"] ** 2


def _set(key, value):
    def fn(r):
        r[key] = value

    return fn


def _scale(key, factor, inner=None):
    def fn(r):
        target = r[inner] if inner else r
        target[key] *= factor

    return fn


def _first_divergence_count(r):
    r["first_divergence"]["count_v"] += 1


def _flip_first_sign(r):
    r["sign_pattern"][0] = "minus" if r["sign_pattern"][0] == "plus" else "plus"


def _shift_time_grid(output: str) -> str:
    lines = output.splitlines()
    lines[1:] = [f"{float(t) + 1e-3!r},{p}" for t, p in (line.split(",") for line in lines[1:])]
    return "\n".join(lines) + "\n"


def main() -> int:
    cli = run.import_glwalk()
    path6_peak = W.peak_query("path:6", 0, 5, 150.0, paper=True)
    cycle_peak = W.peak_query("cycle:20", 3, 8, 0.5)
    sweep = W.sweep_query("path:5", 0, 4, 70.0, 200.0, 4, 0.1, paper=True)
    small_curve = W.fidelity_query("bipartite:2,4", 0, 1, 100.0, 20.0, 200)
    large_curve = W.fidelity_query("path:40", 3, 30, 0.7, 30.0, 101)
    bound = W.bound_query("path:6", 0, 5, 0.1)
    mirror = W.analyze_query("path:6", 0, 5)
    unpaired = W.analyze_query("path:6", 0, 1)
    diverging = W.analyze_query("path:20", 3, 10)
    checked = checks.fidelity_check_indices(200, 10)

    # (query, label, alteration or None for the genuine output)
    cases = [
        (path6_peak, "peak: fidelity off the oracle", edit_json(_lower_fidelity)),
        (path6_peak, "peak: t* moved to half the beat", edit_json(_scale("t_star", 0.5))),
        (path6_peak, "peak: threshold k_min", edit_json(_scale("k_min", 1.01, "threshold"))),
        (path6_peak, "peak: cospectrality order", edit_json(_set("cospectrality_order", 3))),
        (path6_peak, "peak: sign pattern length", edit_json(lambda r: r["sign_pattern"].pop())),
        (path6_peak, "peak: localization masses",
         edit_json(lambda r: r.__setitem__("localization_mass_top_groups",
                                           [m - 0.01 for m in r["localization_mass_top_groups"]]))),
        (cycle_peak, "peak (expm oracle): fidelity", edit_json(_lower_fidelity)),
        (sweep, "sweep: row fidelity", edit_csv(2, 1, lambda f: f - 0.05)),
        (sweep, "sweep: k off the grid", edit_csv(1, 0, lambda k: k + 1.0)),
        (sweep, "sweep: threshold marker", edit_csv(1, 3, lambda m: 1)),
        (small_curve, "fidelity: sample off the oracle", edit_csv(checked[1] + 1, 1, lambda p: p + 0.05)),
        (small_curve, "fidelity: time grid", _shift_time_grid),
        (small_curve, "fidelity: probability above 1", edit_csv(5, 1, lambda p: 1.5)),
        (large_curve, "fidelity (expm oracle): last sample", edit_csv(101, 1, lambda p: p + 0.05)),
        (bound, "bound: k_min", edit_json(_scale("k_min", 1.001))),
        (bound, "bound: distance", edit_json(lambda r: r.__setitem__("distance", r["distance"] + 1))),
        (bound, "bound: cospectrality order", edit_json(_set("cospectrality_order", 7))),
        (bound, "bound: degree exponent", edit_json(_set("degree_exponent", 1.0))),
        (mirror, "analyze: order", edit_json(_set("cospectrality_order", 5))),
        (mirror, "analyze: involution not an automorphism",
         edit_json(_set("involution", [5, 1, 2, 3, 4, 0]))),
        (mirror, "analyze: 'none found' where one exists", edit_json(_set("involution", None))),
        (mirror, "analyze: involution_searched", edit_json(_set("involution_searched", False))),
        (mirror, "analyze: sign pattern", edit_json(_flip_first_sign)),
        (unpaired, "analyze: involution where none exists",
         edit_json(_set("involution", [1, 0, 2, 3, 4, 5]))),
        (diverging, "analyze: first divergence counts", edit_json(_first_divergence_count)),
        (diverging, "analyze: projector_cospectral", edit_json(_set("projector_cospectral", True))),
    ]
    queries = []
    for q, _, _ in cases:
        if q not in queries:
            queries.append(q)
    checker = checks.Checker(queries)
    outputs = {}
    ok = True
    for i, q in enumerate(queries):
        code, text, _ = run.run_query(cli, q["argv"])
        outputs[i] = text
        reason = checker.check(i, text) if code == 0 else f"exit {code}: {text}"
        ok &= reason is None
        print(f"{'PASS' if reason is None else 'FAIL'} genuine {' '.join(q['argv'])}"
              + (f"\n     {reason}" if reason else ""))
    for q, label, mutate in cases:
        i = queries.index(q)
        reason = checker.check(i, mutate(outputs[i]))
        ok &= reason is not None
        print(f"{'PASS' if reason else 'FAIL'} rejects {label}" + (f"\n     {reason}" if reason else ""))

    def expect_rejected(label, call):
        nonlocal ok
        try:
            call()
        except checks.CheckFailed as exc:
            print(f"PASS rejects {label}\n     {exc}")
            return
        ok = False
        print(f"FAIL rejects {label}")

    expect_rejected("guarantee: fidelity below 1 - eps above k_min",
                    lambda: checker.guarantee(path6_peak, 150.0, 0.85, 1e9, 0.1))
    expect_rejected("guarantee: t* beyond the readout bound",
                    lambda: checker.guarantee(path6_peak, 150.0, 0.99, 1e13, 0.1))

    oracles = checks.Oracles()
    for n in (10, 16):
        powers = oracles.closed_walks(f"path:{n}", 3), oracles.closed_walks(f"cycle:{n}", 0)
        closed = ([checks.path_closed_walks(n, 3, ell) for ell in range(1, 2 * n + 1)],
                  [checks.cycle_closed_walks(n, ell) for ell in range(1, 2 * n + 1)])
        agree = powers == closed
        ok &= agree
        print(f"{'PASS' if agree else 'FAIL'} closed-form walk counts match integer powers (n={n})")
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
