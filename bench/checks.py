"""Independent checks of glwalk outputs.

Nothing here imports glwalk. Each subcommand's output is compared with
oracles that share no code path with the program:

- |U(t)_{uv}| for H = -(A + kD): an mpmath eigensolver at 40 digits for
  n <= 12, scipy.linalg.expm (scaling and squaring, no eigensolver) above.
  The tolerance covers the float64 phase budget max|lambda| * t * eps,
  with ||H||_inf as the bound on max|lambda|.
- closed-walk counts: exact integer matrix powers for n <= 16; exact
  method-of-images sums for larger paths and cycles.
- distance and automorphisms: networkx.
- thresholds: the closed form, evaluated from the oracle order, networkx
  distance and the degree sequence.

Oracle results are cached per distinct input, so a round that repeats
pays for each oracle once. Run with --serve to check outputs sent as JSON
lines on stdin (the benchmark runs it this way, in its own process, so
the checks' memory and imports stay out of the measured process).
"""

from __future__ import annotations

import json
import math
import sys

import mpmath
import networkx as nx
import numpy as np
import scipy.linalg
from networkx.algorithms.isomorphism import GraphMatcher

EPS = float(np.finfo(float).eps)
MPMATH_MAX_N = 12
MPMATH_DPS = 40
INTEGER_POWERS_MAX_N = 16
INVOLUTION_SEARCH_MAX = 16
# absolute floor and phase-budget multiple of the amplitude tolerance
AMPLITUDE_FLOOR = 1e-8
PHASE_BUDGET_FACTOR = 16.0
# relative tolerance for closed-form numbers (threshold formulas, k grids)
FORMULA_RTOL = 1e-12
LOCALIZATION_TOL = 1e-6
SIGN_TOL = 1e-7
# glwalk's documented grouping rule: eigenvalues closer than this times
# max(1, spectral range) form one group (spectral.GROUPING_SCALE)
GROUP_RTOL = 1e-12

# glwalk peak's --epsilon default, which sets the reported threshold block
PEAK_EPSILON = 0.1
METHODS = {"two-level", "refined", "grid"}
SIGNS = {"plus", "minus", "null", "mixed"}


class CheckFailed(Exception):
    """An output disagrees with its oracle."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def close(a: float, b: float, rtol: float = FORMULA_RTOL) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


class TestGraph:
    """A graph rebuilt from the query's --graph flag by this module's own parser."""

    def __init__(self, spec: str):
        kind, _, rest = spec.partition(":")
        if kind in ("path", "cycle"):
            n = int(rest)
            edges = [(i, i + 1) for i in range(n - 1)]
            if kind == "cycle":
                edges.append((0, n - 1))
        elif kind == "bipartite":
            a, b = (int(x) for x in rest.split(","))
            n = a + b
            edges = [(i, a + j) for i in range(a) for j in range(b)]
        elif kind == "file":
            n, edges = self._read_edge_list(rest)
        else:
            raise ValueError(f"no oracle graph for {spec!r}")
        self.kind, self.n = kind, n
        self.adjacency = np.zeros((n, n))
        for i, j in edges:
            self.adjacency[i, j] = self.adjacency[j, i] = 1.0
        self.degrees = self.adjacency.sum(axis=1).astype(int)
        self.nx = nx.Graph()
        self.nx.add_nodes_from(range(n))
        self.nx.add_edges_from(edges)

    @staticmethod
    def _read_edge_list(path: str) -> tuple[int, list[tuple[int, int]]]:
        with open(path, encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
        n = int(lines[0].removeprefix("n="))
        return n, [tuple(int(x) for x in ln.split()) for ln in lines[1:]]

    def hamiltonian(self, k: float) -> np.ndarray:
        return -(self.adjacency + k * np.diag(self.degrees.astype(float)))


def _lattice_walks(length: int, displacement: int) -> int:
    # +-1 step sequences of the given length with the given sum
    if abs(displacement) > length or (length + displacement) % 2:
        return 0
    return math.comb(length, (length + displacement) // 2)


def path_closed_walks(n: int, x: int, length: int) -> int:
    """Closed walks at x on the n-vertex path, by the method of images."""
    period = 2 * (n + 1)
    total = 0
    for j in range(-(length // period) - 1, length // period + 2):
        total += _lattice_walks(length, j * period)
        total -= _lattice_walks(length, j * period + 2 * (x + 1))
    return total


def cycle_closed_walks(n: int, length: int) -> int:
    """Closed walks at any vertex of the n-cycle: step sums divisible by n."""
    return sum(_lattice_walks(length, j * n) for j in range(-(length // n), length // n + 1))


def group_indices(eigenvalues, rtol: float) -> list[list[int]]:
    """Runs of ascending eigenvalues closer than rtol * max(1, range)."""
    tol = rtol * max(1.0, float(eigenvalues[-1] - eigenvalues[0]))
    groups = [[0]]
    for j in range(1, len(eigenvalues)):
        if float(eigenvalues[j] - eigenvalues[j - 1]) <= tol:
            groups[-1].append(j)
        else:
            groups.append([j])
    return groups


class Oracles:
    """Reference results, cached per distinct input."""

    def __init__(self):
        self._graphs: dict[str, TestGraph] = {}
        self._cache: dict[tuple, object] = {}

    def _memo(self, key: tuple, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def graph(self, spec: str) -> TestGraph:
        if spec not in self._graphs:
            self._graphs[spec] = TestGraph(spec)
        return self._graphs[spec]

    def _mp_spectrum(self, spec: str, k: float):
        def compute():
            mpmath.mp.dps = MPMATH_DPS
            h = self.graph(spec).hamiltonian(k)
            values, vectors = mpmath.eigsy(mpmath.matrix(h.tolist()))
            order = sorted(range(len(values)), key=lambda j: values[j])
            return [values[j] for j in order], [[vectors[i, j] for j in order] for i in range(h.shape[0])]

        return self._memo(("mp", spec, k), compute)

    def amplitude(self, spec: str, k: float, u: int, v: int, t: float) -> tuple[float, float]:
        """|U(t)_{uv}| and the tolerance a float64 result must meet."""
        g = self.graph(spec)
        h = g.hamiltonian(k)
        tol = AMPLITUDE_FLOOR + PHASE_BUDGET_FACTOR * float(np.max(np.sum(np.abs(h), axis=1))) * abs(t) * EPS

        def compute():
            if g.n <= MPMATH_MAX_N:
                values, vectors = self._mp_spectrum(spec, k)
                mpmath.mp.dps = MPMATH_DPS
                tt = mpmath.mpf(t)
                total = mpmath.fsum(
                    vectors[u][j] * vectors[v][j] * mpmath.expj(-values[j] * tt)
                    for j in range(g.n)
                )
                return float(abs(total))
            return float(abs(scipy.linalg.expm(-1j * t * h)[u, v]))

        return self._memo(("amp", spec, k, u, v, t), compute), tol

    def closed_walks(self, spec: str, x: int) -> list[int]:
        """(A^l)_{xx} for l = 1..2n."""
        g = self.graph(spec)
        horizon = 2 * g.n

        def compute():
            if g.n <= INTEGER_POWERS_MAX_N:
                a = g.adjacency.astype(int).astype(object)
                power, counts = a.copy(), []
                for _ in range(horizon):
                    counts.append(int(power[x, x]))
                    power = power @ a
                return counts
            if g.kind == "path":
                return [path_closed_walks(g.n, x, ell) for ell in range(1, horizon + 1)]
            if g.kind == "cycle":
                return [cycle_closed_walks(g.n, ell) for ell in range(1, horizon + 1)]
            raise CheckFailed(f"no walk-count oracle for {spec} (n={g.n})")

        return self._memo(("walks", spec, x), compute)

    def order(self, spec: str, u: int, v: int) -> tuple[float, tuple[int, int, int] | None]:
        """Cospectrality order and the first diverging (length, count_u, count_v)."""
        for ell, (cu, cv) in enumerate(zip(self.closed_walks(spec, u), self.closed_walks(spec, v)), 1):
            if cu != cv:
                return ell - 1, (ell, cu, cv)
        return math.inf, None

    def distance(self, spec: str, u: int, v: int) -> float:
        try:
            return nx.shortest_path_length(self.graph(spec).nx, u, v)
        except nx.NetworkXNoPath:
            return math.inf

    def threshold(self, spec: str, u: int, v: int, epsilon: float) -> dict | None:
        """The closed-form threshold, or None where its hypotheses fail."""
        g = self.graph(spec)
        deg = [int(d) for d in g.degrees]
        others = [deg[w] for w in range(g.n) if w not in (u, v)]
        if u == v or deg[u] != deg[v] or not others or len(set(others)) != 1 or others[0] == deg[u]:
            return None
        if not 0.0 < epsilon < 1.0:
            return None
        distance = self.distance(spec, u, v)
        order, _ = self.order(spec, u, v)
        if math.isinf(distance) or order < distance:
            return None
        if math.isinf(order):
            eps_exponent, degree_exponent = 2.0, 0.5
        else:
            span = order - distance + 1
            eps_exponent, degree_exponent = min(2.0, float(span)), max(0.5, distance / span)
        m = max(deg)
        q_min = 16.0 * epsilon ** (-1.0 / eps_exponent) * float(m) ** (1.0 + degree_exponent)
        spread = abs(deg[u] - others[0])
        return {
            "q_min": q_min,
            "k_min": q_min / spread,
            "t_bound": 2.0 * math.pi * (q_min + m) ** (distance - 1),
            "eps_exponent": eps_exponent,
            "degree_exponent": degree_exponent,
            "spread": spread,
            "max_degree": m,
            "distance": distance,
        }

    def _groups(self, spec: str, k: float | None):
        """Eigenvalue groups, eigenvectors and the smallest gap between groups
        of H (or of A when k is None)."""

        def compute():
            g = self.graph(spec)
            if k is not None and g.n <= MPMATH_MAX_N:
                values, rows = self._mp_spectrum(spec, k)
                vectors = np.array([[float(x) for x in row] for row in rows])
            else:
                values, vectors = scipy.linalg.eigh(g.adjacency if k is None else g.hamiltonian(k))
            groups = group_indices(values, GROUP_RTOL)
            gaps = [float(values[b[0]] - values[a[-1]]) for a, b in zip(groups, groups[1:])]
            return groups, vectors, min(gaps, default=math.inf)

        return self._memo(("groups", spec, k), compute)

    def group_count(self, spec: str, k: float | None) -> int:
        return len(self._groups(spec, k)[0])

    def top_localization(self, spec: str, k: float, u: int, v: int) -> tuple[list[float], float]:
        """The two largest group masses (P_r)_uu + (P_r)_vv and their tolerance.

        A float64 eigenvector is determined only to eps * ||H|| / gap inside
        nearly degenerate groups, so the tolerance grows as the smallest gap
        between groups shrinks.
        """
        groups, vectors, gap = self._groups(spec, k)
        masses = [float(np.sum(vectors[u, g] ** 2) + np.sum(vectors[v, g] ** 2)) for g in groups]
        h = self.graph(spec).hamiltonian(k)
        tol = LOCALIZATION_TOL + PHASE_BUDGET_FACTOR * EPS * float(np.max(np.sum(np.abs(h), axis=1))) / gap
        return sorted(masses, reverse=True)[:2], tol

    def sign_pattern(self, spec: str, u: int, v: int) -> list[str]:
        """Per adjacency eigenspace P: P e_u = +P e_v, -P e_v, both zero, or neither."""
        groups, vectors, _ = self._groups(spec, None)
        signs = []
        for g in groups:
            cols = vectors[:, g]
            pu, pv = cols @ cols[u], cols @ cols[v]
            if max(np.max(np.abs(pu)), np.max(np.abs(pv))) <= SIGN_TOL:
                signs.append("null")
            elif np.max(np.abs(pu - pv)) <= SIGN_TOL:
                signs.append("plus")
            elif np.max(np.abs(pu + pv)) <= SIGN_TOL:
                signs.append("minus")
            else:
                signs.append("mixed")
        return signs

    def involution_exists(self, spec: str, u: int, v: int) -> bool:
        """Whether some involutive automorphism maps u to v (networkx enumeration)."""
        g = self.graph(spec).nx
        return any(
            m[u] == v and all(m[m[x]] == x for x in m)
            for m in GraphMatcher(g, g).isomorphisms_iter()
        )


def _order_json(order: float):
    return "infinite" if math.isinf(order) else order


class Checker:
    """Checks each query's output against the oracles."""

    def __init__(self, queries: list[dict]):
        self.queries = queries
        self.oracles = Oracles()

    def check(self, index: int, output: str) -> str | None:
        """None when the output passes, else the reason it was rejected."""
        q = self.queries[index]
        try:
            getattr(self, f"_check_{q['kind']}")(q, output)
        except CheckFailed as exc:
            return f"{' '.join(q['argv'])}: {exc}"
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"{' '.join(q['argv'])}: malformed output ({type(exc).__name__}: {exc})"
        return None

    def _amplitude(self, q: dict, k: float, t: float, reported: float, what: str) -> None:
        expected, tol = self.oracles.amplitude(q["graph"], k, q["u"], q["v"], t)
        require(
            abs(reported - expected) <= tol,
            f"{what}: |U(t={t!r})| = {reported!r}, oracle {expected!r} (tol {tol:.3g})",
        )

    def guarantee(self, q: dict, k: float, fidelity: float, t_star: float, epsilon: float) -> None:
        """Above k_min the peak fidelity is >= 1 - eps within the readout-time bound."""
        th = self.oracles.threshold(q["graph"], q["u"], q["v"], epsilon)
        if th is None or abs(k) <= th["k_min"]:
            return
        bound = 2.0 * math.pi * (abs(k) * th["spread"] + th["max_degree"]) ** (th["distance"] - 1)
        require(fidelity >= 1.0 - epsilon, f"k={k!r} > k_min but fidelity {fidelity!r} < 1 - {epsilon}")
        require(t_star <= bound, f"k={k!r} > k_min but t* {t_star!r} exceeds the readout bound {bound!r}")

    def _threshold_fields(self, report: dict | None, expected: dict | None, epsilon: float) -> None:
        if expected is None:
            require(report is None, f"threshold {report!r} where none applies")
            return
        require(report is not None, "threshold missing where the hypotheses hold")
        require(report["epsilon"] == epsilon, "threshold epsilon not echoed")
        for key in ("q_min", "k_min", "t_bound"):
            require(close(report[key], expected[key]), f"{key} {report[key]!r} != {expected[key]!r}")

    def _check_peak(self, q: dict, output: str) -> None:
        r = json.loads(output)
        o = self.oracles
        spec, u, v, k = q["graph"], q["u"], q["v"], q["k"]
        require((r["graph"], r["u"], r["v"]) == (spec, u, v), "query not echoed")
        require(r["method"] in METHODS, f"unknown method {r['method']!r}")
        f, t = r["fidelity"], r["t_star"]
        self._amplitude(q, k, t, f, "peak")
        require(close(r["probability"], f * f), "probability != fidelity^2")
        self._threshold_fields(r["threshold"], o.threshold(spec, u, v, PEAK_EPSILON), PEAK_EPSILON)
        require(r["cospectrality_order"] == _order_json(o.order(spec, u, v)[0]), "cospectrality order")
        signs = r["sign_pattern"]
        require(set(signs) <= SIGNS and len(signs) == o.group_count(spec, k), "sign pattern shape")
        top, tol = o.top_localization(spec, k, u, v)
        require(
            len(r["localization_mass_top_groups"]) == len(top)
            and all(abs(a - b) <= tol for a, b in zip(r["localization_mass_top_groups"], top)),
            f"localization masses {r['localization_mass_top_groups']!r} != {top!r}",
        )
        if q.get("paper"):
            self.guarantee(q, k, f, t, PEAK_EPSILON)

    def _check_sweep(self, q: dict, output: str) -> None:
        lines = output.splitlines()
        epsilon = q["epsilon"]
        header = "k,fidelity,t_star" + (",crosses_threshold" if epsilon is not None else "")
        require(lines[0] == header, f"header {lines[0]!r}")
        rows = [line.split(",") for line in lines[1:]]
        require(len(rows) == q["steps"], f"{len(rows)} rows for {q['steps']} steps")
        ks = np.linspace(q["kmin"], q["kmax"], q["steps"])
        k_min = None
        if epsilon is not None:
            th = self.oracles.threshold(q["graph"], q["u"], q["v"], epsilon)
            require(th is not None, "threshold column where no threshold applies")
            k_min = th["k_min"]
        crossed = False
        for row, k_grid in zip(rows, ks):
            k, f, t = float(row[0]), float(row[1]), float(row[2])
            require(abs(k - k_grid) <= 1e-12 * max(1.0, abs(k_grid)), f"k {k!r} off the grid")
            self._amplitude(q, k, t, f, f"sweep row k={k!r}")
            if k_min is not None:
                expected = int(not crossed and abs(k) > k_min)
                crossed = crossed or bool(expected)
                require(int(row[3]) == expected, f"crosses_threshold {row[3]} at k={k!r}")
            if q.get("paper"):
                self.guarantee(q, k, f, t, epsilon if epsilon is not None else PEAK_EPSILON)

    def _check_fidelity(self, q: dict, output: str) -> None:
        lines = output.splitlines()
        require(lines[0] == "t,probability", f"header {lines[0]!r}")
        samples = q["samples"]
        require(len(lines) == samples + 1, f"{len(lines) - 1} samples, expected {samples}")
        data = np.array([line.split(",") for line in lines[1:]], dtype=float)
        times = np.linspace(0.0, q["tmax"], samples)
        require(np.all(np.abs(data[:, 0] - times) <= 1e-12 * q["tmax"]), "time grid")
        probabilities = data[:, 1]
        require(abs(probabilities[0] - float(q["u"] == q["v"])) <= AMPLITUDE_FLOOR, "probability at t=0")
        require(np.all((probabilities >= -AMPLITUDE_FLOOR) & (probabilities <= 1.0 + AMPLITUDE_FLOOR)),
                "probability outside [0, 1]")
        for i in fidelity_check_indices(samples, self.oracles.graph(q["graph"]).n):
            t, p = float(data[i, 0]), float(data[i, 1])
            expected, tol = self.oracles.amplitude(q["graph"], q["k"], q["u"], q["v"], t)
            require(
                abs(p - expected * expected) <= 2.0 * tol + tol * tol,
                f"P(t={t!r}) = {p!r}, oracle {expected * expected!r}",
            )

    def _check_bound(self, q: dict, output: str) -> None:
        r = json.loads(output)
        o = self.oracles
        spec, u, v = q["graph"], q["u"], q["v"]
        require((r["graph"], r["u"], r["v"], r["epsilon"]) == (spec, u, v, q["epsilon"]), "query not echoed")
        expected = o.threshold(spec, u, v, q["epsilon"])
        require(expected is not None, "bound reported where the hypotheses fail")
        for key in ("q_min", "k_min", "t_bound", "eps_exponent", "degree_exponent"):
            require(close(r[key], expected[key]), f"{key} {r[key]!r} != {expected[key]!r}")
        require(r["max_degree"] == expected["max_degree"], "max_degree")
        require(r["distance"] == expected["distance"], f"distance {r['distance']} != {expected['distance']}")
        require(r["cospectrality_order"] == _order_json(o.order(spec, u, v)[0]), "cospectrality order")

    def _check_analyze(self, q: dict, output: str) -> None:
        r = json.loads(output)
        o = self.oracles
        spec, u, v = q["graph"], q["u"], q["v"]
        require((r["graph"], r["u"], r["v"]) == (spec, u, v), "query not echoed")
        order, divergence = o.order(spec, u, v)
        require(r["cospectrality_order"] == _order_json(order), f"order {r['cospectrality_order']!r} != {order}")
        reported = r["first_divergence"]
        if divergence is None:
            require(reported is None, "first_divergence for a cospectral pair")
        else:
            require(
                reported is not None
                and (reported["length"], reported["count_u"], reported["count_v"]) == divergence,
                f"first_divergence {reported!r} != {divergence}",
            )
        require(r["projector_cospectral"] == math.isinf(order), "projector_cospectral")
        n = o.graph(spec).n
        require(r["involution_searched"] == (n <= INVOLUTION_SEARCH_MAX), "involution_searched")
        sigma = r["involution"]
        if sigma is not None:
            g = o.graph(spec).nx
            require(sorted(sigma) == list(range(n)), "involution is not a permutation")
            require(sigma[u] == v, "involution does not map u to v")
            require(all(sigma[sigma[x]] == x for x in range(n)), "involution is not involutive")
            require(all(g.has_edge(sigma[a], sigma[b]) for a, b in g.edges), "involution is not an automorphism")
        elif r["involution_searched"]:
            require(not o.involution_exists(spec, u, v), "no involution reported but one exists")
        require(r["sign_pattern"] == o.sign_pattern(spec, u, v), "sign pattern")


def fidelity_check_indices(samples: int, n: int) -> list[int]:
    """Curve samples compared with the amplitude oracle."""
    if n <= MPMATH_MAX_N:
        return sorted({1, samples // 3, (2 * samples) // 3, samples - 1})
    return sorted({samples // 2, samples - 1})


def serve(stdin, stdout) -> None:
    """First line {"queries": [...]}; then {"i": index, "out": text} per output."""
    checker = Checker(json.loads(stdin.readline())["queries"])
    for line in stdin:
        msg = json.loads(line)
        reason = checker.check(msg["i"], msg["out"])
        stdout.write(json.dumps({"ok": reason is None, "why": reason}) + "\n")
        stdout.flush()


if __name__ == "__main__":
    if sys.argv[1:] != ["--serve"]:
        raise SystemExit("usage: checks.py --serve")
    serve(sys.stdin, sys.stdout)
