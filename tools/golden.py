"""Golden corpus of glwalk CLI runs, for byte-identity checks between two trees.

    python3 tools/golden.py --out golden.json [--src DIR]
    python3 tools/golden.py --compare A.json B.json [--rtol R]

The first form runs every command of a fixed corpus through
``python -m glwalk`` in a fresh process with one BLAS/OpenMP thread, importing
glwalk from DIR (default: the ``src`` next to this script), and writes
``{command: [exit code, stdout, stderr]}`` as JSON. The corpus covers all five
subcommands, every model spelling, and path, cycle, complete bipartite and
edge-list graphs: seeded G(n, p) files with loop lines and five fixed files,
one with a non-finite loop weight, one with no edges, one whose pair has
cospectrality order equal to its distance and path:8 in two numberings. The
commands name each file by a relative path inside a temporary working
directory so the keys do not depend on where it lives. The second form lists
the commands whose exit code, stdout or stderr differ between two such files,
and exits 1 if any do. With --rtol R, two numbers in stdout or stderr are
equal when |a - b| <= R * max(1, |a|, |b|), while the exit code and all other
text must still match exactly; each differing command is printed with the
largest scaled difference |a - b| / max(1, |a|, |b|) of its numbers, or with
"text" when its exit code or text differs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

REPO_SRC = Path(__file__).resolve().parent.parent / "src"
#: commands run at once; each is a short single-threaded process
WORKERS = 2

#: edge-list files written into the working directory: name -> (n, p, seed)
GNP_FILES = {"gnp12.txt": (12, 0.35, 12), "gnp30.txt": (30, 0.2, 30), "gnp150.txt": (150, 10 / 150, 150)}
#: edge-list files written verbatim into the working directory: name -> text
TEXT_FILES = {
    "nanloop6.txt": "n=6\nloop 0 nan\n0 1\n1 2\n2 3\n3 4\n4 5\n",
    # one eigenvalue group at every k, so each sweep row takes the grid fallback
    "empty4.txt": "n=4\n",
    # two degree classes; the pair (3, 5) has cospectrality order = distance = 3
    "twoclass8.txt": "n=8\n0 2\n0 4\n0 5\n1 5\n1 6\n1 7\n2 4\n2 6\n3 6\n3 7\n4 7\n",
    # path:8 numbered along the path, whose endpoints the reflection x -> 7 - x swaps, and the
    # path 0-1-2-3-5-4-6-7, whose endpoints neither closed-form candidate swaps, so they are counted
    "path8.txt": "n=8\n0 1\n1 2\n2 3\n3 4\n4 5\n5 6\n6 7\n",
    "path8-relabelled.txt": "n=8\n0 1\n1 2\n2 3\n3 5\n4 5\n4 6\n6 7\n",
}

#: (graph, u, v) pairs that get analyze, bound and a peak per model
PAIRS = [
    ("path:2", 0, 1),
    ("path:3", 0, 2),
    ("path:4", 0, 3),
    ("path:4", 0, 1),
    ("path:5", 0, 4),
    ("path:6", 0, 5),
    ("path:6", 1, 4),
    ("path:20", 3, 16),
    ("path:40", 2, 9),
    ("cycle:6", 0, 3),
    ("cycle:24", 0, 12),
    ("cycle:31", 4, 20),
    ("bipartite:2,4", 0, 1),
    ("bipartite:3,9", 0, 4),
    ("bipartite:3,9", 0, 1),
    ("bipartite:10,10", 0, 1),
    ("bipartite:10,10", 0, 10),
    ("file:gnp12.txt", 0, 5),
    ("file:gnp30.txt", 3, 17),
    ("file:gnp150.txt", 3, 17),
]

MODELS = [
    "adjacency",
    "laplacian",
    "signless",
    "generalized:0",
    "generalized:-1",
    "generalized:0.9",
    "generalized:143",
    "generalized:-1.5e2",
    "loops:{u},{v},20",
]

#: commands outside the per-pair grid: curves, sweeps, grid peaks, large
#: graphs, supplied involutions, error paths, non-finite inputs and negative
#: numbers in scientific notation
EXTRA = [
    "fidelity --graph path:6 --model adjacency --u 0 --v 5 --tmax 50 --samples 501",
    "fidelity --graph path:6 --model generalized:143 --u 0 --v 5 --tmax 1e9 --samples 301",
    "fidelity --graph cycle:24 --model laplacian --u 0 --v 12 --tmax 30 --samples 257 --json",
    "fidelity --graph bipartite:3,9 --model signless --u 0 --v 4 --tmax 20 --samples 100",
    "fidelity --graph bipartite:10,10 --model loops:0,1,5 --u 0 --v 1 --tmax 20 --samples 100",
    "fidelity --graph file:gnp30.txt --model generalized:0.5 --u 3 --v 17 --tmax 40 --samples 400",
    "fidelity --graph path:3 --model adjacency --u 1 --v 1 --tmax 5 --samples 11",
    "sweep --graph path:6 --u 0 --v 5 --kmin 0 --kmax 150 --steps 6 --epsilon 0.1",
    "sweep --graph path:6 --u 0 --v 5 --kmin 100 --kmax 200 --steps 4 --json",
    "sweep --graph path:20 --u 3 --v 16 --kmin -2 --kmax 2 --steps 3 --samples 5001",
    "sweep --graph bipartite:2,9 --u 0 --v 1 --kmin 1 --kmax 50 --steps 3 --threshold",
    "sweep --graph bipartite:2,4 --u 0 --v 1 --kmin 10 --kmax 90 --steps 3 --epsilon 0.2",
    "sweep --graph cycle:24 --u 0 --v 12 --kmin 0 --kmax 1 --steps 2 --threshold",
    "sweep --graph path:200 --u 0 --v 199 --kmin 1 --kmax 2 --steps 0 --epsilon 0.1",
    "peak --graph path:60 --model adjacency --u 0 --v 59 --strategy grid --tmax 100 --samples 20001",
    "peak --graph cycle:60 --model generalized:0.5 --u 0 --v 30 --strategy grid --samples 10001",
    "peak --graph path:6 --model generalized:143 --u 0 --v 5 --refine-samples 10007",
    "peak --graph path:6 --model generalized:143 --u 0 --v 5 --window 0.2 --epsilon 0.3",
    "peak --graph path:6 --model adjacency --u 0 --v 5 --epsilon 1.5",
    "peak --graph path:7 --model generalized:143 --u 0 --v 6",
    "peak --graph path:100 --model generalized:0.5 --u 0 --v 99",
    "peak --graph cycle:200 --model adjacency --u 0 --v 100",
    "peak --graph cycle:800 --model adjacency --u 0 --v 5",
    "peak --graph file:gnp150.txt --model generalized:0.3 --u 0 --v 1",
    "analyze --graph path:60 --u 0 --v 59",
    "analyze --graph path:200 --u 0 --v 5",
    "analyze --graph path:200 --u 0 --v 199",
    "analyze --graph cycle:60 --u 0 --v 30",
    "analyze --graph cycle:200 --u 0 --v 100",
    "analyze --graph bipartite:100,100 --u 0 --v 1",
    "analyze --graph path:6 --u 0 --v 5 --involution 5,4,3,2,1,0",
    "analyze --graph path:6 --u 0 --v 5 --involution 1,0,2,3,4,5",
    "analyze --graph path:17 --u 0 --v 16",
    "analyze --graph path:4 --u 0 --v 0",
    "bound --graph path:60 --u 0 --v 59 --epsilon 0.1",
    "bound --graph path:200 --u 0 --v 199 --epsilon 0.1",
    "bound --graph path:6 --u 0 --v 5 --epsilon 0",
    "bound --graph bipartite:10,10 --u 0 --v 1 --epsilon 0.25",
    "bound --graph path:6 --u 0 --v 9 --epsilon 0.1",
    "peak --graph path:6 --model nonsense --u 0 --v 5",
    "peak --graph file:missing.txt --model adjacency --u 0 --v 1",
    "fidelity --graph path:6 --u 0 --v 5",
    "peak --graph path:6 --model adjacency --u 0 --v 5 --strategy grid --tmax nan --samples 11",
    "peak --graph path:6 --model adjacency --u 0 --v 5 --strategy grid --tmax inf --samples 11",
    "fidelity --graph path:6 --model adjacency --u 0 --v 5 --tmax nan --samples 11",
    "fidelity --graph path:6 --model adjacency --u 0 --v 5 --tmax inf --samples 11",
    "sweep --graph path:6 --u 0 --v 5 --kmin nan --kmax 1 --steps 2",
    "sweep --graph path:6 --u 0 --v 5 --kmin 0 --kmax inf --steps 2",
    "sweep --graph path:6 --u 0 --v 5 --kmin 1 --kmax 2 --steps 2 --tmax nan",
    "sweep --graph path:6 --u 0 --v 5 --kmin 1 --kmax 2 --steps 2 --samples 1",
    "peak --graph path:6 --model generalized:nan --u 0 --v 5",
    "peak --graph path:6 --model generalized:inf --u 0 --v 5",
    "peak --graph path:6 --model loops:0,5,nan --u 0 --v 5",
    "analyze --graph file:nanloop6.txt --u 0 --v 5",
    # sweeps whose peak searches run in lockstep
    "sweep --graph path:6 --u 0 --v 5 --kmin 100 --kmax 190 --steps 16 --epsilon 0.1",
    "sweep --graph bipartite:2,5 --u 0 --v 1 --kmin 120 --kmax 260 --steps 12 --json",
    "sweep --graph path:20 --u 3 --v 16 --kmin -1.5 --kmax 1.5 --steps 12",
    "sweep --graph cycle:24 --u 0 --v 12 --kmin -1 --kmax 1 --steps 9 --tmax 60 --samples 20001",
    "sweep --graph file:empty4.txt --u 0 --v 3 --kmin -1 --kmax 1 --steps 5 --tmax 20 --samples 1001",
    # curves around multiples of 4096 rows, and so of the CSV block (glwalk.cli.CSV_BLOCK_ROWS)
    "fidelity --graph path:20 --model generalized:0.5 --u 3 --v 16 --tmax 40 --samples 4095",
    "fidelity --graph path:20 --model generalized:0.5 --u 3 --v 16 --tmax 40 --samples 4096",
    "fidelity --graph cycle:24 --model laplacian --u 0 --v 12 --tmax 40 --samples 4097",
    "fidelity --graph bipartite:3,9 --model signless --u 0 --v 4 --tmax 40 --samples 8193",
    "fidelity --graph file:gnp150.txt --model generalized:0.3 --u 3 --v 17 --tmax 60 --samples 20000",
    "fidelity --graph path:40 --model generalized:-0.7 --u 2 --v 9 --tmax 30 --samples 5001 --json",
    # negative flag values in scientific notation
    "sweep --graph path:6 --u 0 --v 5 --kmin -1.5e2 --kmax 0 --steps 2",
    "sweep --graph path:6 --u 0 --v 5 --kmin=-1.5e2 --kmax 0 --steps 2",
    "sweep --graph path:6 --u 0 --v 5 --kmin -1.5E+2 --kmax -1e-1 --steps 2 --json",
    "fidelity --graph path:6 --model adjacency --u 0 --v 5 --tmax -1e2 --samples 11",
    "peak --graph path:6 --model adjacency --u 0 --v 5 --strategy grid --tmax -1e2 --samples 11",
    "sweep --graph file:empty4.txt --u 0 --v 3 --kmin -1 --kmax 1 --steps 2 --tmax -2.5e1",
    # sweeps decomposed in blocks of max(1, 2**14 // max(n*n, 2000)) k values:
    # 5 blocks of 4, blocks of 2, one k per block, and the grid fallback in every block
    "sweep --graph path:60 --u 3 --v 50 --kmin -1.5 --kmax 1.2 --steps 20",
    "sweep --graph cycle:90 --u 0 --v 45 --kmin -1 --kmax 1 --steps 7",
    "sweep --graph path:150 --u 0 --v 149 --kmin -0.9 --kmax 0.9 --steps 3",
    "sweep --graph file:empty4.txt --u 0 --v 3 --kmin -1 --kmax 1 --steps 40 --tmax 20 --samples 1001",
    # a horizon whose phases max|lambda| * t_max overflow
    "fidelity --graph path:6 --model adjacency --u 0 --v 5 --tmax 1e308 --samples 3",
    "peak --graph path:6 --model adjacency --u 0 --v 5 --strategy grid --tmax 1e308 --samples 3",
    # a readout-time bound 2*pi*(|q| + m)^(d-1) beyond the float range
    "bound --graph path:40 --u 0 --v 39 --epsilon 1e-30",
    "peak --graph path:6 --model adjacency --u 0 --v 5 --epsilon 1e-300",
    "sweep --graph path:40 --u 0 --v 39 --kmin 1 --kmax 2 --steps 2 --epsilon 1e-30",
    # a threshold q_min = 16 * eps^-1 * m^4 beyond the float range
    "bound --graph file:twoclass8.txt --u 3 --v 5 --epsilon 5e-324",
    "peak --graph file:twoclass8.txt --model adjacency --u 3 --v 5 --epsilon 5e-324",
    "bound --graph file:twoclass8.txt --u 3 --v 5 --epsilon 1e-306",
    "sweep --graph file:twoclass8.txt --u 3 --v 5 --kmin 1 --kmax 2 --steps 2 --epsilon 5e-324 --json",
    # CSV times with 3-digit exponents and e+16 / e+17 layouts, in tables below and
    # above the kernel crossover (glwalk.cli.CSV_KERNEL_MIN_VALUES); below 1e-250
    # the kernel takes each value's digits from '%.16e'
    "fidelity --graph path:4 --model adjacency --u 0 --v 3 --tmax 1e-300 --samples 3",
    "fidelity --graph path:4 --model adjacency --u 0 --v 3 --tmax 3e17 --samples 3",
    "fidelity --graph path:4 --model adjacency --u 0 --v 3 --tmax 1e-300 --samples 300",
    "fidelity --graph path:4 --model adjacency --u 0 --v 3 --tmax 1e-200 --samples 300",
    "fidelity --graph path:4 --model adjacency --u 0 --v 3 --tmax 3e17 --samples 300",
    # mirror pairs above the n <= 16 involution search, proved by the reflection or the
    # transposition cospectrality tries (a failed --involution falls back to them); the last
    # two pairs are swapped by the reflection across the sides of K_{10,10} and by neither
    "analyze --graph cycle:40 --u 3 --v 17",
    "analyze --graph bipartite:20,30 --u 25 --v 40",
    "analyze --graph path:20 --u 6 --v 13 --involution " + ",".join(map(str, range(19, -1, -1))),
    "analyze --graph path:20 --u 6 --v 13 --involution 1,0," + ",".join(map(str, range(2, 20))),
    "bound --graph bipartite:3,7 --u 0 --v 2 --epsilon 0.1",
    "bound --graph bipartite:2,30 --u 0 --v 1 --epsilon 0.05",
    "peak --graph path:60 --model generalized:0.5 --u 6 --v 53",
    "peak --graph cycle:60 --model generalized:-0.5 --u 4 --v 51",
    "sweep --graph bipartite:2,20 --u 0 --v 1 --kmin 30 --kmax 60 --steps 3 --epsilon 0.1",
    "analyze --graph bipartite:10,10 --u 0 --v 19",
    "analyze --graph bipartite:10,10 --u 0 --v 18",
    # the same path's endpoints proved by the reflection and counted
    "bound --graph file:path8.txt --u 0 --v 7 --epsilon 0.1",
    "peak --graph file:path8.txt --model adjacency --u 0 --v 7",
    "analyze --graph file:path8.txt --u 0 --v 7",
    "bound --graph file:path8-relabelled.txt --u 0 --v 7 --epsilon 0.1",
    "peak --graph file:path8-relabelled.txt --model adjacency --u 0 --v 7",
    "analyze --graph file:path8-relabelled.txt --u 0 --v 7",
    # Hamiltonians equal to their reversal x -> n-1-x, decomposed through the even and odd sector
    # blocks: loops the reversal swaps on an odd path, and K_{3,3}, whose sides it swaps; loops it
    # does not swap keep the full eigh
    "peak --graph path:7 --model loops:0,6,20 --u 0 --v 6",
    "peak --graph path:7 --model loops:0,5,20 --u 0 --v 5",
    "peak --graph bipartite:3,3 --model adjacency --u 0 --v 5",
    # either side of the certified two-level readout (glwalk.dynamics.CERTIFIED_SHORTFALL = 1e-3):
    # 1 - L is 1.25e-3 and 8.0e-4 on path:6, 1.1e-3 and 4.9e-4 on bipartite:2,8
    "peak --graph path:6 --u 0 --v 5 --model generalized:40",
    "peak --graph path:6 --u 0 --v 5 --model generalized:50",
    "peak --graph bipartite:2,8 --u 0 --v 1 --model generalized:20",
    "peak --graph bipartite:2,8 --u 0 --v 1 --model generalized:30",
    "sweep --graph path:6 --u 0 --v 5 --kmin 30 --kmax 60 --steps 4",
]


def write_gnp(path: Path, n: int, p: float, seed: int) -> None:
    """Seeded G(n, p) edge list with an n= header and loop lines on two vertices."""
    rng = random.Random(seed)
    lines = [f"n={n}", "# seeded G(n, p) for the golden corpus"]
    for v in rng.sample(range(n), 2):
        lines.append(f"loop {v} {rng.uniform(-3.0, 3.0)!r}")
    lines += [f"{i} {j}" for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def corpus() -> list[str]:
    commands = []
    for graph, u, v in PAIRS:
        pair = f"--graph {graph} --u {u} --v {v}"
        commands.append(f"analyze {pair}")
        commands.append(f"bound {pair} --epsilon 0.1")
        commands += [f"peak {pair} --model {model.format(u=u, v=v)}" for model in MODELS]
    return commands + EXTRA


def run_corpus(src: Path) -> dict[str, list]:
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as workdir:
        for name, (n, p, seed) in GNP_FILES.items():
            write_gnp(Path(workdir, name), n, p, seed)
        for name, text in TEXT_FILES.items():
            Path(workdir, name).write_text(text, encoding="utf-8")

        def run(command: str) -> list:
            proc = subprocess.run(
                [sys.executable, "-m", "glwalk", *shlex.split(command)],
                cwd=workdir, env=env, capture_output=True, text=True, check=False,
            )
            return [proc.returncode, proc.stdout, proc.stderr]

        commands = corpus()
        with ThreadPoolExecutor(max_workers=WORKERS) as pool:
            results = list(pool.map(run, commands))
    return dict(zip(commands, results))


#: a decimal number as glwalk prints it, in JSON, CSV or error text
NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def compare(a: dict, b: dict) -> list[str]:
    return [command for command in sorted(a.keys() | b.keys()) if a.get(command) != b.get(command)]


def scaled_difference(x: list | None, y: list | None) -> float | None:
    """Largest |a - b| / max(1, |a|, |b|) over the numbers of two results of one command.

    None when the exit codes or any text around the numbers differ, or a result is missing.
    """
    if x is None or y is None or x[0] != y[0]:
        return None
    worst = 0.0
    for stream_x, stream_y in zip(x[1:], y[1:]):
        # re.split with one group alternates text and numbers: text, number, text, ...
        parts_x, parts_y = NUMBER.split(stream_x), NUMBER.split(stream_y)
        if parts_x[::2] != parts_y[::2]:
            return None
        for p, q in zip(parts_x[1::2], parts_y[1::2]):
            if p != q:
                p, q = float(p), float(q)
                scaled = abs(p - q) / max(1.0, abs(p), abs(q))
                worst = max(worst, math.inf if math.isnan(scaled) else scaled)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, help="write the corpus results here")
    parser.add_argument("--src", type=Path, default=REPO_SRC, help="directory that holds the glwalk package")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    parser.add_argument("--rtol", type=float, help="with --compare, the relative tolerance on numbers")
    args = parser.parse_args(argv)
    if args.rtol is not None and not args.compare:
        parser.error("--rtol needs --compare")
    if args.compare:
        a, b = (json.loads(path.read_text(encoding="utf-8")) for path in args.compare)
        differing = compare(a, b)
        if args.rtol is None:
            for command in differing:
                print(command)
        else:
            scaled = {command: scaled_difference(a.get(command), b.get(command)) for command in differing}
            differing = [command for command, d in scaled.items() if d is None or d > args.rtol]
            for command in differing:
                d = scaled[command]
                print(f"{command}\t{'text' if d is None else format(d, '.3g')}")
        print(f"{len(differing)} of {len(a.keys() | b.keys())} commands differ", file=sys.stderr)
        return 1 if differing else 0
    if args.out is None:
        parser.error("give --out FILE to run the corpus, or --compare A B")
    results = run_corpus(args.src.resolve())
    args.out.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    exits = sorted({result[0] for result in results.values()})
    print(f"{len(results)} commands, exit codes {exits}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
