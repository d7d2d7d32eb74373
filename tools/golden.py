"""Golden corpus of glwalk CLI runs, for byte-identity checks between two trees.

    python3 tools/golden.py --out golden.json [--src DIR]
    python3 tools/golden.py --compare A.json B.json

The first form runs every command of a fixed corpus through
``python -m glwalk`` in a fresh process with one BLAS/OpenMP thread, importing
glwalk from DIR (default: the ``src`` next to this script), and writes
``{command: [exit code, stdout, stderr]}`` as JSON. The corpus covers all five
subcommands, every model spelling, and path, cycle, complete bipartite and
edge-list graphs: seeded G(n, p) files with loop lines and one fixed file
with a non-finite loop weight, which the commands name by a relative path
inside a temporary working directory so the keys do not depend on where it
lives. The second form lists the commands whose exit code, stdout or stderr
differ between two such files, and exits 1 if any do.
"""

from __future__ import annotations

import argparse
import json
import os
import random
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
TEXT_FILES = {"nanloop6.txt": "n=6\nloop 0 nan\n0 1\n1 2\n2 3\n3 4\n4 5\n"}

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
#: graphs, supplied involutions, error paths and non-finite inputs
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
    "peak --graph file:gnp150.txt --model generalized:0.3 --u 0 --v 1",
    "analyze --graph path:60 --u 0 --v 59",
    "analyze --graph path:200 --u 0 --v 5",
    "analyze --graph path:200 --u 0 --v 199",
    "analyze --graph cycle:60 --u 0 --v 30",
    "analyze --graph cycle:200 --u 0 --v 100",
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
    "peak --graph path:6 --model generalized:nan --u 0 --v 5",
    "peak --graph path:6 --model generalized:inf --u 0 --v 5",
    "peak --graph path:6 --model loops:0,5,nan --u 0 --v 5",
    "analyze --graph file:nanloop6.txt --u 0 --v 5",
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


def compare(a: dict, b: dict) -> list[str]:
    return [command for command in sorted(a.keys() | b.keys()) if a.get(command) != b.get(command)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, help="write the corpus results here")
    parser.add_argument("--src", type=Path, default=REPO_SRC, help="directory that holds the glwalk package")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        a, b = (json.loads(path.read_text(encoding="utf-8")) for path in args.compare)
        differing = compare(a, b)
        for command in differing:
            print(command)
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
