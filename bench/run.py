"""glwalk benchmark: closed-loop, single-client runs of CLI queries.

    python3 bench/run.py --workload {paper,walks,scale,all} --seed N --seconds S --trace {0,1}

One process imports glwalk from ./src and calls glwalk.cli.main(argv) for
each query of the workload's seeded round, capturing stdout in memory.
Rounds repeat until the summed query time reaches --seconds (and at least
MIN_QUERIES queries ran). After each query, outside the timed region, a
separate checker process (checks.py) verifies the output against
independent oracles; a rejected output counts the query as failed.

--trace 0 reports the end-to-end metrics; --trace 1 wraps every glwalk
layer (tracing.py) and reports per-query layer metrics instead, writing
the spans to .bench_out/. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. --workload all runs every
workload, untraced and traced, each in a fresh process, and prints a table.
"""

import os

# numpy's default OpenBLAS thread count makes latency on n <= 12 matrices
# bimodal on a 2-core machine; pin BLAS/OpenMP to one thread before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402

SETUP_PROBES = 9
# the 90th percentile needs at least ten samples beyond it
MIN_QUERIES = 100
CHILD_TIMEOUT_S = 60

END_TO_END = (
    ("setup_s", "s"),
    ("queries_per_s", "1/s"),
    ("query_ms.p50", "ms"),
    ("query_ms.p90", "ms"),
    ("peak_rss_mb", "MB"),
)


def import_glwalk():
    """Import glwalk.cli from the checkout's src/; fail loudly if it is absent."""
    if not (SRC / "glwalk" / "cli.py").is_file():
        raise SystemExit(f"error: {SRC / 'glwalk'} not found; run from a glwalk checkout")
    sys.path.insert(0, str(SRC))
    import glwalk.cli

    return glwalk.cli


def run_query(cli, argv: list[str]) -> tuple[int, str, float]:
    """(exit code, stdout, seconds) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - start
    return code, out.getvalue() if code == 0 else err.getvalue(), elapsed


@contextlib.contextmanager
def input_dir():
    path = OUT_DIR / f"inputs-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def setup_probe(workload: str, seed: int) -> None:
    """Child side of setup_s: import, inputs and warm-up, then say so."""
    cli = import_glwalk()
    with input_dir() as inputs:
        workloads.build_round(workload, seed, inputs)
        code, text, _ = run_query(cli, workloads.WARMUP[workload])
        if code != 0:
            raise SystemExit(f"warm-up query failed: {text}")
        print("ready", flush=True)


def measure_setup(workload: str, seed: int) -> float:
    """Median, over fresh processes, of process start to first timed query."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.wait(timeout=CHILD_TIMEOUT_S)
        if line.strip() != "ready" or proc.returncode != 0:
            raise SystemExit(f"setup probe failed (exit {proc.returncode})")
    return statistics.median(times)


class CheckerProcess:
    """checks.py --serve in its own process: one verdict per output."""

    def __init__(self, queries: list[dict]):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "checks.py"), "--serve"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        self._send({"queries": queries})

    def _send(self, msg: dict) -> None:
        self.proc.stdin.write(json.dumps(msg) + "\n")
        self.proc.stdin.flush()

    def check(self, index: int, output: str) -> str | None:
        self._send({"i": index, "out": output})
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit("output checker exited early")
        return json.loads(line)["why"]

    def close(self) -> None:
        if self.proc.stdin and not self.proc.stdin.closed:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    setup_s = measure_setup(workload, seed)
    start = time.perf_counter()
    cli = import_glwalk()
    import_ms = (time.perf_counter() - start) * 1e3
    with input_dir() as inputs:
        queries = workloads.build_round(workload, seed, inputs)
        checker = CheckerProcess(queries)
        try:
            tracer = None
            if trace:
                # imported here so that untraced runs and set-up probes never load it
                import tracing

                tracer = tracing.Tracer()
                tracer.install()
            run_query(cli, workloads.WARMUP[workload])
            if tracer:
                tracer.reset()
            latencies, problems = [], []
            failed = rejected = output_bytes = 0
            while sum(latencies) < seconds or len(latencies) < MIN_QUERIES:
                for i, q in enumerate(queries):
                    if tracer:
                        tracer.query = len(latencies)
                    code, text, elapsed = run_query(cli, q["argv"])
                    latencies.append(elapsed)
                    output_bytes += len(text)
                    reason = checker.check(i, text) if code == 0 else f"exit {code}: {text.strip()}"
                    if reason is not None:
                        failed += 1
                        rejected += code == 0
                        problems.append(reason)
        finally:
            checker.close()
    for reason in problems[:5]:
        print(f"failed: {reason}", file=sys.stderr)
    attempted = len(latencies)
    timed_s = sum(latencies)
    if tracer:
        metrics = tracer.metrics(attempted, timed_s, output_bytes, import_ms)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"trace-{workload}-seed{seed}.json", queries)
    else:
        ms = sorted(x * 1e3 for x in latencies)
        values = {
            "setup_s": setup_s,
            "queries_per_s": (attempted - failed) / timed_s,
            "query_ms.p50": statistics.median(ms),
            "query_ms.p90": statistics.quantiles(ms, n=10)[8],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return {"correct": rejected == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(seed: int, seconds: float) -> dict:
    """Every workload, untraced then traced, each run in a fresh process."""
    results = {}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            done = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, check=True)
            result = json.loads(done.stdout.splitlines()[-1])
            results[f"{workload}/trace{trace}"] = result
            print(f"== {workload} trace={trace}: attempted {result['attempted']}, "
                  f"failed {result['failed']}, correct {result['correct']}")
            for name, m in result["metrics"].items():
                print(f"   {name:38s} {m['value']:14.6g} {m['unit']}")
        untraced = results[f"{workload}/trace0"]["metrics"]["queries_per_s"]["value"]
        traced = results[f"{workload}/trace1"]["metrics"]["trace.queries_per_s"]["value"]
        print(f"   tracing overhead: {untraced / traced - 1.0:+.1%} time per query")
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        print(json.dumps(run_all(args.seed, args.seconds)))
        return 0
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
