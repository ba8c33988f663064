"""Benchmark of the camina command line.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Workloads: sweep, chartab and lattice (see README.md).  Each
run is one fresh process with one client in a closed loop: every query is
one ``camina.cli.run_cli`` call on seeded input files and starts when the
previous one has finished.  A round is the workload's fixed list of
queries; rounds repeat until ``--seconds`` have passed and there have
been at least two.  Every output is checked against ``golden.json``.

While a round runs, ``reference.Sampler`` times a short pass of a fixed
reference loop every 50 ms, and each query's time is scaled by the host
speed those passes show during it (see ``reference.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, medians over the run's rounds.  With
``--trace 1`` two untraced rounds are followed by traced rounds (at least
one), and the metrics are the per-layer ones, per traced round.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

if not (SRC / "camina" / "__init__.py").is_file():
    sys.exit(f"error: no camina sources under {SRC}")
sys.path.insert(0, str(SRC))

from camina.cli import run_cli  # noqa: E402

from checks import (  # noqa: E402
    add_summaries,
    chartab_signature,
    lattice_signature,
    load_golden,
    mismatch,
    reports_digest,
    sweep_summary,
)
from inputs import write_inputs  # noqa: E402
from reference import REFERENCE_S, Sampler  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402

WORKLOADS = ("sweep", "chartab", "lattice")
MIN_ROUNDS = 2
SETUP_REPEATS = 21
SUBPROCESS_TIMEOUT = 120


@dataclass
class Query:
    label: str
    argv: list[str]
    check: Callable[[int, str], list[str]]  # (exit code, stdout) -> errors
    errors: list[str] = field(default_factory=list)


@dataclass
class Round:
    index: int
    queries: list[Query]
    check: Callable[[list[str]], list[str]] | None = None  # whole-round check of the stdouts
    wall_s: float = 0.0
    cpu_s: float = 0.0
    wall_ref_s: float = 0.0  # scaled to the reference loop's speed
    cpu_ref_s: float = 0.0
    pass_s: float = 0.0  # median time of the sampler's passes


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


class Bench:
    """One workload run: its inputs, golden values and work directory."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.golden = load_golden()
        self.inputs = work / "inputs"
        self.files = write_inputs(workload, seed, self.inputs)
        self.n_rounds = 0

    def _sweep_round(self, k: int) -> Round:
        """One ``verify`` query per group; the round checks their summed
        counts and the reports of all of them."""
        golden = self.golden["sweep"]
        outs = [self.work / f"reports-{k}" / f"{i:02d}.jsonl" for i in range(len(self.files))]
        outs[0].parent.mkdir()

        def check_query(rc: int, stdout: str) -> list[str]:
            return mismatch("exit code", rc, 0)

        def check_round(stdouts: list[str]) -> list[str]:
            summary = add_summaries([sweep_summary(stdout) for stdout in stdouts])
            return mismatch("summary", summary, golden["summary"]) or mismatch(
                "reports digest", reports_digest([o for o in outs if o.exists()]), golden["reports_digest"]
            )

        queries = []
        for (label, path), out in zip(self.files, outs):
            argv = ["--jobs", "1", "verify", "--catalog", str(path.parent), "--max-order", "1000"]
            argv += ["--claims", "all", "--out", str(out)]
            queries.append(Query(label, argv, check_query))
        return Round(k, queries, check_round)

    def _chartab_query(self, label: str, path: Path, cache_dir: Path) -> Query:
        want = self.golden["chartab"][label]

        def check(rc: int, stdout: str) -> list[str]:
            return mismatch("exit code", rc, 0) or mismatch("table", chartab_signature(stdout), want)

        return Query(label, ["--cache-dir", str(cache_dir), "chartab", "--group", str(path)], check)

    def _lattice_query(self, label: str, path: Path) -> Query:
        want = self.golden["lattice"][label]

        def check(rc: int, stdout: str) -> list[str]:
            return mismatch("exit code", rc, 0) or mismatch("lattice", lattice_signature(stdout), want)

        return Query(label, ["subgroups", "--group", str(path)], check)

    def _chartab_round(self, k: int) -> list[Query]:
        return [self._chartab_query(label, path, self.work / f"cache-{k}-{i}") for i, (label, path) in enumerate(self.files)]

    def new_round(self) -> Round:
        k = self.n_rounds
        self.n_rounds += 1
        if self.workload == "sweep":
            return self._sweep_round(k)
        if self.workload == "chartab":
            # A fresh, empty cache directory per query: every table is built.
            return Round(k, self._chartab_round(k))
        return Round(k, [self._lattice_query(label, path) for label, path in self.files])

    def warm_round(self, cold: Round) -> Round:
        """chartab: the queries of ``cold`` again, against the caches it filled."""
        return Round(cold.index, self._chartab_round(cold.index))

    def run_round(self, rnd: Round) -> Round:
        gc.collect()
        outputs = []
        times = []  # (start, end, CPU seconds) per query
        with Sampler() as sampler:
            for q in rnd.queries:
                buf = io.StringIO()
                cpu0, t0 = time.process_time(), time.perf_counter()
                try:
                    with contextlib.redirect_stdout(buf):
                        rc = run_cli(q.argv)
                except Exception:  # a crash is a failed query, not a failed run
                    traceback.print_exc()
                    rc = None
                times.append((t0, time.perf_counter(), time.process_time() - cpu0))
                outputs.append((rc, buf.getvalue()))
        for t0, t1, cpu in times:
            scale = sampler.scale(t0, t1)
            rnd.wall_s += t1 - t0
            rnd.cpu_s += cpu
            rnd.wall_ref_s += (t1 - t0) * scale
            rnd.cpu_ref_s += cpu * scale
        rnd.pass_s = statistics.median(d for _, d in sampler.samples)
        for q, (rc, stdout) in zip(rnd.queries, outputs):
            if rc is None:
                q.errors.append("exception")
                continue
            try:
                q.errors += q.check(rc, stdout)
            except (OSError, ValueError, LookupError, StopIteration) as exc:  # unreadable output
                q.errors.append(f"output check raised {exc!r}")
        if rnd.check and not any(q.errors for q in rnd.queries):
            try:
                errors = rnd.check([stdout for _, stdout in outputs])
            except (OSError, ValueError, LookupError, StopIteration) as exc:
                errors = [f"output check raised {exc!r}"]
            for q in rnd.queries:  # the round's queries pass or fail together
                q.errors += errors
        print(
            f"round {rnd.index}: wall {rnd.wall_s:.3f} s, cpu {rnd.cpu_s:.3f} s, scaled wall {rnd.wall_ref_s:.3f} s, "
            f"median sampler pass {rnd.pass_s * 1000:.2f} ms",
            file=sys.stderr,
        )
        return rnd

    def run_rounds(self, seconds: float, min_rounds: int) -> list[Round]:
        rounds: list[Round] = []
        t0 = time.perf_counter()
        while len(rounds) < min_rounds or time.perf_counter() - t0 < seconds:
            rounds.append(self.run_round(self.new_round()))
        return rounds

    def report_bytes(self) -> int:
        """Size of the last round's report files; 0 when the workload writes none."""
        return sum(f.stat().st_size for f in (self.work / f"reports-{self.n_rounds - 1}").glob("*.jsonl"))


def measure_setup(workload: str, seed: int, work: Path) -> float:
    """Median over fresh processes of the time ``import camina`` plus input
    writing takes, scaled by the reference loop timed in the same process."""
    times = []
    for i in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(work / f"setup-{i}")],
            capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT, check=True,
        )
        setup_s, reference_s = map(float, proc.stdout.split()[-2:])
        times.append(setup_s * REFERENCE_S / reference_s)
    return statistics.median(times)


def end_to_end(bench: Bench, seconds: float) -> tuple[list[Round], dict]:
    setup_s = measure_setup(bench.workload, bench.seed, bench.work)
    rounds = bench.run_rounds(seconds, MIN_ROUNDS)
    queries = [q for r in rounds for q in r.queries]
    ok = sum(not q.errors for q in queries)
    metrics = {
        "wall_ref_s": (statistics.median(r.wall_ref_s for r in rounds), "s"),
        "cpu_ref_s": (statistics.median(r.cpu_ref_s for r in rounds), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
        "ok_frac": (ok / len(queries), "ratio"),
    }
    return rounds, metrics


def traced(bench: Bench, seconds: float) -> tuple[list[Round], dict]:
    untraced = bench.run_rounds(0, 2)  # the first warms module-level caches
    trace_dir = WORK_ROOT / f"trace-{bench.workload}"  # outlives the run; the next traced run replaces it
    shutil.rmtree(trace_dir, ignore_errors=True)
    trace_dir.mkdir()
    tracer = Tracer(trace_dir)
    tracer.install()
    rounds = bench.run_rounds(seconds, 1)
    tracer.write()
    metrics = layer_metrics(
        tracer,
        rounds=len(rounds),
        traced_wall=statistics.median(r.wall_s for r in rounds),
        untraced_wall=untraced[-1].wall_s,
        report_bytes=bench.report_bytes(),
    )
    extra = []
    load_s = 0.0
    if bench.workload == "chartab":
        tracer.reset()
        extra.append(bench.run_round(bench.warm_round(rounds[-1])))
        load_s = tracer.total_time("reports.chartab_load")
    metrics["reports.chartab_load_s"] = (load_s, "s")
    return [*untraced, *rounds, *extra], metrics


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        bench = Bench(args.workload, args.seed, work)
        run = traced if args.trace else end_to_end
        rounds, metrics = run(bench, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()
    queries = [q for r in rounds for q in r.queries]
    failed = [q for q in queries if q.errors]
    for q in failed:
        print(f"query {q.label} failed: {'; '.join(q.errors)}", file=sys.stderr)
    result = {
        "correct": not failed,
        "attempted": len(queries),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
