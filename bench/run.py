"""Benchmark of the bipmatch command line, one workload per process.

    python3 bench/run.py --workload sparse --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --seed 1 --seconds 20      # all four workloads
    python3 bench/run.py --workload ties --seed 1 --seconds 20 --trace 1 --out r.jsonl
    python3 bench/run.py --selftest

Each run generates a seeded pool of instance files, then calls
``bipmatch.cli.main(argv)`` in-process as a closed loop with one caller and
no threads: a job is the workload's fixed verb sequence on one instance, the
next job starts when the last one ends, and jobs cycle through the pool for
``--seconds``. Outputs are captured in memory, stored on disk after each
job, and checked against an independent oracle (``oracle.py``) after the
timed loop and after peak RSS is read.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs half the
time untraced and half with every layer wrapped (``spans.py``) and reports
per-layer metrics, each the median over traced jobs, plus
``trace_overhead_ratio`` (traced / untraced median job time). Human-readable
lines come first; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. ``--out`` appends a fuller record
for ``compare.py``.

Every time is wall time scaled to a reference machine speed: a short fixed
probe (``probe_seconds``) runs between jobs and between set-up repetitions,
and each job's time is multiplied by PROBE_REFERENCE_S / (mean of the probes
just before and after it). On a shared host the speed of one core drifts by
tens of percent over tens of seconds; the probe drifts with it, so the
ratio stays steady. Raw times are recorded as ungated reference fields.

End-to-end metrics (per workload):

- job_p50_s: median job time.
- job_tail_s: job time at the highest of p50, p75, p90, p95, p99, p99.9
  with at least ten jobs beyond it (the median when no rung has); its
  percentile and the sample count are printed.
- jobs_per_s: completed jobs per second of timed time (the sum of job
  times; the probes between jobs are not counted).
- setup_s: median, over SETUP_REPS repetitions, of a fresh import of
  bipmatch plus one untimed warm-up job.
- peak_rss_mb: ru_maxrss of this process before the oracle is imported.
- matchings_per_s: matchings printed by the workload's matching verb per
  second spent in that verb (enumerate on ties, solve on sparse and dense,
  optimum on unbalanced).
- failed_ratio: failed / attempted jobs. It is printed, and carried by the
  failed and attempted fields of the JSON line rather than as a metric,
  because it is 0 on a correct program.

A job fails on an exception, a non-zero exit code, or an output the oracle
rejects.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import heapq
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import gen

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

SETUP_REPS = 3
TAIL_BEYOND = 10
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)
ENUM_LIMIT = 50
OPT_EDGE_SAMPLE = 3  # forced edges per side (returned / not returned)
# Time of probe_seconds() on an unloaded 2 GHz x86-64 core with CPython 3.11.
# Each job time is scaled by PROBE_REFERENCE_S / (mean of the probes just
# before and after it), so drift in how fast a shared host runs this process
# cancels out; raw times are recorded as ungated reference fields.
PROBE_REFERENCE_S = 0.006


def _square_steps(slot):
    inst, solved = slot["path"], slot["solved"]
    return [("solve", ["solve", inst], solved),
            ("check", ["check", inst, "--matching", solved], None),
            ("opt-edges", ["opt-edges", inst], None)]


def _ties_steps(slot):
    inst = slot["path"]
    return [("opt-edges", ["opt-edges", inst], None),
            ("preallocate", ["preallocate", inst, "--prefs", slot["prefs"]], None),
            ("enumerate", ["enumerate", inst, "--limit", str(ENUM_LIMIT)], None)]


def _unbalanced_steps(slot):
    return [("optimum", ["optimum", slot["path"], "--transform", "auto"], None)]


# name -> (pool size, job steps, verb whose matchings matchings_per_s counts).
# Pools are larger than the jobs a run holds, so every job of a run meets a
# fresh instance and the median does not hinge on a few instances.
WORKLOADS = {
    "sparse": (40, _square_steps, "solve"),
    "dense": (40, _square_steps, "solve"),
    "ties": (40, _ties_steps, "enumerate"),
    "unbalanced": (len(gen.UNBALANCED_CYCLE), _unbalanced_steps, "optimum"),
}
VERBS = ("solve", "check", "opt-edges", "preallocate", "enumerate", "optimum")
E2E = {"job_p50_s": "s", "job_tail_s": "s", "jobs_per_s": "1/s",
       "setup_s": "s", "peak_rss_mb": "MiB", "matchings_per_s": "1/s"}


def import_cli():
    """Import bipmatch afresh from this checkout's src/; None if the
    package found lives elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "bipmatch" or m.startswith("bipmatch.")]:
        del sys.modules[name]
    import bipmatch.cli
    if Path(bipmatch.cli.__file__).resolve().parent != SRC / "bipmatch":
        return None
    return bipmatch.cli


def make_pool(workload: str, seed: int, sizes: dict, workdir: Path) -> list[dict]:
    """Write the pool's instance (and preference) files. Slots keep only
    paths: the oracle regenerates the edges, so the benchmark's own objects
    do not swell the heap that the program's garbage collector scans."""
    pool = []
    for index in range(WORKLOADS[workload][0]):
        _kind, n_left, n_right, edges = gen.instance(workload, seed, index, sizes)
        slot = {"index": index, "path": str(workdir / f"i{index}.bip"),
                "solved": str(workdir / f"i{index}.solve.json"),
                "prefs": str(workdir / f"i{index}.prefs")}
        Path(slot["path"]).write_text(gen.render(n_left, n_right, edges))
        if workload == "ties":
            pairs = gen.preferences(workload, seed, index, edges,
                                    sizes["ties"]["pref_share"])
            Path(slot["prefs"]).write_text(gen.render_preferences(pairs))
        pool.append(slot)
    return pool


def oracle_instance(workload: str, seed: int, index: int, sizes: dict):
    import oracle

    _kind, n_left, n_right, edges = gen.instance(workload, seed, index, sizes)
    prefs = ()
    if workload == "ties":
        prefs = gen.preferences(workload, seed, index, edges,
                                sizes["ties"]["pref_share"])
    return oracle.Instance(n_left, n_right, edges, prefs)


class OutputStore:
    """Captured outputs, kept on disk under their content digest so that
    they do not count toward this process's peak RSS."""

    def __init__(self, directory: Path):
        self.dir = directory

    def add(self, text: str) -> str:
        digest = hashlib.blake2b(text.encode(), digest_size=16).hexdigest()
        path = self.dir / f"{digest}.out"
        if not path.exists():
            path.write_text(text, encoding="utf-8")
        return digest

    def __getitem__(self, digest: str) -> str:
        return (self.dir / f"{digest}.out").read_text(encoding="utf-8")


class Job:
    __slots__ = ("slot", "seconds", "verb_s", "outputs", "error", "scale")

    def __init__(self, slot):
        self.slot = slot
        self.scale = 1.0  # to reference speed; set from the probes around it
        self.seconds = 0.0
        self.verb_s = {}
        self.outputs = []  # (verb, exit code, digest)
        self.error = None


def run_job(cli, slot, steps, texts: OutputStore, tracer=None) -> Job:
    """One job: the workload's verbs in order, stdout captured in memory."""
    job = Job(slot)
    captured = []
    start = perf_counter()
    for verb, argv, save_to in steps(slot):
        buf = io.StringIO()
        t0 = perf_counter()
        span = tracer.open(f"cli.{verb}") if tracer else None
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
        except Exception as exc:  # the job fails; the loop goes on
            job.error = f"{verb}: {type(exc).__name__}: {exc}"
            break
        finally:
            if span is not None:
                tracer.close(span)
        job.verb_s[verb] = job.verb_s.get(verb, 0.0) + perf_counter() - t0
        text = buf.getvalue()
        if save_to is not None:
            with open(save_to, "w", encoding="utf-8") as handle:
                handle.write(text)
        captured.append((verb, code, text))
    job.seconds = perf_counter() - start
    for verb, code, text in captured:
        job.outputs.append((verb, code, texts.add(text)))
    return job


_PROBE_RNG = random.Random(0)
_PROBE_GRAPH = [[(_PROBE_RNG.randrange(2000), _PROBE_RNG.randrange(1, 100)) for _ in range(8)]
              for _ in range(2000)]


def probe_seconds() -> float:
    """Time of a fixed pure-Python Dijkstra that shares no code with
    bipmatch: how fast this machine runs Python at this moment."""
    t0 = perf_counter()
    dist = {0: 0}
    heap = [(0, 0)]
    done = set()
    while heap:
        d, x = heapq.heappop(heap)
        if x in done:
            continue
        done.add(x)
        for y, w in _PROBE_GRAPH[x]:
            if d + w < dist.get(y, 1 << 60):
                dist[y] = d + w
                heapq.heappush(heap, (d + w, y))
    return perf_counter() - t0


def closed_loop(cli, pool, steps, seconds, texts, first, tracer=None):
    """Jobs back to back from pool slot ``first`` on, until ``seconds``
    have passed, with a speed probe between jobs. Returns (jobs, probes)."""
    jobs, probes = [], [probe_seconds()]
    start = perf_counter()
    while not jobs or perf_counter() - start < seconds:
        slot = pool[(first + len(jobs)) % len(pool)]
        if tracer is not None:
            tracer.job = len(jobs)
        job = run_job(cli, slot, steps, texts, tracer)
        probes.append(probe_seconds())
        job.scale = 2 * PROBE_REFERENCE_S / (probes[-2] + probes[-1])
        jobs.append(job)
    return jobs, probes


def setup_phase(pool, steps, texts):
    """SETUP_REPS times: fresh import of bipmatch plus one warm-up job on a
    different pool slot, between speed probes. Returns (cli module, scaled
    set-up seconds per rep, warm-up jobs)."""
    times, probes, jobs, cli = [], [probe_seconds()], [], None
    for rep in range(SETUP_REPS):
        t0 = perf_counter()
        cli = import_cli()
        if cli is None:
            return None, times, jobs
        jobs.append(run_job(cli, pool[rep % len(pool)], steps, texts))
        seconds = perf_counter() - t0
        probes.append(probe_seconds())
        times.append(seconds * 2 * PROBE_REFERENCE_S / (probes[-2] + probes[-1]))
    return cli, times, jobs


def tail(samples):
    """(value, percentile) at the highest percentile of TAIL_LADDER with at
    least TAIL_BEYOND samples beyond it. A fixed ladder keeps the percentile
    the same from run to run while the job count varies; with too few
    samples for any rung it is the median."""
    ordered = sorted(samples)
    n = len(ordered)
    pct = max((p for p in TAIL_LADDER if n * (100 - p) / 100 >= TAIL_BEYOND),
              default=TAIL_LADDER[0])
    if pct == 50:
        return statistics.median(ordered), pct
    return ordered[math.ceil(n * pct / 100) - 1], pct


# -- correctness ---------------------------------------------------------------

def check_jobs(jobs, texts, workload, seed, sizes, exhaustive=False, corrupt=None):
    """Oracle verdict for each job: None when correct, else a reason.
    ``corrupt(verb, text)``, for the self-test, first alters one output of
    each job, taking the job's verbs in turn."""
    import oracle

    instances, verdicts, memo = {}, [], {}
    for number, job in enumerate(jobs):
        slot = job.slot
        if slot["index"] not in instances:
            instances[slot["index"]] = oracle_instance(workload, seed, slot["index"], sizes)
        inst = instances[slot["index"]]
        reason = job.error
        for position, (verb, code, digest) in enumerate(job.outputs):
            if reason is not None:
                break
            if code != 0:
                reason = f"{verb} exited {code}"
                break
            text = texts[digest]
            if corrupt is not None and position == number % len(job.outputs):
                text = corrupt(verb, text)
            key = (slot["index"], verb, text if corrupt else digest)
            if key not in memo:
                if verb == "opt-edges":
                    sample = len(inst.edges) if exhaustive else OPT_EDGE_SAMPLE
                    rng = random.Random(f"{seed}:{slot['index']}")
                    memo[key] = oracle.check_opt_edges(inst, text, rng, sample)
                elif verb == "check":
                    memo[key] = oracle.check_check(text)
                elif verb == "enumerate":
                    memo[key] = oracle.check_enumerate(inst, text, ENUM_LIMIT)
                else:
                    memo[key] = getattr(oracle, f"check_{verb}")(inst, text)
            reason = memo[key]
            if reason is not None:
                reason = f"{verb}: {reason}"
        verdicts.append(reason)
    return verdicts


# -- ungated reference fields ----------------------------------------------------

def src_line_count() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "bipmatch").glob("*.py")))


def scipy_lsa_seconds(workload, seed, sizes) -> float:
    """Median time of scipy's linear_sum_assignment on the pool's first
    three instances (non-edges forbidden), the speed yardstick."""
    import numpy as np
    from scipy.optimize import linear_sum_assignment

    times = []
    for index in range(3):
        inst = oracle_instance(workload, seed, index, sizes)
        cost = np.full((inst.n_left, inst.n_right), np.inf)
        for u, v, w in inst.edges:
            cost[u, v] = w
        t0 = perf_counter()
        linear_sum_assignment(cost)
        times.append(perf_counter() - t0)
    return statistics.median(times)


# -- one measured run ------------------------------------------------------------

def measure(workload, seed, seconds, trace, sizes=gen.FULL, workdir=None,
            corrupt=None, exhaustive=False):
    """Run one workload; returns the result record, or None when bipmatch
    cannot be imported from this checkout."""
    if not (SRC / "bipmatch" / "__init__.py").is_file():
        return None
    steps, matching_verb = WORKLOADS[workload][1:]
    own_dir = workdir is None
    if own_dir:
        workdir = OUT / f"work-{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        pool = make_pool(workload, seed, sizes, workdir)
        texts = OutputStore(workdir)
        cli, setup_times, warm = setup_phase(pool, steps, texts)
        if cli is None:
            return None
        first = SETUP_REPS % len(pool)
        if trace:
            import spans
            plain, _ = closed_loop(cli, pool, steps, seconds / 2, texts, first)
            tracer = spans.Tracer()
            tracer.install()
            try:
                timed, probes = closed_loop(cli, pool, steps, seconds / 2, texts,
                                            first, tracer)
            finally:
                tracer.uninstall()
        else:
            timed, probes = closed_loop(cli, pool, steps, seconds, texts, first)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        jobs = warm + (plain if trace else []) + timed
        verdicts = check_jobs(jobs, texts, workload, seed, sizes, exhaustive, corrupt)
        failed = sum(1 for v in verdicts if v is not None)
        times = [j.seconds * j.scale for j in timed]
        record = {"workload": workload, "seed": seed, "seconds": seconds,
                  "trace": int(trace), "attempted": len(jobs), "failed": failed,
                  "failed_ratio": failed / len(jobs),
                  "failures": sorted({v for v in verdicts if v is not None})[:5],
                  "samples": len(timed), "setup_reps": SETUP_REPS,
                  "probe_median_s": statistics.median(probes)}
        if trace:
            metrics = spans.per_job_metrics(
                tracer, {n: j.scale for n, j in enumerate(timed)}, VERBS)
            metrics["trace_overhead_ratio"] = (
                statistics.median(times)
                / statistics.median(j.seconds * j.scale for j in plain))
            tracer.write(OUT / f"spans-{workload}-{seed}.jsonl")
        else:
            tail_s, record["tail_percentile"] = tail(times)
            emitted = sum(len(texts[d].splitlines()) for j in timed
                          for verb, _c, d in j.outputs if verb == matching_verb)
            verb_s = sum(j.verb_s.get(matching_verb, 0.0) * j.scale for j in timed)
            metrics = {
                "job_p50_s": statistics.median(times),
                "job_tail_s": tail_s,
                "jobs_per_s": len(timed) / sum(times),
                "setup_s": statistics.median(setup_times),
                "peak_rss_mb": peak_rss_mb,
                # 0 only when the verb never completed, i.e. every job failed
                "matchings_per_s": emitted / verb_s if verb_s else 0.0,
            }
            raw = [j.seconds for j in timed]
            record["job_times_s"] = times
            record["reference"] = {"src_lines": src_line_count(),
                                   "raw_job_p50_s": statistics.median(raw),
                                   "raw_jobs_per_s": len(raw) / sum(raw)}
            if workload in ("sparse", "dense"):
                record["reference"]["scipy_lsa_s"] = scipy_lsa_seconds(workload, seed, sizes)
        record["metrics"] = metrics
        return record
    finally:
        if own_dir:
            shutil.rmtree(workdir, ignore_errors=True)


def _unit(name: str) -> str:
    import spans
    if name == "trace_overhead_ratio":
        return "ratio"
    return E2E.get(name) or spans.LAYER_UNITS.get(name, "s")


def report(record) -> None:
    """One line per metric: workload, name, value, unit, sample count."""
    wl = record["workload"]
    for name, value in record["metrics"].items():
        n = record["setup_reps"] if name == "setup_s" else record["samples"]
        pct = f" p{record['tail_percentile']:.1f}" if name == "job_tail_s" else ""
        print(f"{wl} {name} {value:.6g} {_unit(name)}{pct} n={n}")
    print(f"{wl} failed_ratio {record['failed_ratio']:.6g} ratio n={record['attempted']}")
    print(f"{wl} probe_median_s {record['probe_median_s']:.6g} s (ungated)")
    for key, value in record.get("reference", {}).items():
        print(f"{wl} reference {key} {value:.6g} (ungated)")
    for reason in record["failures"]:
        print(f"{wl} FAILED {reason}")


def result_line(record) -> str:
    metrics = {name: {"value": value, "unit": _unit(name)}
               for name, value in record["metrics"].items()}
    return json.dumps({"correct": record["failed"] == 0,
                       "attempted": record["attempted"],
                       "failed": record["failed"], "metrics": metrics})


# -- self-test -------------------------------------------------------------------

def _drop_last_edge(data: dict) -> dict:
    data = dict(data)
    data["edges"] = data["edges"][:-1]
    data["cardinality"] = len(data["edges"])
    return data


def corrupt_output(verb: str, text: str) -> str:
    """A wrong answer for each verb: a matched edge dropped, a returned
    optimal edge dropped, a duplicated enumeration line, or a flipped
    check verdict."""
    if verb == "enumerate":
        lines = text.splitlines()
        return "\n".join(lines + lines[:1]) + "\n"
    data = json.loads(text)
    if verb == "solve":
        data["matching"] = _drop_last_edge(data["matching"])
    elif verb == "check":
        data["valid"] = False
    elif verb == "opt-edges":
        data["edges"] = data["edges"][1:]
    else:  # preallocate, optimum
        data = _drop_last_edge(data)
    return json.dumps(data, sort_keys=True) + "\n"


def selftest() -> int:
    """Every workload at a tiny size: clean outputs must all pass, and a
    corrupted output in every job must be counted as failed."""
    ok = True
    workdir = OUT / f"selftest-{os.getpid()}"
    try:
        for workload in WORKLOADS:
            for trace in (0, 1):
                clean = measure(workload, 1, 0.3, trace, gen.TINY, workdir,
                                exhaustive=True)
                if clean is None:
                    print("selftest: bipmatch is not importable from src/")
                    return 1
                bad = measure(workload, 1, 0.3, trace, gen.TINY, workdir,
                              corrupt=corrupt_output, exhaustive=True)
                passed = (clean["failed"] == 0
                          and bad["failed"] == bad["attempted"] > 0)
                ok &= passed
                print(f"selftest {workload} trace={trace}: clean failed "
                      f"{clean['failed']}/{clean['attempted']}, corrupted failed "
                      f"{bad['failed']}/{bad['attempted']} "
                      f"{'ok' if passed else 'WRONG'}")
                if trace:
                    strategies = {k: v for k, v in clean["metrics"].items()
                                  if k.startswith("transforms.strategy.")}
                    print(f"selftest {workload} strategies {strategies}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


def run_all(args) -> int:
    """Every workload in turn, each in a fresh process of this script."""
    status = 0
    for workload in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", workload, "--seed",
                str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.out:
            argv += ["--out", args.out]
        status = max(status, subprocess.run(argv, check=False).returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="omit to run every workload, each in its own process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full result record to this JSONL file")
    parser.add_argument("--selftest", action="store_true",
                        help="run every workload at a tiny size with and "
                             "without corrupted outputs")
    args = parser.parse_args(argv)
    if args.selftest:
        return selftest()
    if args.workload is None:
        return run_all(args)
    record = measure(args.workload, args.seed, args.seconds, args.trace)
    if record is None:
        print(f"error: no bipmatch package under {SRC}", file=sys.stderr)
        return 2
    report(record)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    print(result_line(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
