"""The benchmark's tracing contract.

``bench/spans.py`` wraps library functions by module and name and reads
its counts off their arguments and results: ``build_gcs(...).edge_count``,
``len(optimal_edges(...))``, the solvers' stats and the chosen strategy.
This test runs every verb the benchmark runs through ``cli.main`` under
that tracer, so a renamed function or attribute fails here as well as in
``python3 bench/run.py --selftest``. No benchmark verb reaches the auction,
so ``solve --solver rounding`` runs too, for the auction's counts.
``optimum`` runs on a coverable graph and on one whose smaller side
cannot be covered, which it splits in two; it transforms neither, so no
run gives ``transforms.edge_blowup_ratio`` a transformed graph. The
tracer file is only read.
"""

import contextlib
import io
import types
from pathlib import Path

import bipmatch.cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


def load_spans() -> types.ModuleType:
    """bench/spans.py as a fresh module, compiled from its source so that
    no bytecode cache is written next to it."""
    path = ROOT / "bench" / "spans.py"
    module = types.ModuleType("bench_spans")
    module.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def test_every_bench_verb_records_its_counts(tmp_path):
    spans = load_spans()
    ties, swapped = str(GOLDEN / "ties.bip"), str(GOLDEN / "swapped.bip")
    uncovered = str(GOLDEN / "uncovered.bip")
    solved = tmp_path / "solved.json"
    runs = [
        ("solve", ["solve", ties], 0),
        ("solve", ["solve", ties, "--solver", "rounding"], 0),
        ("check", ["check", ties, "--matching", str(solved)], 0),
        ("opt-edges", ["opt-edges", ties], 0),
        ("preallocate", ["preallocate", ties, "--prefs", str(GOLDEN / "ties.prefs")], 0),
        ("enumerate", ["enumerate", ties, "--limit", "50"], 0),
        ("optimum", ["optimum", swapped, "--transform", "auto"], 0),
        ("optimum", ["optimum", uncovered, "--transform", "auto"], 0),
        ("solve", ["solve", swapped], 1),  # not square
    ]
    tracer = spans.Tracer()
    tracer.install()
    try:
        for verb, argv, expected in runs:
            # A call that raises records no counts, so failed runs are a job
            # of their own.
            tracer.job = "ok" if expected == 0 else "failed"
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = bipmatch.cli.main(argv)
            assert code == expected, (argv, code)
            if argv == ["solve", ties]:
                solved.write_text(out.getvalue())
    finally:
        tracer.uninstall()

    counted = {f"{module}.{name}" for (module, name), counter in spans.TARGETS.items()
               if counter is not None}
    succeeded = [span for span in tracer.spans if span.job == "ok"]
    assert counted <= {span.name for span in succeeded}
    for span in tracer.spans:
        assert span.end is not None
    for span in succeeded:
        if span.name in counted:
            assert span.counts, span.name

    verbs = sorted({verb for verb, _argv, _code in runs})
    metrics = spans.per_job_metrics(tracer, {"ok": 1.0}, verbs)
    assert metrics["tight.build_gcs.calls"] > 0
    assert 0 < metrics["tight.tight_edge_ratio"] <= 1
    assert 0 < metrics["allowed.optimal_edge_ratio"] <= 1
    assert metrics["enumeration.outputs"] > 0
    assert metrics["solvers.solve_auction.bids"] > 0
    # swapped.bip is coverable and not square, and uncovered.bip is split:
    # one verdict each, read off the coverage check's matching.
    assert metrics["transforms.strategy.half-doubling.jobs"] == 1
    assert metrics["transforms.strategy.doubling.jobs"] == 1
    assert metrics["transforms.strategy.artificial.jobs"] == 0
