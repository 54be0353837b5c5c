"""Byte-identity guard: every verb's exact stdout and exit code on a fixed
set of small instances (tests/golden/*.bip), compared with the recorded
outputs in tests/golden/expected.json.

A change that is meant to keep every answer the same must pass this file
unchanged. A change that alters an answer on purpose re-records it with

    PYTHONPATH=src python tests/test_golden_cli.py --record

which prints the id of every case whose stdout or exit code differs from
the file it overwrites; the diff of expected.json shows how they moved.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from bipmatch.cli import main

GOLDEN = Path(__file__).parent / "golden"
EXPECTED = GOLDEN / "expected.json"

SQUARE = ("ties", "negative", "huge")
UNBALANCED = ("swapped", "wide", "near_square", "uncovered")


def _cases() -> dict[str, list[str]]:
    """Case id -> argv, with paths relative to the golden directory."""
    cases = {}
    for name in SQUARE:
        bip = f"{name}.bip"
        for solver in ("exact", "auction", "rounding"):
            cases[f"{name}-solve-{solver}"] = ["solve", bip, "--solver", solver]
        cases[f"{name}-duals"] = ["duals", bip]
        cases[f"{name}-gcs"] = ["gcs", bip]
        cases[f"{name}-opt-edges"] = ["opt-edges", bip]
        cases[f"{name}-enumerate"] = ["enumerate", bip, "--limit", "20"]
        cases[f"{name}-preallocate"] = ["preallocate", bip, "--prefs", f"{name}.prefs"]
    for name in SQUARE + UNBALANCED:
        cases[f"{name}-optimum-auto"] = ["optimum", f"{name}.bip", "--transform", "auto"]
    cases["swapped-solve-exact"] = ["solve", "swapped.bip"]
    return cases


def _run(argv: list[str]) -> dict:
    resolved = [str(GOLDEN / a) if a.endswith((".bip", ".prefs")) else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(resolved)
    return {"argv": argv, "exit": code, "stdout": out.getvalue()}


def _expected() -> dict:
    return json.loads(EXPECTED.read_text())


def test_case_list_matches_recording():
    assert sorted(_cases()) == sorted(_expected())


@pytest.mark.parametrize("case", sorted(_cases()))
def test_output_is_byte_identical(case):
    recorded = _expected()[case]
    assert _run(_cases()[case]) == recorded


@pytest.mark.parametrize("name", SQUARE)
def test_enumerate_same_with_prices_from_duals(name, tmp_path):
    duals = _run(["duals", f"{name}.bip"])
    assert duals["exit"] == 0
    prices = tmp_path / "prices.json"
    prices.write_text(duals["stdout"])
    result = _run(["enumerate", f"{name}.bip", "--limit", "20", "--prices", str(prices)])
    assert (result["exit"], result["stdout"]) == (0, _expected()[f"{name}-enumerate"]["stdout"])


@pytest.mark.parametrize("name", SQUARE)
def test_recorded_certificates_hold(name, tmp_path):
    # Every recorded solve output passes ``check``, and the recorded duals,
    # given as --prices, give the recorded optimal edges.
    expected = _expected()
    for solver in ("exact", "rounding"):
        result_file = tmp_path / f"{solver}.json"
        result_file.write_text(expected[f"{name}-solve-{solver}"]["stdout"])
        result = _run(["check", f"{name}.bip", "--matching", str(result_file)])
        assert result["exit"] == 0, solver
        assert json.loads(result["stdout"])["valid"] is True, solver
    prices = tmp_path / "prices.json"
    prices.write_text(expected[f"{name}-duals"]["stdout"])
    result = _run(["opt-edges", f"{name}.bip", "--prices", str(prices)])
    assert (result["exit"], result["stdout"]) == (0, expected[f"{name}-opt-edges"]["stdout"])


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: test_golden_cli.py --record")
    before = _expected()
    records = {case: _run(argv) for case, argv in sorted(_cases().items())}
    for case, record in records.items():
        old = before.get(case)
        if old is None or (old["exit"], old["stdout"]) != (record["exit"], record["stdout"]):
            print(f"{'new' if old is None else 'moved'}: {case}")
    EXPECTED.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(records)} cases in {EXPECTED}")
