"""Byte-for-byte CLI goldens on a seeded 200-row population.

Each case runs ``procfair.cli.main`` and compares its output with the file of
the same name under ``tests/golden/``. The goldens pin the exact text of the
JSON and CSV reports (including float approximations) and the seed contract
of ``simulate``: each member's count is one binomial draw from numpy's PCG64
seeded with ``--seed``, so the same seed gives the same counts. The 200-row
population exceeds ``witness --max-n``, so the ``witness-listing`` pair runs on
the 10 members of ``golden/witness-listing.csv`` (``population_csv(seed=2,
n=10)``) and pins the exhaustive listing itself. The ``witness-escapes`` pair
does the same on the 8 members of ``golden/witness-escapes.csv``, whose ids
need JSON escapes: a quoted id holding ``""``, a comma, a backslash, an inner
tab, and non-ASCII ids in and beyond the Basic Multilingual Plane. An internal rewrite must
reproduce them exactly, also when every input file has CRLF line
ends and a byte-order mark. After an intended output change, regenerate them
with::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

from procfair.cli import main

GOLDEN = Path(__file__).parent / "golden"
REGIONS = ("north", "south", "east", "west", "centre")


def population_csv(seed: int = 7, n: int = 200) -> str:
    """Random J and X (X equal to J for about 80 %), two attributes: sex and region."""
    rng = random.Random(seed)
    lines = ["id,J,X,attrs"]
    for i in range(n):
        merit = int(rng.random() < 0.6)
        criterion = merit if rng.random() < 0.8 else 1 - merit
        sex = rng.choice("MF")
        region = rng.choice(REGIONS)
        lines.append(f"p{i:03d},{merit},{criterion},sex={sex};region={region}")
    return "\n".join(lines) + "\n"


PROCEDURES = {
    "det": {"type": "deterministic"},
    "global": {"type": "randomized", "rates": {"global": ["3/4", "1/10"]}},
    "equal": {
        "type": "randomized",
        "attribute": "region",
        "rates": {region: ["3/4", "1/10"] for region in REGIONS},
    },
}

POINTS = [
    {"label": "a<b", "h": "3/4", "k": "1/10"},
    {"label": "coin", "h": "1/2", "k": "1/2"},
    {"label": "unjust & co", "h": "1/5", "k": "0.9"},
    {"label": "near", "h": "0.55", "k": "0.5"},
]

# golden file name -> argv; "{proc:<name>}" stands for that procedure file,
# "{points}" for the POINTS file, "{listing}" and "{escapes}" for the two
# listing populations;
# audit, witness and simulate get the 200-row population unless they name one
DET, GLOBAL, EQUAL, PTS = "{proc:det}", "{proc:global}", "{proc:equal}", "{points}"
LISTING, ESCAPES = "{listing}", "{escapes}"
CSV = ["--format", "csv"]
SIM = ["--seed", "11", "--trials", "100"]
CASES = {
    "audit-det.json": ["audit", "--procedure", DET, "--attribute", "region"],
    "audit-det.csv": ["audit", "--procedure", DET, "--attribute", "region", *CSV],
    "audit-global.json": ["audit", "--procedure", GLOBAL, "--attribute", "sex"],
    "audit-global.csv": ["audit", "--procedure", GLOBAL, "--attribute", "sex", *CSV],
    "audit-equal.json": ["audit", "--procedure", EQUAL, "--attribute", "region"],
    "audit-equal.csv": ["audit", "--procedure", EQUAL, "--attribute", "region", *CSV],
    "audit-trials.json": [
        "audit", "--procedure", EQUAL, "--attribute", "region", "--trials", "50", "--seed", "3",
    ],
    "audit-trials.csv": [
        "audit", "--procedure", EQUAL, "--attribute", "region", "--trials", "50", "--seed", "3", *CSV,
    ],
    "witness.json": ["witness", "--format", "json"],
    "witness.txt": ["witness"],
    "witness-skip.json": ["witness", "--max-n", "5", "--format", "json"],
    "witness-skip.txt": ["witness", "--max-n", "5"],
    "witness-listing.json": ["witness", "--population", LISTING, "--format", "json"],
    "witness-listing.txt": ["witness", "--population", LISTING],
    "witness-escapes.json": ["witness", "--population", ESCAPES, "--format", "json"],
    "witness-escapes.txt": ["witness", "--population", ESCAPES],
    "simulate.json": ["simulate", "--procedure", GLOBAL, *SIM],
    "simulate.csv": ["simulate", "--procedure", EQUAL, *SIM, *CSV],
    "example1.txt": ["example1"],
    "example1.json": ["example1", "--format", "json"],
    "example1.csv": ["example1", *CSV],
    "classify.txt": ["classify", "--h", "3/4", "--k", "1/10"],
    "classify.json": ["classify", "--h", "13/20", "--k", "0.6", "--eps", "0.05", "--format", "json"],
    "roc.svg": ["roc-export", PTS],
    "roc.csv": ["roc-export", PTS, "--eps", "1/10", *CSV],
    "roc.json": ["roc-export", PTS, "--format", "json"],
    "roc-empty.svg": ["roc-export"],
}


def _write_inputs(directory: Path, crlf: bool = False) -> None:
    """The population, listing populations, procedure and points files; with
    ``crlf``, every line ends in CRLF and every file starts with a byte-order mark."""
    texts = {
        "population.csv": population_csv(),
        "listing.csv": (GOLDEN / "witness-listing.csv").read_text(encoding="utf-8"),
        "escapes.csv": (GOLDEN / "witness-escapes.csv").read_text(encoding="utf-8"),
        "points.json": json.dumps(POINTS, indent=2),
    }
    texts.update((f"{name}.json", json.dumps(doc, indent=2)) for name, doc in PROCEDURES.items())
    if crlf:
        texts = {name: "\ufeff" + text.replace("\n", "\r\n") for name, text in texts.items()}
    for name, text in texts.items():
        (directory / name).write_bytes(text.encode())


def _argv(case: str, directory: Path) -> list[str]:
    pop = directory / "population.csv"
    if not pop.exists():
        _write_inputs(directory)
    argv = []
    for arg in CASES[case]:
        if arg.startswith("{proc:"):
            arg = str(directory / f"{arg[6:-1]}.json")
        elif arg == PTS:
            arg = str(directory / "points.json")
        elif arg == LISTING:
            arg = str(directory / "listing.csv")
        elif arg == ESCAPES:
            arg = str(directory / "escapes.csv")
        argv.append(arg)
    if argv[0] in ("audit", "witness", "simulate") and "--population" not in argv:
        argv[1:1] = ["--population", str(pop)]
    return argv


def _run(case: str, directory: Path) -> bytes:
    code = main([*_argv(case, directory), "--out", str(directory / case)])
    assert code == (2 if case.startswith("witness") else 0)
    return (directory / case).read_bytes()


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, tmp_path):
    assert _run(case, tmp_path) == (GOLDEN / case).read_bytes()


READS_A_FILE = sorted(
    case for case, argv in CASES.items() if argv[0] in ("audit", "witness", "simulate") or PTS in argv
)


@pytest.mark.parametrize("case", READS_A_FILE)
def test_crlf_and_bom_input_files_print_the_same_golden(case, tmp_path):
    """The CLI reads each input file, population, procedure or points, as
    ``Path.read_text`` reads it and drops one byte-order mark, so CRLF line
    ends and a leading byte-order mark change no output byte."""
    _write_inputs(tmp_path, crlf=True)
    assert (tmp_path / "equal.json").read_bytes().startswith(b"\xef\xbb\xbf{\r\n")
    assert _run(case, tmp_path) == (GOLDEN / case).read_bytes()


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            (GOLDEN / case).write_bytes(_run(case, Path(tmp)))
            print(f"wrote {GOLDEN / case}", file=sys.stderr)
