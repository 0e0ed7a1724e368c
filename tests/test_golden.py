"""Byte-for-byte CLI output against recorded reference files.

Refactors must leave these outputs unchanged; a deliberate change of
output is a documented correctness fix that also re-records the file.
"""

import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from copz.cli import main as cli_main

DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize(
    "argv, reference",
    [
        (["verify-all", "--seed", "42"], "verify_all_seed42.txt"),
        # recorded while the meixner draw's search window still doubled twice,
        # from 8 to 32 units: its one window from the bound, 17 units, gives the
        # same bytes
        (["verify-all", "--seed", "20"], "verify_all_seed20.txt"),
        (["families"], "families.txt"),
        (["families", "--format", "json"], "families.json"),
        (
            ["stieltjes", "--family", "racah", "--n", "3", "--param", "beta",
             "--set", "a=1", "--set", "alpha=0", "--set", "beta=0.5", "--set", "N=6"],
            "stieltjes_racah.txt",
        ),
        (
            ["stieltjes", "--family", "q_hahn", "--n", "2", "--param", "alpha",
             "--set", "alpha=0.5", "--set", "beta=0.4", "--set", "q=0.6", "--set", "N=7",
             "--format", "json"],
            "stieltjes_q_hahn.json",
        ),
        (
            ["interlace", "--family", "hahn", "--n", "3",
             "--set", "alpha=0", "--set", "beta=0.5", "--set", "N=7"],
            "interlace_hahn.txt",
        ),
        (
            ["interlace", "--family", "hahn", "--n", "3",
             "--set", "alpha=0", "--set", "beta=0.5", "--set", "N=7", "--format", "json"],
            "interlace_hahn.json",
        ),
        (
            ["interlace", "--family", "krawtchouk", "--n", "2",
             "--set", "alpha=0.5", "--set", "N=6"],
            "interlace_krawtchouk.txt",
        ),
        (
            ["interlace", "--family", "krawtchouk", "--n", "2",
             "--set", "alpha=0.5", "--set", "N=6", "--force"],
            "interlace_krawtchouk_force.txt",
        ),
        (
            ["sweep", "--family", "hahn", "--n", "3", "--param", "alpha",
             "--from", "-0.5", "--to", "2", "--steps", "9", "--set", "beta=1", "--set", "N=8"],
            "sweep_hahn.csv",
        ),
        # three rounds of midpoints where the zeros jump: 40 points, not 15
        (
            ["sweep", "--family", "meixner", "--n", "2", "--param", "alpha",
             "--from", "0.1", "--to", "0.9", "--steps", "15",
             "--set", "beta=0.41307764947001563"],
            "sweep_meixner_refined.csv",
        ),
        (["zeros", "--family", "krawtchouk", "--n", "19", "--set", "alpha=0.3", "--set", "N=20"],
         "zeros_krawtchouk.txt"),
        (
            ["zeros", "--family", "krawtchouk", "--n", "19", "--set", "alpha=0.3", "--set", "N=20",
             "--format", "json"],
            "zeros_krawtchouk.json",
        ),
        (
            ["zeros", "--family", "q_racah", "--n", "6", "--set", "a=1", "--set", "alpha=0.5",
             "--set", "beta=0.5", "--set", "q=0.7", "--set", "N=10"],
            "zeros_q_racah.txt",
        ),
        (
            ["zeros", "--family", "q_racah", "--n", "6", "--set", "a=1", "--set", "alpha=0.5",
             "--set", "beta=0.5", "--set", "q=0.7", "--set", "N=10", "--format", "json"],
            "zeros_q_racah.json",
        ),
        # recorded while the search window doubled once, from 24 to 48 lattice
        # units; the one window from the bound is 22 units
        (
            ["zeros", "--family", "little_q_jacobi", "--n", "10",
             "--set", "alpha=1", "--set", "beta=0.5", "--set", "q=0.8"],
            "zeros_little_q_jacobi.txt",
        ),
        (
            ["zeros", "--family", "little_q_jacobi", "--n", "10",
             "--set", "alpha=1", "--set", "beta=0.5", "--set", "q=0.8", "--format", "json"],
            "zeros_little_q_jacobi.json",
        ),
    ],
    ids=[
        "verify-all-seed42",
        "verify-all-seed20",
        "families-text",
        "families-json",
        "stieltjes-text",
        "stieltjes-json",
        "interlace-text",
        "interlace-json",
        "interlace-not-applicable",
        "interlace-force",
        "sweep-csv",
        "sweep-csv-refined",
        "zeros-linear-text",
        "zeros-linear-json",
        "zeros-q-symmetric-text",
        "zeros-q-symmetric-json",
        "zeros-window-growth-text",
        "zeros-window-growth-json",
    ],
)
def test_cli_output_matches_reference(argv, reference):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(argv)
    assert code == 0
    # read bytes: the csv writer ends its rows with \r\n
    assert buf.getvalue() == (DATA / reference).read_bytes().decode("utf-8")
