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
        (["families"], "families.txt"),
        (["families", "--format", "json"], "families.json"),
    ],
    ids=["verify-all-seed42", "families-text", "families-json"],
)
def test_cli_output_matches_reference(argv, reference):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(argv)
    assert code == 0
    assert buf.getvalue() == (DATA / reference).read_text(encoding="utf-8")
