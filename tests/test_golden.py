"""CLI output stays byte-identical to a committed reference.

`golden_cli.json` holds the stdout of `mult --json --trace` (twisted,
non-integral, level-2 and KL-base queries on A2, B2, G2 and A3),
`table --json` and `kl --json` on B3, as produced before the KL layer
learned to invert short Bruhat intervals and before the twisting search
stopped listing the Weyl group.  Trace words and polynomial strings must not
move with such changes.
"""

import json
import pathlib

import pytest

from trunco.cli import main

GOLDEN = json.loads(
    (pathlib.Path(__file__).resolve().parent / "golden_cli.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=lambda c: " ".join(c["argv"]))
def test_cli_output_is_unchanged(capsys, case):
    assert main(list(case["argv"])) == 0
    assert capsys.readouterr().out == case["stdout"]
