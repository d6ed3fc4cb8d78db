"""Golden battery reports: `finsler verify SPEC --points 200 --seed 5` must
write, byte for byte, the JSON pinned in tests/data/verify_seed5/ for each of
the 8 gallery specs.

A spec's file name is the spec with ":" and "," replaced by "_".  To
regenerate a file after a change that is meant to alter its report, run from
the root of the repository

    PYTHONPATH=src python -m finslerkit.cli verify SPEC --points 200 --seed 5 \
        --out tests/data/verify_seed5/FILE.json

and declare every regenerated file, with the reason, in CHANGES.md.
"""

from pathlib import Path

import pytest

from finslerkit.cli import main

DATA = Path(__file__).parent / "data" / "verify_seed5"
SPECS = [
    "euclidean:n=2", "minkowski:n=2,eps=0.3", "funk:n=2", "shen_flat:n=2",
    "rotation2d", "cylinder:n=3", "bao_shen_s3:eps=0.3", "slab:kappa=0.5",
]


@pytest.mark.parametrize("spec", SPECS)
def test_verify_report_matches_the_pinned_json(spec, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["verify", spec, "--points", "200", "--seed", "5", "--out", str(out)]) == 0
    capsys.readouterr()
    pinned = DATA / (spec.replace(":", "_").replace(",", "_") + ".json")
    assert out.read_bytes() == pinned.read_bytes()
