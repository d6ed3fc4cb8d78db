"""Golden battery reports: `finsler verify SPEC --points 200 --seed 5` must
write, byte for byte, the JSON pinned in tests/data/verify_seed5/ for each of
the 8 gallery specs.

A spec's file name is the spec with ":" and "," replaced by "_".  To
regenerate a file after a change that is meant to alter its report, run from
the root of the repository

    PYTHONPATH=src python -m finslerkit.cli verify SPEC --points 200 --seed 5 \
        --out tests/data/verify_seed5/FILE.json

and declare every regenerated file, with the reason, in CHANGES.md.  A failing
comparison first names the fields that moved (`check_id.key` paths), then
falls back to the bytes.
"""

import json
from pathlib import Path

import pytest

from finslerkit.cli import main

DATA = Path(__file__).parent / "data" / "verify_seed5"
SPECS = [
    "euclidean:n=2", "minkowski:n=2,eps=0.3", "funk:n=2", "shen_flat:n=2",
    "rotation2d", "cylinder:n=3", "bao_shen_s3:eps=0.3", "slab:kappa=0.5",
]


def _keyed(obj):
    """A list as a dict: checks by check_id, other entries by position."""
    if not isinstance(obj, list):
        return obj
    return {c["check_id"] if isinstance(c, dict) and "check_id" in c else i: c for i, c in enumerate(obj)}


def changed_fields(old, new, path="") -> list:
    """Paths at which two parsed reports differ."""
    old, new = _keyed(old), _keyed(new)
    if not (isinstance(old, dict) and isinstance(new, dict)):
        return [] if old == new or (old != old and new != new) else [path]  # NaN equals NaN here
    out = []
    for key in sorted(set(old) | set(new), key=str):
        where = f"{path}.{key}" if path else str(key)
        out += changed_fields(old[key], new[key], where) if key in old and key in new else [where]
    return out


@pytest.mark.parametrize("spec", SPECS)
def test_verify_report_matches_the_pinned_json(spec, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["verify", spec, "--points", "200", "--seed", "5", "--out", str(out)]) == 0
    capsys.readouterr()
    pinned = DATA / (spec.replace(":", "_").replace(",", "_") + ".json")
    got, want = out.read_bytes(), pinned.read_bytes()
    moved = changed_fields(json.loads(want), json.loads(got))
    assert not moved, f"fields that moved: {', '.join(moved)}"
    assert got == want
