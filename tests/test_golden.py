"""Golden outputs: refactors must leave these files and reports unchanged.

The exact-rational datasets (spectrum, degeneracy) are compared byte for
byte with their sidecars.  The ``verify all`` report is pinned by its
ordered (check_id, status) list and by the residual of every row decided in
exact arithmetic; float residuals are left out because they depend on the
machine's BLAS and libm.

Regenerate, only when an output change is intended:
    PYTHONPATH=src python tests/test_golden.py
"""
import json
import tempfile
from pathlib import Path

import pytest

from riaho.cli import main
from riaho.reports import FAMILIES, _family

GOLDEN = Path(__file__).parent / "golden"

DATASETS = {
    "spectrum_g1_3": ["spectrum", "--g", "1/3", "--nmax", "8"],
    "degeneracy_g1_3": ["degeneracy", "--g", "1/3", "--emax", "4"],
    "degeneracy_g3": ["degeneracy", "--g", "3", "--emax", "2"],
}

# the check families decided in exact arithmetic, whether they report None or 0.0 on a pass
EXACT_FAMILIES = {name for name, family in FAMILIES.items() if family.tol is None}


def emit(outdir: Path, stem: str, fmt: str) -> list:
    argv = DATASETS[stem] + ["--out", f"{stem}_{fmt}", "--format", fmt, "--outdir", str(outdir)]
    assert main(argv) == 0
    return sorted(outdir.glob(f"{stem}_{fmt}.*"))


def verify_summary(outdir: Path) -> dict:
    assert main(["verify", "all", "--out", "verify_all", "--outdir", str(outdir)]) == 0
    checks = json.loads((outdir / "verify_all.json").read_text())["checks"]
    return {
        "checks": [[c["check_id"], c["status"]] for c in checks],
        "exact_residuals": [
            [c["check_id"], c["residual"]]
            for c in checks
            if _family(c["check_id"]) in EXACT_FAMILIES
        ],
    }


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("stem", sorted(DATASETS))
def test_dataset_bytes(tmp_path, stem, fmt):
    written = emit(tmp_path, stem, fmt)
    expected = sorted(GOLDEN.glob(f"{stem}_{fmt}.*"))
    assert [p.name for p in written] == [p.name for p in expected]
    for path in written:
        assert path.read_bytes() == (GOLDEN / path.name).read_bytes(), path.name


def test_verify_all_rows_and_exact_residuals(tmp_path):
    golden = json.loads((GOLDEN / "verify_all.json").read_text())
    assert verify_summary(tmp_path) == golden


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for stem in DATASETS:
        for fmt in ("csv", "json"):
            emit(GOLDEN, stem, fmt)
    with tempfile.TemporaryDirectory() as tmp:
        summary = verify_summary(Path(tmp))
    (GOLDEN / "verify_all.json").write_text(json.dumps(summary, indent=1) + "\n")
