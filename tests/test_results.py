"""The checked-in long-run results under ``results/``.

``extremal_1e11.csv`` and ``checkpoint_1e11.ck`` come from
``primehull compute --limit 10^11 --checkpoint results/checkpoint_1e11.ck
--out results/extremal_1e11.csv``; ``compute_1e11.log`` is its per-chunk
log.
"""

import csv
from pathlib import Path

from primehull.analysis import records_from_state
from primehull.persistence import export_csv, load_checkpoint

RESULTS = Path(__file__).resolve().parents[1] / "results"
CSV_1E11 = RESULTS / "extremal_1e11.csv"


def test_1e11_rows_start_as_a_fresh_1e8_compute(run_1e8, tmp_path):
    # The header and rows 1 to 220.  Row 221, the last one confirmed at
    # 1e8, is left out: there its edge ends at a provisional vertex.
    fresh = tmp_path / "extremal_1e8.csv"
    export_csv(records_from_state(run_1e8.state), fresh)
    want = fresh.read_bytes().splitlines(keepends=True)
    assert len(want) == 222
    assert CSV_1E11.read_bytes().splitlines(keepends=True)[:221] == want[:221]


def test_1e11_slopes_strictly_decrease():
    with open(CSV_1E11, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["k"]) for r in rows] == list(range(1, 1396))
    assert rows[-1]["e_k"] == "96142265407"
    slopes = [(int(r["delta_num"]), int(r["delta_den"])) for r in rows]
    assert all(a * d > c * b for (a, b), (c, d) in zip(slopes, slopes[1:]))


def test_1e11_checkpoint_writes_the_csv(tmp_path):
    state, _ = load_checkpoint(RESULTS / "checkpoint_1e11.ck")
    assert (state.last_processed, state.pi_at_last) == (10**11, 4118054813)
    out = tmp_path / "extremal_1e11.csv"
    export_csv(records_from_state(state), out)
    assert out.read_bytes() == CSV_1E11.read_bytes()
