"""The checked-in long-run results under ``results/``.

``extremal_1e11.csv`` and ``checkpoint_1e11.ck`` come from
``primehull compute --limit 10^11 --checkpoint results/checkpoint_1e11.ck
--out results/extremal_1e11.csv``; ``compute_1e11.log`` is its per-chunk
log.  The run to e_2200 resumed a copy of that checkpoint with
``primehull compute --limit 10^12 --until-k 2200 --checkpoint
results/checkpoint_5.44e11.ck --out results/extremal_5.44e11.csv``;
``compute_5.44e11.log`` is its per-chunk log.

A confirmed row's edge runs to the next vertex, so the last row confirmed
at a frontier can change as the run goes on; the prefix tests leave it out.
"""

import csv
from pathlib import Path

import pytest

from primehull import cli
from primehull.analysis import records_from_state
from primehull.hull_engine import compute_extremal
from primehull.persistence import export_csv, load_checkpoint

RESULTS = Path(__file__).resolve().parents[1] / "results"
CSV_1E11 = RESULTS / "extremal_1e11.csv"
CSV_FINAL = RESULTS / "extremal_5.44e11.csv"
CHECKPOINT_FINAL = RESULTS / "checkpoint_5.44e11.ck"


def _lines(path, rows):
    """The header and the first ``rows`` rows of a CSV file, as bytes."""
    lines = Path(path).read_bytes().splitlines(keepends=True)
    assert len(lines) > rows
    return lines[: rows + 1]


def _export(records, tmp_path):
    out = tmp_path / "fresh.csv"
    export_csv(records, out)
    return out


def _assert_slopes_strictly_decrease(path, rows, last_e):
    with open(path, newline="") as fh:
        table = list(csv.DictReader(fh))
    assert [int(r["k"]) for r in table] == list(range(1, rows + 1))
    assert table[-1]["e_k"] == last_e
    slopes = [(int(r["delta_num"]), int(r["delta_den"])) for r in table]
    assert all(a * d > c * b for (a, b), (c, d) in zip(slopes, slopes[1:]))


# The three twin pairs and the ties of the first lenses, in both tables.
_TWINS_AND_TIES = [
    "twin at k=1: (2, 3), pi(2) = 1",
    "twin at k=116: (8787901, 8787917), pi(8787901) = 589274",
    "twin at k=976: (26554262369, 26554262393), pi(26554262369) = 1156822345",
    "k=2 e_k=3 ties: 5",
    "k=3 e_k=7 ties: 13",
    "k=4 e_k=19 ties: 23;31;43",
]


@pytest.mark.parametrize(
    "path, head",
    [
        (CSV_1E11, [
            "1395 records (1395 confirmed)",
            "sum 1/e_k      = 1.09029808716  (k <= 1395)",
            "sum 1/ln e_k   = 70.7549258558  (k <= 1395)",
        ]),
        (CSV_FINAL, [
            "2200 records (2200 confirmed)",
            "sum 1/e_k      = 1.09029809099  (k <= 2200)",
            "sum 1/ln e_k   = 101.504630742  (k <= 2200)",
        ]),
    ],
    ids=["1e11", "5.44e11"],
)
def test_analyze_reports_the_checked_in_tables(capsys, path, head):
    assert cli.main(["analyze", "--in", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == head + _TWINS_AND_TIES


def test_1e11_rows_start_as_a_fresh_1e8_compute(run_1e8, tmp_path):
    # The header and rows 1 to 220.  Row 221, the last one confirmed at
    # 1e8, is left out: there its edge ends at a provisional vertex.
    fresh = _export(records_from_state(run_1e8.state), tmp_path)
    assert len(fresh.read_bytes().splitlines()) == 222
    assert _lines(CSV_1E11, 220) == _lines(fresh, 220)


def test_1e11_slopes_strictly_decrease():
    _assert_slopes_strictly_decrease(CSV_1E11, 1395, "96142265407")


def test_1e11_checkpoint_writes_the_csv(tmp_path):
    state, _ = load_checkpoint(RESULTS / "checkpoint_1e11.ck")
    assert (state.last_processed, state.pi_at_last) == (10**11, 4118054813)
    out = _export(records_from_state(state), tmp_path)
    assert out.read_bytes() == CSV_1E11.read_bytes()


def test_final_slopes_strictly_decrease():
    _assert_slopes_strictly_decrease(CSV_FINAL, 2200, "524320812671")


def test_final_rows_start_as_the_1e11_rows():
    # Row 1,395's edge ended at a provisional vertex at 10^11.
    assert _lines(CSV_FINAL, 1394) == _lines(CSV_1E11, 1394)


def test_final_checkpoint_writes_the_csv(tmp_path):
    state, _ = load_checkpoint(CHECKPOINT_FINAL)
    assert (state.last_processed, state.confirmed_len) == (544 * 10**9, 2200)
    out = _export(records_from_state(state), tmp_path)
    assert out.read_bytes() == CSV_FINAL.read_bytes()


@pytest.mark.extended
def test_final_rows_start_as_a_fresh_1e10_compute(tmp_path):
    # 751 rows are confirmed at 1e10.
    fresh = _export(compute_extremal(10**10).confirmed, tmp_path)
    assert _lines(CSV_FINAL, 750) == _lines(fresh, 750)


@pytest.mark.extended
def test_final_checkpoint_resumed_by_1e8_keeps_its_rows(tmp_path):
    state, _ = load_checkpoint(CHECKPOINT_FINAL)
    state.extend(state.last_processed + 10**8)
    assert state.confirmed_len >= 2200
    resumed = _export(records_from_state(state), tmp_path)
    assert _lines(resumed, 2200 - 1) == _lines(CSV_FINAL, 2200 - 1)
    # The last row keeps k, e_k, pi_e and both sums; its edge may end elsewhere.
    got, want = (_lines(path, 2200)[-1].split(b",") for path in (resumed, CSV_FINAL))
    assert [got[i] for i in (0, 1, 2, 7, 8)] == [want[i] for i in (0, 1, 2, 7, 8)]
