import errno
import hashlib
import json
import os
import re
import shutil
import time
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primehull import analysis, cli, lens_bounds, persistence, prime_stream
from primehull.hull_engine import HullState, compute_extremal
from primehull.m_variant import compute_m_extremal
from primehull.persistence import (
    CheckpointError,
    fmt12,
    load_checkpoint,
    parse_export,
    save_checkpoint,
    sci12,
)

README = Path(__file__).resolve().parents[1] / "README.md"
CHECKPOINT_1E11 = Path(__file__).resolve().parents[1] / "results" / "checkpoint_1e11.ck"

FIRST_ROWS = [
    "1,2,1,1,1,1,1.50000000000,0.500000000000,1.44269504089,",
    "2,3,2,2,4,4,2.33333333333,0.833333333333,2.35293426752,5",
    "3,7,4,4,12,12,2.71428571429,0.976190476190,2.86683260989,13",
    "4,19,8,7,28,28,2.47368421053,1.02882205514,3.20645588178,23;31;43",
]


def test_fmt12_pinned_strings():
    assert fmt12(1.5) == "1.50000000000"
    assert fmt12(0.5) == "0.500000000000"
    assert fmt12(2.3333333333333335) == "2.33333333333"
    assert fmt12(1.4426950408889634) == "1.44269504089"
    assert fmt12(1e12) == "1000000000000"
    assert fmt12(67596937.0) == "67596937.0000"
    assert fmt12(-0.001234567890123) == "-0.00123456789012"
    assert fmt12(0.0) == "0.00000000000"
    assert fmt12(-0.0) == "0.00000000000"
    assert fmt12(9.9999999999995) == "10.0000000000"  # rounding carries a digit
    assert fmt12(5e-324) == "0." + "0" * 323 + "494065645841"
    assert fmt12(1.7976931348623157e308) == "179769313486" + "0" * 297
    with pytest.raises(ValueError):
        fmt12(float("nan"))
    with pytest.raises(ValueError):
        fmt12(float("inf"))
    assert sci12(1.5) == "1.50000000000e+00"
    assert sci12(-0.0) == "0.00000000000e+00"
    assert sci12(5e-324) == "4.94065645841e-324"
    with pytest.raises(ValueError):
        sci12(float("nan"))


@given(st.floats(allow_nan=False, allow_infinity=False))
@settings(max_examples=300, deadline=None)
def test_sci12_is_fmt12_in_scientific_form(x):
    # The same 12 digits, so both cells parse to the same float.
    assert Decimal(sci12(x)) == Decimal(fmt12(x))


@given(st.floats(min_value=1e-8, max_value=1e15))
@settings(max_examples=300, deadline=None)
def test_fmt12_stable_under_reparse(x):
    s = fmt12(x)
    assert fmt12(float(s)) == s
    assert float(s) == pytest.approx(x, rel=5e-12)


def test_checkpoint_writes_only_the_fields_it_reads(tmp_path, run_1e5):
    # A checkpoint holds the state and its seal, nothing more: no config
    # echo and no running sums, which nothing reads back.
    path = tmp_path / "ck.json"
    save_checkpoint(run_1e5.state, path)
    assert sorted(json.loads(path.read_text())) == [
        "confirmed_count", "format_version", "integrity", "limit_processed", "pi_at_limit", "provisional_stack",
    ]
    assert load_checkpoint(path) == (run_1e5.state, {})


def test_checkpoint_save_is_atomic(tmp_path, monkeypatch, run_1e5):
    # A save that dies halfway leaves the previous checkpoint in place and
    # no temporary file beside it.
    ck = tmp_path / "ck.json"
    save_checkpoint(run_1e5.state, ck)

    def partial_dump(payload, fh, **kwargs):
        fh.write(json.dumps(payload)[:100])
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", partial_dump)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(compute_extremal(2 * 10**5).state, ck)
    monkeypatch.undo()
    loaded, _ = load_checkpoint(ck)
    assert loaded == run_1e5.state
    assert os.listdir(tmp_path) == ["ck.json"]


def test_checkpoint_save_syncs_before_rename(tmp_path, monkeypatch, run_1e5):
    # The temporary file is flushed and synced whole before it is renamed
    # onto the checkpoint, so a power loss cannot leave a renamed empty file.
    ck = tmp_path / "ck.json"
    tmp = tmp_path / "ck.json.tmp"
    events = []
    fsync, replace = os.fsync, os.replace

    def synced(fd):
        events.append(("fsync", tmp.read_text()))
        return fsync(fd)

    def renamed(src, dst):
        events.append(("replace", os.fspath(src), os.fspath(dst)))
        return replace(src, dst)

    monkeypatch.setattr(os, "fsync", synced)
    monkeypatch.setattr(os, "replace", renamed)
    save_checkpoint(run_1e5.state, ck)
    monkeypatch.undo()
    assert events == [("fsync", ck.read_text()), ("replace", str(tmp), str(ck))]
    assert load_checkpoint(ck)[0] == run_1e5.state


def _sealed(payload):
    """``payload`` as checkpoint file bytes, its integrity hash recomputed."""
    payload = {key: value for key, value in payload.items() if key != "integrity"}
    payload["integrity"] = hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    return json.dumps(payload).encode()


_ORDER = "stack not strictly increasing in p and pi"
_TIE = "a tie is not a point of its vertex's incoming edge"
_BAD_FIELD = "bad field"
_COUNT = "confirmed count out of range"


# Edits of a checkpoint at 10^5: each takes its stack s and confirmed count n
# and returns the fields to rewrite, with the message that must refuse them.
_CHECKPOINT_FAULTS = [
    pytest.param(
        lambda s, n: {"provisional_stack": s[:3] + [[s[2][0], s[3][1], s[3][2]]] + s[4:]},
        _ORDER, id="p-repeats",
    ),
    pytest.param(
        lambda s, n: {"provisional_stack": s[:3] + [[s[3][0], s[2][1], s[3][2]]] + s[4:]},
        _ORDER, id="pi-repeats",
    ),
    pytest.param(lambda s, n: {"limit_processed": 50_000}, "frontier behind the top vertex", id="limit-behind-top"),
    pytest.param(lambda s, n: {"pi_at_limit": s[-1][1] - 1}, "frontier behind the top vertex", id="pi-behind-top"),
    pytest.param(
        lambda s, n: {"pi_at_limit": s[-1][1] + 1}, "frontier count is not the top vertex's pi", id="pi-past-top",
    ),
    # (5, 3) lies on the chord from (3, 2) to (7, 4): not a vertex.  (7, 4)
    # drops its tie 5, which would sit on (5, 3) and fail the tie check.
    pytest.param(
        lambda s, n: {"provisional_stack": s[:2] + [[5, 3, []], [7, 4, []]] + s[3:], "confirmed_count": n + 1},
        "stack slopes not strictly decreasing", id="slopes-not-decreasing",
    ),
    pytest.param(
        lambda s, n: {"confirmed_count": len(s)},
        "a confirmed vertex is not final at the frontier", id="tail-confirmed",
    ),
    pytest.param(lambda s, n: {"confirmed_count": -1}, _COUNT, id="confirmed-negative"),
    pytest.param(lambda s, n: {"confirmed_count": len(s) + 1}, _COUNT, id="confirmed-past-stack"),
    pytest.param(
        lambda s, n: {"limit_processed": 10**400, "pi_at_limit": 10**399},
        "frontier beyond the 1000000000000 cap", id="frontier-beyond-cap",
    ),
    # The stack starts (2, 1), (3, 2), (7, 4) with tie 5, (19, 8) with
    # tie 13, and (47, 15) with ties 23, 31, 43 at heights 9, 11, 14.
    pytest.param(lambda s, n: {"provisional_stack": [[2, 1, [1]]] + s[1:]}, _TIE, id="first-vertex-ties"),
    pytest.param(lambda s, n: {"provisional_stack": s[:2] + [[7, 4, [5, 11]]] + s[3:]}, _TIE, id="tie-outside-edge"),
    pytest.param(
        lambda s, n: {"provisional_stack": s[:4] + [[47, 15, [31, 23, 43]]] + s[5:]},
        _TIE, id="ties-not-increasing",
    ),
    pytest.param(lambda s, n: {"provisional_stack": s[:2] + [[7, 4, [4]]] + s[3:]}, _TIE, id="tie-off-lattice"),
    # Integer fields must be JSON integers; int() would truncate 9592.9
    # to pi(10^5) = 9592 and read "100000", true and "7" as integers.
    pytest.param(lambda s, n: {"pi_at_limit": 9592.9}, _BAD_FIELD, id="pi-float"),
    pytest.param(lambda s, n: {"limit_processed": "100000"}, _BAD_FIELD, id="limit-string"),
    pytest.param(lambda s, n: {"confirmed_count": True}, _BAD_FIELD, id="confirmed-bool"),
    pytest.param(
        lambda s, n: {"provisional_stack": s[:2] + [["7", 4.0, ["5"]], [19, 8, [13.0]]] + s[4:]},
        _BAD_FIELD, id="stack-strings-and-floats",
    ),
    # Every run pushes (2, 1) first.  Without it the remaining confirmed
    # edges still test final, and (3, 2) was written as confirmed row 1.
    pytest.param(
        lambda s, n: {"provisional_stack": s[1:], "confirmed_count": n - 1},
        "stack does not start at (2, 1)", id="first-vertex-dropped",
    ),
    pytest.param(
        lambda s, n: {"provisional_stack": [], "confirmed_count": 0},
        "empty stack past the start frontier", id="empty-stack-past-start",
    ),
    # (6, 3) is a reflex vertex: slope 1/3 in from (3, 2), 1 out to
    # (7, 4).  (7, 4) drops its tie 5, which would precede (6, 3).
    pytest.param(
        lambda s, n: {"provisional_stack": s[:2] + [[6, 3, []], [7, 4, []]] + s[3:], "confirmed_count": n + 1},
        "stack slopes not strictly decreasing", id="reflex-vertex",
    ),
]


def _resealed(corrupt):
    """The file edit that rewrites the fields ``corrupt`` returns and reseals the checkpoint."""

    def edit(data):
        payload = json.loads(data)
        return _sealed({**payload, **corrupt(payload["provisional_stack"], payload["confirmed_count"])})

    return edit


_CORRUPT = "checkpoint corrupt: "

# Every checkpoint file that is refused, as an edit of the bytes of a
# checkpoint at 10^5 with the message that must refuse it: the resealed
# field edits above, every format version but 2 (version 1 also stored the
# running sums), and files that are no sealed checkpoint at all.
_REFUSED_CHECKPOINTS = [
    pytest.param(_resealed(fault.values[0]), _CORRUPT + fault.values[1], id=fault.id) for fault in _CHECKPOINT_FAULTS
] + [
    pytest.param(
        _resealed(lambda s, n, v=v: {"format_version": v}),
        f"checkpoint format version {v} not supported (expected 2)", id=f"version-{type(v).__name__}-{v}",
    )
    for v in (1, 3, 99, True, "2", 2.0)
] + [
    pytest.param(
        lambda data: data[: len(data) // 2], _CORRUPT + "Expecting value: line 99 column 3 (char 752)", id="truncated",
    ),
    pytest.param(
        lambda data: json.dumps({**json.loads(data), "confirmed_count": 36}).encode(),
        _CORRUPT + "integrity checksum mismatch", id="unsealed-edit",
    ),
    pytest.param(
        lambda data: json.dumps({key: value for key, value in json.loads(data).items() if key != "integrity"}).encode(),
        _CORRUPT + "missing integrity field", id="integrity-deleted",
    ),
    pytest.param(
        lambda data: b"{not json", _CORRUPT + "Expecting property name enclosed in double quotes", id="not-json",
    ),
    # Bytes that are not UTF-8, an integer past Python's digit limit and
    # arrays nested past its recursion limit.
    pytest.param(lambda data: b"\xff\xfe{}", _CORRUPT + "'utf-8' codec can't decode byte 0xff", id="not-utf-8"),
    pytest.param(lambda data: b"9" * 5000, _CORRUPT + "Exceeds the limit (4300 digits)", id="5000-digits"),
    pytest.param(
        lambda data: b"[" * 100_000 + b"]" * 100_000, _CORRUPT + "maximum recursion depth exceeded", id="nested-arrays",
    ),
]


@pytest.mark.parametrize("edit, message", _REFUSED_CHECKPOINTS)
def test_checkpoint_inconsistent_state_rejected(tmp_path, capsys, run_1e5, edit, message):
    # The message names the check that refuses the file, and a resume leaves
    # the file as it was instead of overwriting it with a fresh run.  Each
    # field edit is resealed, so only a consistency check can catch it.  A
    # resume from the frontier-behind-top or the tail-confirmed file used to
    # pop a confirmed vertex, and one from the slopes-not-decreasing file
    # reported 5 as a confirmed extremal prime.  The frontier-beyond-cap file
    # overflowed the float pi bound and exited as a usage error.  Bad ties
    # used to load and be written into confirmed rows.
    ck = tmp_path / "ck.json"
    save_checkpoint(run_1e5.state, ck)
    assert json.loads(ck.read_text())["provisional_stack"][:5] == [
        [2, 1, []], [3, 2, []], [7, 4, [5]], [19, 8, [13]], [47, 15, [23, 31, 43]]
    ]
    refused = edit(ck.read_bytes())
    ck.write_bytes(refused)
    with pytest.raises(CheckpointError, match="^" + re.escape(message)):
        load_checkpoint(ck)
    assert cli.main(["compute", "--limit", "2*10^5", "--checkpoint", str(ck)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: " + message)
    assert ck.read_bytes() == refused


def test_checkpoint_missing_file():
    with pytest.raises(CheckpointError, match="checkpoint corrupt"):
        load_checkpoint("/nonexistent/ck.json")


# FIRST_ROWS as files: without a status column, and with one whose last row
# is provisional.
_ROW_FILES = {
    False: persistence.CSV_HEADER + "\n" + "".join(row + "\n" for row in FIRST_ROWS),
    True: persistence.CSV_HEADER + ",status\n"
    + "".join(row + ",confirmed\n" for row in FIRST_ROWS[:3])
    + "4,19,8,7,28,28,2.47368421053,,,23;31;43,provisional\n",
}


@pytest.mark.parametrize("include_provisional", sorted(_ROW_FILES))
def test_parse_export_accepts_only_what_export_writes(tmp_path, include_provisional):
    # Every single-character deletion, and every substitution by a character
    # of "019.-_;e +", is refused or re-exports to exactly the edited file.
    # The edited file is unlinked before it is rewritten: truncating a file
    # just written can wait tens of ms for the filesystem to flush it.
    text = _ROW_FILES[include_provisional].encode()
    edited, out = tmp_path / "edited.csv", tmp_path / "out.csv"
    chars = [b""] + [bytes([c]) for c in b"019.-_;e +"]
    edits = {text[:i] + c + text[i + 1:] for i in range(len(text)) for c in chars} - {text}
    edited.write_bytes(text)
    assert len(parse_export(edited)) == len(FIRST_ROWS)
    violations = []
    for edit in sorted(edits):
        edited.unlink()
        edited.write_bytes(edit)
        try:
            records = parse_export(edited)
        except ValueError:
            continue
        persistence.export_csv(records, out, include_provisional=include_provisional)
        if out.read_bytes() != edit:
            violations.append(edit)
    assert violations == []



# The checkpoint faults a CSV can hold.  first-vertex-ties cannot be written:
# the ties on row k belong to vertex k+1, so no cell holds vertex 1's ties.
_CSV_STACK_FAULTS = [
    fault for fault in _CHECKPOINT_FAULTS
    if fault.id in {
        "first-vertex-dropped", "p-repeats", "pi-repeats", "tie-outside-edge", "ties-not-increasing",
        "tie-off-lattice", "slopes-not-decreasing", "reflex-vertex",
    }
]


@pytest.mark.parametrize("corrupt, message", _CSV_STACK_FAULTS)
def test_parse_export_refuses_checkpoint_stack_faults(tmp_path, run_1e5, corrupt, message):
    # The faulty stack goes in as a status-column export, written by hand:
    # records_from_state cannot write the zero dp of p-repeats.  The reals
    # stay empty, as parse_export checks the stack before any other cell.
    state = run_1e5.state
    edit = corrupt([[v.p, v.pi, list(v.ties)] for v in state.stack], state.confirmed_len)
    stack, confirmed = edit["provisional_stack"], edit.get("confirmed_count", state.confirmed_len)
    lines = [persistence.CSV_HEADER + ",status"]
    for k, ((p, pi, _), (q, qi, ties)) in enumerate(zip(stack, stack[1:]), 1):
        status = "confirmed" if k <= confirmed else "provisional"
        lines.append(f"{k},{p},{pi},{qi - pi},{q - p},{q - p},,,,{';'.join(map(str, ties))},{status}")
    p, pi, _ = stack[-1]
    lines.append(f"{len(stack)},{p},{pi},,,,,,,,provisional")
    path = tmp_path / "faulty.csv"
    path.write_text("".join(line + "\n" for line in lines))
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_export(path)


def test_parse_export_refuses_a_vertex_beyond_the_cap(tmp_path):
    # Consistent apart from size: the edge from (2, 1) runs to (10^400, 2).
    # Rebuilding its record would turn 10^400 / 2 into a float and raise
    # OverflowError, which the CLI also maps to exit 2, so parse_export is
    # called directly.
    dp = 10**400 - 2
    path = tmp_path / "huge.csv"
    path.write_text(persistence.CSV_HEADER + f"\n1,2,1,1,{dp},{dp},inf,0.500000000000,1.44269504089,\n")
    with pytest.raises(ValueError, match="beyond the 1000000000000 cap"):
        parse_export(path)


def test_parse_export_reads_every_prefix(tmp_path):
    # Either export form parses back to the records it was written from: the
    # confirmed-only one drops the status column and the provisional rows.
    # The header plus the first n rows of either form is itself an export:
    # it parses to the first n records, whatever n is.  Each prefix is
    # unlinked before it is rewritten, as above.
    path = tmp_path / "e.csv"
    for limit in (10**3, 10**5, 10**6):
        state = compute_extremal(limit).state
        every = analysis.records_from_state(state, include_provisional=True)
        for include_provisional in (False, True):
            records = every if include_provisional else every[: state.confirmed_len]
            persistence.export_csv(every, path, include_provisional=include_provisional)
            header, *rows = path.read_text().splitlines(keepends=True)
            column, cell = (",status", ",confirmed") if include_provisional else ("", "")
            assert header == persistence.CSV_HEADER + column + "\n"
            assert rows[:4] == [row + cell + "\n" for row in FIRST_ROWS]
            assert parse_export(path) == records
            assert len(rows) == len(records) > 0
            for n in range(len(rows) + 1):
                path.unlink()
                path.write_text(header + "".join(rows[:n]))
                assert parse_export(path) == records[:n]


def test_export_rejects_empty(tmp_path):
    # The refusal comes before the old file is removed.
    kept = tmp_path / "kept.csv"
    kept.write_bytes(b"old\n")
    for export in (persistence.export_csv, persistence.export_m_csv):
        with pytest.raises(ValueError):
            export([], tmp_path / "x.csv")
        with pytest.raises(ValueError):
            export([], kept)
    assert not (tmp_path / "x.csv").exists()
    assert kept.read_bytes() == b"old\n"


# Each writer, given a path and a small or a larger input.
_WRITERS = {
    "export_csv": lambda path, big: persistence.export_csv(
        analysis.records_from_state(compute_extremal(10**4 if big else 10**3).state), path
    ),
    "export_m_csv": lambda path, big: persistence.export_m_csv(
        compute_m_extremal(10**4 if big else 10**3).records, path
    ),
    "lensbounds": lambda path, big: cli.main(
        ["lensbounds", "--x-grid", "1e8,1e12" if big else "1e8", "--out", str(path)]
    ),
    "save_checkpoint": lambda path, big: save_checkpoint(compute_extremal(10**4 if big else 10**3).state, path),
}


@pytest.mark.parametrize("writer", sorted(_WRITERS))
def test_writers_replace_a_file_and_write_through_a_symlink(tmp_path, writer):
    # A regular file is replaced, not truncated: a hard link to it keeps the
    # old text.  A symlink is written through and stays a symlink.
    write = _WRITERS[writer]
    path, old = tmp_path / "out.csv", tmp_path / "old.csv"
    write(path, False)
    small = path.read_bytes()
    os.link(path, old)
    write(path, True)
    big = path.read_bytes()
    assert big != small
    assert old.read_bytes() == small
    link, target = tmp_path / "link.csv", tmp_path / "target.csv"
    link.symlink_to(target.name)
    write(link, False)
    write(link, True)
    assert link.is_symlink()
    assert target.read_bytes() == big


# CLI


def test_parse_limit_forms():
    assert cli.parse_limit("100000") == 100000
    assert cli.parse_limit("10^8") == 10**8
    assert cli.parse_limit("3*10^9") == 3 * 10**9
    assert cli.parse_limit("1e8") == 10**8
    assert cli.parse_limit("2.5e9") == 2_500_000_000
    assert cli.parse_limit("0*10^99999") == 0
    assert cli.parse_limit("2^1328") == 2**1328  # just below 10^400
    assert cli.parse_limit("9.99e399") == 999 * 10**397
    # A mantissa longer than Decimal's 28-digit context is not rounded.
    assert cli.parse_limit("1234567890123456789012345678901e0") == 1234567890123456789012345678901
    assert cli.parse_limit("9" * 400) == 10**400 - 1
    for bad in ("abc", "1.5e0", "-5", "10^", "1e-3"):
        with pytest.raises(ValueError):
            cli.parse_limit(bad)


# Each refused command, with its exit code and a fragment of its stderr.
# {dir} holds run.ck, a checkpoint at 10^5, and e.csv, an export.
_CLI_REFUSALS = [
    # Any spelling of 10^400 or more.  The last three used to die in Decimal
    # overflow, run for minutes, or trip the int-to-string digit limit.
    *(
        pytest.param(["compute", "--limit", text], 4, "is not below 10^400", id=name)
        for text, name in [
            ("1e400", "1e400"), ("10^400", "10^400"), ("1" + "0" * 400, "401-digits"), ("10*10^399", "10*10^399"),
            ("0.1e401", "0.1e401"), ("2^1329", "2^1329"), ("1e" + "9" * 500, "500-digit-exponent"),
            ("1e1000000", "1e1000000"), ("1e999999", "1e999999"), ("10^300000", "10^300000"),
        ]
    ),
    pytest.param(["compute", "--limit", "10^13"], 4, "exceeds supported maximum 1000000000000", id="compute-1e13"),
    pytest.param(["mvariant", "--limit", "2*10^9"], 4, "exceeds supported maximum 1000000000", id="mvariant-2e9"),
    pytest.param(["compute", "--limit", "notanumber"], 2, "cannot parse limit 'notanumber'", id="not-a-number"),
    pytest.param(["compute"], 2, "the following arguments are required: --limit", id="no-limit"),
    pytest.param(
        ["compute", "--limit", "100", "--frobnicate"], 2, "unrecognized arguments: --frobnicate", id="unknown-option",
    ),
    pytest.param(["frobnicate"], 2, "invalid choice: 'frobnicate'", id="unknown-command"),
    pytest.param([], 2, "the following arguments are required: command", id="no-command"),
    pytest.param(["compute", "--limit", "1", "--out", "{dir}/a.csv"], 2, "limit must be >= 2", id="limit-1"),
    pytest.param(["compute", "--limit", "10^3", "--until-k", "0"], 2, "--until-k must be >= 1", id="until-k-0"),
    pytest.param(
        ["compute", "--limit", "1000", "--checkpoint", "{dir}/run.ck"], 2,
        "limit 1000 is below the checkpoint's frontier 100000", id="limit-below-checkpoint",
    ),
    pytest.param(["analyze", "--in", "{dir}/missing.csv"], 2, "No such file or directory", id="analyze-missing-file"),
    # The envelope scan's 10^9 cap is a range error, like the other caps;
    # below 11 the scan measures nothing, so there is no ratio to print.
    pytest.param(
        ["analyze", "--in", "{dir}/e.csv", "--envelope-limit", "2*10^9"], 4,
        "envelope scan limited to 1000000000", id="envelope-2e9",
    ),
    pytest.param(
        ["analyze", "--in", "{dir}/e.csv", "--envelope-limit", "10"], 2,
        "envelope limit must be >= 11", id="envelope-10",
    ),
    pytest.param(["lensbounds", "--x-grid", ","], 2, "error: empty x grid\n", id="lensbounds-empty"),
    pytest.param(["lensbounds", "--x-grid", "oops"], 2, "cannot parse limit 'oops'", id="lensbounds-oops"),
    pytest.param(["lensbounds", "--x-grid", "1"], 2, "cubic_coeffs requires x >= 2", id="lensbounds-1"),
    # A grid point that fails leaves the old file as it was.
    pytest.param(
        ["lensbounds", "--x-grid", "1e8,1", "--out", "{dir}/e.csv"], 2,
        "cubic_coeffs requires x >= 2", id="lensbounds-out",
    ),
    # 1e309 overflows a float.
    pytest.param(["lensbounds", "--x-grid", "1e309"], 2, "int too large to convert to float", id="lensbounds-1e309"),
    pytest.param(["lensbounds", "--x-grid", "1e400"], 4, "is not below 10^400", id="lensbounds-1e400"),
]


@pytest.mark.parametrize("argv, code, message", _CLI_REFUSALS)
def test_cli_refusals(tmp_path, capsys, run_1e5, argv, code, message):
    # Each is decided before any large power is evaluated and before any
    # sieving, so within a second, and writes no file.
    save_checkpoint(run_1e5.state, tmp_path / "run.ck")
    (tmp_path / "e.csv").write_text(_ROW_FILES[False])
    files = {path: path.read_bytes() for path in tmp_path.iterdir()}
    t0 = time.perf_counter()
    assert cli.main([arg.format(dir=tmp_path) for arg in argv]) == code
    assert time.perf_counter() - t0 < 1.0
    assert message in capsys.readouterr().err
    assert {path: path.read_bytes() for path in tmp_path.iterdir()} == files


def test_readme_cli_block_parses():
    # Every command in README's CLI block is one the parser takes, with
    # limits parse_limit takes.
    block = re.search(r"## CLI\n\n```\n(.*?)```", README.read_text(), re.S).group(1)
    commands = [line.split()[1:] for line in block.splitlines() if line.startswith("primehull ")]
    assert len(commands) == 6
    parser = cli._build_parser()
    for argv in commands:
        args = parser.parse_args(argv)
        limits = [getattr(args, name, None) for name in ("limit", "envelope_limit")]
        limits += getattr(args, "x_grid", "").split(",")
        for text in filter(None, limits):
            cli.parse_limit(text)


def test_cli_compute_chunks_and_resumes(tmp_path, capsys, monkeypatch, run_1e6):
    monkeypatch.setattr(cli, "CHUNK", 4 * 10**5)
    ck = tmp_path / "sums.ck"
    cmd = ["compute", "--limit", "10^6", "--checkpoint", str(ck)]
    assert cli.main(cmd) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[:3]] == ["x=400000", "x=800000", "x=1000000"]
    last = run_1e6.confirmed[-1]
    assert last.k == 63
    assert (
        f"confirmed k=63  sum 1/e_k={fmt12(last.sum_inv)}  sum 1/ln e_k={fmt12(last.sum_invlog)}  "
        in lines[2]
    )
    assert lines[3:] == [
        f"limit 1000000: 63 confirmed extremal primes, {len(run_1e6.state.stack) - 63} provisional",
        f"last confirmed: k=63 e_k={last.e} pi(e_k)={last.pi_e}",
    ]
    # The chunked run writes what one unchunked save of the same state does.
    straight = tmp_path / "straight.ck"
    save_checkpoint(run_1e6.state, straight)
    assert ck.read_bytes() == straight.read_bytes()
    assert cli.main(cmd) == 0
    assert capsys.readouterr().out.splitlines() == ["resuming from 1000000"] + lines[3:]
    assert ck.read_bytes() == straight.read_bytes()


def test_cli_compute_exits_6_when_a_worker_dies_and_resumes_on_rerun(
    tmp_path, capsys, monkeypatch, fresh_workers
):
    # A worker exits at the fourth segment of the second chunk, which starts
    # at 400001; the first chunk's segments start at 1 + 8192j.
    monkeypatch.setattr(prime_stream, "SEGMENT_SIZE", 1 << 12)
    monkeypatch.setattr(cli, "CHUNK", 4 * 10**5)
    real = prime_stream._sieve_segment

    def sieve(lo, hi, buf, odd_basis):
        if lo == 400_001 + 3 * (2 << 12):
            os._exit(1)
        return real(lo, hi, buf, odd_basis)

    monkeypatch.setattr(prime_stream, "_sieve_segment", sieve)
    ck, out = tmp_path / "run.ck", tmp_path / "run.csv"
    cmd = ["compute", "--limit", "10^6", "--checkpoint", str(ck), "--out", str(out)]
    assert cli.main(cmd) == cli.EXIT_WORKER == 6
    captured = capsys.readouterr()
    assert captured.out.splitlines()[-1].startswith("x=400000 ")
    assert re.fullmatch(r"error: sieve worker \d+ exited\n", captured.err)
    assert not out.exists()
    # The rerun forks a new set, without the fault, and resumes the saved chunk.
    monkeypatch.setattr(prime_stream, "_sieve_segment", real)
    assert cli.main(cmd) == 0
    assert capsys.readouterr().out.startswith("resuming from 400000\n")
    straight_ck, straight_out = tmp_path / "straight.ck", tmp_path / "straight.csv"
    assert cli.main(["compute", "--limit", "10^6", "--checkpoint", str(straight_ck), "--out", str(straight_out)]) == 0
    assert ck.read_bytes() == straight_ck.read_bytes()
    assert out.read_bytes() == straight_out.read_bytes()


def test_cli_compute_exits_6_when_a_worker_raises(capsys, monkeypatch, fresh_workers):
    # Only a segment reaching 4099^2 ~ 1.68e7 scatters: the ninth, which a
    # worker sieves. The first segment and a worker's table never scatter.
    real = prime_stream._strike_large

    def strike(mask, P, i0):
        if len(P):
            raise ValueError("bad scatter")
        real(mask, P, i0)

    monkeypatch.setattr(prime_stream, "_strike_large", strike)
    assert cli.main(["compute", "--limit", "2*10^7"]) == cli.EXIT_WORKER
    captured = capsys.readouterr()
    assert captured.out == ""
    pid = re.fullmatch(r"error: sieve worker (\d+) failed: ValueError: bad scatter\n", captured.err)
    assert int(pid.group(1)) in prime_stream._workers.pids


# compute reads the hull stream (the E command), mvariant every prime.
@pytest.mark.parametrize("command", ["compute", "mvariant"])
def test_cli_exits_6_when_a_worker_cannot_be_forked(capsys, monkeypatch, fresh_workers, command):
    # Two workers: the first is forked, the second is refused, so the first
    # must be killed and reaped and every pipe closed.
    monkeypatch.setattr(prime_stream, "SEGMENT_SIZE", 1 << 12)
    monkeypatch.setattr(prime_stream.os, "sched_getaffinity", lambda pid: {0, 1})
    forked = []
    real = os.fork

    def fork():
        if forked:
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        pid = real()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    fds = set(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else set()
    assert cli.main([command, "--limit", "10^6"]) == cli.EXIT_WORKER
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: could not fork sieve workers: [Errno {errno.EAGAIN}] {os.strerror(errno.EAGAIN)}\n"
    with pytest.raises(ChildProcessError):
        os.waitpid(forked[0], os.WNOHANG)
    if fds:
        assert set(os.listdir("/proc/self/fd")) == fds


def test_cli_compute_until_k_stops_after_the_chunk_that_confirms_it(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "CHUNK", 10**5)
    monkeypatch.setattr(cli, "PI_ANCHORS", {10**6: 78498})
    # e_63 is the last vertex confirmed at 10^6, so the run passes the
    # anchor before it confirms e_64.
    state = compute_extremal(10**6).state
    while state.confirmed_len < 64:
        state.extend(state.last_processed + 10**5)
    stop = state.last_processed
    assert 10**6 < stop < 2 * 10**6
    ck = tmp_path / "run.ck"
    cmd = ["compute", "--limit", "2*10^6", "--until-k", "64", "--checkpoint", str(ck)]
    assert cli.main(cmd) == 0
    lines = capsys.readouterr().out.splitlines()
    chunks = [line.split()[0] for line in lines if line.startswith("x=")]
    assert chunks == [f"x={x}" for x in range(10**5, stop + 1, 10**5)]
    # The ETA points at the limit, not at the stop --until-k makes.
    assert all(line.endswith(" to x=2000000)") for line in lines if line.startswith("x="))
    assert f"stopped at x={stop}: e_64 is confirmed" in lines
    straight = tmp_path / "straight.ck"
    save_checkpoint(state, straight)
    assert ck.read_bytes() == straight.read_bytes()
    # Rerun on the checkpoint: e_64 is already confirmed, so no chunk runs.
    assert cli.main(cmd) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == [f"resuming from {stop}", f"stopped at x={stop}: e_64 is confirmed"]
    assert ck.read_bytes() == straight.read_bytes()


def test_cli_compute_stops_unsaved_at_a_wrong_anchor(tmp_path, capsys, monkeypatch):
    # pi(10^6) = 78498; the anchor table claims one fewer.
    monkeypatch.setattr(cli, "CHUNK", 10**5)
    monkeypatch.setattr(cli, "PI_ANCHORS", {10**6: 78497})
    ck = tmp_path / "run.ck"
    out = tmp_path / "table.csv"
    cmd = ["compute", "--limit", "2*10^6", "--checkpoint", str(ck), "--out", str(out)]
    assert cli.main(cmd) == cli.EXIT_ANCHOR == 5
    captured = capsys.readouterr()
    assert captured.out.splitlines()[-1].startswith("x=900000 ")
    assert "pi(1000000) counted 78498, published 78497; chunk not saved" in captured.err
    straight = tmp_path / "straight.ck"
    save_checkpoint(compute_extremal(9 * 10**5).state, straight)
    assert ck.read_bytes() == straight.read_bytes()
    assert not out.exists()
    # The published count passes, and the run goes on to its limit.
    monkeypatch.setattr(cli, "PI_ANCHORS", {10**6: 78498})
    assert cli.main(cmd) == 0
    assert "x=2000000 " in capsys.readouterr().out
    assert out.exists()


def test_cli_compute_degenerate(capsys):
    assert cli.main(["compute", "--limit", "2"]) == 0
    out = capsys.readouterr().out
    assert "1 confirmed" in out and "e_k=2" in out


@pytest.mark.parametrize(
    "argv, seed, digests",
    [
        pytest.param(
            ["compute", "--limit", "1e8", "--include-provisional", "--out", "{csv}", "--checkpoint", "{ck}"],
            None,
            {
                "csv": "e0d2dfe7a8af11a691ac2b73aa0b04cb1cfba62ae772e54eb9b7e2467e6ac6a2",
                "ck": "2b5fddcf55160c49485e82c6f8cbc8e563a37713796d3bdec6a2e33c33c9da32",
            },
            id="compute-1e8",
        ),
        pytest.param(
            ["mvariant", "--limit", "1e7", "--out", "{csv}"],
            None,
            {"csv": "4d9f1267a4184351893ddbf29f12d708e2758c2a582cad260dd71a4e423a8a01"},
            id="mvariant-1e7",
        ),
        pytest.param(
            ["compute", "--limit", "1e9", "--include-provisional", "--out", "{csv}"],
            None,
            {"csv": "5af15a2f35f8d095589c7649d67982d9a3bfe840064c607f6f7bdc8070170778"},
            id="compute-1e9",
            marks=pytest.mark.extended,
        ),
        # A copy of the checked-in 1e11 checkpoint, resumed by three chunks.
        pytest.param(
            ["compute", "--limit", "1.03e11", "--include-provisional", "--out", "{csv}", "--checkpoint", "{ck}"],
            CHECKPOINT_1E11,
            {
                "csv": "87d4e8ef81d2a8aa47e949d8eee362c150c29b6c4d05ae3159fef95d0731d8c4",
                "ck": "6e3d0cd3e0fe50649f2dea76f31e62ac170832377900e66029b8581bf91dd39b",
            },
            id="resume-1e11-to-1.03e11",
            marks=pytest.mark.extended,
        ),
    ],
)
def test_cli_output_bytes_are_pinned(tmp_path, argv, seed, digests):
    # Every byte the CLI writes, so a change to the stream, the hulls or
    # the encoders that moves any row or field shows here.
    paths = {name: tmp_path / f"out.{name}" for name in ("csv", "ck")}
    if seed:
        shutil.copyfile(seed, paths["ck"])
    assert cli.main([arg.format(**paths) for arg in argv]) == 0
    assert {name: hashlib.sha256(paths[name].read_bytes()).hexdigest() for name in digests} == digests


def test_cli_compute_export_and_analyze(tmp_path, capsys):
    out = tmp_path / "e.csv"
    assert cli.main(["compute", "--limit", "100000", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[1].startswith("1,2,1,")
    assert cli.main(["analyze", "--in", str(out), "--envelope-limit", "10^4"]) == 0
    text = capsys.readouterr().out
    assert "sum 1/e_k" in text
    assert "twin at k=1" in text
    assert "23;31;43" in text
    assert "0 violations" in text


@pytest.mark.parametrize(
    "argv, message",
    [
        (["compute", "--limit", "10^5", "--out", "{missing}/e.csv"], "no directory for {missing}/e.csv"),
        (["compute", "--limit", "10^5", "--checkpoint", "{missing}/run.ck"], "no directory for {missing}/run.ck"),
        (["mvariant", "--limit", "10^5", "--out", "{missing}/m.csv"], "no directory for {missing}/m.csv"),
        (["lensbounds", "--x-grid", "1e8,1e12", "--out", "{missing}/lens.csv"], "no directory for {missing}/lens.csv"),
        # A symlink into a missing directory: the writers write through it.
        (["compute", "--limit", "10^5", "--out", "{tmp}/dangling.csv"], "no directory for {tmp}/dangling.csv"),
        (["compute", "--limit", "10^5", "--checkpoint", "{tmp}/dangling.ck"], "no directory for {tmp}/dangling.ck"),
        (["compute", "--limit", "10^5", "--out", "{directory}"], "{directory} is a directory"),
        (["compute", "--limit", "10^5", "--checkpoint", "{directory}"], "{directory} is a directory"),
        (["mvariant", "--limit", "10^5", "--out", "{directory}"], "{directory} is a directory"),
        (["lensbounds", "--x-grid", "1e8,1e12", "--out", "{directory}"], "{directory} is a directory"),
        # The export would replace the checkpoint: by its own path, through a
        # symlink to it, or through a hard link to it.
        (
            ["compute", "--limit", "10^5", "--out", "{tmp}/new.ck", "--checkpoint", "{tmp}/new.ck"],
            "--out {tmp}/new.ck and --checkpoint {tmp}/new.ck are the same file",
        ),
        (
            ["compute", "--limit", "10^5", "--out", "{tmp}/link.ck", "--checkpoint", "{tmp}/run.ck"],
            "--out {tmp}/link.ck and --checkpoint {tmp}/run.ck are the same file",
        ),
        (
            ["compute", "--limit", "10^5", "--out", "{tmp}/hard.ck", "--checkpoint", "{tmp}/run.ck"],
            "--out {tmp}/hard.ck and --checkpoint {tmp}/run.ck are the same file",
        ),
    ],
    ids=[
        "compute-out", "compute-checkpoint", "mvariant-out", "lensbounds-out",
        "compute-out-symlink-into-missing", "compute-checkpoint-symlink-into-missing",
        "compute-out-directory", "compute-checkpoint-directory", "mvariant-out-directory",
        "lensbounds-out-directory", "compute-out-is-checkpoint", "compute-out-links-checkpoint",
        "compute-out-hard-links-checkpoint",
    ],
)
def test_cli_refuses_a_path_in_a_missing_directory_before_sieving(
    tmp_path, capsys, monkeypatch, run_1e5, argv, message
):
    def computed(*args):
        raise AssertionError("computed before checking the output path")

    monkeypatch.setattr(HullState, "extend", computed)
    monkeypatch.setattr(cli, "compute_m_extremal", computed)
    monkeypatch.setattr(lens_bounds, "solve_theta", computed)
    ck = tmp_path / "run.ck"
    save_checkpoint(run_1e5.state, ck)
    (tmp_path / "link.ck").symlink_to(ck.name)
    os.link(ck, tmp_path / "hard.ck")
    (tmp_path / "directory").mkdir()
    dangling = [tmp_path / "dangling.csv", tmp_path / "dangling.ck"]
    for link, target in zip(dangling, ["missing/e.csv", "missing/run.ck"]):
        link.symlink_to(target)
    files = {path: path.read_bytes() for path in tmp_path.iterdir() if path.is_file()}
    paths = {"tmp": tmp_path, "missing": tmp_path / "missing", "directory": tmp_path / "directory"}
    assert cli.main([arg.format(**paths) for arg in argv]) == 2
    assert capsys.readouterr() == ("", f"error: {message.format(**paths)}\n")
    assert {path: path.read_bytes() for path in tmp_path.iterdir() if path.is_file()} == files
    assert sorted(tmp_path.iterdir()) == sorted([*files, *dangling, paths["directory"]])
    assert list(paths["directory"].iterdir()) == []


_MALFORMED_EXPORTS = {
    "short-row.csv": persistence.CSV_HEADER + "\n1,2,1\n",
    "long-row.csv": persistence.CSV_HEADER + "\n" + FIRST_ROWS[0] + ",confirmed\n",
    "bad-cell.csv": persistence.CSV_HEADER + "\n" + FIRST_ROWS[0].replace("1,2,1,", "1,x,1,", 1) + "\n",
    "bad-ratio.csv": persistence.CSV_HEADER + "\n" + FIRST_ROWS[0].replace("1.5", "one", 1) + "\n",
    "non-ascii-digit.csv": persistence.CSV_HEADER + "\n" + FIRST_ROWS[0].replace("1,", "\u0661,", 1) + "\n",
    "lens-mismatch.csv": persistence.CSV_HEADER + "\n" + FIRST_ROWS[0].replace("1,1,1,1.5", "1,1,2,1.5", 1) + "\n",
    "bad-status.csv": persistence.CSV_HEADER + ",status\n" + FIRST_ROWS[0] + ",maybe\n",
    "no-sums.csv": persistence.CSV_HEADER + "\n" + FIRST_ROWS[0].replace(",0.500000000000,", ",,", 1) + "\n",
    "bad-header.csv": "k,e_k,pi_e\n1,2,1\n",
    "gap.csv": persistence.CSV_HEADER + "\n" + FIRST_ROWS[0] + "\n" + FIRST_ROWS[2] + "\n",
    "provisional-first.csv": persistence.CSV_HEADER + ",status\n"
    + "1,2,1,1,1,1,1.50000000000,,,,provisional\n" + FIRST_ROWS[1] + ",confirmed\n",
    "underscore-real.csv": persistence.CSV_HEADER + "\n" + FIRST_ROWS[0].replace("1.50000000000", "1_5", 1) + "\n",
    "nan-sum.csv": persistence.CSV_HEADER + "\n" + FIRST_ROWS[0].replace("0.500000000000", "nan", 1) + "\n",
    "spaced-real.csv": persistence.CSV_HEADER + "\n" + FIRST_ROWS[0].replace("1.44269504089", " 1.44269504089 ", 1) + "\n",
    "short-real.csv": persistence.CSV_HEADER + "\n" + FIRST_ROWS[0].replace("1.50000000000", "1.5", 1) + "\n",
    "leading-zero.csv": persistence.CSV_HEADER + "\n" + FIRST_ROWS[0].replace("1,2,1,", "1,02,1,", 1) + "\n",
    "crlf.csv": persistence.CSV_HEADER + "\r\n" + FIRST_ROWS[0] + "\r\n",
    "blank-line.csv": persistence.CSV_HEADER + "\n" + FIRST_ROWS[0] + "\n\n",
    # Each row alone is as export_csv writes it, but not the file: e_2 = 9 is
    # no vertex after (2, 1), a provisional row carries running sums, and
    # e_1 = 0 is not the stack's first vertex (2, 1).
    "e2-not-a-vertex.csv": persistence.CSV_HEADER + "\n" + FIRST_ROWS[0] + "\n"
    + "2,9,2,2,4,4,2.33333333333,0.833333333333,2.35293426752,13\n",
    "provisional-with-sums.csv": persistence.CSV_HEADER + ",status\n" + FIRST_ROWS[0] + ",confirmed\n"
    + "2,3,2,2,4,4,2.33333333333,0.833333333333,2.35293426752,5,provisional\n",
    "e1-zero.csv": persistence.CSV_HEADER + "\n" + FIRST_ROWS[0].replace("1,2,1,", "1,0,1,", 1) + "\n",
    "json-export.json": json.dumps({
        "meta": {"format_version": 1, "record_count": 1, "confirmed_count": 1},
        "records": [{
            "k": 1, "e_k": 2, "pi_e": 1, "delta_num": 1, "delta_den": 1, "lens_len": 1,
            "ratio_next": "1.50000000000", "sum_inv": "0.500000000000",
            "sum_invlog": "1.44269504089", "ties": [], "status": "confirmed",
        }],
    }, indent=1),
}


@pytest.mark.parametrize("name", sorted(_MALFORMED_EXPORTS))
def test_cli_analyze_malformed_export(tmp_path, capsys, name):
    path = tmp_path / name
    path.write_text(_MALFORMED_EXPORTS[name])
    assert cli.main(["analyze", "--in", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_analyze_header_only_export(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_text(persistence.CSV_HEADER + "\n")
    assert cli.main(["analyze", "--in", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "0 records (0 confirmed)",
        "sum 1/e_k      = 0.00000000000  (k <= 0)",
        "sum 1/ln e_k   = 0.00000000000  (k <= 0)",
        "no twin pairs",
        "no ties",
    ]


def test_cli_analyze_status_column_export(tmp_path, capsys):
    # The sums are row 35's, the last confirmed; rows 36 to 39 are provisional.
    path = tmp_path / "p.csv"
    assert cli.main(["compute", "--limit", "10^5", "--include-provisional", "--out", str(path)]) == 0
    capsys.readouterr()
    assert cli.main(["analyze", "--in", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "39 records (35 confirmed)",
        "sum 1/e_k      = 1.09016166583  (k <= 35)",
        "sum 1/ln e_k   = 7.23658370300  (k <= 35)",
        "twin at k=1: (2, 3), pi(2) = 1",
        "k=2 e_k=3 ties: 5",
        "k=3 e_k=7 ties: 13",
        "k=4 e_k=19 ties: 23;31;43",
    ]


def test_cli_checkpoint_resume_flow(tmp_path, capsys, monkeypatch):
    ck = tmp_path / "ck.json"
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert cli.main(["compute", "--limit", "500000", "--checkpoint", str(ck)]) == 0
    capsys.readouterr()
    # A resumed run's chunks end at multiples of the chunk size.
    monkeypatch.setattr(cli, "CHUNK", 3 * 10**5)
    assert cli.main(["compute", "--limit", "10^6", "--checkpoint", str(ck), "--out", str(out1)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[:4]] == [
        "resuming", "x=600000", "x=900000", "x=1000000",
    ]
    assert cli.main(["compute", "--limit", "10^6", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_resumes_checkpoint_with_segment_size_echo(tmp_path):
    # Older checkpoints echo their limit, and those from before the segment
    # size was fixed the "segment_size" they were sieved with; the loader
    # returns the echo, and the CLI ignores it.
    ck = tmp_path / "ck.json"
    save_checkpoint(compute_extremal(10**5).state, ck)
    echo = {"limit": 10**5, "segment_size": 1024}
    ck.write_bytes(_sealed({**json.loads(ck.read_text()), "config_echo": echo}))
    assert load_checkpoint(ck)[1] == echo
    resumed = tmp_path / "resumed.csv"
    straight = tmp_path / "straight.csv"
    assert (
        cli.main(
            ["compute", "--limit", "2*10^5", "--checkpoint", str(ck), "--out", str(resumed)]
        )
        == 0
    )
    assert cli.main(["compute", "--limit", "2*10^5", "--out", str(straight)]) == 0
    assert resumed.read_bytes() == straight.read_bytes()


# lensbounds stdout on the grid below, pinned so that the quadrature and
# root-finding bits cannot drift unseen.
LENS_GRID_SHA256 = "b09c33310120aa531acc60bd51a71e3455424735243924dfc91c4c8e65e41783"


def test_cli_lensbounds(tmp_path, capsys):
    assert cli.main(["lensbounds", "--x-grid", "1e8,1e12,5e5"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("x,v2,")
    assert out[1].endswith("window-too-small")
    assert out[2].endswith("ok")
    # 5e5 has neither window roots nor tangent crossings (these start near 8.03e5).
    *cells, status = out[3].split(",")
    assert status == "window-too-small"
    assert all(cells[:4]) and cells[4:] == [""] * 7
    grid = "1e8,1e10,1.4778e10,1.5e10,1e12"
    assert cli.main(["lensbounds", "--x-grid", grid]) == 0
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest() == LENS_GRID_SHA256
    # --out writes exactly the bytes that stdout prints.
    grid_csv = tmp_path / "grid.csv"
    assert cli.main(["lensbounds", "--x-grid", grid, "--out", str(grid_csv)]) == 0
    assert capsys.readouterr().out == f"wrote {grid_csv}\n"
    assert grid_csv.read_bytes() == text.encode()
    # Reals are written in scientific form, so a row stays short at any x
    # (written positionally, the 1e307 row was 1,550 characters).
    assert cli.main(["lensbounds", "--x-grid", "1e307"]) == 0
    row = capsys.readouterr().out.splitlines()[1]
    assert len(row) < 250 and row.endswith(",ok")
    assert row.split(",")[7] == "6.68437939696e+234"  # h_star_plus


def test_cli_lensbounds_labels_round_trip(capsys):
    # Two grid points 2000 apart on either side of the window threshold
    # 1.47778093e10: to six digits both read 1.47778e+10.
    assert cli.main(["lensbounds", "--x-grid", "14777809000,14777811000"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert [(row[0], row[-1]) for row in rows] == [
        ("14777809000.0", "window-too-small"),
        ("14777811000.0", "ok"),
    ]
    assert [float(row[0]) for row in rows] == [14777809000.0, 14777811000.0]


def test_cli_mvariant(tmp_path, capsys):
    out = tmp_path / "m.csv"
    assert cli.main(["mvariant", "--limit", "10^4", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "m_k=29" in text
    lines = out.read_text().splitlines()
    assert lines[0] == persistence.M_CSV_HEADER
    assert lines[1] == "1,2,1,2/1,,confirmed"
    assert lines[2].startswith("2,29,10,29/10,")
