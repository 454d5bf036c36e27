"""Checkpointing and table export.

Checkpoints are single self-describing UTF-8 JSON documents holding the
hull stack, the confirmed count and the frontier, with a sha256 over the
canonical serialization of every other field to detect truncation or
editing.  Reload and continue is bit-exact versus an uninterrupted run:
confirmation decisions depend only on the frontier, and the running sums
are recomputed from the confirmed prefix, which is never popped.

CSV export schema (stable, regression-pinned):

    k,e_k,pi_e,delta_num,delta_den,lens_len,ratio_next,sum_inv,sum_invlog,ties

with lens_len repeating delta_den, ties semicolon-joined, empty cells for
absent values, reals printed with exactly 12 significant digits, and a
single line feed per row.  A ``status`` column is appended only when
provisional rows are included, so confirmed-only regression fixtures never
change shape.  ``_csv_lines`` is the one encoder of that format, and
``parse_export`` is its inverse: it rebuilds the hull stack from the rows'
vertices and ties, checks its shape as a checkpoint's stack is checked, and
accepts only the text that ``_csv_lines`` gives for that stack's records.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import stat
from decimal import Decimal
from itertools import zip_longest
from typing import Sequence, Union

from .analysis import CONFIRMED, ExtremalRecord, records_from_state
from .hull_engine import HullState, HullVertex
from .m_variant import MRecord
from .prime_stream import MAX_LIMIT

CHECKPOINT_VERSION = 2

CSV_HEADER = "k,e_k,pi_e,delta_num,delta_den,lens_len,ratio_next,sum_inv,sum_invlog,ties"
M_CSV_HEADER = "k,m_k,pi_m,value,ties,status"


class CheckpointError(Exception):
    pass


def sci12(x: float) -> str:
    """Format with exactly 12 significant digits in scientific notation.

    Adding 0.0 turns -0.0 into 0.0.
    """
    if not math.isfinite(x):
        raise ValueError(f"cannot format non-finite value {x}")
    return f"{x + 0.0:.11e}"


def fmt12(x: float) -> str:
    """Format with exactly 12 significant digits, positional notation.

    f-string positional precision counts decimal places, not significant
    digits, so the digits are rounded by ``sci12`` and Decimal writes them
    out positionally: the same number, so both strings parse to one float.
    """
    return format(Decimal(sci12(x)), "f")


def _canonical_json(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


def save_checkpoint(state: HullState, path: Union[str, os.PathLike]) -> None:
    """Write the full hull state; the stack carries confirmed prefix + tail."""
    payload = {
        "format_version": CHECKPOINT_VERSION,
        "limit_processed": state.last_processed,
        "pi_at_limit": state.pi_at_last,
        "provisional_stack": [[v.p, v.pi, list(v.ties)] for v in state.stack],
        "confirmed_count": state.confirmed_len,
    }
    payload["integrity"] = hashlib.sha256(_canonical_json(payload)).hexdigest()
    # Renamed onto ``path`` only once whole and on disk: a kill or a power
    # loss mid-save keeps the old file.  A symlink is written through: the
    # temporary file sits beside its target, so the rename stays atomic.
    path = os.path.realpath(path)
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(payload, fh, sort_keys=True, indent=1)
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _json_int(value) -> int:
    """A checkpoint's integer field: a JSON integer, not a bool, float or string."""
    if type(value) is not int:
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def _check_stack(stack: Sequence[HullVertex]) -> None:
    """Raise ValueError naming the first way ``stack`` is not a hull stack.

    Both readers call this before using a stack they rebuilt: the stack
    starts at (2, 1), which every run pushes first; p and pi strictly
    increase; each vertex's ties lie on its incoming edge; and the edge
    slopes strictly decrease.
    """
    if stack and (stack[0].p, stack[0].pi) != (2, 1):
        raise ValueError("stack does not start at (2, 1)")
    if any(u.p >= v.p or u.pi >= v.pi for u, v in zip(stack, stack[1:])):
        raise ValueError("stack not strictly increasing in p and pi")
    # A vertex's ties are points of its incoming edge: strictly between the
    # two vertices, in increasing order, at integer heights on the chord.
    if (stack and stack[0].ties) or not all(
        all(a < b for a, b in zip([u.p, *v.ties], [*v.ties, v.p]))
        and all((t - u.p) * (v.pi - u.pi) % (v.p - u.p) == 0 for t in v.ties)
        for u, v in zip(stack, stack[1:])
    ):
        raise ValueError("a tie is not a point of its vertex's incoming edge")
    # With p strictly increasing, lhs > rhs exactly when slope(a, b) > slope(b, c).
    crosses = (HullState._cross(a, b, c.p, c.pi) for a, b, c in zip(stack, stack[1:], stack[2:]))
    if any(lhs <= rhs for lhs, rhs in crosses):
        raise ValueError("stack slopes not strictly decreasing")


def load_checkpoint(path: Union[str, os.PathLike]) -> tuple[HullState, dict]:
    """Read a checkpoint; returns (state, the config echo older files carry, or {})."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise CheckpointError(f"checkpoint corrupt: {exc}") from exc
    if not isinstance(payload, dict) or "integrity" not in payload:
        raise CheckpointError("checkpoint corrupt: missing integrity field")
    stored = payload.pop("integrity")
    actual = hashlib.sha256(_canonical_json(payload)).hexdigest()
    if stored != actual:
        raise CheckpointError("checkpoint corrupt: integrity checksum mismatch")
    version = payload.get("format_version")
    if type(version) is not int or version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint format version {version} not supported (expected {CHECKPOINT_VERSION})"
        )
    try:
        stack = [
            HullVertex(p=_json_int(p), pi=_json_int(pi), ties=[_json_int(t) for t in ties])
            for p, pi, ties in payload["provisional_stack"]
        ]
        state = HullState(
            stack=stack,
            confirmed_len=_json_int(payload["confirmed_count"]),
            last_processed=_json_int(payload["limit_processed"]),
            pi_at_last=_json_int(payload["pi_at_limit"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint corrupt: bad field ({exc})") from exc
    try:
        _check_stack(stack)
    except ValueError as exc:
        raise CheckpointError(f"checkpoint corrupt: {exc}") from exc
    # Every run pushes (2, 1) first, so only a state that has consumed
    # nothing has an empty stack.
    if not stack and (state.last_processed, state.pi_at_last) != (1, 0):
        raise CheckpointError("checkpoint corrupt: empty stack past the start frontier")
    if not 0 <= state.confirmed_len <= len(stack):
        raise CheckpointError("checkpoint corrupt: confirmed count out of range")
    if stack and (state.last_processed < stack[-1].p or state.pi_at_last < stack[-1].pi):
        raise CheckpointError("checkpoint corrupt: frontier behind the top vertex")
    if state.last_processed > MAX_LIMIT:
        raise CheckpointError(f"checkpoint corrupt: frontier beyond the {MAX_LIMIT} cap")
    # The last prime at or below the frontier is always the top vertex.
    if stack and state.pi_at_last != stack[-1].pi:
        raise CheckpointError("checkpoint corrupt: frontier count is not the top vertex's pi")
    # The frontier is the one the last confirmation ran at, and finality is
    # monotone in it, so every confirmed edge must still test final there.
    confirmed = stack[: state.confirmed_len]
    x, pi_x = state.last_processed, state.pi_at_last
    if not all(state._final(u, v, x, pi_x) for u, v in zip(confirmed, confirmed[1:])):
        raise CheckpointError("checkpoint corrupt: a confirmed vertex is not final at the frontier")
    return state, payload.get("config_echo", {})


def _csv_lines(records: Sequence[ExtremalRecord], include_provisional: bool) -> list[str]:
    """The header and the rows of the E export, without line feeds.

    A record that is not confirmed is written only with
    ``include_provisional``, which also adds the ``status`` column.
    """
    lines = [CSV_HEADER + (",status" if include_provisional else "")]
    for r in records:
        if include_provisional or r.status == CONFIRMED:
            d = r.delta
            lens = ["", "", ""] if d is None else [str(d.dpi), str(d.dp), str(d.dp)]
            reals = ["" if x is None else fmt12(x) for x in (r.ratio_next, r.sum_inv, r.sum_invlog)]
            status = [r.status] if include_provisional else []
            cells = [str(r.k), str(r.e), str(r.pi_e), *lens, *reals, ";".join(map(str, r.ties)), *status]
            lines.append(",".join(cells))
    return lines


def write_csv(path: Union[str, os.PathLike], lines: Sequence[str]) -> None:
    """Write ``lines`` to ``path``, each ended by a line feed.

    A regular file at ``path`` is removed and a new one written: truncating
    a file written moments before waits for its data to reach the disk on
    some filesystems, and unlinking it does not.  A symlink or a device is
    written through and kept.
    """
    try:
        if stat.S_ISREG(os.lstat(path).st_mode):
            os.remove(path)
    except FileNotFoundError:
        pass
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(line + "\n" for line in lines)


def export_csv(records: Sequence[ExtremalRecord], path: Union[str, os.PathLike], include_provisional: bool = False) -> None:
    """Write the E export; an empty input is refused before ``path`` is touched."""
    if not records:
        raise ValueError("refusing to export an empty record list")
    write_csv(path, _csv_lines(records, include_provisional))


def parse_export(path: Union[str, os.PathLike]) -> list[ExtremalRecord]:
    """Read back a CSV export produced by this module.

    Only the ``e_k``, ``pi_e`` and ``ties`` cells are read.  They rebuild
    the hull stack: row k gives vertex k, its ties belong to vertex k+1,
    and a delta on the last row adds the vertex its edge runs to.  Every
    row of a file without a ``status`` column is confirmed; otherwise the
    ``confirmed`` cells count the confirmed prefix.  The stack must pass the
    checkpoint's shape checks, and the file is accepted only when its text
    is exactly what ``_csv_lines`` gives for the records of that stack.
    Anything else raises ValueError naming the fault or the first row that
    differs.
    """
    with open(path, "r", encoding="utf-8", newline="\n") as fh:
        text = fh.read()
    header, *rows = text.removesuffix("\n").split("\n")
    if header not in (CSV_HEADER, CSV_HEADER + ",status"):
        raise ValueError(f"unrecognized export header: {header!r}")
    width = header.count(",") + 1
    has_status = width > 10
    stack: list[HullVertex] = []
    ties: list[int] = []
    confirmed = 0
    for n, row in enumerate(rows, 1):
        cells = row.split(",")
        if len(cells) != width:
            raise ValueError(f"export row {n} has {len(cells)} cells, expected {width}")
        stack.append(HullVertex(int(cells[1]), int(cells[2]), ties))
        ties = [int(t) for t in cells[9].split(";") if t]
        confirmed += not has_status or cells[-1] == CONFIRMED
    if rows and cells[3]:
        top = stack[-1]
        stack.append(HullVertex(top.p + int(cells[4]), top.pi + int(cells[3]), ties))
    _check_stack(stack)
    if stack and stack[-1].p > MAX_LIMIT:
        raise ValueError(f"export vertex beyond the {MAX_LIMIT} cap")
    state = HullState(stack=stack, confirmed_len=confirmed)
    records = records_from_state(state, include_provisional=True)[: len(rows)]
    written = [line + "\n" for line in _csv_lines(records, has_status)]
    if "".join(written) != text:
        lines = zip_longest(text.splitlines(keepends=True), written)
        n, line = next((n, got) for n, (got, want) in enumerate(lines) if got != want)
        raise ValueError(f"export row {n} is not as export_csv writes it: {line!r}")
    return records


def export_m_csv(records: Sequence[MRecord], path: Union[str, os.PathLike]) -> None:
    """Write the M export; an empty input is refused before ``path`` is touched."""
    if not records:
        raise ValueError("refusing to export an empty record list")
    write_csv(path, [M_CSV_HEADER] + [
        f"{r.k},{r.p},{r.pi},{r.value.numerator}/{r.value.denominator},{';'.join(map(str, r.ties))},{r.status}"
        for r in records
    ])
