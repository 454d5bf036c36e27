"""Command-line interface.

Exit codes: 0 success, 2 invalid arguments, 3 corrupt or mismatched
checkpoint, 4 computational range rejected (overflow-safety caps), 5 a
compute chunk ended at a published pi(x) with a different prime count, 6 a
sieve worker process failed, exited, gave no answer within 10 minutes, or
could not be forked; rerunning the same ``compute --checkpoint`` command
resumes from the last saved chunk.
"""

from __future__ import annotations

import argparse
import datetime
import math
import os
import re
import sys
import time
from fractions import Fraction
from typing import Optional, Sequence

from . import analysis, lens_bounds, persistence
from .hull_engine import HullState
from .m_variant import compute_m_extremal
from .persistence import CheckpointError, fmt12, sci12
from .prime_stream import LimitTooLargeError, SieveConfig, SieveWorkerError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CHECKPOINT = 3
EXIT_RANGE = 4
EXIT_ANCHOR = 5
EXIT_WORKER = 6

# Every limit a command accepts is far below 10^LIMIT_DIGITS: compute stops
# at 10^12, and lensbounds converts x to a float, which ends near 1.8e308.
LIMIT_DIGITS = 400
# compute extends and saves its state in chunks ending at multiples of this.
CHUNK = 10**9
# Published pi(x) at chunk ends: a compute chunk ending at one of these x
# must have counted exactly this many primes, or the run stops unsaved.
PI_ANCHORS = {10**10: 455052511, 10**11: 4118054813}


def parse_limit(text: str) -> int:
    """Accept plain integers plus 10^8, 3*10^9 and 1e8 style spellings.

    A value of 10^LIMIT_DIGITS or more, or a number in it of more digits,
    raises LimitTooLargeError before any large power is evaluated.
    """
    s = text.strip().replace("_", "").replace(" ", "")
    too_large = LimitTooLargeError(f"limit {text!r} is not below 10^{LIMIT_DIGITS}")
    if any(len(run.lstrip("0")) > LIMIT_DIGITS for run in re.findall(r"\d+", s)):
        raise too_large
    if re.fullmatch(r"\d+", s):
        return int(s)
    if m := re.fullmatch(r"(?:(\d+)\*)?(\d+)\^(\d+)", s):
        factor, base, exp = Fraction(m.group(1) or 1), int(m.group(2)), int(m.group(3))
    elif m := re.fullmatch(r"(\d+(?:\.\d+)?)[eE]\+?(\d+)", s):
        factor, base, exp = Fraction(m.group(1)), 10, int(m.group(2))
    else:
        raise ValueError(f"cannot parse limit {text!r}")
    # A nonzero value exceeds 2^low_bits, and 2^(LIMIT_DIGITS * 10 // 3) > 10^LIMIT_DIGITS.
    low_bits = factor.numerator.bit_length() - factor.denominator.bit_length() - 1
    if factor and low_bits + exp * (base.bit_length() - 1) >= LIMIT_DIGITS * 10 // 3:
        raise too_large
    value = factor * base**exp if factor else factor
    if value.denominator != 1:
        raise ValueError(f"limit {text!r} is not an integer")
    if value >= 10**LIMIT_DIGITS:
        raise too_large
    return value.numerator


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="primehull",
        description="Extremal primes of the prime counting function's upper hull.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compute", help="stream primes and compute extremal records")
    c.add_argument("--limit", required=True, help="sieve limit (e.g. 100000, 10^8, 1e8)")
    c.add_argument("--checkpoint", default=None, help="checkpoint file, resumed if present and saved after each chunk")
    c.add_argument("--out", default=None, help="export path (CSV)")
    c.add_argument("--include-provisional", action="store_true", help="add unconfirmed tail rows with a status column")
    c.add_argument("--until-k", type=int, default=None, help="stop after the first chunk that confirms e_K")

    a = sub.add_parser("analyze", help="report sums, twin pairs and ties of an exported record table")
    a.add_argument("--in", dest="infile", required=True, help="CSV export to read")
    a.add_argument("--envelope-limit", default=None, help="re-sieve and check |pi - Li| < sqrt(p) ln p up to N")

    l = sub.add_parser("lensbounds", help="tangent-window bounds at given x values")
    l.add_argument("--x-grid", required=True, help="comma-separated x values (e.g. 1e8,1e10,1e12)")
    l.add_argument("--out", default=None, help="write CSV here instead of stdout")

    m = sub.add_parser("mvariant", help="extremal primes of x/pi(x)")
    m.add_argument("--limit", required=True, help="sieve limit (max 10^9)")
    m.add_argument("--out", default=None, help="export path (CSV)")

    return parser


def _require_dirs(*paths: Optional[str]) -> None:
    """Refuse an output path that is a directory or in a missing one, before any sieving."""
    for path in filter(None, paths):
        if os.path.isdir(path):
            raise IsADirectoryError(f"{path} is a directory")
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise FileNotFoundError(f"no directory for {path}")


def _cmd_compute(args) -> int:
    _require_dirs(args.out, args.checkpoint)
    limit = parse_limit(args.limit)
    SieveConfig(limit=limit)  # refuse a limit out of range before the first chunk
    until_k = math.inf if args.until_k is None else args.until_k
    if until_k < 1:
        raise ValueError(f"--until-k must be >= 1, got {until_k}")
    state = HullState()
    if args.checkpoint and os.path.exists(args.checkpoint):
        state, _echo = persistence.load_checkpoint(args.checkpoint)
        print(f"resuming from {state.last_processed}")
    if limit < state.last_processed:
        raise ValueError(f"limit {limit} is below the checkpoint's frontier {state.last_processed}")
    records = analysis.records_from_state(state, include_provisional=True)
    while (done := state.last_processed) < limit and state.confirmed_len < until_k:
        t0 = time.perf_counter()
        state.extend(min((done // CHUNK + 1) * CHUNK, limit))
        published = PI_ANCHORS.get(state.last_processed)
        if published is not None and state.pi_at_last != published:
            print(
                f"error: pi({state.last_processed}) counted {state.pi_at_last}, "
                f"published {published}; chunk not saved",
                file=sys.stderr,
            )
            return EXIT_ANCHOR
        if args.checkpoint:
            persistence.save_checkpoint(state, args.checkpoint)
        records = analysis.records_from_state(state, include_provisional=True)
        seconds = time.perf_counter() - t0
        rate = (state.last_processed - done) / seconds
        eta = datetime.timedelta(seconds=round((limit - state.last_processed) / rate))
        last = records[state.confirmed_len - 1]
        print(
            f"x={state.last_processed}  confirmed k={last.k}  "
            f"sum 1/e_k={fmt12(last.sum_inv)}  sum 1/ln e_k={fmt12(last.sum_invlog)}  "
            f"({seconds:.1f}s, {rate:.3g} integers/s, ETA {eta} to x={limit})",
            flush=True,
        )
    if state.last_processed < limit:
        print(f"stopped at x={state.last_processed}: e_{until_k} is confirmed")
    if args.out:
        persistence.export_csv(records, args.out, include_provisional=args.include_provisional)
        print(f"wrote {args.out}")
    n = state.confirmed_len
    print(f"limit {limit}: {n} confirmed extremal primes, {len(records) - n} provisional")
    if n:
        last = records[n - 1]
        print(f"last confirmed: k={last.k} e_k={last.e} pi(e_k)={last.pi_e}")
    return EXIT_OK


def _cmd_analyze(args) -> int:
    records = persistence.parse_export(args.infile)
    confirmed = [r for r in records if r.status == analysis.CONFIRMED]
    print(f"{len(records)} records ({len(confirmed)} confirmed)")
    sum_inv, sum_invlog = (confirmed[-1].sum_inv, confirmed[-1].sum_invlog) if confirmed else (0.0, 0.0)
    print(f"sum 1/e_k      = {fmt12(sum_inv)}  (k <= {len(confirmed)})")
    print(f"sum 1/ln e_k   = {fmt12(sum_invlog)}  (k <= {len(confirmed)})")
    twins = analysis.find_twins(records)
    for t in twins:
        print(f"twin at k={t.k}: ({t.e}, {t.e_next}), pi({t.e}) = {t.pi_e}")
    if not twins:
        print("no twin pairs")
    tied = [r for r in records if r.ties]
    for r in tied:
        print(f"k={r.k} e_k={r.e} ties: {';'.join(str(t) for t in r.ties)}")
    if not tied:
        print("no ties")
    if args.envelope_limit is not None:
        limit = parse_limit(args.envelope_limit)
        report = lens_bounds.verify_envelope(limit)
        print(
            f"envelope up to {limit}: {len(report.violations)} violations, "
            f"max |pi - Li|/(sqrt(p) ln p) = {fmt12(report.max_ratio)} "
            f"(boundary cases below {lens_bounds.ENVELOPE_BOUNDARY}: {len(report.boundary_flags)})"
        )
    return EXIT_OK


_LENS_COLUMNS = (
    "x,v2,v1,v0,theta_minus,theta_plus,h_star_minus,h_star_plus,"
    "h_minus,h_plus,h_width_over_x,status"
)


def _lens_row(x: float) -> str:
    cells = [repr(x), *(sci12(v) for v in lens_bounds.cubic_coeffs(x))]
    status = "ok"
    try:
        theta_minus, theta_plus = lens_bounds.solve_theta(x)
        cells += [sci12(v) for v in (theta_minus, theta_plus, theta_minus * x, theta_plus * x)]
    except lens_bounds.ThetaPreconditionError:
        status = "window-too-small"
        cells += ["", "", "", ""]
    try:
        h_minus, h_plus = lens_bounds.solve_h_exact(x)
        cells += [sci12(v) for v in (h_minus, h_plus, (h_plus - h_minus) / x)]
    except ValueError:
        # solve_h_exact fails only below about 8.03e5, far under the window
        # threshold ~1.478e10, so status is already "window-too-small".
        cells += ["", "", ""]
    cells.append(status)
    return ",".join(cells)


def _cmd_lensbounds(args) -> int:
    _require_dirs(args.out)
    grid = [float(parse_limit(part)) for part in args.x_grid.split(",") if part]
    if not grid:
        raise ValueError("empty x grid")
    lines = [_LENS_COLUMNS] + [_lens_row(x) for x in grid]
    if args.out:
        persistence.write_csv(args.out, lines)
        print(f"wrote {args.out}")
    else:
        print("\n".join(lines))
    return EXIT_OK


def _cmd_mvariant(args) -> int:
    _require_dirs(args.out)
    limit = parse_limit(args.limit)
    records = compute_m_extremal(limit).records
    confirmed = sum(1 for r in records if r.status == analysis.CONFIRMED)
    if args.out:
        persistence.export_m_csv(records, args.out)
        print(f"wrote {args.out}")
    print(f"limit {limit}: {len(records)} hull vertices ({confirmed} confirmed)")
    for r in records[:10]:
        print(f"k={r.k} m_k={r.p} M(m_k)={r.value.numerator}/{r.value.denominator} [{r.status}]")
    return EXIT_OK


_COMMANDS = {
    "compute": _cmd_compute,
    "analyze": _cmd_analyze,
    "lensbounds": _cmd_lensbounds,
    "mvariant": _cmd_mvariant,
}

# First match wins: LimitTooLargeError is a ValueError.
_EXIT_CODES = (
    (CheckpointError, EXIT_CHECKPOINT),
    (LimitTooLargeError, EXIT_RANGE),
    (SieveWorkerError, EXIT_WORKER),
    (ValueError, EXIT_USAGE),
    (OverflowError, EXIT_USAGE),
    (OSError, EXIT_USAGE),
)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except tuple(kind for kind, _ in _EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
