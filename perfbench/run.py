"""primehull benchmark: three fixed-limit workloads, timed end to end and per layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload compute-1e8 --seed 1 --seconds 30 --trace 0

Workloads (closed loop: one job at a time, the next starts when the last ends):

* compute-1e8  -- fresh compute_extremal(10**8), provisional records, CSV
  export and a checkpoint round trip.  The headline user job; exercises the
  segment-hull kernel (about 97% of its time).
* window-1e11  -- the sieve alone over [1e11, 1e11 + 2e8], the frontier
  advance of a long run near its target height.  Exercises the sieve and
  bypasses the hull.
* mvariant-1e7 -- compute_m_extremal(10**7) plus its CSV export.  Exercises
  the exact big-integer M-hull; bypasses the segment kernel.

The inputs are fixed limits, so they do not depend on --seed; the seed is
recorded with the result.  The program is imported from ``src/`` of the
checkout this file sits in, never from an installed copy.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics, measured by a traced job that
drives the same public calls as the job (iter_prime_blocks -> segment_hull
-> HullState.push/confirm_through, or MHullState.push/confirm_through) and
must produce byte-identical output.  Times are reference seconds (see
HostClock), which cancel most of a shared host's speed drift; the report
lines also give wall time.  Each run writes its job times, the environment
and, when traced, every span to ``perfbench/out/``.

Exit codes: 0 all checks passed; 1 an output check failed (the result line
says correct=false); 2 the program could not be imported or set up.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.util
import json
import math
import os
import platform
import resource
import signal
import statistics
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# Set-up is repeated in every run and reported as its median.
SETUP_REPEATS = 5

# compute-1e8
E_LIMIT = 10**8
E_WARMUP_LIMIT = 10**6
E_MARKS = {100: 5253173, 200: 67596937}
E_TWIN = (116, 8787901, 8787917)
# sha256 of the first 200 data rows of the provisional-inclusive CSV export.
E_CSV200_SHA256 = "a05d7046eaff5bcf4bec5ab4f90f620737cba18d4f01052975dbd3d8758ebf60"

# window-1e11; pi(10^11) = 4118054813 is the published value.
W_START = 10**11
W_START_PI = 4118054813
W_WIDTH = 2 * 10**8
W_WARMUP_WIDTH = 1 << 23
# Prime count and prime sum over [W_START, W_START + W_WIDTH], both computed
# independently of primehull by perfbench/oracle.py.
W_COUNT = 7896209
W_SUM = 790410498567803255

# mvariant-1e7
M_LIMIT = 10**7
M_WARMUP_LIMIT = 10**6
# sha256 of the "p,pi,ties" lines of every vertex (status excluded, so a
# tighter confirmation rule does not change it).
M_VERTEX_SHA256 = "201714e12af8cd17640b8accf707b56b49d5285fe5e5a677869579380b8f7fc2"


# Host speed sampling; see HostClock.
LOOP_ITERATIONS = 400
SAMPLE_PERIOD_S = 0.02
# The loop's time on an uncontended 2-core x86_64 VM (Python 3.11): reported
# times are seconds on a host where the loop takes this long.
REF_LOOP_S = 25e-6


def sha256_lines(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class Tracer:
    """In-memory spans (name, start, end, parent, job) and per-job counters.

    Spans of every traced job share one list; ``jobs`` holds, per job, the
    busy seconds by span name and the counters.
    """

    def __init__(self, now):
        self.now = now
        self.t0 = now()
        self.spans: list[list] = []
        self.jobs: list[dict] = []
        self.job_span = -1

    def start_job(self) -> None:
        self.busy: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.jobs.append({"busy": self.busy, "counts": self.counts})
        self.job_span = len(self.spans)
        self.spans.append(["job", self.now() - self.t0, None, None, len(self.jobs) - 1])

    def end_job(self, ph, scale: float) -> None:
        """Close the job span; ``scale`` converts its seconds to reference seconds."""
        self.spans[self.job_span][2] = self.now() - self.t0
        self.jobs[-1]["scale"] = scale
        high = self.counts.pop("prime_stream.last_high", None)
        if high is not None:
            # Odd base primes the last segment sieved with (p^2 <= high).
            basis = ph.prime_stream.base_primes(math.isqrt(high))
            self.counts["prime_stream.base_primes"] = int((basis >= 3).sum())

    def record(self, name: str, start: float, end: float) -> None:
        self.spans.append([name, start - self.t0, end - self.t0, self.job_span, len(self.jobs) - 1])
        self.busy[name] = self.busy.get(name, 0.0) + (end - start)

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def call(self, name: str, fn, *args, **kwargs):
        start = self.now()
        out = fn(*args, **kwargs)
        self.record(name, start, self.now())
        return out

    def blocks(self, ph, cfg):
        """Yield from iter_prime_blocks, timing each segment it produces."""
        it = ph.prime_stream.iter_prime_blocks(cfg)
        while True:
            start = self.now()
            item = next(it, None)
            self.record("prime_stream", start, self.now())
            if item is None:
                return
            self.count("prime_stream.segments", 1)
            self.count("prime_stream.primes", len(item[0]))
            self.counts["prime_stream.last_high"] = item[2]
            yield item


class HostClock:
    """Program-time clock and host-speed sampler.

    On a shared host this process's speed drifts by up to 2x over minutes, in
    CPU time as much as in wall time, and no run length averages it out.  So
    every SAMPLE_PERIOD_S a SIGALRM handler times a fixed pure-Python loop on
    the benchmark's own thread.  ``now`` is wall time less the loop time, and
    ``measure`` turns a span of it into reference seconds: the span scaled by
    REF_LOOP_S over the median loop time sampled within it.
    """

    def __init__(self):
        self.loops: list[float] = []
        self.loop_total = 0.0

    def sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        acc = 0
        for i in range(LOOP_ITERATIONS):
            acc += i * i % 7
        took = time.perf_counter() - start
        self.loops.append(took)
        self.loop_total += took

    def now(self) -> float:
        return time.perf_counter() - self.loop_total

    def __enter__(self) -> "HostClock":
        self.previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)

    def measure(self, fn, *args):
        """Run fn(*args); returns (result, reference s, program s, median loop s)."""
        self.sample()
        first = len(self.loops) - 1
        start = self.now()
        out = fn(*args)
        took = self.now() - start
        self.sample()
        loop_s = statistics.median(self.loops[first:])
        return out, took * REF_LOOP_S / loop_s, took, loop_s


# ---------------------------------------------------------------- compute-1e8


def compute_job(ph, tmp: Path, limit: int = E_LIMIT) -> dict:
    result = ph.compute_extremal(limit)
    records = ph.records_from_state(result.state, include_provisional=True)
    return finish_compute(ph, tmp, result.state, result.confirmed, records, None)


def compute_job_traced(ph, tmp: Path, tr: Tracer) -> dict:
    """compute_extremal and HullState.consume_block, call by call."""
    he = ph.hull_engine
    state = ph.HullState()
    cfg = ph.SieveConfig(limit=E_LIMIT)
    stack_max = 0
    for primes, pis, high in tr.blocks(ph, cfg):
        if len(primes):
            idx, tie_lo, tie_hi, tie_buf = tr.call("seghull", he.segment_hull, primes, pis)
            tr.count("seghull.points", len(primes))
            tr.count("seghull.survivors", len(idx))
            tr.count("seghull.ties", len(tie_buf))
            start = tr.now()
            plist = primes.tolist()
            rlist = pis.tolist()
            tie_list = tie_buf.tolist()
            for j, s in enumerate(idx.tolist()):
                ties = [plist[t] for t in tie_list[tie_lo[j] : tie_hi[j]]]
                state.push(plist[s], rlist[s], ties)
                stack_max = max(stack_max, len(state.stack))
            state.pi_at_last = rlist[-1]
            tr.record("hull_engine.push", start, tr.now())
            tr.count("hull_engine.pushes", len(idx))
        state.last_processed = high
        tr.call("hull_engine.confirm", state.confirm_through, high)
        tr.count("hull_engine.confirm_calls", 1)
    state.last_processed = E_LIMIT
    tr.call("hull_engine.confirm", state.confirm_through, E_LIMIT)
    tr.count("hull_engine.confirm_calls", 1)
    tr.counts["hull_engine.pops"] = tr.counts["hull_engine.pushes"] - len(state.stack)
    tr.counts["hull_engine.stack_max"] = stack_max
    confirmed = tr.call("analysis", ph.records_from_state, state)
    records = tr.call("analysis", ph.records_from_state, state, include_provisional=True)
    return finish_compute(ph, tmp, state, confirmed, records, tr)


def finish_compute(ph, tmp: Path, state, confirmed, records, tr) -> dict:
    csv_path = tmp / "table.csv"
    ckpt_path = tmp / "state.ckpt.json"
    now = tr.now if tr else time.perf_counter
    start = now()
    ph.export_csv(records, csv_path, include_provisional=True)
    exported = now()
    ph.save_checkpoint(state, ckpt_path)
    loaded, _ = ph.load_checkpoint(ckpt_path)
    done = now()
    csv_bytes = csv_path.read_bytes()
    ckpt_bytes = ckpt_path.read_bytes()
    if tr:
        tr.record("persistence.export", start, exported)
        tr.record("persistence.checkpoint", exported, done)
        tr.counts["persistence.bytes"] = len(csv_bytes) + len(ckpt_bytes)
        tr.counts["confirmed"] = state.confirmed_len
    return {
        "state": state,
        "loaded": loaded,
        "confirmed": confirmed,
        "csv": csv_bytes.decode(),
        "digest": hashlib.sha256(csv_bytes + ckpt_bytes).hexdigest(),
        "confirmed_k": state.confirmed_len,
    }


def check_compute(ph, out: dict) -> list[str]:
    bad = []
    confirmed = out["confirmed"]
    for k, e in E_MARKS.items():
        if len(confirmed) < k or (confirmed[k - 1].k, confirmed[k - 1].e) != (k, e):
            bad.append(f"e_{k} = {e} not confirmed")
    twins = [(t.k, t.e, t.e_next) for t in ph.find_twins(confirmed)]
    if E_TWIN not in twins:
        bad.append(f"twin pair {E_TWIN[1:]} not found at k={E_TWIN[0]}")
    rows = out["csv"].splitlines()[1:201]
    if len(rows) < 200 or not all(r.endswith(",confirmed") for r in rows):
        bad.append("fewer than 200 confirmed CSV rows")
    elif sha256_lines(rows) != E_CSV200_SHA256:
        bad.append("first 200 confirmed CSV rows differ from the pinned digest")
    state, loaded = out["state"], out["loaded"]
    key = lambda s: (
        [(v.p, v.pi, tuple(v.ties)) for v in s.stack],
        s.confirmed_len,
        s.last_processed,
        s.pi_at_last,
    )
    if key(loaded) != key(state):
        bad.append("checkpoint round trip changed the state")
    return bad


# ---------------------------------------------------------------- window-1e11


def window_config(ph, width: int = W_WIDTH):
    return ph.SieveConfig(start=W_START, start_pi=W_START_PI, limit=W_START + width)


def window_job(ph, _tmp: Path, width: int = W_WIDTH) -> dict:
    return window_summary(ph.iter_prime_blocks(window_config(ph, width)))


def window_job_traced(ph, _tmp: Path, tr: Tracer) -> dict:
    return window_summary(tr.blocks(ph, window_config(ph)))


def window_summary(blocks) -> dict:
    count = total = 0
    last_pi = W_START_PI
    high = None
    for primes, pis, high in blocks:
        if len(primes):
            count += len(primes)
            total += int(primes.sum())
            last_pi = int(pis[-1])
    return {
        "count": count,
        "sum": total,
        "last_pi": last_pi,
        "high": high,
        "digest": f"{count},{total},{last_pi},{high}",
    }


def check_window(_ph, out: dict) -> list[str]:
    bad = []
    if out["count"] != W_COUNT:
        bad.append(f"window holds {out['count']} primes, expected {W_COUNT}")
    if out["sum"] != W_SUM:
        bad.append(f"window prime sum {out['sum']}, expected {W_SUM}")
    if out["last_pi"] != W_START_PI + out["count"]:
        bad.append("running pi does not end at start_pi + count")
    if out["high"] != W_START + W_WIDTH:
        bad.append(f"sieve frontier ended at {out['high']}")
    return bad


# --------------------------------------------------------------- mvariant-1e7


def mvariant_job(ph, tmp: Path, limit: int = M_LIMIT) -> dict:
    result = ph.compute_m_extremal(limit)
    return finish_mvariant(ph, tmp, result.state, result.records, None)


def mvariant_job_traced(ph, tmp: Path, tr: Tracer) -> dict:
    """compute_m_extremal, call by call."""
    mv = ph.m_variant
    state = mv.MHullState()
    for primes, pis, high in tr.blocks(ph, ph.SieveConfig(limit=M_LIMIT)):
        start = tr.now()
        for p, q in zip(primes.tolist(), pis.tolist()):
            state.push(p, q)
        tr.record("m_variant.push", start, tr.now())
        tr.count("m_variant.pushes", len(primes))
        tr.call("m_variant.confirm", state.confirm_through, high)
    records = tr.call("m_variant.records", mv.records_from_m_state, state)
    return finish_mvariant(ph, tmp, state, records, tr)


def finish_mvariant(ph, tmp: Path, state, records, tr) -> dict:
    csv_path = tmp / "m_table.csv"
    now = tr.now if tr else time.perf_counter
    start = now()
    ph.persistence.export_m_csv(records, csv_path)
    done = now()
    csv_bytes = csv_path.read_bytes()
    if tr:
        tr.record("persistence.export", start, done)
        tr.counts["persistence.bytes"] = len(csv_bytes)
        tr.counts["confirmed"] = state.confirmed_len
    return {
        "records": records,
        "csv": csv_bytes.decode(),
        "digest": hashlib.sha256(csv_bytes).hexdigest(),
        "confirmed_k": state.confirmed_len,
    }


def check_mvariant(_ph, out: dict) -> list[str]:
    bad = []
    records = out["records"]
    vertices = [f"{r.p},{r.pi},{';'.join(map(str, r.ties))}" for r in records]
    if sha256_lines(vertices) != M_VERTEX_SHA256:
        bad.append("M-variant vertex list differs from the pinned digest")
    rows = out["csv"].splitlines()[1:]
    exported = [",".join(row.split(",")[1:3] + row.split(",")[4:5]) for row in rows]
    if exported != vertices:
        bad.append("M-variant CSV rows differ from the vertex list")
    confirmed = [r for r in records if r.status == "confirmed"]
    if not confirmed:
        bad.append("no M-variant vertex confirmed")
    slopes = [
        (Fraction(b.p, b.pi) - Fraction(a.p, a.pi)) / (b.p - a.p)
        for a, b in zip(confirmed, confirmed[1:])
    ]
    if not all(s > t for s, t in zip(slopes, slopes[1:])):
        bad.append("confirmed M-variant slopes are not strictly decreasing")
    return bad


# ------------------------------------------------------------------- harness

WORKLOADS = {
    # name: (job, traced job, check, warm-up, integers advanced per job)
    "compute-1e8": (
        compute_job,
        compute_job_traced,
        check_compute,
        lambda ph, tmp: compute_job(ph, tmp, E_WARMUP_LIMIT),
        E_LIMIT,
    ),
    "window-1e11": (
        window_job,
        window_job_traced,
        check_window,
        lambda ph, tmp: window_job(ph, tmp, W_WARMUP_WIDTH),
        W_WIDTH,
    ),
    "mvariant-1e7": (
        mvariant_job,
        mvariant_job_traced,
        check_mvariant,
        lambda ph, tmp: mvariant_job(ph, tmp, M_WARMUP_LIMIT),
        M_LIMIT,
    ),
}

# Per-layer spans by metric prefix; the remainder of a traced job is reported
# as trace.unaccounted_share.
LAYERS = {
    "prime_stream": ["prime_stream"],
    "seghull": ["seghull"],
    "hull_engine": ["hull_engine.push", "hull_engine.confirm"],
    "analysis": ["analysis"],
    "persistence": ["persistence.export", "persistence.checkpoint"],
    "m_variant": ["m_variant.push", "m_variant.confirm", "m_variant.records"],
}


def import_program():
    """Import primehull afresh from this checkout's src/."""
    for name in [m for m in sys.modules if m == "primehull" or m.startswith("primehull.")]:
        del sys.modules[name]
    ph = importlib.import_module("primehull")
    where = Path(ph.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"primehull imported from {where}, not from {SRC}")
    return ph


def environment() -> dict:
    import numpy

    return {
        "cores": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
    }


def tail(times: list[float]) -> tuple[str, float]:
    """The highest percentile with at least ten samples beyond it, else the max."""
    n = len(times)
    if n < 11:
        return "max", max(times)
    return f"p{100 * (n - 10) // n}", sorted(times)[n - 11]


def per_layer(tr: Tracer, traced_times: list[float], run_s: float) -> dict:
    """Per-layer metrics: medians over traced jobs of busy reference seconds and
    of shares of the job, and the counters of the last traced job (they repeat
    exactly)."""
    jobs = [(job["busy"], job["scale"], t) for job, t in zip(tr.jobs, traced_times)]

    def busy_s(*names, share=False):
        return statistics.median(
            sum(busy.get(n, 0.0) for n in names) * scale / (t if share else 1.0)
            for busy, scale, t in jobs
        )

    counts = tr.jobs[-1]["counts"]
    count = lambda name: counts.get(name, 0)
    points = count("seghull.points")
    m = {
        "prime_stream.busy_s": (busy_s("prime_stream"), "s"),
        "prime_stream.segments": (count("prime_stream.segments"), "count"),
        "prime_stream.primes": (count("prime_stream.primes"), "count"),
        "prime_stream.base_primes": (count("prime_stream.base_primes"), "count"),
        "seghull.busy_s": (busy_s("seghull"), "s"),
        "seghull.points": (points, "count"),
        "seghull.survivors": (count("seghull.survivors"), "count"),
        "seghull.ties": (count("seghull.ties"), "count"),
        "seghull.survivor_frac": (count("seghull.survivors") / points if points else 0.0, "frac"),
        "hull_engine.push_s": (busy_s("hull_engine.push"), "s"),
        "hull_engine.pushes": (count("hull_engine.pushes"), "count"),
        "hull_engine.pops": (count("hull_engine.pops"), "count"),
        "hull_engine.stack_max": (count("hull_engine.stack_max"), "count"),
        "hull_engine.confirm_s": (busy_s("hull_engine.confirm"), "s"),
        "hull_engine.confirm_calls": (count("hull_engine.confirm_calls"), "count"),
        "analysis.records_s": (busy_s("analysis"), "s"),
        "persistence.export_s": (busy_s("persistence.export"), "s"),
        "persistence.checkpoint_s": (busy_s("persistence.checkpoint"), "s"),
        "persistence.bytes": (count("persistence.bytes"), "B"),
        "m_variant.push_s": (busy_s("m_variant.push"), "s"),
        "m_variant.pushes": (count("m_variant.pushes"), "count"),
        "m_variant.confirm_s": (busy_s("m_variant.confirm"), "s"),
        "confirmed_k": (count("confirmed"), "count"),
        "trace.run_s": (statistics.median(traced_times), "s"),
        "trace.overhead_s": (statistics.median(traced_times) - run_s, "s"),
    }
    for layer, names in LAYERS.items():
        m[f"{layer}.share"] = (busy_s(*names, share=True), "frac")
    every_span = [n for names in LAYERS.values() for n in names]
    m["trace.unaccounted_share"] = (1.0 - busy_s(*every_span, share=True), "frac")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    job, traced_job, check, warm_up, width = WORKLOADS[args.workload]
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    with HostClock() as clock, tempfile.TemporaryDirectory(dir=OUT) as tmp_name:
        tmp = Path(tmp_name)
        setups = []
        try:
            for _ in range(SETUP_REPEATS):
                ph, ref_s, _, _ = clock.measure(import_program)
                setups.append(ref_s + clock.measure(warm_up, ph, tmp)[1])
        except Exception as exc:  # the program is missing or broken: no result
            print(f"set-up failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 2

        plain: list[tuple] = []  # (reference s, program s, loop s) per job
        traced_times: list[float] = []
        tracer = Tracer(clock.now)
        failures: list[str] = []
        attempted = failed = 0
        confirmed_k = None
        # Closed loop; a traced run alternates plain and traced jobs in pairs.
        # The next round starts only if it should end within --seconds, after
        # a minimum that gives every run a median of at least two jobs.
        min_rounds = 1 if args.trace else 2
        loop_start = time.perf_counter()
        while True:
            out, *times = clock.measure(job, ph, tmp)
            plain.append(times)
            bad = check(ph, out)
            if args.trace:
                tracer.start_job()
                traced, ref_s, program_s, _ = clock.measure(traced_job, ph, tmp, tracer)
                tracer.end_job(ph, ref_s / program_s)
                traced_times.append(ref_s)
                bad += check(ph, traced)
                if traced["digest"] != out["digest"]:
                    bad.append("traced job output differs from the untraced job")
            attempted += 1
            failed += bool(bad)
            failures += bad
            confirmed_k = out.get("confirmed_k")
            elapsed = time.perf_counter() - loop_start
            if attempted >= min_rounds and elapsed * (attempted + 1) / attempted > args.seconds:
                break

    run_s, wall_s, loop_s = (statistics.median(col) for col in zip(*plain))
    setup_s = statistics.median(setups)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    env = environment()
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(
        f"host loop    {loop_s * 1e6:.2f} us median (reference {REF_LOOP_S * 1e6:.0f} us);"
        f" times below are reference seconds"
    )
    print(f"setup_s      {setup_s:.4f} s (median of {len(setups)})")
    tail_name, tail_value = tail([t[0] for t in plain])
    print(
        f"run_s        {run_s:.4f} s (median of {len(plain)} jobs; "
        f"{tail_name} {tail_value:.4f} s; wall median {wall_s:.4f} s)"
    )
    print(f"x_per_s      {width / run_s:.6g} 1/s (integers advanced per second)")
    print(f"peak_rss_mb  {peak_rss_mb:.1f} MB")
    print(f"confirmed_k  {confirmed_k if confirmed_k is not None else 'n/a'} count")
    print(f"failed_frac  {failed / attempted:.4f} ({failed} of {attempted} jobs)")
    for reason in failures:
        print(f"CHECK FAILED: {reason}")

    if args.trace:
        layer_metrics = per_layer(tracer, traced_times, run_s)
        for name, (value, unit) in layer_metrics.items():
            print(f"{name:28s} {value:.6g} {unit}")
        metrics = {n: {"value": v, "unit": u} for n, (v, u) in layer_metrics.items()}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "run_s": {"value": run_s, "unit": "s"},
            "x_per_s": {"value": width / run_s, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": env,
        "reference_loop_s": REF_LOOP_S,
        "setup_s": setups,
        "jobs_fields": ["reference_s", "program_s", "loop_s"],
        "jobs": plain,
        "traced_job_s": traced_times,
        "failures": failures,
        "metrics": metrics,
        "spans_fields": ["name", "start_s", "end_s", "parent", "job"],
        "spans": tracer.spans,
    }
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record) + "\n")
    print(f"record written to {path.relative_to(ROOT)}")
    print(
        json.dumps(
            {"correct": not failed, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
