"""Long-run reproduction of the conjecture partial sums.

The desk-scale tests pin the sums over the first 200 confirmed extremal
primes. Reaching the headline figures (sum 1/e_k over k <= 2000 near 1.090,
and sum 1/ln e_k past 100) needs a sieve limit around 3.7e11. That is about
half an hour on one core of a 2-core x86_64 VM (projected from timed 1e8
windows at 1e10, 1e11 and 3e11: 28 min of sieve, 4 min of segment
kernel), too long for a test, so it lives here as a checkpointed driver:

    python3 scripts/longrun_sums.py --limit 37*10^10 --checkpoint sums.ck \
        --chunk 10^9

Interrupt freely; rerunning with the same checkpoint resumes exactly (the
checkpoint holds the hull state, and the sums are recomputed from its
confirmed prefix). Each chunk prints its rate in integers per second and
the ETA to the final limit at that rate.
"""

import argparse
import datetime
import os
import sys
import time

from primehull.cli import parse_limit
from primehull.hull_engine import compute_extremal
from primehull.persistence import fmt12, load_checkpoint, save_checkpoint


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--limit", required=True, help="final sieve limit (e.g. 37*10^10)")
    ap.add_argument("--checkpoint", required=True, help="checkpoint path, resumed if present")
    ap.add_argument("--chunk", default="10^9", help="limit increment per checkpoint write")
    args = ap.parse_args()

    limit = parse_limit(args.limit)
    chunk = parse_limit(args.chunk)
    state = None
    if os.path.exists(args.checkpoint):
        state, _ = load_checkpoint(args.checkpoint)
        print(f"resuming from {state.last_processed}")

    done = state.last_processed if state else 0
    while done < limit:
        target = min(done + chunk, limit)
        t0 = time.perf_counter()
        result = compute_extremal(target, state=state)
        state = result.state
        save_checkpoint(state, args.checkpoint, config_echo={"limit": limit})
        seconds = time.perf_counter() - t0
        rate = (state.last_processed - done) / seconds
        eta = datetime.timedelta(seconds=round((limit - state.last_processed) / rate))
        done = state.last_processed
        last = result.confirmed[-1]
        print(
            f"x={done}  confirmed k={last.k}  "
            f"sum 1/e_k={fmt12(last.sum_inv)}  sum 1/ln e_k={fmt12(last.sum_invlog)}  "
            f"({seconds:.1f}s, {rate:.3g} integers/s, ETA {eta})",
            flush=True,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
