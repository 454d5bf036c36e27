"""Upper-hull kernel for one sieve segment.

Computes the upper convex hull of the points (P[i], R[i]) within a single
segment, with the points lying exactly on a hull edge kept as tie
annotations.  Extreme points of a union are extreme points of the parts,
so pushing only each segment's hull vertices and ties onto the global
stack (``hull_points``, the E hook ``HullState._on_hull``) reproduces the
full streaming hull exactly; the module tests pin that equivalence
against the batch oracle.  Adding a constant to every height keeps an
upper hull and its ties, so the sieve workers run ``hull_points`` on a
segment's local heights 1..c and send back only the points it picks
(``prime_stream.iter_prime_blocks`` with ``hull=True``).

The kernel drops points from a chain until only the hull is left.  The
chain starts as ``_candidates``' output (below) plus both ends.  Each pass
takes, at every interior point b of the chain with neighbours a and c, the
turn (R_b - R_a)(P_c - P_b) - (R_c - R_b)(P_b - P_a), and drops at once
every b whose turn is <= 0:

1. Such a b lies on or below the chord a -> c of two points of the set,
   so it is not a strict vertex.
2. Dropping them all at once leaves the hull unchanged.  Take a run
   b_1 .. b_m of dropped points between kept a and c (the ends are never
   dropped), and let g_j be b_j's height above the chord a -> c, 0 at a
   and c.  Subtracting an affine function keeps each turn, so each g_j is
   at most the interpolation of its neighbours'; a largest g_j > 0 would
   force its neighbours as high, out to a or c.  So every g_j <= 0.
3. When a pass drops nothing, the slopes strictly decrease: the chain is
   its own upper hull, by 2 that of the candidates, so of the segment.
4. Every tie is among ``_candidates``' output (below).  ``searchsorted``
   puts each candidate that is not a vertex on its final edge a -> b, and
   it is a tie when its cross product against that edge is 0.
5. Every product is of two deltas between points of one segment, which
   spans 2^21 integers (``prime_stream.SEGMENT_SIZE`` odd ones), so
   |delta pi| * |delta p| < 2^20 * 2^21 = 2^41 is exact in int64.

Each pass but the last drops a point.  On the primes to 1e9 the E kernel
drops points in at most 13 passes and the M filter in at most 9.  The bad
case is a fan, a concave arc and a far, high last point, which drops one
point per pass; the module tests time it.

Every point could start in the chain, but ``_candidates`` keeps only the
running maxima of the cross products c_i against the chord from the first
point to the last (c = 0 at both ends): point i is kept when
c_i >= c_j for every j on its left, or for every j on its right.  That
keeps every vertex and every tie.  The points (p, c) are the points
(p, R) sheared and scaled by P[-1] - P[0] > 0, which keeps the upper hull,
its ties and "below".  Let F be the leftmost point of largest c; every c_j
left of F is below c_F.  A hull point i left of F has a supporting line
that lies on or above every point and passes on or above F, so it does
not fall from left to right; so every c_j left of i is at most c_i.  A
hull point right of F is the mirror case.  Any other point lies strictly
under the chord of two points, one on each side of it, so it is strictly
inside the hull: neither a vertex nor a tie.  On the primes to 1e8 the 47
segments after the first keep 30,579 of their 5,605,844 points (0.55%; at
most 2.18% of one segment, and 444 of 114,124 on the last full one).  The
first, from 2, keeps 16,475 of 155,611.

The running maxima are taken over blocks of ``BLOCK`` points: a block
whose maximum is below max(0, every earlier block) and below max(0, every
later block) holds no candidate, and only the kept blocks are scanned
point by point.  Of BLOCK = 32, 64, 128 and 256, 32 was the slowest and
the other three tied on the primes to 1e8; 64 keeps the scan of a kept
block short.  The M-variant's filter (``MHullState._on_hull``) uses
the same blocks, and hands the kernel only their maxima and both ends.

Vertices are the strictly convex points.  The ties of a vertex b with hull
predecessor a are the points strictly between a and b that lie exactly on
the chord a -> b, in increasing order; the first vertex has none.  This is
the tie rule of the streaming stack (``HullState.push``), which pops a
point on an equal slope into the new point's tie list.
"""

from __future__ import annotations

import numpy as np

BLOCK = 64


def _candidates(P: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Indices, increasing, of the running-maximum points strictly inside 0..n-1.

    P and R are as for ``segment_hull``, with n >= 2.  c_i is the cross
    product of point i against the edge from the first point to the last.
    The result holds every i with c_i >= max(0, c_j for all j < i) or
    c_i >= max(0, c_j for all j > i); by the module docstring that includes
    every hull vertex and tie strictly between the ends.
    """
    # Padding below 0 never passes the tests, which compare against at least 0.
    blocks = np.concatenate((
        (R[1:-1] - R[0]) * (P[-1] - P[0]) - (P[1:-1] - P[0]) * (R[-1] - R[0]),
        np.full(-(len(P) - 2) % BLOCK, -1, dtype=R.dtype),
    )).reshape(-1, BLOCK)
    top = blocks.max(1)
    zero = np.zeros(1, dtype=top.dtype)
    before = np.maximum.accumulate(np.concatenate((zero, top[:-1])))
    after = np.maximum.accumulate(np.concatenate((zero, top[:0:-1])))[::-1]
    kept = np.flatnonzero((top >= before) | (top >= after))
    rows = blocks[kept]
    # A point is a running maximum from the left when it is at least the
    # maximum of everything before it, which is the inclusive accumulate.
    run = np.maximum.accumulate(rows, axis=1)
    np.maximum(run, before[kept, None], out=run)
    hit = rows >= run
    np.maximum.accumulate(rows[:, ::-1], axis=1, out=run[:, ::-1])
    np.maximum(run, after[kept, None], out=run)
    hit |= rows >= run
    k = np.flatnonzero(hit)
    return kept[k // BLOCK] * BLOCK + k % BLOCK + 1


def segment_hull(P: np.ndarray, R: np.ndarray):
    """Upper hull of the points (P[i], R[i]), P strictly increasing, n >= 1.

    P is an int64 array.  Returns ``(idx, tie_lo, tie_hi, tie_buf)``: the
    indices of the hull vertices in increasing order, and for vertex j the
    indices of its ties, ``tie_buf[tie_lo[j]:tie_hi[j]]``, in increasing
    order.  The library reads only idx and tie_buf; the per-vertex bounds
    serve the benchmark's traced copy of the E merge.  With R int64 the
    hull and its ties are exact.  R may also be float64 (the M-variant's
    filter): the passes still only drop points, so idx still increases
    from 0 to n - 1, but nothing else is exact.
    """
    n = len(P)
    if n == 1:
        return (np.zeros(1, dtype=np.int64),) * 3 + (np.empty(0, dtype=np.int64),)
    cand = _candidates(P, R)
    idx = np.concatenate(([0], cand, [n - 1]))
    while len(idx) > 2:
        dp = np.diff(P[idx])
        dr = np.diff(R[idx])
        convex = dr[:-1] * dp[1:] > dr[1:] * dp[:-1]
        if convex.all():
            break
        idx = idx[np.concatenate(([True], convex, [True]))]
    # A candidate lies under the edge a -> b to the first vertex b at or
    # after it; it is b itself, a tie, or strictly below.
    j = idx.searchsorted(cand)
    a, b = idx[j - 1], idx[j]
    cross = (R[cand] - R[a]) * (P[b] - P[a]) - (P[cand] - P[a]) * (R[b] - R[a])
    on = (cross == 0) & (cand != b)
    counts = np.bincount(j[on], minlength=len(idx))
    tie_hi = np.cumsum(counts)
    return idx, tie_hi - counts, tie_hi, cand[on]


def hull_points(P: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Increasing indices of the vertices and ties of the exact upper hull, n >= 1.

    P and R are int64 arrays as for ``segment_hull``.
    """
    # Two disjoint sets, so a sort merges them; np.union1d would import
    # numpy.ma, about 2 MB of resident memory.
    idx, _, _, tie_buf = segment_hull(P, R)
    return np.sort(np.concatenate((idx, tie_buf)))
