"""Upper-hull kernel for one sieve segment.

Computes the upper convex hull of the points (P[i], R[i]) within a single
segment, with the points lying exactly on a hull edge kept as tie
annotations.  Extreme points of a union are extreme points of the parts,
so feeding only each segment's hull vertices (plus their tie lists) into
the global stack reproduces the full streaming hull exactly; the module
tests pin that equivalence against the batch oracle.

The kernel is quickhull (Barber, Dobkin and Huhdanpaa, ACM TOMS 1996),
vectorized over each edge's candidates.  Every orientation test is an
int64 cross product of deltas from the edge's left end, never of absolute
coordinates.  That is exact because a segment spans 2^21 integers
(``prime_stream.SEGMENT_SIZE`` odd ones), so |delta pi| * |delta p| <
2^20 * 2^21 = 2^41.

Quickhull's first edge, from the first point to the last, would visit
every point.  ``_candidates`` cuts it to the running maxima of the cross
products c_i against that edge (c = 0 at both ends): point i is kept when
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
segments after the first keep 30,580 of their 5,605,844 points (0.55%; at
most 2.2% of one segment, and 361 of 113,756 on the last full one).  The
first, from 3, keeps 16,471 of 155,610.

The running maxima are taken over blocks of ``BLOCK`` points: a block
whose maximum is below max(0, every earlier block) and below max(0, every
later block) holds no candidate, and only the kept blocks are scanned
point by point.  Summed over the 48 segments to 1e8, the kernel's CPU
time (median of 15 interleaved rounds, 2-core x86_64 VM, numpy 2.4.6)
was 35.4, 33.5, 32.9 and 33.9 ms for BLOCK = 32, 64, 128 and 256 on the
pi heights, and 82.6, 75.3, 74.8 and 74.8 ms on the float heights p/pi.
The last three lie within one another's quartiles, and 32 is slower; 64
keeps the scan of a kept block short.  The M-variant's filter
(``MHullState.merge_segment``) uses the same blocks but never hands the
kernel a whole segment: it takes the hull of the block maxima of p/pi,
drops each block whose highest point is below that hull, less a margin,
at both of the block's ends, and tests the points of the other blocks
against the same hull.

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
    order.  With R int64 the hull and its ties are exact.  R may also be
    float64 (the M-variant's filter): then the vertices are only those of
    a rounded hull and the ties mean nothing, but idx still starts at 0,
    ends at n - 1 and increases.
    """
    n = len(P)
    verts = [0]
    tie_hi = [0]
    ties = []
    # Edges still to resolve, as (left, right, candidate indices strictly
    # between them, increasing).  Popping the left half first emits the
    # final edges, and so the vertices, from left to right.
    work = [(0, n - 1, _candidates(P, R))] if n > 1 else []
    while work:
        a, b, cand = work.pop()
        if len(cand):
            pa = P[a]
            ra = R[a]
            cross = (R[cand] - ra) * (P[b] - pa) - (P[cand] - pa) * (R[b] - ra)
            m = int(cross.argmax())
            if cross[m] > 0:
                # argmax returns the leftmost of equally distant points, which
                # is a vertex; the others on its line are ties or vertices of
                # the right half.  Points on or below the chord a -> b lie
                # strictly below the two new edges, so they are dropped.
                c = cand[m]
                keep = cand[cross > 0]
                k = int(keep.searchsorted(c))
                work.append((c, b, keep[k + 1 :]))
                work.append((a, c, keep[:k]))
                continue
            cand = cand[cross == 0]
            ties.append(cand)
        verts.append(b)
        tie_hi.append(tie_hi[-1] + len(cand))
    tie_hi = np.array(tie_hi, dtype=np.int64)
    tie_lo = np.concatenate(([0], tie_hi[:-1]))
    tie_buf = np.concatenate(ties) if ties else np.empty(0, dtype=np.int64)
    return np.array(verts, dtype=np.int64), tie_lo, tie_hi, tie_buf
