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

Vertices are the strictly convex points.  The ties of a vertex b with hull
predecessor a are the points strictly between a and b that lie exactly on
the chord a -> b, in increasing order; the first vertex has none.  This is
the tie rule of the streaming stack (``HullState.push``), which pops a
point on an equal slope into the new point's tie list.
"""

from __future__ import annotations

import numpy as np


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
    work = [(0, n - 1, np.arange(1, n - 1))] if n > 1 else []
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
