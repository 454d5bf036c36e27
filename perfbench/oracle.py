"""Independent check of the window-1e11 constants in perfbench/run.py.

Sieves [W_START, W_START + W_WIDTH] with numpy over every integer (no
odd-only packing, no shared code with primehull), confirms the first and
last primes found with a deterministic Miller-Rabin test, and compares the
prime count and prime sum with W_COUNT and W_SUM.  Takes a few seconds and
about 20 MB:

    python3 perfbench/oracle.py
"""

from __future__ import annotations

import math
import sys

import numpy as np

from run import W_COUNT, W_START, W_SUM, W_WIDTH

CHUNK = 1 << 24


def small_primes(n: int) -> np.ndarray:
    is_prime = np.ones(n + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    return np.flatnonzero(is_prime)


def is_prime_mr(n: int) -> bool:
    """Miller-Rabin with the first 12 prime bases, exact for n < 3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for p in bases:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def window_primes(lo: int, hi: int):
    """(count, sum, first, last) of the primes in [lo, hi]."""
    basis = small_primes(math.isqrt(hi)).tolist()
    count = total = 0
    first = last = None
    for a in range(lo, hi + 1, CHUNK):
        b = min(a + CHUNK, hi + 1)
        is_prime = np.ones(b - a, dtype=bool)
        for p in basis:
            start = max(p * p, -(-a // p) * p)
            is_prime[start - a :: p] = False
        found = np.flatnonzero(is_prime) + a
        if len(found):
            count += len(found)
            total += int(found.sum())
            first = int(found[0]) if first is None else first
            last = int(found[-1])
    return count, total, first, last


def main() -> int:
    count, total, first, last = window_primes(W_START, W_START + W_WIDTH)
    print(f"window [{W_START}, {W_START + W_WIDTH}]: {count} primes, sum {total}")
    ok = is_prime_mr(first) and is_prime_mr(last)
    ok &= not any(is_prime_mr(n) for n in range(W_START, first))
    ok &= not any(is_prime_mr(n) for n in range(last + 1, W_START + W_WIDTH + 1))
    if not ok:
        print(f"sieve boundary primes {first}, {last} fail Miller-Rabin")
        return 1
    if (count, total) != (W_COUNT, W_SUM):
        print(f"run.py pins W_COUNT={W_COUNT}, W_SUM={W_SUM}: MISMATCH")
        return 1
    print("matches W_COUNT and W_SUM in run.py")
    return 0


if __name__ == "__main__":
    sys.exit(main())
