"""Bounded exhaustive search for verified triads, plus the fixed corpus.

The pruning rests on the squarefree-kernel identity: abc is a square iff
kernel(c) = kernel(ab), so for each pair a <= b only c = kernel(ab) * j^2
ever needs testing.  The kernel runs in numpy: one pass over b per a
finds the pairs with kernel(ab) <= bound, and the c-candidates of many pairs
are tested together with an exact float64 square test (Cohen, A Course in
Computational Algebraic Number Theory, Alg. 1.7.3, with the float test in
place of residue tables).  Survivors are re-checked in exact integers.  A
naive unpruned triple loop is kept as the correctness oracle for small
bounds.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, VerificationError
from .exactnum import is_perfect_square
from .families import evaluate_family
from .triads import SquareCertificate, Triad, canonicalize, verify_triad

__all__ = [
    "SearchConfig",
    "search_triads",
    "naive_search",
    "TABLE1_ROWS",
    "CORPUS_TRIADS",
    "reproduce_table1",
    "verify_corpus",
    "Table1Report",
    "CorpusReport",
]

# Every tested value, up to e2 = ab + c(a + b) <= 3 * bound**2, must stay
# below 2**53: there float64 holds integers exactly and a correctly rounded
# sqrt decides squareness exactly.
_EXACT_FLOAT = 1 << 53
# Pairs (a, b) with K <= bound gathered before their c-candidates are made.
_PAIR_BATCH = 1 << 11
# Most c-candidates expanded at once; bounds the kernel's temporary arrays.
_CANDIDATE_BATCH = 1 << 12


@dataclass(frozen=True)
class SearchConfig:
    bound: int
    primitive_only: bool = False
    workers: int = 1

    def __post_init__(self):
        if self.bound < 1:
            raise DomainError("search bound must be >= 1")
        if 3 * self.bound * self.bound >= _EXACT_FLOAT:
            raise DomainError("search bound %d is too large: 3 * bound**2 must stay below 2**53" % self.bound)
        if self.workers < 1:
            raise DomainError("worker count must be >= 1")


def _kernel_sieve(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Squarefree kernels and smallest prime factors of 0..n, as int32.

    int32 holds every bound SearchConfig accepts.  Entries 0 and 1 of both
    arrays are 0 and 1.
    """
    spf = np.zeros(n + 1, dtype=np.int32)
    kernels = np.arange(n + 1, dtype=np.int32)
    for p in range(2, math.isqrt(n) + 1):
        if spf[p] == 0:
            tail = spf[p * p :: p]
            tail[tail == 0] = p
            q = p * p
            while q <= n:
                kernels[::q] //= p * p
                q *= p * p
    unset = spf == 0
    spf[unset] = np.flatnonzero(unset)
    return kernels, spf


def _kernel_primes(spf: np.ndarray, k: int) -> tuple[int, ...]:
    """Ascending primes of a squarefree k, read off the smallest-factor sieve."""
    primes = []
    while k > 1:
        p = int(spf[k])
        primes.append(p)
        k //= p
    return tuple(primes)


def _isqrt(x: np.ndarray) -> np.ndarray:
    """Elementwise floor square root of int64 values below 2**53."""
    r = np.sqrt(x).astype(np.int64)
    r -= r * r > x
    r += (r + 1) * (r + 1) <= x
    return r


def _is_square(x: np.ndarray) -> np.ndarray:
    """Exact elementwise square test for int64 values below 2**53."""
    r = np.sqrt(x)
    np.rint(r, out=r)
    r = r.astype(np.int64)
    r *= r
    return r == x


def _test_candidates(a, b, K, j0, n, out: list):
    """Test c = K * j^2 for j0 <= j < j0 + n on each pair (a, b)."""
    ends = np.cumsum(n)
    c = np.arange(int(ends[-1]), dtype=np.int64)
    c += np.repeat(j0 - (ends - n), n)
    c *= c
    c *= np.repeat(K, n)
    e1 = np.repeat(a + b, n)
    e1 += c
    hit = np.flatnonzero(_is_square(e1))
    pair = np.searchsorted(ends, hit, side="right")
    ha, hb, hc = a[pair], b[pair], c[hit]
    keep = _is_square(ha * hb + hc * (ha + hb))
    for a, b, c in zip(ha[keep].tolist(), hb[keep].tolist(), hc[keep].tolist()):
        # exact re-checks of the float survivors; abc is square by construction
        ab = a * b
        if is_perfect_square(a + b + c) is None or is_perfect_square(ab + c * (a + b)) is None:
            raise VerificationError("float square test passed a non-square at %s" % ((a, b, c),))
        if is_perfect_square(ab * c) is None:
            raise VerificationError("kernel pruning produced a non-square product")
        out.append((a, b, c))


def _scan_pairs(a, b, K, bound: int, out: list):
    """c-scan along c = K * j^2 with b <= c <= bound for each pair (a, b)."""
    j0 = _isqrt((b - 1) // K) + 1
    n = _isqrt(bound // K) - j0 + 1
    live = n > 0
    a, b, K, j0, n = a[live], b[live], K[live], j0[live], n[live]
    ends = np.cumsum(n)
    lo = 0
    while lo < n.size:
        done = int(ends[lo - 1]) if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, done + _CANDIDATE_BATCH, side="right")))
        _test_candidates(a[lo:hi], b[lo:hi], K[lo:hi], j0[lo:hi], n[lo:hi], out)
        lo = hi


def _search_block(args) -> list[tuple[int, int, int]]:
    a_lo, a_hi, bound = args
    kernels, spf = _kernel_sieve(bound)
    out: list[tuple[int, int, int]] = []
    rows: list[int] = []
    bs: list[np.ndarray] = []
    Ks: list[np.ndarray] = []
    pending = 0
    for a in range(a_lo, a_hi):
        # K = kernel(ab) = ka * kb / gcd(ka, kb)^2, the gcd being the
        # primes of the squarefree ka that divide kb
        ka = int(kernels[a])
        kb = kernels[a:]
        K = np.multiply(kb, ka, dtype=np.int64)
        for p in _kernel_primes(spf, ka):
            np.floor_divide(K, p * p, out=K, where=kb % p == 0)
        off = np.flatnonzero(K <= bound)
        rows.append(off.size)
        bs.append(off + a)
        Ks.append(K[off])
        pending += off.size
        if pending >= _PAIR_BATCH or a == a_hi - 1:
            first = a + 1 - len(rows)
            a_arr = np.repeat(np.arange(first, a + 1, dtype=np.int64), rows)
            _scan_pairs(a_arr, np.concatenate(bs), np.concatenate(Ks), bound, out)
            rows, bs, Ks, pending = [], [], [], 0
    return out


def _pool_size(workers: int, n_chunks: int) -> int:
    """Worker processes actually started: never more than CPUs or chunks."""
    return min(workers, os.cpu_count() or 1, n_chunks)


def search_triads(cfg: SearchConfig) -> list[tuple[Triad, SquareCertificate]]:
    """All triads a <= b <= c <= bound whose symmetric functions are squares.

    Results are sorted lexicographically and independently re-verified;
    with primitive_only, triads carrying a square common factor are
    dropped (their canonical form is enumerated on its own).
    """
    bound = cfg.bound
    chunks = []
    if cfg.workers > 1 and bound >= 256:
        # contiguous a-ranges; small a carries most work, so split finely
        step = max(16, bound // (cfg.workers * 8))
        lo = 1
        while lo <= bound:
            hi = min(lo + step, bound + 1)
            chunks.append((lo, hi, bound))
            lo = hi
    workers = _pool_size(cfg.workers, len(chunks))
    if workers <= 1:
        raw = _search_block((1, bound + 1, bound))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            raw = [t for block in pool.map(_search_block, chunks) for t in block]
    raw.sort()
    results = []
    for a, b, c in raw:
        triad = Triad(a, b, c)
        if cfg.primitive_only and canonicalize(triad) != triad:
            continue
        cert = verify_triad(triad)
        if cert is None:
            raise VerificationError("search emitted a non-verifying triad %s" % (triad,))
        results.append((triad, cert))
    return results


def naive_search(bound: int) -> list[Triad]:
    """Unpruned triple-loop oracle; exact, independent of the kernel logic."""
    squares_small = set()
    i = 0
    while i * i <= 3 * bound:
        squares_small.add(i * i)
        i += 1
    out = []
    for a in range(1, bound + 1):
        for b in range(a, bound + 1):
            ab = a * b
            s0 = a + b
            for c in range(b, bound + 1):
                if (s0 + c) in squares_small:
                    e2 = ab + c * s0
                    if is_perfect_square(e2) is not None and is_perfect_square(ab * c) is not None:
                        out.append(Triad(a, b, c))
    return out


# Fixed numerical corpus: the 21 table rows with their generating family
# and parameters, and the three historical triads.
TABLE1_ROWS: tuple[tuple[str, tuple[int, ...], tuple[int, int, int]], ...] = (
    ("parmsol1", (1, 2), (180, 45, 64)),
    ("parmsol1", (1, 3), (1440, 160, 81)),
    ("parmsol1", (1, 4), (61200, 3825, 1024)),
    ("parmsol1", (2, 3), (2925, 1300, 5184)),
    ("parmsol1", (1, 5), (93600, 3744, 625)),
    ("parmsol1", (2, 5), (319725, 51156, 40000)),
    ("parmsol1", (3, 5), (54400, 19584, 50625)),
    ("parmsol1", (4, 5), (83025, 53136, 640000)),
    ("parmsol2", (1, 2), (80, 320, 225)),
    ("parmsol2", (1, 3), (90, 810, 1600)),
    ("parmsol2", (1, 4), (1088, 17408, 65025)),
    ("parmsol2", (2, 3), (7488, 16848, 4225)),
    ("parmsol2", (1, 5), (650, 16250, 97344)),
    ("parmsol2", (2, 5), (46400, 290000, 370881)),
    ("parmsol2", (1, 7), (98, 4802, 57600)),
    ("parmsol2", (3, 5), (68850, 191250, 73984)),
    ("parmsol3", (1, 2), (28880, 81225, 537920)),
    ("parmsol4", (1, 2), (302580, 107584, 16245)),
    ("allsq1", (1, 2), (11025, 19600, 82944)),
    ("allsq2", (1, 2), (9216, 5184, 1225)),
    ("gensol1", (1, 1), (136, 72, 153)),
)

CORPUS_TRIADS: tuple[tuple[int, int, int], ...] = (
    (252782198228, 1633780814400, 3474741058973),
    (81, 784, 186624),
    (80, 225, 320),
)


@dataclass(frozen=True)
class Table1Report:
    rows: tuple[tuple[str, tuple[int, ...], tuple[int, ...], tuple[int, ...], bool], ...]
    elapsed: float

    @property
    def ok(self) -> bool:
        return all(r[-1] for r in self.rows)


def reproduce_table1() -> Table1Report:
    """Evaluate each table row's family at its parameters and compare."""
    t0 = time.perf_counter()
    rows = []
    for name, params, expected in TABLE1_ROWS:
        triad, _cert = evaluate_family(name, params)
        got = triad.members()
        want = tuple(sorted(expected))
        rows.append((name, params, want, got, got == want))
    return Table1Report(tuple(rows), time.perf_counter() - t0)


@dataclass(frozen=True)
class CorpusReport:
    entries: tuple[tuple[tuple[int, int, int], SquareCertificate | None], ...]
    elapsed: float

    @property
    def ok(self) -> bool:
        return all(cert is not None for _, cert in self.entries)


def verify_corpus() -> CorpusReport:
    """Certificates for the historical triads and all table rows."""
    t0 = time.perf_counter()
    entries = []
    seen = list(CORPUS_TRIADS) + [row[2] for row in TABLE1_ROWS]
    for members in seen:
        triad = Triad(*sorted(members))
        entries.append((tuple(sorted(members)), verify_triad(triad)))
    return CorpusReport(tuple(entries), time.perf_counter() - t0)
