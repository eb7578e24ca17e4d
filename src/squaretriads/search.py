"""Bounded exhaustive search for verified triads, plus the fixed corpus.

The pruning rests on the squarefree kernels: abc is a square iff the
kernels of a, b and c are (g*u, g*v, u*v) for squarefree, pairwise coprime
g, u and v.  So the search enumerates these kernel triples and, for each,
its candidates (g*u*x^2, g*v*y^2, u*v*j^2) with a <= b <= c <= bound, in
numpy batches; its work grows with the candidates, not with the bound**2 / 2
pairs (a, b).

Only g, u and v that are sums of two squares are enumerated.  Write the
certificate of a triad as f^2 = a + b + c, w^2 = ab + bc + ca, h^2 = abc.
Then a is a root of x^3 - f^2 x^2 + w^2 x - h^2, so a*f^2 = a^2 + w^2 - bc
with bc = h^2 / a, and a*(a^2 + w^2) = (a*f)^2 + h^2.  Norms from Q(i) are
closed under quotients, so a is a sum of two rational squares, and its
squarefree kernel has no prime p = 3 (mod 4).  The kernels g*u, g*v and u*v
are squarefree, so g, u and v have no such prime either, and a squarefree
number without one is a sum of two integer squares.  This holds for every
triad, primitive or not.  Kernel triples that fail a Legendre condition
mod an odd prime of g, u or v hold no triad, and are skipped (see _candidates).

Every triad is 4**e times a 2-primitive one, whose x, y and j are not all
even, and search_triads adds the multiples 4**e * (a, b, c) with
4**e * c <= bound of each 2-primitive triad found.  In a triad e1 = a + b + c
and e2 = ab + bc + ca are squares, so they are squares mod 8, and a, b and c
mod 8 depend only on (g, u, v) mod 8 and (x, y, j) mod 4.  So the 2-adic rule
is a table computed at import from the squares mod 8 (_two_adic_patterns): for
each class of (g, u, v) mod 8 and each y parity, the (x, j) parities that a
2-primitive triad can have.  The enumeration keeps only those.  For a
(g, u, v, y) row, the smallest j with c >= b does not depend on x, so the row's
candidates are one or two step-2 sublattices of a rectangle in (x, j), spread
in one pass with no level per x.

Where u*v = 1, c = j**2 and a + b + c = f**2 is (f - j)(f + j) = n with
n = a + b, so these rows are walked by d = f - j >= 1 (f > j, as n > 0) per x
instead of by j (_d_walk).  d and n/d = f + j have the same parity, so d is odd
for odd n and even for 4 | n, and n = 2 (mod 4) has no d (the 2-adic rule
leaves no such row).  d falls as j grows, so the row's j range is exactly a
d range whose ends isqrt gives exactly; the range is not widened, as it does
the work of a j range test, and a d in it is a hit iff d | n and n/d - d = 2*j
has the row's j parity.  These rows then yield only candidates with a + b + c
a square.  At bound 5000 the kernel and Legendre rules leave 453 617 (x, y, j),
the 2-adic rule 132 914, and with the d walk the enumeration yields 81 660
candidates (10 137 051 at 10**5, against 15 581 628 with a j scan).

In each batch, e1 = a + b + c <= 3 * bound is looked up in a table of the
squares up to 3 * bound, and e2 = ab + bc + ca <= 3 * bound**2 gets an exact
float64 square test (Cohen, A Course in Computational Algebraic Number
Theory, Alg. 1.7.3, with the float test in place of residue tables).  Each
survivor is checked once in exact integers by verify_triad.  The (g, u, v, y)
rows are dealt to the parts in turn, each round shifted by one part so that no
part gets only one y parity; with workers > 1 each part but the first runs in
a process of its own that sends its triads back over a one-way pipe.
A naive unpruned triple loop is kept as the correctness oracle for small bounds.

numpy is imported inside the kernel functions, not by this module, so the
table, the corpus, naive_search and every caller that does not search never
load it (it is most of the package's import time).  search_triads imports it
before it starts any worker, so each forked worker has it already.
multiprocessing, which only a pooled search uses, is likewise loaded on first
use: the module attribute search.multiprocessing is None until the first
worker starts, which imports it in this process, before any fork.
"""

from __future__ import annotations

import array
import itertools
import math
import os
import time

from .errors import DomainError, VerificationError
from .exactnum import Record, _integer, is_perfect_square
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

# The multiprocessing module, imported by _start_part when the first worker starts
multiprocessing = None

# Every tested value, up to e2 = ab + c(a + b) <= 3 * bound**2, must stay
# below 2**53: there float64 holds integers exactly and a correctly rounded
# sqrt decides squareness exactly.
_EXACT_FLOAT = 1 << 53
# Most elements expanded at once on each level of the enumeration; bounds
# the kernel's temporary arrays.  In-process CPU time on a 2-CPU x86-64 VM with
# 2 MB of L2 per core, the range of three fresh processes' medians of 25
# searches to 5000: 2**10 to 2**16 took 17-29, 11.6-12.0, 9.2-9.5, 8.0-8.1,
# 8.4-8.7, 8.9-9.2 and 9.9-10.3 ms.  To 10**5 (two processes, medians of 3),
# 2**12 to 2**15 took 583-694, 460-517, 431-452 and 478-490 ms.
_CANDIDATE_BATCH = 1 << 13


class SearchConfig(Record):
    __slots__ = ("bound", "primitive_only", "workers")

    def __init__(self, bound: int, primitive_only: bool = False, workers: int = 1):
        for name, value in (("bound", bound), ("workers", workers)):
            value = _integer(value, "search %s must be an integer >= 1, not %%r" % name, 1)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "primitive_only", primitive_only)
        if not isinstance(self.primitive_only, bool):
            raise DomainError("search primitive_only must be a bool, not %r" % (self.primitive_only,))
        if 3 * self.bound * self.bound >= _EXACT_FLOAT:
            raise DomainError("search bound %d is too large: 3 * bound**2 must stay below 2**53" % self.bound)


def _two_squares(n: int) -> np.ndarray:
    """Boolean table over 0..n: True where the index is x**2 + y**2."""
    import numpy as np

    table = np.zeros(n + 1, dtype=bool)
    for x in range(math.isqrt(n) + 1):
        y = np.arange(x, math.isqrt(n - x * x) + 1)
        table[x * x + y * y] = True
    return table


def _residue_tables(bound: int):
    """(squarefree, spf, primes, start, residue): squarefree[m] tells whether m >= 1
    is squarefree, spf[m] is the smallest prime factor of m >= 2 (int32 holds
    every bound SearchConfig accepts), primes holds the primes p = 1 (mod 4) up
    to bound in order, and residue[start[i] + s] is s**((p - 1) / 2) = 1 (mod p)
    for p = primes[i] and 0 <= s <= bound // p only (about bound entries, built
    in slices; p < 2**26 at any accepted bound, so the products stay in int64)."""
    import numpy as np

    index = np.arange(bound + 1, dtype=np.int32)
    spf = index.copy()
    squarefree = np.ones(bound + 1, dtype=bool)
    for p in range(2, math.isqrt(bound) + 1):
        if spf[p] == p:  # final here: a composite p <= isqrt(bound) has a prime factor q with q*q <= p
            np.minimum(spf[p * p :: p], p, out=spf[p * p :: p])
            squarefree[p * p :: p * p] = False
    primes = np.flatnonzero((spf == index) & (index % 4 == 1))[1:]
    rows = bound // primes + 1
    start = np.cumsum(rows) - rows
    residue, done = np.empty(int(rows.sum()), dtype=bool), 0
    for s, p in _spread(0, rows, primes):
        r, e = np.ones_like(s), (p - 1) // 2
        while e.any():
            r = np.where(e & 1, r * s % p, r)
            s, e = s * s % p, e >> 1
        residue[done : done + r.size] = r == 1
        done += r.size
    return squarefree, spf, primes, start, residue


def _meets_the_rule(g, u, v, tables) -> np.ndarray:
    """Mask of the kernel triples with (gv|p) = 1 for every odd p | u, (gu|p) = 1 for p | v and (uv|p) = 1
    for p | g; (gv|p) = (g|p)(v|p) is -1 where the two table entries differ."""
    import numpy as np

    spf, primes, start, residue = tables
    ok = np.ones(g.shape, dtype=bool)
    for n, s, t in ((u, g, v), (v, g, u), (g, u, v)):
        n = n >> (~n & 1)  # n is squarefree: this drops the prime 2
        while (live := np.flatnonzero(n > 1)).size:
            p = spf[n[live]]
            at = start[np.searchsorted(primes, p)]  # every odd p here is 1 (mod 4), so it is in primes
            ok[live[residue[at + s[live]] != residue[at + t[live]]]] = False
            n[live] //= p
    return ok


def _isqrt(x: np.ndarray) -> np.ndarray:
    """Elementwise floor square root of int64 values below 2**53."""
    import numpy as np

    r = np.sqrt(x).astype(np.int64)
    r -= r * r > x
    r += (r + 1) * (r + 1) <= x
    return r


def _is_square(x: np.ndarray) -> np.ndarray:
    """Exact elementwise square test for int64 values below 2**53."""
    import numpy as np

    r = np.sqrt(x)
    np.rint(r, out=r)
    r = r.astype(np.int64)
    r *= r
    return r == x


def _squares(n: int) -> np.ndarray:
    """Boolean table over 0..n: True where the index is a square."""
    import numpy as np

    table = np.zeros(n + 1, dtype=bool)
    table[np.arange(math.isqrt(n) + 1) ** 2] = True
    return table


def _spread(start, n: np.ndarray, *cols: np.ndarray):
    """Expand the ranges start_i <= t < start_i + n_i (all n_i >= 0), in slices.

    Yields (t, col_0, col_1, ...), each column repeated along its row's
    range, in slices of at most _CANDIDATE_BATCH elements; a row longer
    than that is split between slices.
    """
    import numpy as np

    start = np.broadcast_to(start, n.shape)
    ends = np.cumsum(n)
    total = int(ends[-1]) if n.size else 0
    for lo in range(0, total, _CANDIDATE_BATCH):
        hi = min(lo + _CANDIDATE_BATCH, total)
        rows = slice(int(np.searchsorted(ends, lo, side="right")), int(np.searchsorted(ends, hi)) + 1)
        begins = ends[rows] - n[rows]
        m = np.minimum(ends[rows], hi) - np.maximum(begins, lo)
        t = np.arange(hi - lo, dtype=np.int64)
        t += np.repeat(start[rows] - begins + lo, m)
        yield (t, *(np.repeat(col[rows], m) for col in cols))


def _two_adic_patterns() -> memoryview:
    """The 2-adic rule, as a read-only 1024-row table of int8: row
    2 * (64 * (g % 8) + 8 * (u % 8) + v % 8) + y % 2 lists the patterns
    2 * (x % 2) + j % 2 that a 2-primitive triad (g*u*x^2, g*v*y^2, u*v*j^2)
    can have, padded with -1 to one width.

    g, u and v are squarefree sums of two squares, so each is 1 or 5 (mod 8),
    or 2 (mod 8) when even, and at most one is even as they are coprime: 20
    classes mod 8 (the other rows are empty).  A square x**2 (mod 8) depends on
    x mod 4 only.  A pattern is listed when x, y and j are not all even and
    some lift of the parities to x, y, j (mod 4) makes e1 = a + b + c and
    e2 = ab + bc + ca both squares mod 8, as they are in every triad.
    """
    squares = {k * k % 8 for k in range(8)}
    rows: dict[int, list[int]] = {}
    for g, u, v in itertools.product((1, 2, 5), repeat=3):
        if (g, u, v).count(2) > 1:
            continue
        for x, y, j in itertools.product((0, 1), repeat=3):
            lifts = itertools.product((x, x + 2), (y, y + 2), (j, j + 2))
            abc = ((g * u * X * X, g * v * Y * Y, u * v * J * J) for X, Y, J in lifts)
            if (x or y or j) and any({(a + b + c) % 8, (a * b + b * c + c * a) % 8} <= squares for a, b, c in abc):
                rows.setdefault(2 * (64 * g + 8 * u + v) + y, []).append(2 * x + j)
    width = max(map(len, rows.values()))
    table = array.array("b", [-1]) * (1024 * width)
    for i, row in rows.items():
        table[i * width : i * width + len(row)] = array.array("b", row)
    return memoryview(table).toreadonly().cast("b", (1024, width))


# a buffer, so _candidates makes it a numpy array without a Python loop
_PATTERNS = _two_adic_patterns()


def _sublattices(y, gu, gv, uv, jmax, kind, patterns):
    """The nonempty (x, j) sublattices of (g, u, v, y) rows, each as (n, x1, j1, nj, gu, b, uv).

    x = x1, x1 + 2, ... <= isqrt(b // gu), and j = j1, j1 + 2, ... <= jmax from
    the first j with c >= b (at most jmax, as b <= u*v*jmax**2), with the
    parities of a pattern in row kind + y % 2 of patterns, the array of
    _PATTERNS; there are nj values of j and n values of (x, j).  The
    temporaries here are freed before the sublattices are spread.
    """
    import numpy as np

    b = gv * y * y
    pattern = patterns[kind + (y & 1)].ravel()
    row = np.flatnonzero(pattern >= 0)
    pattern = pattern[row]
    row >>= 1
    x1, j1 = 2 - (pattern >> 1), _isqrt((b - 1) // uv)[row] + 1
    j1 += (j1 ^ pattern) & 1
    nj = (jmax[row] - j1 + 2) >> 1
    n = ((_isqrt(b // gu)[row] - x1 + 2) >> 1) * nj
    live = np.flatnonzero(n)
    row = row[live]
    return n[live], x1[live], j1[live], nj[live], gu[row], b[row], uv[row]


def _d_walk(nx, x1, j1, nj, gu, b):
    """The (a, b, c) of u*v = 1 sublattices with a + b + c a square, walked by d = f - j.

    A sublattice has nx values x = x1, x1 + 2, ... and nj values j = j1, j1 + 2,
    ..., jn, with a = g*u*x**2 and c = j**2; d = n / (f + j) with n = a + b
    falls as j grows, so j1 <= j <= jn exactly when
        ceil(sqrt(n + jn**2) - jn) <= d <= isqrt(n + j1**2) - j1,
    and a d of that range and of n's parity is a hit iff d | n and
    n/d - d = 2*j = 2*j1 (mod 4) (see the module docstring).
    """
    import numpy as np

    for t, x1, j1, nj, gu, b in _spread(0, nx, x1, j1, nj, gu, b):
        x = 2 * t + x1
        a = gu * x * x
        n = a + b
        odd = n & 1
        jn = j1 + 2 * nj - 2
        top = n + jn * jn
        root = _isqrt(top)
        # d = 2*h + odd, from the first h with d >= the lower end (>= 1, as n > 0) to the last under the upper end
        lo = (root - jn + (root * root < top) - odd + 1) >> 1
        hi = (_isqrt(n + j1 * j1) - j1 - odd) >> 1
        for h, a, n, j2 in _spread(lo, np.maximum(hi - lo + 1, 0), a, n, 2 * (j1 & 1)):
            d = h
            d <<= 1
            d += n & 1
            q, r = np.divmod(n, d)
            q -= d  # 2 * j
            hit = np.flatnonzero((r == 0) & ((q & 3) == j2))
            a, n, j = a[hit], n[hit], q[hit] >> 1
            yield a, n - a, j * j


def _candidates(bound: int, part: int = 0, parts: int = 1):
    """Every a <= b <= c <= bound that could be a 2-primitive triad, in part `part` of `parts`.

    That is every such a, b, c with abc a square, each member a sum of two
    squares, a kernel triple that meets the Legendre rule below, a parity
    pattern that meets the 2-adic rule of _two_adic_patterns and, where c is
    a square (u*v = 1), a + b + c a square.  Such a
    triad has exactly one kernel triple (kernel(a), kernel(b), kernel(c)) =
    (g*u, g*v, u*v) with g, u, v squarefree and pairwise coprime, so it is
    (g*u*x**2, g*v*y**2, u*v*j**2) for exactly one (u, v, g, x, y, j).
    g, u and v are drawn only from the squarefree sums of two squares, as the
    module docstring shows.
    Products of squarefree numbers are tested for coprimality on the sieve:
    m*n is squarefree iff m and n are coprime.  A kernel triple with an odd
    prime p | u and (g*v | p) = -1 holds no triad, by infinite descent:
        f^2 = a + b + c = g*v*y^2 (mod p) forces p | y and p | f, so p^2 | a + c = u*(g*x^2 + v*j^2);
        p | u once, so g*x^2 = -v*j^2 (mod p), and -1 is a square mod p = 1 (mod 4);
        as g*v is not a square mod p, p | x and p | j, and p^2 divides a, b and c;
        so (a, b, c) / p^2 is a smaller triad with the same kernel triple, and so on forever.
    p | v with (g*u | p) = -1 and p | g with (u*v | p) = -1 go the same way;
    such triples are dropped.

    Only 2-primitive triads, with x, y and j not all even, are yielded;
    search_triads adds the rest.  Since g*u, g*v and u*v are squarefree,
    4 | a, b and c iff x, y and j are even, and then (a, b, c) / 4 is a triad
    with the same kernel triple; so every triad is 4**e times a 2-primitive
    one.  The row of _PATTERNS for (g, u, v) mod 8 and y % 2 lists the (x, j)
    parities left.
    A kernel triple's y rows start at the first y with b >= g*u, where x = 1
    fits.  The i-th (g, u, v, y) row, counted across slices, goes to part
    (i + i // parts) % parts: consecutive rows alternate in y parity, and the
    shift gives each part rows of both parities.
    j0 = isqrt((b - 1) // (u*v)) + 1 does not depend on x, so a y row's
    candidates are the (x, j) in [1, xmax] x [j0, jmax], and the rule keeps one
    or two step-2 sublattices of that rectangle (_sublattices); a batch's
    sublattices with u*v = 1 are walked by d = f - j (_d_walk), and the rest
    are spread at once, with no level per x.  Yields (a, b, c) as int64 arrays,
    in batches; each level rebinds the names of the level above to its own rows.
    """
    import numpy as np

    patterns = np.asarray(_PATTERNS, dtype=np.int64)
    squarefree, *tables = _residue_tables(bound)
    sf = np.flatnonzero(squarefree & _two_squares(bound))[1:]
    dealt = 0
    for vi, u in _spread(0, np.searchsorted(sf, bound // sf, side="right"), sf):
        v = sf[vi]
        uv = u * v
        keep = squarefree[uv]
        u, v, uv = u[keep], v[keep], uv[keep]
        jmax = _isqrt(bound // uv)
        # g*v <= b <= u*v*jmax**2 and g*u <= a <= b give g <= min(u, v) * jmax**2
        ng = np.searchsorted(sf, np.minimum(u, v) * jmax * jmax, side="right")
        for gi, u, v, uv, jmax in _spread(0, ng, u, v, uv, jmax):
            g = sf[gi]
            gu, gv = g * u, g * v
            keep = np.flatnonzero(squarefree[gu] & squarefree[gv])
            keep = keep[_meets_the_rule(g[keep], u[keep], v[keep], tables)]
            # 2 * (64 * (g % 8) + 8 * (u % 8) + v % 8): the row pair of _PATTERNS
            kind = ((g & 7) << 7 | (u & 7) << 4 | (v & 7) << 1)[keep]
            gu, gv, uv, jmax = gu[keep], gv[keep], uv[keep], jmax[keep]
            # from y1 on b >= g*u, so x = 1 fits under a <= b; b <= c <= u*v*jmax**2 bounds y above
            y1 = _isqrt((gu - 1) // gv) + 1
            ny = np.maximum(_isqrt(uv * jmax * jmax // gv) - y1 + 1, 0)
            for y, gu, gv, uv, jmax, kind in _spread(y1, ny, gu, gv, uv, jmax, kind):
                i = np.arange(dealt, dealt + y.size)
                dealt += y.size
                mine = np.flatnonzero((i + i // parts) % parts == part)
                y, gu, gv, uv, jmax, kind = (col[mine] for col in (y, gu, gv, uv, jmax, kind))
                n, x1, j1, nj, gu, b, uv = _sublattices(y, gu, gv, uv, jmax, kind, patterns)
                # the u = v = 1 rows come first (sf[0] = 1), so in any batch their sublattices are a prefix
                k = int(np.count_nonzero(uv == 1))
                yield from _d_walk(n[:k] // nj[:k], x1[:k], j1[:k], nj[:k], gu[:k], b[:k])
                for t, x1, j1, nj, gu, b, uv in _spread(0, n[k:], x1[k:], j1[k:], nj[k:], gu[k:], b[k:], uv[k:]):
                    # in place: a batch's temporaries set the search's peak memory
                    a, c = np.divmod(t, nj)
                    a <<= 1
                    a += x1
                    a *= a
                    a *= gu
                    c <<= 1
                    c += j1
                    c *= c
                    c *= uv
                    yield a, b, c


def _search_block(args) -> list[tuple[int, int, int]]:
    """Triads from part `part` of `parts` of the kernel triples."""
    import numpy as np

    part, parts, bound = args
    square = _squares(3 * bound)
    out: list[tuple[int, int, int]] = []
    for a, b, c in _candidates(bound, part, parts):
        hit = np.flatnonzero(square[a + b + c])
        ha, hb, hc = a[hit], b[hit], c[hit]
        keep = _is_square(ha * hb + hc * (ha + hb))
        out.extend(zip(ha[keep].tolist(), hb[keep].tolist(), hc[keep].tolist()))
    return out


def _start_part(args):
    """Start a worker process on _search_block(args); return it and the read end of its one-way pipe."""
    global multiprocessing
    if multiprocessing is None:
        import multiprocessing
    recv, send = multiprocessing.Pipe(duplex=False)
    worker = multiprocessing.Process(target=_send_part, args=(send, args))
    worker.start()
    send.close()
    return worker, recv


def _send_part(send, args):
    """In a worker: send back the triads of part args, or the exception that part raised and its
    formatted traceback, which pickling would drop."""
    try:
        send.send(_search_block(args))
    except Exception as exc:
        import traceback  # only a failed worker needs it, so importing search does not load it

        send.send((exc, traceback.format_exc()))


def search_triads(cfg: SearchConfig) -> list[tuple[Triad, SquareCertificate]]:
    """All triads a <= b <= c <= bound whose symmetric functions are squares.

    The (g, u, v, y) rows are dealt to parts = min(workers, CPUs) parts.  This
    process runs part 0, and a worker process runs each other part and pipes
    back its triads or its exception, raised here with the worker's traceback
    as its cause (RuntimeError if it dies silently).  On any error the
    workers are killed; all are joined before this returns.  The parts find
    the 2-primitive triads (see _candidates), and each one's multiples
    4**e * (a, b, c) with 4**e * c <= bound are added here.  Results
    are sorted and re-verified; with primitive_only, triads with a square common
    factor are dropped (their canonical form is enumerated on its own).

    workers pays only on larger bounds.  At bound 5000 on a 2-CPU VM (30
    alternating searches in one process, getrusage, medians), with 2 workers
    the caller took about 1230 minor page faults per search against 225
    serially (copy-on-write after the fork), and its own CPU time rose:
    10.9-12.6 ms against 8.3-10.5 ms (two processes).  Wall times on that VM,
    the range of three processes' medians of 30, 20, 10 and 5 searches, serial
    and with 2 workers: 5000 7.6-11.3 and 11.7-29.1 ms; 10**4 19.3-28.1 and
    20.8-36.5 ms; 3 * 10**4 88.5-91.2 and 73.7-89.5 ms; 10**5 441-452 and
    390-432 ms.  The VM's load moves these by up to twice.

    Like numpy, multiprocessing is loaded on first use: numpy by the first
    search of a process, multiprocessing when its first worker starts, so the
    first pooled search also pays that import.
    """
    import numpy  # noqa: F401  (loaded before any worker starts, so a forked worker has it)

    bound = cfg.bound
    parts = min(cfg.workers, os.cpu_count() or 1)
    workers, answered = [], False
    try:
        for part in range(1, parts):
            workers.append(_start_part((part, parts, bound)))
        raw = _search_block((0, parts, bound))
        for part, (worker, recv) in enumerate(workers, 1):
            try:
                triads = recv.recv()
            except EOFError:
                worker.join()
                raise RuntimeError("search part %d exited with code %s and sent no triads" % (part, worker.exitcode)) from None
            if isinstance(triads, tuple):
                raise triads[0] from RuntimeError("search part %d raised in its worker process:\n%s" % (part, triads[1]))
            raw += triads
        answered = True
    finally:
        for worker, _ in workers:
            if not answered:
                worker.kill()
            worker.join()
    # the parts find the 2-primitive triads; 4**e * (a, b, c) is a triad, and 4**e <= bound // c
    # iff 2 * e < (bound // c).bit_length()
    raw += [(a << s, b << s, c << s) for a, b, c in raw for s in range(2, (bound // c).bit_length(), 2)]
    raw.sort()
    results = []
    for a, b, c in raw:
        triad = Triad(a, b, c)
        # the one exact check of each prefilter survivor, primitive or not
        cert = verify_triad(triad)
        if cert is None:
            raise VerificationError("square prefilter passed a non-triad %s" % (triad,))
        if cfg.primitive_only and canonicalize(triad) != triad:
            continue
        results.append((triad, cert))
    return results


def naive_search(bound: int) -> list[Triad]:
    """Unpruned triple-loop oracle; exact, independent of the kernel logic."""
    bound = _integer(bound, "search bound must be an integer >= 1, not %r", 1)
    squares_small = {i * i for i in range(math.isqrt(3 * bound) + 1)}
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


class Table1Report(Record):
    __slots__ = ("rows", "elapsed")

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


class CorpusReport(Record):
    __slots__ = ("entries", "elapsed")

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
