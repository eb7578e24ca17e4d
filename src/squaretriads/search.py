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
triad, primitive or not.

Each batch is tested with an exact float64 square test
(Cohen, A Course in Computational Algebraic Number Theory, Alg. 1.7.3, with
the float test in place of residue tables).  Each survivor is checked once
in exact integers by verify_triad.  With workers > 1 each part but the first
runs in a process of its own that sends its triads back over a one-way pipe.
A naive unpruned triple loop is kept as the correctness oracle for small bounds.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import time
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, VerificationError
from .exactnum import _integer, is_perfect_square
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
# Most elements expanded at once on each level of the enumeration; bounds
# the kernel's temporary arrays.
_CANDIDATE_BATCH = 1 << 12


@dataclass(frozen=True)
class SearchConfig:
    bound: int
    primitive_only: bool = False
    workers: int = 1

    def __post_init__(self):
        for name in ("bound", "workers"):
            value = _integer(getattr(self, name), "search %s must be an integer >= 1, not %%r" % name, 1)
            object.__setattr__(self, name, value)
        if not isinstance(self.primitive_only, bool):
            raise DomainError("search primitive_only must be a bool, not %r" % (self.primitive_only,))
        if 3 * self.bound * self.bound >= _EXACT_FLOAT:
            raise DomainError("search bound %d is too large: 3 * bound**2 must stay below 2**53" % self.bound)


def _kernel_sieve(n: int) -> np.ndarray:
    """Squarefree kernels of 0..n, as int32; entries 0 and 1 are 0 and 1.

    int32 holds every bound SearchConfig accepts.
    """
    kernels = np.arange(n + 1, dtype=np.int32)
    root = math.isqrt(n)
    composite = np.zeros(root + 1, dtype=bool)
    for p in range(2, root + 1):
        if not composite[p]:
            composite[p * p :: p] = True
            q = p * p
            while q <= n:
                kernels[::q] //= p * p
                q *= p * p
    return kernels


def _two_squares(n: int) -> np.ndarray:
    """Boolean table over 0..n: True where the index is x**2 + y**2."""
    table = np.zeros(n + 1, dtype=bool)
    for x in range(math.isqrt(n) + 1):
        y = np.arange(x, math.isqrt(n - x * x) + 1)
        table[x * x + y * y] = True
    return table


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


def _spread(start, n: np.ndarray, *cols: np.ndarray):
    """Expand the ranges start_i <= t < start_i + n_i (all n_i >= 0), in slices.

    Yields (t, col_0, col_1, ...), each column repeated along its row's
    range, in slices of at most _CANDIDATE_BATCH elements; a row longer
    than that is split between slices.
    """
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


def _candidates(kernels: np.ndarray, part: int = 0, parts: int = 1):
    """Every a <= b <= c <= bound that could be a triad, in part `part` of `parts`.

    That is every such a, b, c with abc a square and each member a sum of
    two squares.  Such a triad has exactly one kernel triple (kernel(a),
    kernel(b), kernel(c)) = (g*u, g*v, u*v) with g, u, v squarefree and
    pairwise coprime, so it is (g*u*x**2, g*v*y**2, u*v*j**2) for exactly
    one (u, v, g, x, y, j).  Why each member of a triad with certificate
    (f, w, h) is a sum of two squares:
        a*f^2 = a^2 + w^2 - bc and bc = h^2 / a give a*(a^2 + w^2) = (a*f)^2 + h^2;
        so a is a quotient of norms from Q(i), hence a norm: a = x^2 + y^2;
        so kernel(a) has no prime p = 3 (mod 4), and nor have g, u and v.
    So g, u and v are drawn only from the squarefree sums of two squares.
    Products of squarefree numbers are tested for coprimality on the sieve:
    m*n is squarefree iff kernel(m*n) = m*n.  The i-th kernel triple to pass,
    counted across slices, goes to part i % parts.  Yields (a, b, c) as int64
    arrays, in batches; each level rebinds the names of the level above to
    its own rows.
    """
    bound = kernels.size - 1
    sf = np.flatnonzero((kernels == np.arange(bound + 1)) & _two_squares(bound))[1:]
    dealt = 0
    for vi, u in _spread(0, np.searchsorted(sf, bound // sf, side="right"), sf):
        v = sf[vi]
        uv = u * v
        keep = kernels[uv] == uv
        u, v, uv = u[keep], v[keep], uv[keep]
        jmax = _isqrt(bound // uv)
        # g*v <= b <= u*v*jmax**2 and g*u <= a <= b give g <= min(u, v) * jmax**2
        ng = np.searchsorted(sf, np.minimum(u, v) * jmax * jmax, side="right")
        for gi, u, v, uv, jmax in _spread(0, ng, u, v, uv, jmax):
            g = sf[gi]
            gu, gv = g * u, g * v
            keep = np.flatnonzero((kernels[gu] == gu) & (kernels[gv] == gv))
            keep, dealt = keep[(part - dealt) % parts :: parts], dealt + keep.size
            gu, gv, uv, jmax = gu[keep], gv[keep], uv[keep], jmax[keep]
            for y, gu, gv, uv, jmax in _spread(1, _isqrt(uv * jmax * jmax // gv), gu, gv, uv, jmax):
                b = gv * y * y
                for x, b, uv, jmax, gu in _spread(1, _isqrt(b // gu), b, uv, jmax, gu):
                    a = gu * x * x
                    j0 = _isqrt((b - 1) // uv) + 1
                    for j, a, b, uv in _spread(j0, jmax - j0 + 1, a, b, uv):
                        yield a, b, uv * j * j


def _search_block(args) -> list[tuple[int, int, int]]:
    """Triads from part `part` of `parts` of the kernel triples."""
    part, parts, bound = args
    out: list[tuple[int, int, int]] = []
    for a, b, c in _candidates(_kernel_sieve(bound), part, parts):
        hit = np.flatnonzero(_is_square(a + b + c))
        ha, hb, hc = a[hit], b[hit], c[hit]
        keep = _is_square(ha * hb + hc * (ha + hb))
        out.extend(zip(ha[keep].tolist(), hb[keep].tolist(), hc[keep].tolist()))
    return out


def _start_part(args):
    """Start a worker process on _search_block(args); return it and the read end of its one-way pipe."""
    recv, send = multiprocessing.Pipe(duplex=False)
    worker = multiprocessing.Process(target=_send_part, args=(send, args))
    worker.start()
    send.close()
    return worker, recv


def _send_part(send, args):
    """In a worker: send back the triads of part args, or the exception that part raised."""
    try:
        send.send(_search_block(args))
    except Exception as exc:
        send.send(exc)


def search_triads(cfg: SearchConfig) -> list[tuple[Triad, SquareCertificate]]:
    """All triads a <= b <= c <= bound whose symmetric functions are squares.

    The kernel triples are dealt to parts = min(workers, CPUs) parts.  This
    process runs part 0, and a worker process runs each other part and pipes
    back its triads or its exception (RuntimeError if it dies silently).  On any
    error the workers are killed; all are joined before this returns.  Results
    are sorted and re-verified; with primitive_only, triads with a square common
    factor are dropped (their canonical form is enumerated on its own).
    """
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
            if isinstance(triads, Exception):
                raise triads
            raw += triads
        answered = True
    finally:
        for worker, _ in workers:
            if not answered:
                worker.kill()
            worker.join()
    raw.sort()
    results = []
    for a, b, c in raw:
        triad = Triad(a, b, c)
        # the one exact check of each float survivor, primitive or not
        cert = verify_triad(triad)
        if cert is None:
            raise VerificationError("float square prefilter passed a non-triad %s" % (triad,))
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
