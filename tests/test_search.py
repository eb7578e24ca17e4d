import hashlib
import itertools
import json
import math
import multiprocessing
import os
import traceback
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from squaretriads import search as sr
from squaretriads.errors import DomainError, VerificationError
from squaretriads.exactnum import factorize, squarefree_decompose
from squaretriads.triads import Triad, verify_triad

EXPECTED_TRIADS = Path(__file__).resolve().parents[1] / "perfbench" / "expected_triads.json"


class _Answered:
    """Stands in for a finished worker process and the read end of its pipe."""

    exitcode = 0

    def __init__(self, triads):
        self.triads = triads

    def recv(self):
        return self.triads

    def kill(self):
        pass

    def join(self):
        pass


@pytest.fixture
def inline_pool(monkeypatch):
    """Stands in for the worker processes: records the parts handed to
    workers, in order, and runs each part here when its worker is started."""
    started = []

    def start_part(args):
        started.append(args)
        worker = _Answered(sr._search_block(args))
        return worker, worker

    monkeypatch.setattr(sr, "_start_part", start_part)
    return started


@pytest.fixture
def block_calls(monkeypatch):
    """Records the arguments of every _search_block call, pooled or not."""
    calls = []
    block = sr._search_block

    def recorded(args):
        calls.append(args)
        return block(args)

    monkeypatch.setattr(sr, "_search_block", recorded)
    return calls


_SEARCH_BLOCK = sr._search_block


def _fail_part_0(args):
    """_search_block, except that part 0 raises; module level, so a worker process can unpickle it."""
    if args[0] == 0:
        raise RuntimeError("part 0 failed")
    return _SEARCH_BLOCK(args)


def _fail_part_1(args):
    """_search_block, except that part 1 raises ValueError."""
    if args[0] == 1:
        raise ValueError("part 1 failed")
    return _SEARCH_BLOCK(args)


def _exit_part_1(args):
    """_search_block, except that part 1 ends its process with code 3 before it answers."""
    if args[0] == 1:
        os._exit(3)
    return _SEARCH_BLOCK(args)


def _sums_of_two_squares(n):
    """Brute force: every x**2 + y**2 <= n, by a direct search over x and y."""
    return {x * x + y * y for x in range(math.isqrt(n) + 1) for y in range(math.isqrt(n - x * x) + 1)}


def _two_squares_product_triples(n):
    """Brute force: every a <= b <= c <= n with abc a square and each of a, b, c a sum of two squares."""
    two = np.array(sorted(_sums_of_two_squares(n) - {0}))
    b, c = np.meshgrid(two, two, indexing="ij")
    out = set()
    for a in two.tolist():
        p = a * b * c
        hit = (np.rint(np.sqrt(p)).astype(np.int64) ** 2 == p) & (a <= b) & (b <= c)
        out.update((a, y, z) for y, z in zip(b[hit].tolist(), c[hit].tolist()))
    return out


def _is_square(n):
    return math.isqrt(n) ** 2 == n


def _triples(rows):
    """The (a, b, c) of a batch of candidate arrays, as tuples of ints."""
    return zip(*(x.tolist() for x in rows))


def _j_scan(nx, x1, j1, nj, gu, b):
    """Pure-integer oracle of _d_walk on one sublattice: every (a, b, j**2) of x = x1, x1 + 2, ... (nx values)
    and j = j1, j1 + 2, ... (nj values), with a = gu * x**2, that has a + b + j**2 a square, in order."""
    return [
        (gu * x * x, b, j * j)
        for x in range(x1, x1 + 2 * nx, 2)
        for j in range(j1, j1 + 2 * nj, 2)
        if _is_square(gu * x * x + b + j * j)
    ]


def _square_c_candidates(n):
    """Brute force: every (g*x**2, g*y**2, j**2), a <= b <= c <= n, with g squarefree and a sum of two
    squares, a parity pattern that the mod-8 oracle allows for u = v = 1 and a + b + c a square."""
    two = _sums_of_two_squares(n)
    out = set()
    for g in range(1, n + 1):
        if g not in two or any(g % (p * p) == 0 for p in range(2, math.isqrt(g) + 1)):
            continue
        for y in range(1, math.isqrt(n // g) + 1):
            for x in range(1, y + 1):
                for j in range(math.isqrt(g * y * y - 1) + 1, math.isqrt(n) + 1):
                    a, b, c = g * x * x, g * y * y, j * j
                    if _mod8_allows(g, 1, 1, x % 2, y % 2, j % 2) and _is_square(a + b + c):
                        out.add((a, b, c))
    return out


def _kernel_triple(triad):
    """(g, u, v, x, y, j) with triad = (g*u*x**2, g*v*y**2, u*v*j**2), for abc square, from squarefree_decompose."""
    (ka, x), (kb, y), (kc, j) = (squarefree_decompose(m) for m in triad)
    g = math.gcd(ka, kb)
    u, v = ka // g, kb // g
    assert u * v == kc, triad
    return g, u, v, x, y, j


def _legendre_rule_holds(triad):
    """Independent oracle of the search's rule: the kernel triple (g, u, v) of a
    triad with abc square has (g*v | p) = 1 for each odd p | u, (g*u | p) = 1 for
    p | v and (u*v | p) = 1 for p | g, by Euler's criterion on factorize."""
    g, u, v, _, _, _ = _kernel_triple(triad)
    for n, rest in ((u, g * v), (v, g * u), (g, u * v)):
        if any(pow(rest, (p - 1) // 2, p) != 1 for p in factorize(n) if p > 2):
            return False
    return True


def _two_adic_rule_holds(triad):
    """Independent oracle of the search's 2-adic rule, for a triad with abc square: the
    parities of (x, y, j) are a pattern that a 2-primitive triad of its kernel triple can have."""
    g, u, v, x, y, j = _kernel_triple(triad)
    return _mod8_allows(g, u, v, x % 2, y % 2, j % 2)


def _mod8_allows(g, u, v, x, y, j):
    """For parities x, y, j in {0, 1}, not all 0: whether some x, y, j (mod 4) with those parities
    make e1 = a + b + c and e2 = ab + bc + ca of (g*u*x**2, g*v*y**2, u*v*j**2) squares mod 8."""
    squares = {k * k % 8 for k in range(8)}
    for X, Y, J in itertools.product(range(x, 4, 2), range(y, 4, 2), range(j, 4, 2)):
        a, b, c = g * u * X * X, g * v * Y * Y, u * v * J * J
        if (a + b + c) % 8 in squares and (a * b + b * c + c * a) % 8 in squares:
            return bool(x or y or j)
    return False


# The 2-adic rule as first written by hand, from squares mod 4 and from which
# of g, u and v is even: row 2 * class + y % 2 holds the patterns
# 2 * (x % 2) + j % 2, and -1 for none; class 0 has g, u and v odd, class 1, 2
# or 3 has 2 | g, u or v.  The rule from squares mod 8 keeps a subset of it.
_HAND_PARITY = (
    (2, 1),  # g, u, v odd, y even: x odd or j odd, not both
    (0, -1),  # g, u, v odd, y odd: x and j even
    (1, -1),  # 2 | g, y even: x even, j odd
    (3, 2),  # 2 | g, y odd: x odd, j free
    (3, -1),  # 2 | u, y even: x and j odd
    (3, 0),  # 2 | u, y odd: x = j (mod 2)
    (2, -1),  # 2 | v, y even: x odd, j even
    (3, 1),  # 2 | v, y odd: j odd, x free
)

# (g, u, v) mod 8 of squarefree, pairwise coprime sums of two squares: each is
# 1 or 5 (mod 8), or 2 (mod 8) when even, and at most one is even
_CLASSES_MOD_8 = [k for k in itertools.product((1, 2, 5), repeat=3) if k.count(2) <= 1]


def _listed(g, u, v, y):
    """The patterns in the row of sr._PATTERNS for (g, u, v) mod 8 and y % 2."""
    return {p for p in sr._PATTERNS.tolist()[2 * (64 * (g % 8) + 8 * (u % 8) + v % 8) + y % 2] if p >= 0}


def _two_primitive_part(triad):
    """The triad divided by 4 for as long as 4 divides all three members."""
    a, b, c = triad
    while a % 4 == b % 4 == c % 4 == 0:
        a, b, c = a // 4, b // 4, c // 4
    return a, b, c


def _known_triads():
    """Triads from the naive oracle, the corpus, Table 1 and the benchmark's expected list."""
    found = [t.members() for t in sr.naive_search(400)]
    found += [tuple(sorted(t)) for t in sr.CORPUS_TRIADS]
    found += [tuple(sorted(row)) for _, _, row in sr.TABLE1_ROWS]
    found += [tuple(t) for t in json.loads(EXPECTED_TRIADS.read_text())]
    return sorted(set(found))


class TestSearch:
    def test_bound_200_membership(self):
        results = sr.search_triads(sr.SearchConfig(200))
        members = [t.members() for t, _ in results]
        assert (45, 64, 180) in members
        assert (72, 136, 153) in members

    def test_bound_64_empty_but_sound(self):
        results = sr.search_triads(sr.SearchConfig(64))
        for triad, cert in results:
            assert verify_triad(triad) == cert
        members = [t.members() for t, _ in results]
        for _, _, row in sr.TABLE1_ROWS:
            assert tuple(sorted(row)) not in members

    def test_pruned_equals_naive_at_300(self):
        pruned = [t.members() for t, _ in sr.search_triads(sr.SearchConfig(300))]
        naive = [t.members() for t in sr.naive_search(300)]
        assert pruned == naive

    def test_sorted_and_verified(self):
        results = sr.search_triads(sr.SearchConfig(600))
        members = [t.members() for t, _ in results]
        assert members == sorted(members)
        for triad, cert in results:
            assert verify_triad(triad) == cert

    def test_primitive_filter(self):
        full = [t.members() for t, _ in sr.search_triads(sr.SearchConfig(800))]
        prim = [t.members() for t, _ in sr.search_triads(sr.SearchConfig(800, primitive_only=True))]
        assert (180, 256, 720) in full  # 4 * (45, 64, 180)
        assert (180, 256, 720) not in prim
        assert set(prim) <= set(full)

    def test_worker_determinism(self):
        serial = [t.members() for t, _ in sr.search_triads(sr.SearchConfig(1500, workers=1))]
        parallel = [t.members() for t, _ in sr.search_triads(sr.SearchConfig(1500, workers=3))]
        assert serial == parallel

    def test_bad_config(self):
        with pytest.raises(DomainError):
            sr.SearchConfig(0)
        with pytest.raises(DomainError):
            sr.SearchConfig(10, workers=0)

    @pytest.mark.parametrize(
        "bound, workers",
        [(300.0, 1), (300, 2.0), ("300", 1), (300, "2"), (True, 1), (300, True)]
        + [(Fraction(300), 1), (None, 1), (300, False), (300, None)]
        + [pytest.param(np.float64(300), 1, id="np.float64(300)-1"), pytest.param(300, np.float64(2), id="300-np.float64(2)")],
    )
    def test_non_integer_config(self, bound, workers):
        with pytest.raises(DomainError):
            sr.SearchConfig(bound, workers=workers)

    def test_integer_types_are_converted_before_the_bound_check(self):
        # 3 * bound**2 wrapped in int64 or int32, so these were accepted;
        # the config is only built here, never searched
        for bound in (np.int64(2**31), np.int32(10**8)):
            with pytest.raises(DomainError):
                sr.SearchConfig(bound)
        cfg = sr.SearchConfig(np.int64(5000), workers=np.uint8(2))
        assert cfg == sr.SearchConfig(5000, workers=2)
        assert type(cfg.bound) is int and type(cfg.workers) is int

    @pytest.mark.parametrize("primitive_only", ["no", 1, None])
    def test_non_bool_primitive_only(self, primitive_only):
        with pytest.raises(DomainError):
            sr.SearchConfig(800, primitive_only=primitive_only)

    def test_float_prefilter_survivors_are_checked_exactly(self, monkeypatch):
        monkeypatch.setattr(sr, "_is_square", lambda x: np.ones(x.shape, dtype=bool))
        with pytest.raises(VerificationError, match="prefilter"):
            sr.search_triads(sr.SearchConfig(300))

    def test_multiples_of_4_are_added_once_and_verified(self, monkeypatch):
        # the parts find only 2-primitive triads; search_triads adds 4**e times
        # each, once, and every returned triad, multiple or not, went through
        # verify_triad
        checked = []

        def recorded(triad):
            checked.append(triad.members())
            return verify_triad(triad)

        monkeypatch.setattr(sr, "verify_triad", recorded)
        found = [t.members() for t, _ in sr.search_triads(sr.SearchConfig(3000))]
        assert len(found) == len(set(found))
        assert found == sorted(checked)
        primitive = sr._search_block((0, 1, 3000))
        assert len(primitive) < len(found)
        assert sorted(_two_primitive_part(t) for t in found) == sorted(
            p for p in primitive for e in range(8) if p[2] << 2 * e <= 3000
        )
        assert (180, 256, 720) in found and (180, 256, 720) not in primitive
        assert (720, 1024, 2880) in found

    def test_tiny_bounds(self):
        assert sr.search_triads(sr.SearchConfig(1)) == []
        assert sr.search_triads(sr.SearchConfig(2)) == []
        assert sr.naive_search(2) == []

    @settings(max_examples=8, deadline=None)
    @given(st.integers(min_value=1, max_value=400))
    def test_pruned_equals_naive_property(self, n):
        pruned = [t.members() for t, _ in sr.search_triads(sr.SearchConfig(n))]
        assert pruned == [t.members() for t in sr.naive_search(n)]

    def test_largest_exact_bound(self):
        # e2 <= 3 * bound**2 must stay below 2**53; no search is run here
        edge = math.isqrt((2**53 - 1) // 3)
        assert sr.SearchConfig(edge).bound == edge
        with pytest.raises(DomainError):
            sr.SearchConfig(edge + 1)

    def test_search_starts_clamped_pool(self, inline_pool, monkeypatch):
        # 3 parts: 2 workers; clamped to one part: no worker
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        serial = sr.search_triads(sr.SearchConfig(600))
        assert sr.search_triads(sr.SearchConfig(600, workers=64)) == serial
        assert inline_pool == [(1, 3, 600), (2, 3, 600)]
        for cpus in (1, None):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            assert sr.search_triads(sr.SearchConfig(600, workers=64)) == serial
            assert inline_pool == [(1, 3, 600), (2, 3, 600)]

    def test_caller_runs_part_0_and_the_pool_the_rest(self, inline_pool, block_calls, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        sr.search_triads(sr.SearchConfig(600, workers=3))
        assert inline_pool == [(1, 3, 600), (2, 3, 600)]
        assert [args for args in block_calls if args not in inline_pool] == [(0, 3, 600)]

    @pytest.mark.parametrize("cpus, workers", [(3, 1), (1, 3)])
    def test_one_part_starts_no_pool(self, cpus, workers, inline_pool, block_calls, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        sr.search_triads(sr.SearchConfig(600, workers=workers))
        assert inline_pool == []
        assert block_calls == [(0, 1, 600)]

    def test_failing_part_0_leaves_no_worker_running(self, monkeypatch):
        # a real forked worker: the error in this process propagates, and the
        # worker that ran part 1 is still joined
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(sr, "_search_block", _fail_part_0)
        assert multiprocessing.active_children() == []
        with pytest.raises(RuntimeError, match="part 0 failed"):
            sr.search_triads(sr.SearchConfig(600, workers=2))
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize(
        "block, error, message",
        [(_fail_part_1, ValueError, "part 1 failed"), (_exit_part_1, RuntimeError, "part 1 exited with code 3")],
        ids=["raises", "exits"],
    )
    def test_failing_worker_reaches_the_caller(self, block, error, message, monkeypatch):
        # real forked workers: an exception raised in part 1 keeps its type,
        # and a worker that dies without answering raises RuntimeError; the
        # fork start method carries the patched _search_block into the worker
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        monkeypatch.setattr(sr, "multiprocessing", multiprocessing.get_context("fork"))
        monkeypatch.setattr(sr, "_search_block", block)
        assert multiprocessing.active_children() == []
        with pytest.raises(error, match=message):
            sr.search_triads(sr.SearchConfig(600, workers=3))
        assert multiprocessing.active_children() == []

    def test_worker_traceback_reaches_the_caller(self, monkeypatch):
        # a real forked worker raises in part 1; the error the caller sees
        # carries that worker's traceback as its cause
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(sr, "multiprocessing", multiprocessing.get_context("fork"))
        monkeypatch.setattr(sr, "_search_block", _fail_part_1)
        with pytest.raises(ValueError, match="part 1 failed") as info:
            sr.search_triads(sr.SearchConfig(600, workers=2))
        assert "in _fail_part_1" in "".join(traceback.format_exception(info.type, info.value, info.tb))
        assert multiprocessing.active_children() == []

    def test_pooled_equals_serial_at_every_small_bound(self, inline_pool, monkeypatch):
        # with workers > 1 every bound starts workers, so tiny bounds give empty parts
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        for bound in range(1, 301):
            serial = sr.search_triads(sr.SearchConfig(bound))
            for workers in (2, 3):
                assert sr.search_triads(sr.SearchConfig(bound, workers=workers)) == serial
        assert inline_pool == [args for bound in range(1, 301) for args in [(1, 2, bound), (1, 3, bound), (2, 3, bound)]]

    @pytest.mark.parametrize("bound, parts", [(256, 2), (5000, 2), (5000, 3), (10**5, 8)])
    def test_parts_share_the_candidates_evenly(self, bound, parts):
        # dealt after the squarefree test, row i to part (i + i // parts) % parts,
        # the largest part holds 52.1 %, 50.4 %, 34.0 % and 12.6 % of the
        # candidates; the shift gives each part rows of both y parities, for
        # which the 2-adic rule keeps different numbers of patterns
        share = {(256, 2): 0.6, (5000, 2): 0.55, (5000, 3): 0.4, (10**5, 8): 0.18}[bound, parts]
        total = sum(a.size for a, _, _ in sr._candidates(bound))
        sizes = [sum(a.size for a, _, _ in sr._candidates(bound, part, parts)) for part in range(parts)]
        assert sum(sizes) == total and max(sizes) <= share * total

    @pytest.mark.parametrize("bound", [5000, 10_000])
    def test_expected_triads_serial_and_pooled(self, bound, inline_pool, monkeypatch):
        listed = [tuple(t) for t in json.loads(EXPECTED_TRIADS.read_text()) if t[2] <= bound]
        serial = sr.search_triads(sr.SearchConfig(bound))
        assert [t.members() for t, _ in serial] == listed
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert sr.search_triads(sr.SearchConfig(bound, workers=2)) == serial
        assert sr.search_triads(sr.SearchConfig(bound, workers=3)) == serial
        assert inline_pool == [(1, 2, bound), (1, 3, bound), (2, 3, bound)]


class TestKernel:
    def test_squarefree_mask_matches_squarefree_decompose(self):
        squarefree = sr._residue_tables(2000)[0]
        for n in range(1, 2001):
            kernel, _root = squarefree_decompose(n)
            assert squarefree[n] == (kernel == n), n

    @pytest.mark.parametrize(
        "n, batch", [(n, sr._CANDIDATE_BATCH) for n in range(1, 61)] + [(300, sr._CANDIDATE_BATCH), (300, 5)]
    )
    def test_candidates_are_the_square_product_triples(self, n, batch, monkeypatch):
        # every a <= b <= c <= n with abc square, each member a sum of two
        # squares, a kernel triple that meets the Legendre rule, a parity
        # pattern that the mod-8 oracle allows and, where c is a square (u*v = 1,
        # walked by d = f - j), a + b + c a square, each once; 5-element slices
        # split long ranges on every level between batches; dealt to 2 or 3
        # parts, the parts together hold each once
        monkeypatch.setattr(sr, "_CANDIDATE_BATCH", batch)
        expected = {
            t
            for t in _two_squares_product_triples(n)
            if _legendre_rule_holds(t) and _two_adic_rule_holds(t) and (not _is_square(t[2]) or _is_square(sum(t)))
        }
        for parts in (1, 2, 3):
            batches = [rows for part in range(parts) for rows in sr._candidates(n, part, parts)]
            assert all(a.size <= batch for a, _, _ in batches)
            got = [t for rows in batches for t in zip(*(x.tolist() for x in rows))]
            assert len(got) == len(set(got))
            assert set(got) == expected

    @pytest.mark.parametrize("batch", [None, 5])
    def test_d_walk_is_the_j_scan_with_square_sums(self, batch, monkeypatch):
        # each u*v = 1 sublattice that _candidates walks by d = f - j yields
        # exactly the (a, b, c) of a pure-integer j scan with a + b + c square,
        # row by row and as a whole; 5-element slices split rows between batches
        if batch is not None:
            monkeypatch.setattr(sr, "_CANDIDATE_BATCH", batch)
        walk, calls = sr._d_walk, []

        def recorded(*cols):
            calls.append(cols)
            return walk(*cols)

        monkeypatch.setattr(sr, "_d_walk", recorded)
        for bound in [*range(1, 61), 2000]:
            calls.clear()
            square_c = sorted(t for rows in sr._candidates(bound) for t in _triples(rows) if _is_square(t[2]))
            rows = [row for cols in calls for row in zip(*(col.tolist() for col in cols))]
            assert square_c == sorted(t for row in rows for t in _j_scan(*row)), bound
            for row in rows:
                assert sorted(t for out in walk(*(np.array([v]) for v in row)) for t in _triples(out)) == _j_scan(*row)
        # the walk gets 498 sublattices at 2000
        assert len(rows) > 450

    def test_no_walked_sublattice_has_2_dividing_g_and_y_and_j_odd(self, monkeypatch):
        # where 2 | g, u = v = 1 and y is odd, x is odd too and n = a + b = 4
        # (mod 8), so f**2 = n + j**2 leaves j even: the 2-adic rule gives no
        # walked sublattice there an odd j1, the j-even ones are still walked,
        # and the square-c candidates are those of a brute force
        walk, calls = sr._d_walk, []

        def recorded(*cols):
            calls.append(cols)
            return walk(*cols)

        monkeypatch.setattr(sr, "_d_walk", recorded)
        for bound in [*range(1, 61), 2000]:
            calls.clear()
            got = sorted(t for rows in sr._candidates(bound) for t in _triples(rows))
            # (nx, x1, j1, nj, gu, b) with u = v = 1, so gu = g and b = g*y**2
            rows = [row for cols in calls for row in zip(*(col.tolist() for col in cols))]
            class_rows = [row for row in rows if row[4] % 2 == 0 and row[5] // row[4] % 2 == 1]
            assert all(j1 % 2 == 0 for _, _, j1, _, _, _ in class_rows), bound
            assert [t for t in got if _is_square(t[2])] == sorted(_square_c_candidates(bound)), bound
        assert len(class_rows) > 50
        # the candidate set at 2000
        digest = hashlib.sha256(json.dumps(got).encode()).hexdigest()
        assert (len(got), digest) == (18395, "45f5da5f5a119c224eb0a8090f5e8e0a9ac894a652be17a07fa6de3df1828824")

    def test_d_walk_yields_nothing_where_n_is_2_mod_4(self):
        # n = a + b = x**2 + 9 = 2 (mod 4) for odd x: no d has d = n/d (mod 2)
        for j1 in (1, 2):
            row = (20, 1, j1, 200, 1, 9)
            assert _j_scan(*row) == []
            assert [a.size for a, _, _ in sr._d_walk(*(np.array([v]) for v in row))] == [0]

    def test_the_deal_does_not_depend_on_the_batch(self, monkeypatch):
        # the i-th (g, u, v, y) row goes to part (i + i // parts) % parts, counted across slices

        def dealt(parts):
            return [
                sorted(t for rows in sr._candidates(300, part, parts) for t in zip(*(x.tolist() for x in rows)))
                for part in range(parts)
            ]

        whole = {parts: dealt(parts) for parts in (2, 3)}
        monkeypatch.setattr(sr, "_CANDIDATE_BATCH", 5)
        assert {parts: dealt(parts) for parts in (2, 3)} == whole

    def test_known_triads_meet_the_legendre_rule(self):
        # the fact the rule rests on, checked apart from the search
        triads = _known_triads()
        assert (252782198228, 1633780814400, 3474741058973) in triads
        for triad in triads:
            assert _legendre_rule_holds(triad), triad

    def test_known_triads_meet_the_two_adic_rule(self):
        # the fact the 2-adic rule rests on, checked apart from the search: with
        # 4**e stripped, each triad is a triad with a parity pattern that the
        # mod-8 oracle allows and the table lists
        triads = _known_triads()
        assert (252782198228, 1633780814400, 3474741058973) in triads
        for triad in triads:
            primitive = _two_primitive_part(triad)
            assert verify_triad(Triad(*primitive)) is not None, triad
            assert _two_adic_rule_holds(primitive), triad
            g, u, v, x, y, j = _kernel_triple(primitive)
            assert 2 * (x % 2) + j % 2 in _listed(g, u, v, y), triad

    def test_two_adic_table_is_the_mod_8_rule(self):
        # each (class, y parity) row of _PATTERNS lists exactly the (x, j)
        # parities the mod-8 oracle allows, and the rows of no class are empty
        assert len(_CLASSES_MOD_8) == 20
        for g, u, v in itertools.product(range(8), repeat=3):
            for y in (0, 1):
                allowed = {2 * x + j for x in (0, 1) for j in (0, 1) if _mod8_allows(g, u, v, x, y, j)}
                assert _listed(g, u, v, y) == (allowed if (g, u, v) in _CLASSES_MOD_8 else set()), (g, u, v, y)

    def test_two_adic_table_refines_the_hand_table(self):
        # the hand table is the same on the classes with g, u and v odd; each
        # class with an even member drops one of its three patterns, and no
        # class gains one
        for g, u, v in _CLASSES_MOD_8:
            cls = next((k for k, m in enumerate((g, u, v), 1) if m % 2 == 0), 0)
            hand = [{p for p in _HAND_PARITY[2 * cls + y] if p >= 0} for y in (0, 1)]
            listed = [_listed(g, u, v, y) for y in (0, 1)]
            assert all(lo <= hi for lo, hi in zip(listed, hand)), (g, u, v)
            assert sum(map(len, hand)) - sum(map(len, listed)) == (1 if cls else 0), (g, u, v)

    def test_residue_table_is_euler_criterion(self):
        n = 2000
        _, spf, primes, start, residue = sr._residue_tables(n)
        assert spf[2:].tolist() == [min(factorize(m)) for m in range(2, n + 1)]
        assert primes.tolist() == [p for p in range(5, n + 1, 4) if factorize(p) == {p: 1}]
        assert residue.size == sum(n // p + 1 for p in primes.tolist())
        for rank, p in enumerate(primes.tolist()):
            got = residue[start[rank] : start[rank] + n // p + 1].tolist()
            assert got == [pow(s, (p - 1) // 2, p) == 1 for s in range(n // p + 1)], p

    def test_square_table(self):
        n = 3 * 2000
        assert sr._squares(n).tolist() == [_is_square(m) for m in range(n + 1)]

    def test_square_table_fits_in_the_spf_sieve(self):
        # _search_block looks up e1 = a + b + c <= 3 * bound
        assert sr._squares(3 * 10**5).nbytes <= sr._residue_tables(10**5)[1].nbytes

    def test_residue_tables_fit_in_the_spf_sieve(self):
        tables = sr._residue_tables(10**5)
        assert all(table.nbytes <= tables[1].nbytes for table in tables)

    def test_no_runtime_warning_at_small_bounds(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for bound in range(1, 301):
                for part in range(2):
                    for _ in sr._candidates(bound, part, 2):
                        pass

    def test_two_squares_table(self):
        n = 2000
        table = sr._two_squares(n)
        assert set(np.flatnonzero(table).tolist()) == _sums_of_two_squares(n)
        squarefree = sr._residue_tables(n)[0]
        for m in range(1, n + 1):
            # any divisor = 3 (mod 4) has a prime factor = 3 (mod 4)
            if squarefree[m]:
                assert table[m] == all(m % p for p in range(3, m + 1, 4)), m

    def test_triad_members_are_sums_of_two_squares(self):
        # the fact the candidate mask rests on, checked apart from the search
        triads = _known_triads()
        assert (252782198228, 1633780814400, 3474741058973) in triads
        for triad in triads:
            cert = verify_triad(Triad(*triad))
            assert cert is not None, triad
            for a in triad:
                assert a * (a * a + cert.g**2) == (a * cert.f) ** 2 + cert.h**2
                assert all(e % 2 == 0 for p, e in factorize(a).items() if p % 4 == 3), (triad, a)

    def test_float_square_tests_exact_below_2_53(self):
        top = math.isqrt(2**53 - 1)
        roots = [0, 1, 2, 3, 1000, 2**26 - 1, 2**26, top - 1, top]
        xs = sorted({x for r in roots for x in (r * r - 1, r * r, r * r + 1) if 0 <= x < 2**53})
        arr = np.array(xs, dtype=np.int64)
        assert sr._isqrt(arr).tolist() == [math.isqrt(x) for x in xs]
        assert sr._is_square(arr).tolist() == [math.isqrt(x) ** 2 == x for x in xs]


class TestTable1:
    def test_all_rows_match(self):
        report = sr.reproduce_table1()
        assert report.ok
        assert len(report.rows) == 21
        for name, params, want, got, match in report.rows:
            assert match, (name, params, want, got)

    def test_runtime_under_a_second(self):
        report = sr.reproduce_table1()
        assert report.elapsed < 1.0


class TestCorpus:
    def test_historical_triads_certify(self):
        report = sr.verify_corpus()
        assert report.ok
        certified = {members for members, cert in report.entries if cert is not None}
        assert (252782198228, 1633780814400, 3474741058973) in certified
        assert (81, 784, 186624) in certified
        assert (80, 225, 320) in certified

    def test_runtime_under_a_second(self):
        report = sr.verify_corpus()
        assert report.elapsed < 1.0

    def test_thirteen_digit_certificate_values(self):
        cert = verify_triad(Triad(252782198228, 1633780814400, 3474741058973))
        assert cert is not None
        e1 = 252782198228 + 1633780814400 + 3474741058973
        assert cert.f**2 == e1
