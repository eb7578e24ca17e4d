import json
import math
import multiprocessing
import os
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
        # dealt after the squarefree test, the largest part holds 59.7 %,
        # 50.4 %, 37.4 % and 17.2 % of the candidates
        share = {(256, 2): 0.6, (5000, 2): 0.55, (5000, 3): 0.4, (10**5, 8): 0.18}[bound, parts]
        kernels = sr._kernel_sieve(bound)
        total = sum(a.size for a, _, _ in sr._candidates(kernels))
        sizes = [sum(a.size for a, _, _ in sr._candidates(kernels, part, parts)) for part in range(parts)]
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
    def test_sieve_matches_squarefree_decompose(self):
        kernels = sr._kernel_sieve(2000)
        assert kernels[0] == 0
        for n in range(1, 2001):
            kernel, _root = squarefree_decompose(n)
            assert kernels[n] == kernel

    @pytest.mark.parametrize(
        "n, batch", [(n, sr._CANDIDATE_BATCH) for n in range(1, 61)] + [(300, sr._CANDIDATE_BATCH), (300, 5)]
    )
    def test_candidates_are_the_square_product_triples(self, n, batch, monkeypatch):
        # every a <= b <= c <= n with abc square and each member a sum of two
        # squares, each once, before any square test; 5-element slices split
        # long ranges on every level between batches; dealt to 2 or 3 parts,
        # the parts together hold each once
        monkeypatch.setattr(sr, "_CANDIDATE_BATCH", batch)
        kernels = sr._kernel_sieve(n)
        expected = _two_squares_product_triples(n)
        for parts in (1, 2, 3):
            batches = [rows for part in range(parts) for rows in sr._candidates(kernels, part, parts)]
            assert all(a.size <= batch for a, _, _ in batches)
            got = [t for rows in batches for t in zip(*(x.tolist() for x in rows))]
            assert len(got) == len(set(got))
            assert set(got) == expected

    def test_the_deal_does_not_depend_on_the_batch(self, monkeypatch):
        # the i-th passing kernel triple goes to part i % parts, counted across slices
        kernels = sr._kernel_sieve(300)

        def dealt(parts):
            return [
                sorted(t for rows in sr._candidates(kernels, part, parts) for t in zip(*(x.tolist() for x in rows)))
                for part in range(parts)
            ]

        whole = {parts: dealt(parts) for parts in (2, 3)}
        monkeypatch.setattr(sr, "_CANDIDATE_BATCH", 5)
        assert {parts: dealt(parts) for parts in (2, 3)} == whole

    def test_two_squares_table(self):
        n = 2000
        table = sr._two_squares(n)
        assert set(np.flatnonzero(table).tolist()) == _sums_of_two_squares(n)
        kernels = sr._kernel_sieve(n)
        for m in range(1, n + 1):
            # any divisor = 3 (mod 4) has a prime factor = 3 (mod 4)
            if kernels[m] == m:
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
