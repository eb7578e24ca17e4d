import math
import random
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest

from squaretriads import exactnum as en
from squaretriads.errors import DomainError


@pytest.fixture(autouse=True)
def empty_prime_memory():
    """Each test starts from an empty memory of recently proved primes."""
    en._recent_primes.clear()
    yield
    en._recent_primes.clear()


def _count_rho(monkeypatch) -> list[int]:
    calls = []
    rho = en._brent_rho
    monkeypatch.setattr(en, "_brent_rho", lambda m: calls.append(m) or rho(m))
    return calls


def test_isqrt_examples():
    assert en.isqrt(0) == 0
    assert en.isqrt(289) == 17
    r = en.isqrt(518400)
    assert r == 720 and r * r == 518400


def test_isqrt_negative_rejected():
    with pytest.raises(DomainError):
        en.isqrt(-1)


def test_isqrt_bracketing_property():
    rng = random.Random(1)
    for _ in range(500):
        n = rng.randrange(0, 10**24)
        r = en.isqrt(n)
        assert r * r <= n < (r + 1) * (r + 1)


def test_is_perfect_square_examples():
    assert en.is_perfect_square(22500) == 150
    assert en.is_perfect_square(2880) is None  # isqrt is 53 and 53^2 != 2880
    assert en.is_perfect_square(1) == 1
    assert en.is_perfect_square(-4) is None


def test_is_perfect_square_of_squares():
    rng = random.Random(2)
    for _ in range(300):
        n = rng.randrange(-10**12, 10**12)
        assert en.is_perfect_square(n * n) == abs(n)


@pytest.mark.parametrize(
    "n,kernel,root",
    [(45, 5, 3), (64, 1, 8), (12, 3, 2), (1, 1, 1), (360, 10, 6)],
)
def test_squarefree_decompose(n, kernel, root):
    assert en.squarefree_decompose(n) == (kernel, root)
    assert kernel * root * root == n


def test_squarefree_decompose_against_factorize():
    for n in range(1, 10_000):
        kernel, root = en.squarefree_decompose(n)
        assert kernel * root * root == n
        for p, e in en.factorize(kernel).items():
            assert e == 1


@pytest.mark.parametrize(
    "n,factors",
    [(153, {3: 2, 17: 1}), (1, {}), (186624, {2: 8, 3: 6})],
)
def test_factorize_examples(n, factors):
    assert en.factorize(n) == factors


def test_factorize_large_deterministic():
    n = 3474741058973
    f1 = en.factorize(n)
    f2 = en.factorize(n)
    assert f1 == f2
    prod = 1
    for p, e in f1.items():
        assert en.is_prime(p)
        prod *= p**e
    assert prod == n


# Strong pseudoprimes to the first 12 and the first 13 prime bases (psi_12
# and psi_13), each the product of two primes.
PSI_12 = (318665857834031151167461, 399165290221, 798330580441)
PSI_13 = (3317044064679887385961981, 1287836182261, 2575672364521)


@pytest.mark.parametrize("n,p,q", [PSI_12, PSI_13])
def test_is_prime_rejects_strong_pseudoprimes_to_the_first_primes(n, p, q):
    assert n == p * q
    assert not en.is_prime(n)
    assert en.is_prime(p) and en.is_prime(q)


def test_is_prime_rejects_strong_lucas_pseudoprimes():
    for n in (5459, 5777, 10877, 16109, 18971):
        assert en._strong_lucas_probable_prime(n)
        assert not en.is_prime(n)


@pytest.mark.parametrize("k", [89, 107, 127])
def test_is_prime_accepts_mersenne_primes(k):
    assert en.is_prime(2**k - 1)


def test_is_prime_matches_sympy_above_2_to_60():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(11)
    for _ in range(400):
        n = rng.randrange(2**60, 2**140) | 1
        assert en.is_prime(n) == sympy.isprime(n), n
    for _ in range(100):
        p = sympy.nextprime(rng.randrange(2**60, 2**140))
        assert en.is_prime(p), p


def test_factorize_matches_sympy_on_prime_power_products():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(12)
    for _ in range(200):
        n = 1
        for _ in range(3):
            n *= sympy.nextprime(rng.randrange(10**4, 10**7)) ** rng.randint(1, 4)
        assert en.factorize(n) == sympy.factorint(n), n


P, Q = 5264258143, 955544304821  # the shape p^2 q comes from a certify request


@pytest.mark.parametrize(
    "n,factors,rho_calls",
    [
        (P**2 * Q, {P: 2, Q: 1}, 1),
        ((18612541 * P) ** 2, {18612541: 2, P: 2}, 1),
        (P**2, {P: 2}, 0),
    ],
)
def test_factorize_finds_each_large_prime_once(monkeypatch, n, factors, rho_calls):
    calls = _count_rho(monkeypatch)
    assert en.factorize(n) == factors
    assert len(calls) == rho_calls


def test_factorize_trial_cofactor_is_taken_as_prime(monkeypatch):
    """A cofactor below the square of the trial bound is prime, so is_prime is not asked."""
    monkeypatch.setattr(en, "is_prime", lambda n: pytest.fail("is_prime(%d) called" % n))
    assert en.factorize(2 * 99_999_989) == {2: 1, 99_999_989: 1}
    assert en.factorize(9973 * 9973) == {9973: 2}
    assert en.factorize(10_007) == {10_007: 1}


def test_factorize_matches_sympy_on_trial_block_edges():
    """Products of powers of the primes at the edges of the trial blocks and
    around the trial bound and its square."""
    sympy = pytest.importorskip("sympy")
    atoms = {2, 9973, 10_007, sympy.prevprime(10**8), sympy.nextprime(10**8)}
    for _, block in en._TRIAL_BLOCKS:
        atoms.update((block[0], block[-1]))
    atoms = sorted(atoms)
    assert {99_999_989, 100_000_007} <= set(atoms)
    rng = random.Random(13)
    products = [p**e for p in atoms for e in (1, 2, 3)]
    products += [10**8 + d for d in range(-50, 51)]
    # composite pieces just above the trial square, which is_prime must reject
    products += [10_007 * 10_009, 10_007 * 10_009 * 99_999_989, 10_007**2 * 10_009 * 100_000_007]
    for _ in range(600):
        n = 1
        for p in rng.sample(atoms, rng.randint(2, 6)):
            n *= p ** rng.randint(1, 3)
        products.append(n)
    for n in products:
        assert en.factorize(n) == sympy.factorint(n), n


def test_factorize_matches_sympy_up_to_20000():
    sympy = pytest.importorskip("sympy")
    for n in range(1, 20_001):
        assert en.factorize(n) == sympy.factorint(n), n


def test_factorize_proves_only_pieces_above_the_trial_square(monkeypatch):
    """Every piece of the stack divides the trial cofactor, so one below
    _TRIAL_BOUND^2 is prime; only larger pieces reach is_prime."""
    rng = random.Random(14)

    def prime_from(n):
        while not en.is_prime(n):
            n += 1
        return n

    square = en._TRIAL_BOUND**2
    asked = []
    is_prime = en.is_prime
    monkeypatch.setattr(en, "is_prime", lambda n: asked.append(n) or is_prime(n))
    for _ in range(40):
        small = [prime_from(rng.randrange(en._TRIAL_BOUND, square)) for _ in range(rng.randint(2, 3))]
        large = prime_from(rng.randrange(square, 10**12))
        n = large * math.prod(small)
        asked.clear()
        got = en.factorize(n)
        assert math.prod(p**e for p, e in got.items()) == n
        assert sorted(p for p, e in got.items() for _ in range(e)) == sorted(small + [large])
        assert large in asked and n in asked
        assert all(m >= square for m in asked), asked


def test_factorize_rejects_nonpositive():
    with pytest.raises(DomainError):
        en.factorize(0)


@pytest.mark.parametrize(
    "f",
    [en.factorize, en.is_prime, en.squarefree_decompose, en.isqrt, en.is_perfect_square, en.sum_of_two_squares],
)
@pytest.mark.parametrize("n", [12.0, 7.0, True, False, Fraction(12), "12", None, pytest.param(np.float64(12), id="np.float64(12)")])
def test_integer_functions_refuse_non_integers(f, n):
    # 12.0 factored as {2: 2, 3.0: 1}, 7.0 was prime and True factored as {};
    # is_perfect_square(True) was 1, and 12.0 or "12" raised TypeError
    with pytest.raises(DomainError):
        f(n)


def test_integer_functions_take_numpy_integers():
    np = pytest.importorskip("numpy")
    for t in (np.int64, np.uint32, np.int16):
        got = en.factorize(t(360))
        assert got == {2: 3, 3: 2, 5: 1} and all(type(p) is int for p in got)
        assert en.is_prime(t(7)) and not en.is_prime(t(9))
        assert en.squarefree_decompose(t(360)) == (10, 6)
        assert en.isqrt(t(50)) == 7 and type(en.isqrt(t(50))) is int
        assert en.is_perfect_square(t(49)) == 7 and en.is_perfect_square(t(50)) is None
        assert en.sum_of_two_squares(t(25)) == en.sum_of_two_squares(25)
    assert en.factorize(np.int64(2**61 - 1)) == {2**61 - 1: 1}


# Two members of one family triad in a certify request; the prime
# 18977384429 divides both.
FOUND_A = 909509377239181866686741846682540840000
FOUND_C = 1746536991837839353739890339997654974900


def test_factorize_remembers_a_shared_prime(monkeypatch):
    calls = _count_rho(monkeypatch)
    fa = en.factorize(FOUND_A)
    assert len(calls) == 1
    calls.clear()
    fc = en.factorize(FOUND_C)
    assert calls == []
    assert 18977384429 in fa and 18977384429 in fc
    for n, f in ((FOUND_A, fa), (FOUND_C, fc)):
        prod = 1
        for p, e in f.items():
            prod *= p**e
        assert prod == n and all(en.is_prime(p) for p in f)


def _shared_prime_products(seed: int, sympy, top: int = 10**9) -> tuple[list[int], list[int]]:
    """Products of three large prime powers, each sharing a prime with the next."""
    rng = random.Random(seed)
    primes = [sympy.nextprime(rng.randrange(10**5, top)) for _ in range(12)]
    products = []
    for i in range(len(primes) - 2):
        n = rng.randrange(1, 10**4)
        for p in primes[i : i + 3]:
            n *= p ** rng.randint(1, 3)
        products.append(n)
    return primes, products


@pytest.mark.parametrize("memory", ["empty", "holds the primes", "full of other primes"])
def test_factorize_with_prime_memory_matches_sympy(monkeypatch, memory):
    sympy = pytest.importorskip("sympy")
    primes, products = _shared_prime_products(21, sympy)
    if memory == "holds the primes":
        for p in primes:
            en.factorize(p)
    elif memory == "full of other primes":
        rng = random.Random(22)
        while len(en._recent_primes) < en._RECENT_PRIMES_BOUND:
            en.factorize(sympy.nextprime(rng.randrange(10**9, 10**12)))
    calls = _count_rho(monkeypatch)
    for n in products:
        assert en.factorize(n) == sympy.factorint(n), n
    if memory == "holds the primes":
        assert calls == []


def test_prime_memory_holds_recent_proved_primes_once():
    sympy = pytest.importorskip("sympy")
    proved = set()
    for seed in range(6):
        primes, products = _shared_prime_products(seed, sympy)
        proved.update(primes)
        for n in products + products:
            en.factorize(n)
            memory = list(en._recent_primes)
            assert len(memory) == len(set(memory)) <= en._RECENT_PRIMES_BOUND
            assert all(p > en._TRIAL_BOUND and en.is_prime(p) and p in proved for p in memory)
    assert len(en._recent_primes) == en._RECENT_PRIMES_BOUND
    # a factorization that stops before the stack loop remembers nothing
    en._recent_primes.clear()
    en.factorize(2 * 99_999_989)
    assert not en._recent_primes


def test_prime_memory_under_threads():
    sympy = pytest.importorskip("sympy")
    work = [_shared_prime_products(seed, sympy, 10**7)[1] for seed in range(4)]
    expected = [[sympy.factorint(n) for n in products] for products in work]
    got: list = [None] * len(work)

    def run(i):
        got[i] = [en.factorize(n) for n in work[i]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(work))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == expected
    memory = list(en._recent_primes)
    assert len(memory) == len(set(memory)) <= en._RECENT_PRIMES_BOUND


def test_sum_of_two_squares_examples():
    got = en.sum_of_two_squares(153)
    assert got is not None and got[0] ** 2 + got[1] ** 2 == 153 and 0 <= got[0] <= got[1]
    assert en.sum_of_two_squares(5) == (1, 2)
    assert en.sum_of_two_squares(21) is None


def test_sum_of_two_squares_matches_exhaustive_search():
    """Representability and witness validity agree with brute force up to 1e5."""
    limit = 100_000
    reachable = set()
    p = 0
    while 2 * p * p <= limit:
        q = p
        while p * p + q * q <= limit:
            reachable.add(p * p + q * q)
            q += 1
        p += 1
    for n in range(1, limit + 1):
        got = en.sum_of_two_squares(n)
        assert (got is not None) == (n in reachable), n
        if got is not None:
            assert got[0] ** 2 + got[1] ** 2 == n
            assert 0 <= got[0] <= got[1]


def test_two_squares_witness_type_validates():
    with pytest.raises(DomainError):
        en.TwoSquares(1, 1, 3)


@pytest.mark.parametrize(
    "alpha,beta,expected",
    [
        ((1, 2, 5), (1, 2, 5), (1, 0, 1)),
        ((1, 1, 2), (1, 2, 5), (Fraction(3, 5), Fraction(1, 5), Fraction(2, 5))),
        ((0, 3, 9), (0, 1, 1), (3, 0, 9)),
    ],
)
def test_ratio_two_squares_examples(alpha, beta, expected):
    got = en.ratio_two_squares(en.TwoSquares(*alpha), en.TwoSquares(*beta))
    assert (got.p, got.q, got.value) == tuple(map(Fraction, expected))


def test_ratio_two_squares_identity_fuzz():
    rng = random.Random(3)
    for _ in range(300):
        a1, a2 = Fraction(rng.randint(-9, 9), rng.randint(1, 9)), Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        b1, b2 = Fraction(rng.randint(-9, 9), rng.randint(1, 9)), Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if (a1 == 0 and a2 == 0) or (b1 == 0 and b2 == 0):
            continue
        alpha = en.TwoSquares(a1, a2, a1 * a1 + a2 * a2)
        beta = en.TwoSquares(b1, b2, b1 * b1 + b2 * b2)
        out = en.ratio_two_squares(alpha, beta)
        assert out.p**2 + out.q**2 == alpha.value / beta.value


def test_ratio_two_squares_rejects_zero():
    z = en.TwoSquares(0, 0, 0)
    good = en.TwoSquares(1, 0, 1)
    with pytest.raises(DomainError):
        en.ratio_two_squares(z, good)
    with pytest.raises(DomainError):
        en.ratio_two_squares(good, z)
