"""Exact multivariate polynomials and rational functions over the rationals.

Coefficients are ints or Fractions (ints whenever the denominator is 1, so
integer-only pipelines run on plain int arithmetic).  Terms live in a dict
keyed by exponent tuples; the monomial order is graded lexicographic with
the variable priority fixed once, globally, so rendered output and leading
coefficients are deterministic across runs.

Arithmetic runs on one image of each polynomial: a coefficient list in
one variable plus a monomial offset, made by Kronecker substitution, where
a form in two variables first drops its first variable (its degree fixes
that exponent).  Square roots and exact quotients are solved top-down on
these lists.  Every product, including the ones that check a root or a
quotient, goes through one kernel: it adds shifted copies of one list when
the other has at most four terms, and otherwise packs each integer list
into a single int and lets CPython multiply the ints.  gcd runs Brown's
modular algorithm instead, on the image only when it has one variable,
since a gcd does not commute with the substitution.

RatFunc is always kept in canonical form: numerator and denominator are
integer-coefficient polynomials with no common polynomial factor, coprime
integer contents, and a positive leading denominator coefficient.  Since
operands are canonical, arithmetic reduces its results without a gcd of
whole products (Henrici, 1956): a product only cancels the two cross gcds,
and a sum with denominator gcd g only needs gcd(numerator, g).
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import accumulate, islice, repeat
from operator import getitem, mul
from typing import Iterable, Mapping, Union

from .errors import DomainError, ImageTooLargeError, PoleError, VerificationError
from .exactnum import _exact_scalar, _integer, is_perfect_square, is_prime, sqrt_fraction

__all__ = [
    "VAR_ORDER",
    "Poly",
    "RatFunc",
    "var",
    "const",
    "poly_divide_exact",
    "poly_sqrt",
    "poly_gcd",
    "substitute",
    "evaluate",
    "exact_sqrt",
    "squarefree_decomposition",
    "largest_square_root_divisor",
]

# Global variable priority; earlier = higher rank in the lexicographic tie-break.
VAR_ORDER = ("x", "u", "v", "U", "V", "X", "Y", "f", "g", "h", "p", "q", "m", "n", "r", "s", "t", "k")
_VAR_RANK = {name: i for i, name in enumerate(VAR_ORDER)}

Coeff = Union[int, Fraction]
Scalar = Union[int, Fraction]

# Scalar operands of Poly and RatFunc arithmetic follow exactnum's rule.
_OPERAND = "polynomial arithmetic needs an exact scalar operand, not %r"


def _canon_coeff(c: Coeff) -> Coeff:
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


def _var_key(name: str):
    # Known symbols sort by their fixed rank; anything else after them, by name.
    rank = _VAR_RANK.get(name)
    return (0, rank) if rank is not None else (1, name)


class Poly:
    """Immutable multivariate polynomial with exact rational coefficients."""

    __slots__ = ("vars", "terms", "_image")

    def __init__(self, vars: tuple[str, ...], terms: dict[tuple[int, ...], Coeff], image=None):
        # Internal constructor: callers must pass vars sorted by _var_key and
        # terms free of zero coefficients.  Use var()/const() and arithmetic.
        # image is None or the one-variable image (low, L) of the polynomial
        # in its own vars; _to_list fills it when it is first asked for.
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_image", image)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("Poly is immutable")

    def __reduce__(self):
        # pickle and copy rebuild from the canonical data, not through the
        # __setattr__ above; the kept image is rebuilt on first use
        return Poly, (self.vars, self.terms)

    # -- construction -------------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return _ZERO

    @staticmethod
    def one() -> "Poly":
        return _ONE

    @staticmethod
    def const(c: Scalar) -> "Poly":
        c = _canon_coeff(_exact_scalar(c))
        if c == 0:
            return _ZERO
        return Poly((), {(): c})

    @staticmethod
    def variable(name: str) -> "Poly":
        # render writes the name as it is, so it must read back as one
        if not isinstance(name, str) or not name.isidentifier():
            raise DomainError("a variable name is a non-empty identifier string, not %r" % (name,))
        return Poly((name,), {(1,): 1})

    @staticmethod
    def _make(vars: tuple[str, ...], terms: dict[tuple[int, ...], Coeff]) -> "Poly":
        """Normalize: drop zeros, canonicalize coefficients, prune unused vars."""
        clean = {}
        for e, c in terms.items():
            c = _canon_coeff(c)
            if c != 0:
                clean[e] = c
        if not clean:
            return _ZERO
        if vars:
            used = [i for i in range(len(vars)) if any(e[i] for e in clean)]
            if len(used) != len(vars):
                vars = tuple(vars[i] for i in used)
                clean = {tuple(e[i] for i in used): c for e, c in clean.items()}
        return Poly(vars, clean)

    # -- basic queries -------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_const(self) -> bool:
        return not self.vars

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, name: str) -> int:
        if name not in self.vars:
            return 0 if self.terms else -1
        i = self.vars.index(name)
        return max((e[i] for e in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        # a kept image in two variables is that of a form
        if self._image is not None and len(self.vars) == 2:
            return True
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def leading(self) -> tuple[tuple[int, ...], Coeff]:
        """Leading (exponents, coefficient) in graded-lex order."""
        if not self.terms:
            raise DomainError("zero polynomial has no leading term")
        e = max(self.terms, key=lambda e: (sum(e), e))
        return e, self.terms[e]

    def leading_coeff(self) -> Coeff:
        return self.leading()[1] if self.terms else 0

    def rational_content(self) -> Fraction:
        """Positive c with self/c integer-coefficient and content 1 (0 for zero)."""
        return _rational_content(self.terms.values())

    # -- alignment helpers ----------------------------------------------------

    def _aligned_with(self, other: "Poly"):
        if self.vars == other.vars:
            return self.vars, self.terms, other.terms
        merged = _union_vars(self, other)
        return merged, _embed(self, merged), _embed(other, merged)

    # -- arithmetic -----------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.vars == other.vars and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return not self.terms
            return not self.vars and self.terms.get((), 0) == other
        if isinstance(other, RatFunc):
            return other == self
        return NotImplemented

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def __neg__(self) -> "Poly":
        return Poly(self.vars, {e: -c for e, c in self.terms.items()})

    def __add__(self, other):
        if not isinstance(other, Poly):
            if isinstance(other, RatFunc):
                return other + self
            other = Poly.const(other)
        vars, t1, t2 = self._aligned_with(other)
        out = dict(t1)
        for e, c in t2.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return Poly._make(vars, out)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, (Poly, RatFunc)):
            other = _exact_scalar(other, _OPERAND)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is not int and not isinstance(other, Poly):
            if isinstance(other, RatFunc):
                return other * self
            other = _canon_coeff(_exact_scalar(other, _OPERAND))
        if type(other) is not Poly:
            if other == 0:
                return _ZERO
            if other == 1:
                return self
            if type(other) is int:
                return Poly(self.vars, {e: _canon_coeff(c * other) for e, c in self.terms.items()})
            # c * n / d on an int c in ints, with a Fraction only where d does not divide c * n
            n, d = other.numerator, other.denominator
            terms = {}
            for e, c in self.terms.items():
                if type(c) is int:
                    q, r = divmod(c * n, d)
                    terms[e] = Fraction(c * n, d) if r else q
                else:
                    terms[e] = _canon_coeff(c * other)
            return Poly(self.vars, terms)
        if self.is_zero or other.is_zero:
            return _ZERO
        if self.is_const:
            return other * self.terms[()]
        if other.is_const:
            return self * other.terms[()]
        ia, ib = self._image, other._image
        if ia is not None and ib is not None and self.vars == other.vars:
            # one variable, or forms in the same two variables
            d = _form_degree(self) + _form_degree(other) if len(self.vars) == 2 else None
            return _from_list(self.vars, None, d, ia[0] + ib[0], _list_mul(ia[1], ib[1]))
        vars, radix, hom = _list_map((self, other), (self, other))
        la, A = _to_list(self, vars, radix, hom)
        lb, B = (la, A) if other is self else _to_list(other, vars, radix, hom)
        d = _form_degree(self) + _form_degree(other) if hom else None
        return _from_list(vars, radix, d, la + lb, _list_mul(A, B))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        n = _integer(n, "Poly powers require a nonnegative integer exponent, not %r", 0)
        result = _ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base  # one operand twice: the kernel squares
        return result

    def __truediv__(self, other):
        if isinstance(other, Poly):
            return RatFunc(self, other)
        if isinstance(other, RatFunc):
            return RatFunc(self, _ONE) / other
        other = _exact_scalar(other, _OPERAND)
        if other == 0:
            raise ZeroDivisionError("division of polynomial by zero scalar")
        return self * (Fraction(1) / Fraction(other))

    def __rtruediv__(self, other):
        return RatFunc(Poly.const(other), self)

    # -- calculus / structure ---------------------------------------------------

    def derivative(self, name: str) -> "Poly":
        if name not in self.vars:
            return _ZERO
        i = self.vars.index(name)
        out = {}
        for e, c in self.terms.items():
            if e[i]:
                e2 = e[:i] + (e[i] - 1,) + e[i + 1 :]
                out[e2] = out.get(e2, 0) + c * e[i]
        return Poly._make(self.vars, out)

    def as_univariate(self, name: str) -> list["Poly"]:
        """Coefficient list [c0, c1, ...] of self viewed in Q[rest][name]."""
        if name not in self.vars:
            return [self]
        i = self.vars.index(name)
        rest = self.vars[:i] + self.vars[i + 1 :]
        deg = max(e[i] for e in self.terms)
        buckets: list[dict] = [dict() for _ in range(deg + 1)]
        for e, c in self.terms.items():
            buckets[e[i]][e[:i] + e[i + 1 :]] = c
        return [Poly._make(rest, b) for b in buckets]

    # -- rendering ----------------------------------------------------------------

    def render(self) -> str:
        """Canonical text form, terms in descending graded-lex order."""
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=lambda e: (sum(e), e), reverse=True):
            c = self.terms[e]
            mono = "*".join(
                v if k == 1 else "%s^%d" % (v, k) for v, k in zip(self.vars, e) if k
            )
            if not mono:
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = "%s*%s" % (abs(c), mono)
            parts.append(("- " if c < 0 else "+ ") + body)
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return "Poly(%s)" % self.render()

    # -- evaluation / substitution -------------------------------------------------

    def evaluate(self, point: Mapping[str, Scalar]) -> Fraction:
        return evaluate(self, point)

    def substitute(self, bindings: Mapping[str, object]):
        return substitute(self, bindings)


def _require_poly(name: str, *ps) -> None:
    """Refuse any argument that is not a Poly with DomainError; the entry
    points that take polynomials only would otherwise fail on a missing
    attribute of a scalar or a RatFunc."""
    for p in ps:
        if not isinstance(p, Poly):
            raise DomainError("%s expects Poly arguments, not %s" % (name, type(p).__name__))


def _union_vars(*ps: Poly) -> tuple[str, ...]:
    """The variables of ps together, in the global order."""
    vars = ps[0].vars
    if all(p.vars == vars for p in ps):
        return vars
    return tuple(sorted(set().union(*(p.vars for p in ps)), key=_var_key))


def _embed(p: Poly, vars: tuple[str, ...]) -> dict:
    if p.vars == vars:
        return p.terms
    pos = [vars.index(v) for v in p.vars]
    n = len(vars)
    out = {}
    for e, c in p.terms.items():
        e2 = [0] * n
        for j, exp in zip(pos, e):
            e2[j] = exp
        out[tuple(e2)] = c
    return out


def _rational_content(coeffs: Iterable[Coeff]) -> Fraction:
    """Positive c with every coefficient / c an integer, coprime together (0 if none)."""
    num_gcd = 0
    den_lcm = 1
    for c in coeffs:
        if isinstance(c, int):
            num_gcd = math.gcd(num_gcd, c)
        else:
            num_gcd = math.gcd(num_gcd, c.numerator)
            den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
    return Fraction(num_gcd, den_lcm)


_ZERO = Poly((), {})
_ONE = Poly((), {(): 1})


def var(name: str) -> Poly:
    """The polynomial consisting of the single variable `name`."""
    return Poly.variable(name)


def const(c: Scalar) -> Poly:
    return Poly.const(c)


# ---------------------------------------------------------------------------
# Coefficient-list images and the packed-integer kernel
#
# Products, square roots, exact quotients and the one-variable gcd work on
# one image of each polynomial, a coefficient list in one variable z:
#
#     image(p) = z^low * sum_i L[i] z^i,   L[0], L[-1] != 0.
#
# The image is the Kronecker substitution x_i -> z^(w_i), w_i = D_0 * ...
# * D_(i-1), which is injective on exponents e_i < D_i.  A form in two
# variables (v1, v2) keeps only v2, since its total degree d fixes the
# exponent of v1; one variable, or such a form, gives a one-variable image
# that is the polynomial itself.  Other images can divide, or be squares,
# when the polynomials are not, so a quotient or a root found on them must
# multiply back.  When the shorter of two lists has at most _SHORT_TERMS
# (4) nonzero entries, as a monomial or m^2 + 1 has, _list_mul adds that
# many shifted, scaled copies of the longer list (_shifted_sum); it
# multiplies any other two lists as two packed ints (Fateman 2005; Harvey,
# J. Symb. Comput. 44, 2009).  gcd does not commute with the substitution,
# so only one-variable images reach the list gcd.  An image in several
# variables has prod D_i slots however sparse the polynomials are, so above
# _MAX_IMAGE_SLOTS it is refused before anything is allocated.
#
# A one-variable image that is the polynomial itself is kept in the Poly
# (its _image slot): _to_list builds it once, _from_list keeps the list a
# kernel returned, and __mul__ multiplies two kept images in the same
# variables directly.  terms stays the canonical data.  A kept list is
# shared by every later caller, so the list kernels (_list_mul,
# _shifted_sum, _dense_divexact, _dense_sqrt, _gcd_list, _halve,
# _clear_denominators) only read their input lists and build their results
# afresh.
#
# Most of the generator's polynomials are even in m, so their lists have
# zeros in every odd slot.  The list kernels then run on the halved list
# L[::2] and spread the result back: z -> z^2 commutes with products, exact
# quotients and gcds (Q[z] is free over Q[z^2]).  A square root is halved
# only when L[0] != 0, which gives its root r(0) != 0 and so r(-z) = r(z);
# z^2 (1 + z^2)^2 has the odd root z + z^3.  Strides 4, 8, ... fold too.
# ---------------------------------------------------------------------------

# The largest such image the test suite builds has 9025 slots (a seeded
# sympy comparison in (m, s, t)); the largest in a generator run, in the
# symbolic (U, V) round trip, has 532 (the (X, Y) trip's has 315).  2^18
# leaves a margin of about 30x over these, and a product at the limit still
# takes about 0.15 s and 15 MB, where squaring s^60 t^60 m^60 + s + 1
# (121^3 = 1.8 M slots) took 1.5 s and 186 MB.
_MAX_IMAGE_SLOTS = 1 << 18

# A product by a list with at most this many nonzero entries is a shifted
# sum, not a packed product.  In-process CPU time on a 2-CPU x86-64 VM,
# medians of 25 shuffled rounds: one perfbench generate op took 68.6 ms with
# every product packed, and 65.0, 62.7, 61.5 and 62.7 ms with 1, 2, 4 and 8;
# generate_family(16) took 392, 389, 393, 389 and 393 ms.
_SHORT_TERMS = 4


def _list_map(ps: tuple[Poly, ...], sized: tuple[Poly, ...]):
    """(vars, radix, hom) of the image that ps share (see above).

    vars are the variables of ps together; hom is true when ps are forms in
    two variables, whose first variable leaves the image.  radix is None
    for a one-variable image, which is the polynomial itself; otherwise
    D_i = 1 + the sum of the degrees in vars[i] of the polynomials in
    sized, and more than _MAX_IMAGE_SLOTS slots raise ImageTooLargeError.
    """
    vars = _union_vars(*ps)
    hom = len(vars) == 2 and all(p.is_homogeneous() for p in ps)
    if hom or len(vars) == 1:
        return vars, None, hom
    radix = [1 + sum(p.degree_in(v) for p in sized) for v in vars]
    if math.prod(radix) > _MAX_IMAGE_SLOTS:
        raise ImageTooLargeError(
            "polynomial image needs %d slots, above the limit of %d" % (math.prod(radix), _MAX_IMAGE_SLOTS)
        )
    return vars, radix, hom


def _form_degree(p: Poly) -> int:
    """The total degree of a nonzero form."""
    return sum(next(iter(p.terms)))


def _list_degrees(p: Poly, low: int, L: list[Coeff], hom: bool) -> tuple[int, ...]:
    """p's degree in each variable of its one-variable image z^low * sum L[i] z^i."""
    top = low + len(L) - 1
    return (_form_degree(p) - low, top) if hom else (top,)


def _to_list(p: Poly, vars: tuple[str, ...], radix: list[int] | None, hom: bool) -> tuple[int, list[Coeff]]:
    """(low, L) with image(p) = z^low * sum L[i] z^i, for nonzero p (see above).

    A one-variable image in p's own variables is p itself: it is kept in p
    the first time and returned from there afterwards.
    """
    own = radix is None and vars == p.vars
    if own and p._image is not None:
        return p._image
    terms = _embed(p, vars)
    if hom or len(vars) == 1:
        keys = [e[-1] for e in terms]
    else:
        weights = list(accumulate(radix[:-1], mul, initial=1))
        keys = [sum(map(mul, e, weights)) for e in terms]
    low = min(keys)
    L: list[Coeff] = [0] * (max(keys) - low + 1)
    for k, c in zip(keys, terms.values()):
        L[k - low] = c
    if own:
        object.__setattr__(p, "_image", (low, L))
    return low, L


def _from_list(vars: tuple[str, ...], radix: list[int] | None, d: int | None, low: int, L: list[Coeff]) -> Poly:
    """The polynomial whose image is z^low * sum L[i] z^i.

    d is its total degree when it is a form whose first variable left the
    image, else None; otherwise the exponents are the mixed-radix digits of
    the image's exponents.  L's entries are canonical (ints where they are
    integers).  A one-variable image whose end entries are nonzero and
    whose exponents show every variable used is kept in the result, and L
    with it, so L must not change afterwards.
    """
    if d is not None:
        terms = {(d - k, k): c for k, c in enumerate(L, low) if c}
        used = d > low and low + len(L) > 1
    elif len(vars) == 1:
        terms = {(k,): c for k, c in enumerate(L, low) if c}
        used = low + len(L) > 1
    else:
        weights = list(accumulate(radix[:-1], mul, initial=1))
        terms = {tuple(k // w % r for w, r in zip(weights, radix)): c for k, c in enumerate(L, low) if c}
        used = False
    if used and L[0] and L[-1]:
        return Poly(vars, terms, (low, L))
    return Poly._make(vars, terms)


def _half_slots(w: int, n: int) -> int:
    """sum of 2^(8w - 1) * 2^(8wi) over the n slots of w bytes."""
    return int.from_bytes((bytes(w - 1) + b"\x80") * n, "little")


def _pack(L: list[int], w: int) -> int:
    """sum of L[i] * 2^(8wi), for |L[i]| < 2^(8w - 1)."""
    half = 1 << (8 * w - 1)
    X = int.from_bytes(b"".join((c + half).to_bytes(w, "little") for c in L), "little")
    return X - _half_slots(w, len(L))


def _unpack(X: int, w: int, n: int) -> list[int]:
    """The n balanced digits c_i in [-2^(8w - 1), 2^(8w - 1)) of X = sum c_i 2^(8wi)."""
    half = 1 << (8 * w - 1)
    data = (X + _half_slots(w, n)).to_bytes(n * w, "little")
    return [int.from_bytes(data[i : i + w], "little") - half for i in range(0, n * w, w)]


def _clear_denominators(L: list[Coeff]) -> tuple[list[int], int]:
    """(L * d, d) with d the least positive int making L * d integral."""
    if all(type(c) is int for c in L):
        return L, 1  # type: ignore[return-value]
    d = math.lcm(*(c.denominator for c in L))
    return [c.numerator * (d // c.denominator) for c in L], d


def _halve(L: list[Coeff]) -> list[Coeff] | None:
    """L[::2] when L has an odd length above 2 and zeros in all odd slots, else None."""
    return L[::2] if len(L) > 2 and len(L) & 1 and not any(L[1::2]) else None


def _unhalve(H: list[Coeff]) -> list[Coeff]:
    """The list of f(z^2) for the list H of f(z): a zero between the entries of H."""
    L: list[Coeff] = [0] * (2 * len(H) - 1)
    L[::2] = H
    return L


def _short_support(S: list[Coeff]) -> list[int] | None:
    """The i with S[i] != 0 when there are at most _SHORT_TERMS of them, else None."""
    out = []
    for i, c in enumerate(S):
        if c:
            if len(out) == _SHORT_TERMS:
                return None
            out.append(i)
    return out


def _shifted_sum(support: list[int], S: list[Coeff], L: list[Coeff]) -> list[Coeff]:
    """S * L as the sum of S[i] * z^i * L over the i in support, S's nonzero slots."""
    cs, ds = _clear_denominators([S[i] for i in support])
    L, dl = _clear_denominators(L)
    d, m = ds * dl, len(L)
    C: list[Coeff] = [0] * (len(S) + m - 1)
    terms = zip(support, cs)
    for i, c in islice(terms, 1):
        # the first term lands on zeros
        C[i : i + m] = L if c == 1 else [c * x for x in L]
    for i, c in terms:
        C[i : i + m] = [y + c * x for y, x in zip(C[i : i + m], L)]
    return C if d == 1 else [_canon_coeff(Fraction(c, d)) for c in C]


def _list_mul(A: list[Coeff], B: list[Coeff]) -> list[Coeff]:
    """Product of two coefficient lists over Q.

    When the shorter list has at most _SHORT_TERMS nonzero entries, the
    product is the sum of that many shifted and scaled copies of the longer
    list.  Otherwise it is one product of packed ints: denominators are
    cleared first, and a coefficient of the product is a sum of at most
    min(len A, len B) products, so a slot of bits(A) + bits(B) + bitlen(min)
    + 2 bits holds it with its sign.  A list passed twice is squared.  Two
    even lists multiply halved (see above).
    """
    S, L = (A, B) if len(A) <= len(B) else (B, A)
    support = _short_support(S)
    if support is not None:
        return _shifted_sum(support, S, L)
    square = A is B
    hA = _halve(A)
    hB = hA if square or hA is None else _halve(B)
    if hB is not None:
        return _unhalve(_list_mul(hA, hB))
    A, da = _clear_denominators(A)
    B, db = (A, da) if square else _clear_denominators(B)
    bits_a = max(map(abs, A)).bit_length()
    bits_b = bits_a if square else max(map(abs, B)).bit_length()
    w = (bits_a + bits_b + min(len(A), len(B)).bit_length() + 2 + 7) // 8
    X = _pack(A, w)
    C = _unpack(X * X if square else X * _pack(B, w), w, len(A) + len(B) - 1)
    d = da * db
    return C if d == 1 else [_canon_coeff(Fraction(c, d)) for c in C]  # type: ignore[return-value]


def _dense_divexact(a: list[Coeff], b: list[Coeff]) -> list[Coeff] | None:
    """q with q * b == a, by long division from the top, or None.

    The division runs on integers with b made primitive, so the quotient
    has integer coefficients (Gauss) and an inexact step settles that b
    does not divide a.
    """
    ha = _halve(a)
    hb = None if ha is None else _halve(b)
    if hb is not None:
        # a quotient of even lists is even: q(-z) = a(-z) / b(-z) = q(z)
        hq = _dense_divexact(ha, hb)
        return None if hq is None else _unhalve(hq)
    nb = len(b) - 1
    nq = len(a) - nb
    if nq <= 0:
        return None
    rem, da = _clear_denominators(a)
    rem = list(rem)
    b, db = _clear_denominators(b)
    cb = math.gcd(*b)
    lead = b[-1] // cb
    low_b = [c // cb for c in b[:-1]]
    q = [0] * nq
    for i in range(nq - 1, -1, -1):
        c = rem[i + nb]
        if c:
            if c % lead:
                return None
            c = q[i] = c // lead
            rem[i : i + nb] = [r - c * x for r, x in zip(rem[i : i + nb], low_b)]
    if any(rem[:nb]):
        return None
    scale = Fraction(db, da * cb)
    return q if scale == 1 else [_canon_coeff(c * scale) for c in q]


def _dense_sqrt(a: list[Coeff]) -> list[Coeff] | None:
    """r whose square has the top half of a, solved from the top down, or None.

    The solve visits only the nonzero coefficients found so far, so a
    sparse Kronecker image costs no more than its length times the number
    of terms of its root.  The caller accepts r only after squaring it.
    """
    if not len(a) & 1:
        return None
    # with a[0] != 0 a root is even (see above)
    if a[0] and (h := _halve(a)) is not None:
        r = _dense_sqrt(h)
        return None if r is None else _unhalve(r)
    # sqrt(a) = sqrt(a * d^2) / d, and a * d^2 has integer coefficients
    a, d = _clear_denominators(a)
    if d > 1:
        a = [c * d for c in a]
    n = len(a) >> 1
    top = is_perfect_square(a[-1]) if a[-1] > 0 else None
    if top is None:
        return None
    r = [0] * (n + 1)
    r[n] = top
    two_top = 2 * top
    found: list[int] = []  # the i with j < i < n and r[i] != 0
    for j in range(n - 1, -1, -1):
        # coefficient n + j of r * r is 2 r[n] r[j] + sum r[i] r[n + j - i], j < i < n
        acc = a[n + j] - sum([r[i] * r[n + j - i] for i in found])
        # the square root of an integer polynomial over Q has integer
        # coefficients (Gauss), so an inexact division settles it
        if acc % two_top:
            return None
        if acc:
            r[j] = acc // two_top
            found.append(j)
    return r if d == 1 else [_canon_coeff(Fraction(c, d)) for c in r]


# ---------------------------------------------------------------------------
# Exact division
# ---------------------------------------------------------------------------


def poly_divide_exact(a: Poly, b: Poly) -> Poly | None:
    """Quotient a/b when b divides a exactly, else None.

    Long division on the images of a and b (see above), with D_i =
    deg_i(a) + 1.  The quotient must have no negative exponent; one found
    on an image in two or more variables must also multiply back to a.
    """
    _require_poly("poly_divide_exact", a, b)
    if b.is_zero:
        raise DomainError("division by the zero polynomial")
    if a.is_zero:
        return _ZERO
    if b.is_const:
        inv = Fraction(1) / Fraction(b.terms[()])
        return a * inv
    vars, radix, hom = _list_map((a, b), (a,))
    # no degree of b may exceed a's: the radix holds a's, and a one-variable
    # image's lists give them
    if radix is not None and any(b.degree_in(v) >= r for v, r in zip(vars, radix)):
        return None
    la, A = _to_list(a, vars, radix, hom)
    lb, B = _to_list(b, vars, radix, hom)
    if radix is None and any(db > da for da, db in zip(_list_degrees(a, la, A, hom), _list_degrees(b, lb, B, hom))):
        return None
    low = la - lb
    d = _form_degree(a) - _form_degree(b) if hom else None
    # the quotient's exponents are >= 0: of z, and for forms of both variables
    if low < 0 or (hom and low + len(A) - len(B) > d):
        return None
    Q = _dense_divexact(A, B)
    if Q is None:
        return None
    q = _from_list(vars, radix, d, low, Q)
    # an image in one variable is the polynomial itself
    return q if hom or len(vars) == 1 or q * b == a else None


def _divexact(a: Poly, b: Poly) -> Poly:
    """a / b for a b known to divide a, such as a gcd of a; a failure is a bug."""
    q = poly_divide_exact(a, b)
    if q is None:
        raise VerificationError("expected exact division failed: (%s) / (%s)" % (a, b))
    return q


# ---------------------------------------------------------------------------
# GCD machinery
#
# One modular algorithm (Brown, J. ACM 18, 1971).  _gcd_modular works over
# Z: it computes images of the gcd modulo primes above 2^62, combines them
# by CRT and accepts a candidate only after exact trial division of both
# inputs.  _gf_mgcd computes one image mod p: it evaluates the last
# variable at random points, recurses, and interpolates the images back.
# Its univariate steps (Euclid in _gf_gcd, the division by a content in
# _gf_primitive) share one long division, _gf_divmod, on trimmed lists.
# Inputs with a one-variable image (univariate, or forms in two variables)
# lose their common monomial factor and reach _gcd_modular as that image;
# dehomogenizing is far cheaper than two-variable interpolation on the
# generator.  The restart limit of the CRT loop comes from a coefficient
# bound of the inputs, so no gcd is cut off by it.
# ---------------------------------------------------------------------------


_GCD_PRIME_START = (1 << 62) + 135  # first prime above 2^62 is found from here


def _gcd_primes():
    p = _GCD_PRIME_START
    while True:
        if is_prime(p):
            yield p
        p += 2


# Univariate helpers mod p on trimmed lists [c0, c1, ...] with entries in
# [0, p): a nonzero list ends in a nonzero entry, and zero is [].


def _gf_trim(a: list[int]) -> list[int]:
    """a without its trailing zeros, trimmed in place."""
    while a and not a[-1]:
        a.pop()
    return a


def _gf_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """(q, r) with a = q * b + r mod p and deg r < deg b, for b nonzero.

    The remainder is reduced mod p only at the end: each step subtracts
    products of two entries below p, so no entry grows past (nb + 1) * p^2.
    """
    nb = len(b) - 1
    nq = len(a) - nb
    if nq <= 0:
        return [], a
    inv = pow(b[-1], -1, p)
    low_b = b[:-1]
    rem = list(a)
    q = [0] * nq
    for i in range(nq - 1, -1, -1):
        c = q[i] = rem[i + nb] * inv % p
        if c:
            rem[i : i + nb] = [r - c * x for r, x in zip(rem[i : i + nb], low_b)]
    return q, _gf_trim([c % p for c in rem[:nb]])


def _gf_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """A gcd of a and b mod p, by Euclid; not made monic."""
    while b:
        a, b = b, _gf_divmod(a, b, p)[1]
    return a


def _gf_eval(a: list[int], x: int, p: int) -> int:
    v = 0
    for c in reversed(a):
        v = (v * x + c) % p
    return v


def _gf_mul(a: list[int], b: list[int], p: int) -> list[int]:
    return [c % p for c in _list_mul(a, b)]


def _gf_split(A: dict) -> dict:
    """{exponents: c} as {exponents without the last: dense list in the last variable}."""
    out: dict[tuple[int, ...], list[int]] = {}
    for e, c in A.items():
        lst = out.setdefault(e[:-1], [])
        if len(lst) <= e[-1]:
            lst.extend([0] * (e[-1] + 1 - len(lst)))
        lst[e[-1]] = c
    return out


def _gf_primitive(R: dict, p: int) -> tuple[list[int], dict]:
    """(content, primitive part) of a split polynomial, content in the last variable."""
    cont = None
    for lst in R.values():
        cont = lst if cont is None else _gf_gcd(cont, lst, p)
        if len(cont) == 1:
            return [1], R
    return cont, {m: _gf_divmod(lst, cont, p)[0] for m, lst in R.items()}


def _gf_mgcd(A: dict, B: dict, p: int, rng: random.Random) -> dict:
    """Lex-monic gcd of nonzero {exponents: c} dicts mod p (Brown's algorithm)."""
    if len(next(iter(A))) == 1:
        g = _gf_gcd(_gf_split(A)[()], _gf_split(B)[()], p)
        inv = pow(g[-1], -1, p)
        return {(k,): c * inv % p for k, c in enumerate(g) if c}
    ca, RA = _gf_primitive(_gf_split(A), p)
    cb, RB = _gf_primitive(_gf_split(B), p)
    cont = _gf_gcd(ca, cb, p)
    lca, lcb = RA[max(RA)], RB[max(RB)]
    gamma = _gf_gcd(lca, lcb, p)
    deg_a = max(len(lst) for lst in RA.values()) - 1
    deg_b = max(len(lst) for lst in RB.values()) - 1
    # degree bound, in the last variable, of gamma * gcd / lc(gcd)
    bound = len(gamma) - 1 + min(deg_a, deg_b)
    lm = None
    while True:
        x = rng.randrange(p)
        if lm is not None and _gf_eval(q, x, p) == 0:
            continue  # point already used
        if _gf_eval(lca, x, p) == 0 or _gf_eval(lcb, x, p) == 0:
            continue
        Ax = {m: v for m, lst in RA.items() if (v := _gf_eval(lst, x, p))}
        Bx = {m: v for m, lst in RB.items() if (v := _gf_eval(lst, x, p))}
        g = _gf_mgcd(Ax, Bx, p, rng)
        glm = max(g)
        if not any(glm):
            # a constant image at a point where no leading coefficient
            # vanishes makes the primitive parts coprime
            H = {glm: [1]}
            break
        if lm is None or glm < lm:
            lm, H, q = glm, {}, [1]  # first image, or all earlier ones were unlucky
        elif glm > lm:
            continue  # this point is unlucky
        # Newton step: H += (g*gamma(x) - H(x)) / q(x) * q
        scale = _gf_eval(gamma, x, p)
        inv_q = pow(_gf_eval(q, x, p), -1, p)
        for m in set(H) | set(g):
            lst = H.setdefault(m, [])
            d = (g.get(m, 0) * scale - _gf_eval(lst, x, p)) * inv_q % p
            if d:
                lst.extend([0] * (len(q) - len(lst)))
                for i, c in enumerate(q):
                    lst[i] = (lst[i] + d * c) % p
        q = _gf_mul(q, [-x % p, 1], p)
        if len(q) > bound + 1:
            break
    H = {m: t for m, lst in H.items() if (t := _gf_trim(lst))}
    _, H = _gf_primitive(H, p)
    inv = pow(H[max(H)][-1] * cont[-1], -1, p)
    scale = [c * inv % p for c in cont]
    return {
        m + (k,): c
        for m, lst in H.items()
        for k, c in enumerate(_gf_mul(lst, scale, p))
        if c
    }


def _divisor_bound_bits(F: dict) -> int:
    """Bits of a bound on the coefficients of any primitive integer divisor of F.

    A divisor G of F has |G|_inf <= 2^(sum of its partial degrees) * M(G),
    its partial degrees are at most those of F, and its Mahler measure is
    M(G) <= M(F) <= |F|_2 (Mignotte, 1974).
    """
    degrees = sum(map(max, zip(*F)))
    return degrees + (sum(c * c for c in F.values()).bit_length() + 1) // 2


def _gcd_modular(vars: tuple[str, ...], A: dict, B: dict) -> dict:
    """Primitive gcd over Z of primitive integer {exponents: c} dicts.

    Each image mod p is scaled so that its lex-leading coefficient is the
    gcd of the inputs' lex-leading coefficients; images then agree with
    one fixed integer polynomial and combine by CRT.  Primes dividing a
    lex-leading coefficient are skipped, an image with a smaller leading
    monomial discards the others (they came from unlucky primes), and the
    accumulation restarts, in case it was poisoned, once it holds one prime
    more than the coefficient bound of the result needs.

    Bounded: at most max_tries primes are tried, then VerificationError is
    raised.  A prime is skipped or unlucky only where it divides lca * lcb
    or a resultant of the cofactors, whose bits are at most
    deg(B) * bits(A) + deg(A) * bits(B) (Hadamard's bound, with each cofactor
    under the divisor bound of its input and deg the sum of the partial
    degrees).  Each such prime above 2^62 takes 62 of those bits, and a
    correct run needs at most max_primes other primes; 8 more are allowed.
    Only a wrong kernel (a product, division or image that errs) gets past them.
    """
    lca, lcb = A[max(A)], B[max(B)]
    lc_gcd = math.gcd(lca, lcb)
    bits_a, bits_b = _divisor_bound_bits(A), _divisor_bound_bits(B)
    bits = lc_gcd.bit_length() + min(bits_a, bits_b)
    # primes above 2^62 carry 62 bits each; the candidate is tried once its
    # coefficients are 2^16 times smaller than the modulus
    max_primes = (bits + 16) // 62 + 2
    deg_a, deg_b = sum(map(max, zip(*A))), sum(map(max, zip(*B)))
    unlucky_bits = deg_b * bits_a + deg_a * bits_b + lca.bit_length() + lcb.bit_length()
    max_tries = max_primes + unlucky_bits // 62 + 8
    best, primes_in_acc = None, 0
    for p in islice(_gcd_primes(), max_tries):
        if lca % p == 0 or lcb % p == 0:
            continue
        g = _gf_mgcd(
            {e: c % p for e, c in A.items() if c % p},
            {e: c % p for e, c in B.items() if c % p},
            p,
            random.Random(p),
        )
        lm = max(g)
        if not any(lm):
            return {lm: 1}
        if primes_in_acc >= max_primes:
            best = None
        if best is None or lm < best:
            best, acc, acc_mod, primes_in_acc = lm, {}, 1, 0
        elif lm > best:
            continue
        primes_in_acc += 1
        # the image is lex-monic; scale it to lead with lc_gcd, then CRT
        inv = pow(acc_mod, -1, p)
        for e in set(acc) | set(g):
            old = acc.get(e, 0)
            acc[e] = old + acc_mod * ((g.get(e, 0) * lc_gcd - old) * inv % p)
        acc_mod *= p
        half = acc_mod >> 1
        cand = {e: c - acc_mod if c > half else c for e, c in acc.items() if c}
        # an image still changing under CRT has coefficients spread up to
        # acc_mod/2; trial-divide only once all are 2^16 times smaller
        if max(abs(c) for c in cand.values()).bit_length() + 16 > acc_mod.bit_length():
            continue
        cont = 0
        for c in cand.values():
            cont = math.gcd(cont, c)
        cand = {e: c // cont for e, c in cand.items()}
        gp = Poly._make(vars, cand)
        if all(poly_divide_exact(Poly._make(vars, F), gp) is not None for F in (A, B)):
            return cand
    raise VerificationError("modular gcd found no dividing candidate in %d primes; this is a bug" % max_tries)


def _gcd_list(a: Poly, b: Poly, vars: tuple[str, ...], hom: bool) -> Poly:
    """gcd of nonconstant a, b whose image has one variable.

    The common monomial factor is split off, and the rest is a univariate
    gcd of the images: a form p(v1, v2) of degree d is v1^d * f(v2/v1), and
    gcds commute with this substitution.
    """
    la, A = _to_list(a, vars, None, hom)
    lb, B = _to_list(b, vars, None, hom)
    low = min(la, lb)
    g = [1]
    # a cofactor with one coefficient is a constant
    if len(A) > 1 and len(B) > 1:
        # gcd(f(z^s), g(z^s)) = gcd(f, g)(z^s) for the largest stride s that
        # both images halve to (see above)
        s, hA, hB = 1, A, B
        while (nA := _halve(hA)) is not None and (nB := _halve(hB)) is not None:
            s, hA, hB = 2 * s, nA, nB
        G = _gcd_modular((vars[-1],), _primitive_dict(hA), _primitive_dict(hB))
        g = [0] * (s * max(G)[0] + 1)
        for (k,), c in G.items():
            g[s * k] = c
    # a form's gcd has degree len(g) - 1 + low + the exponent of v1 in the
    # common monomial factor, the smaller of a's and b's lowest
    d = len(g) + low + min(_form_degree(a) - la - len(A), _form_degree(b) - lb - len(B)) if hom else None
    return _from_list(vars, None, d, low, g)


def _primitive_dict(L: list[Coeff]) -> dict[tuple[int], int]:
    """{(i,): c} for the coefficient list L divided by its rational content."""
    L, _ = _clear_denominators(L)
    g = math.gcd(*L)
    return {(i,): c // g for i, c in enumerate(L) if c}


def _content_wrt(p: Poly, name: str) -> tuple[Poly, Poly]:
    """(content, primitive part) of p viewed in (Q[rest])[name]."""
    coeffs = [c for c in p.as_univariate(name) if not c.is_zero]
    cont = coeffs[0]
    for c in coeffs[1:]:
        if cont.is_const:
            break
        cont = _poly_gcd_core(cont, c)
    if cont.is_const:
        cont = _ONE
    return cont, _divexact(p, cont)


def _normalize_gcd(g: Poly) -> Poly:
    if g.is_zero:
        return g
    cont = g.rational_content()
    g = g * (Fraction(1) / cont)
    if g.leading_coeff() < 0:
        g = -g
    return g


def _poly_gcd_core(a: Poly, b: Poly) -> Poly:
    if a.is_zero:
        return _normalize_gcd(b)
    if b.is_zero:
        return _normalize_gcd(a)
    if a.is_const or b.is_const:
        return _ONE
    vars, radix, hom = _list_map((a, b), (a,))
    if hom or len(vars) == 1:
        return _gcd_list(a, b, vars, hom)
    if not (set(a.vars) & set(b.vars)):
        return _ONE
    ia = a * (Fraction(1) / a.rational_content())
    ib = b * (Fraction(1) / b.rational_content())
    return Poly._make(vars, _gcd_modular(vars, _embed(ia, vars), _embed(ib, vars)))


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Polynomial gcd, normalized to integer content 1 and positive leading coeff."""
    _require_poly("poly_gcd", a, b)
    return _normalize_gcd(_poly_gcd_core(a, b))


# ---------------------------------------------------------------------------
# Polynomial square root
# ---------------------------------------------------------------------------


def poly_sqrt(p: Poly) -> Poly | None:
    """Exact square root with positive leading coefficient, or None.

    Solves for the root's coefficients top-down on p's image (see above),
    with D_i = deg_i(p) + 1, and accepts the root only if its square is p.
    """
    _require_poly("poly_sqrt", p)
    if p.is_zero:
        return _ZERO
    vars, radix, hom = _list_map((p,), (p,))
    # a square has an even degree in every variable
    if radix is not None and any(r % 2 == 0 for r in radix):
        return None
    low, L = _to_list(p, vars, radix, hom)
    if radix is None and any(d & 1 for d in _list_degrees(p, low, L, hom)):
        return None
    root = None if low & 1 else _dense_sqrt(L)
    if root is None:
        return None
    q = _from_list(vars, radix, _form_degree(p) >> 1 if hom else None, low >> 1, root)
    if q * q != p:
        return None
    return -q if q.leading_coeff() < 0 else q


# ---------------------------------------------------------------------------
# Squarefree structure
# ---------------------------------------------------------------------------


def squarefree_decomposition(p: Poly) -> list[tuple[Poly, int]]:
    """[(f_i, e_i)] with p = unit * prod f_i^e_i, f_i squarefree pairwise coprime.

    Rational content is discarded (the unit); factors are primitive with
    positive leading coefficients.  Yun's algorithm on the main variable,
    with the part free of that variable handled recursively.
    """
    _require_poly("squarefree_decomposition", p)
    if p.is_zero:
        raise DomainError("squarefree decomposition of zero")
    if p.is_const:
        return []
    name = p.vars[0]
    cont, prim = _content_wrt(p, name)
    out = squarefree_decomposition(cont) if not cont.is_const else []
    P = _normalize_gcd(prim)
    dP = P.derivative(name)
    G = poly_gcd(P, dP)
    C = _divexact(P, G)
    D = _divexact(dP, G) - C.derivative(name)
    i = 1
    while not C.is_const:
        F = poly_gcd(C, D)
        if not F.is_const:
            out.append((_normalize_gcd(F), i))
        C = _divexact(C, F)
        D = _divexact(D, F) - C.derivative(name)
        i += 1
    return out


def largest_square_root_divisor(p: Poly) -> Poly:
    """Largest (primitive) g such that g^2 divides p."""
    _require_poly("largest_square_root_divisor", p)
    if p.is_zero or p.is_const:
        return _ONE
    g = _ONE
    for f, e in squarefree_decomposition(p):
        if e >= 2:
            g = g * f ** (e >> 1)
    return _normalize_gcd(g)


# ---------------------------------------------------------------------------
# Substitution and evaluation
# ---------------------------------------------------------------------------


def substitute(p: Poly, bindings: Mapping[str, object]):
    """Substitute Poly/RatFunc/scalar values for variables; exact and expanded.

    Returns a Poly when every binding is polynomial, otherwise a RatFunc.
    Bindings for variables absent from p are ignored.
    """
    _require_poly("substitute", p)
    live = {k: v for k, v in bindings.items() if k in p.vars}
    if not live:
        return p
    # scalars follow Poly.const: exact integer types convert, floats raise
    coerced = {k: v if isinstance(v, (Poly, RatFunc)) else Poly.const(v) for k, v in live.items()}
    powers: dict[str, list] = {k: [_ONE, v] for k, v in coerced.items()}

    def power(name: str, e: int):
        cache = powers[name]
        while len(cache) <= e:
            cache.append(cache[-1] * cache[1])
        return cache[e]

    acc = None
    kept = [v for v in p.vars if v not in coerced]
    for e, c in p.terms.items():
        term = Poly._make(
            tuple(kept),
            {tuple(k for v, k in zip(p.vars, e) if v in kept): c},
        ) if kept else Poly.const(c)
        for name, exp in zip(p.vars, e):
            if name in coerced and exp:
                term = term * power(name, exp)
        acc = term if acc is None else acc + term
    if acc is None:
        acc = _ZERO
    if isinstance(acc, RatFunc) and acc.den == _ONE:
        return acc.num
    return acc


def evaluate(p, point: Mapping[str, Scalar]) -> Fraction:
    """Exact value of a Poly or RatFunc at a fully specified rational point.

    A Poly is summed in integers.  With each value x_i = n_i/d_i, D_i the
    largest exponent of x_i and L the lcm of the coefficient denominators,

        p(x) = sum (c L) prod n_i^e_i d_i^(D_i - e_i)  /  (L prod d_i^D_i),

    so one table of n_i^k d_i^(D_i - k) per variable gives every term as an
    int, and the only Fraction is the quotient at the end.
    """
    if isinstance(p, RatFunc):
        den = evaluate(p.den, point)
        if den == 0:
            raise PoleError("denominator vanishes at %s" % dict(point))
        return evaluate(p.num, point) / den
    if not isinstance(p, Poly):
        raise DomainError("evaluate expects a Poly or RatFunc")
    missing = [v for v in p.vars if v not in point]
    if missing:
        raise DomainError("unbound variables in evaluation: %s" % ", ".join(missing))
    terms = p.terms
    tables = []
    # a list gives lcm's argument tuple its size; unpacking a generator grows
    # the tuple by resizing, which filled CPython's tuple free lists and
    # added about 3 MB of peak RSS over a long run of evaluations
    scale = math.lcm(*[c.denominator for c in terms.values()])
    den = scale
    for v, top in zip(p.vars, map(max, zip(*terms))):
        x = _exact_scalar(point[v])
        n, d = x.numerator, x.denominator
        table = list(accumulate(repeat(n, top), mul, initial=1))
        if d != 1:
            dpow = list(accumulate(repeat(d, top), mul, initial=1))
            table = list(map(mul, table, reversed(dpow)))
            den *= dpow[-1]
        tables.append(table)
    scaled = terms.items() if scale == 1 else [(e, c.numerator * (scale // c.denominator)) for e, c in terms.items()]
    total = sum(c * math.prod(map(getitem, tables, e)) for e, c in scaled)
    return Fraction(total, den)


def exact_sqrt(x):
    """Square root in the element's own exact domain, or None.

    ints/Fractions give a nonnegative rational; Poly/RatFunc give the
    positive-leading-coefficient root.
    """
    if isinstance(x, Poly):
        return poly_sqrt(x)
    if isinstance(x, RatFunc):
        return x.sqrt()
    x = _exact_scalar(x, "exact_sqrt does not support %r")
    return is_perfect_square(x) if type(x) is int else sqrt_fraction(x)


def _split(x):
    """(numerator, denominator) of one exact value over its base ring."""
    t = type(x)
    if t is int:
        return x, 1
    if t is Fraction:
        return x.numerator, x.denominator
    if t is RatFunc:
        return x.num, x.den
    if t is Poly:
        return x, 1
    x = _exact_scalar(x, "not an exact value: %r")
    return (x, 1) if type(x) is int else (x.numerator, x.denominator)


def _parts(*values):
    """The values as numerators over one denominator: (n_1, ..., n_k, d)
    with values[i] = n_i / d, over their base ring.

    The ring is int when every denominator is an int (the values are ints,
    Fractions or Polys), and d is then their lcm; otherwise it is Poly, and
    d is a common multiple of the denominators taken by poly_gcd.  d is
    positive, or has a positive leading coefficient.  Formulas run on the
    n_i and d with no gcd per operation, and _quotient reduces each result
    once.  Any other value goes through exactnum's rule for exact scalars:
    integer types convert, and bool, floats and the rest raise DomainError.
    """
    nums, dens = zip(*map(_split, values))
    if all(type(d) is int for d in dens):
        den = math.lcm(*dens)
        return (*[n if d == den else n * (den // d) for n, d in zip(nums, dens)], den)
    dens = [d if type(d) is Poly else Poly.const(d) for d in dens]
    den = _ONE
    for d in dens:
        if d != den and d != _ONE:
            den = d if den == _ONE else den * _divexact(d, poly_gcd(den, d))
    return (*[n if d == den else n * (den if d == _ONE else _divexact(den, d)) for n, d in zip(nums, dens)], den)


def _quotient(num, den):
    """num / den for a nonzero den, the inverse of _parts, reduced once: a
    Fraction of ints, a Poly over an int den, else a RatFunc."""
    if type(den) is int:
        return Fraction(num, den) if type(num) is int else num * Fraction(1, den)
    return RatFunc(num, den)


# ---------------------------------------------------------------------------
# Rational functions
# ---------------------------------------------------------------------------


class RatFunc:
    """Quotient of two Polys, always reduced to the canonical form."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None:
            den = _ONE
        num = num if isinstance(num, Poly) else Poly.const(num)
        den = den if isinstance(den, Poly) else Poly.const(den)
        if den.is_zero:
            raise PoleError("rational function with zero denominator")
        num, den = _ratfunc_normalize(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("RatFunc is immutable")

    def __reduce__(self):
        # num and den are canonical already, so they are not re-normalized
        return RatFunc._raw, (self.num, self.den)

    @staticmethod
    def _raw(num: Poly, den: Poly) -> "RatFunc":
        """Wrap already-canonical parts without re-normalizing."""
        obj = object.__new__(RatFunc)
        object.__setattr__(obj, "num", num)
        object.__setattr__(obj, "den", den)
        return obj

    @staticmethod
    def _coerce(x) -> "RatFunc":
        """x as a RatFunc; a scalar by exactnum's rule (bool, floats, ...
        raise DomainError)."""
        if isinstance(x, RatFunc):
            return x
        if isinstance(x, Poly):
            return RatFunc(x)
        return RatFunc(Poly.const(_exact_scalar(x, _OPERAND)))

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __bool__(self):
        return not self.num.is_zero

    def __eq__(self, other):
        if not isinstance(other, (RatFunc, Poly, int, Fraction)):
            return NotImplemented
        o = RatFunc._coerce(other)
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __neg__(self):
        return RatFunc._raw(-self.num, self.den)

    def __add__(self, other):
        o = RatFunc._coerce(other)
        g = poly_gcd(self.den, o.den)
        if g.is_const:
            # with coprime denominators the sum is in lowest terms
            num = self.num * o.den + o.num * self.den
            return _ratfunc_canonical(num, self.den * o.den)
        d1 = _divexact(self.den, g)
        d2 = _divexact(o.den, g)
        num = self.num * d2 + o.num * d1
        den = d1 * o.den
        # num is prime to d1 * d2 = den / g, so gcd(num, den) = gcd(num, g)
        h = poly_gcd(num, g)
        if not h.is_const:
            num = _divexact(num, h)
            den = _divexact(den, h)
        return _ratfunc_canonical(num, den)

    __radd__ = __add__

    def __sub__(self, other):
        o = RatFunc._coerce(other)
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = RatFunc._coerce(other)
        if self.is_zero or o.is_zero:
            return _RF_ZERO
        g1 = poly_gcd(self.num, o.den)
        g2 = poly_gcd(o.num, self.den)
        n1 = self.num if g1.is_const else _divexact(self.num, g1)
        d2 = o.den if g1.is_const else _divexact(o.den, g1)
        n2 = o.num if g2.is_const else _divexact(o.num, g2)
        d1 = self.den if g2.is_const else _divexact(self.den, g2)
        # the cross factors are gone, so n1 * n2 is prime to d1 * d2
        return _ratfunc_canonical(n1 * n2, d1 * d2)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = RatFunc._coerce(other)
        if o.is_zero:
            raise PoleError("division by zero rational function")
        return self * o._inverse()

    def __rtruediv__(self, other):
        o = RatFunc._coerce(other)
        return o / self

    def __pow__(self, n: int):
        n = _integer(n, "RatFunc powers require an integer exponent, not %r")
        if n < 0:
            if self.is_zero:
                raise PoleError("zero rational function to a negative power")
            return self._inverse() ** (-n)
        # powers of coprime parts stay coprime, with coprime contents
        return RatFunc._raw(self.num**n, self.den**n)

    def _inverse(self) -> "RatFunc":
        if self.num.leading_coeff() > 0:
            return RatFunc._raw(self.den, self.num)
        return RatFunc._raw(-self.den, -self.num)

    def sqrt(self) -> "RatFunc | None":
        """Exact square root in the rational-function field, or None."""
        if self.is_zero:
            return _RF_ZERO
        h = poly_sqrt(self.num * self.den)
        if h is None:
            return None
        return RatFunc(h, self.den)

    def evaluate(self, point: Mapping[str, Scalar]) -> Fraction:
        return evaluate(self, point)

    def substitute(self, bindings: Mapping[str, object]) -> "RatFunc":
        num = substitute(self.num, bindings)
        den = substitute(self.den, bindings)
        num = RatFunc._coerce(num)
        den = RatFunc._coerce(den)
        if den.is_zero:
            raise PoleError("substitution sends the denominator to zero")
        return num / den

    def total_degree(self) -> int:
        return max(self.num.total_degree(), self.den.total_degree())

    def render(self) -> str:
        if self.den == _ONE:
            return self.num.render()
        return "(%s)/(%s)" % (self.num.render(), self.den.render())

    def __str__(self):
        return self.render()

    def __repr__(self):
        return "RatFunc(%s)" % self.render()


def _ratfunc_normalize(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    if num.is_zero:
        return _ZERO, _ONE
    g = poly_gcd(num, den)
    if not g.is_const:
        num = _divexact(num, g)
        den = _divexact(den, g)
    return _canonical_scale(num, den)


def _canonical_scale(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """Integer parts with coprime contents and a positive leading denominator
    coefficient, for nonzero num prime to den."""
    cn = num.rational_content()
    cd = den.rational_content()
    ratio = cn / cd
    num = num * (Fraction(ratio.numerator) / cn)
    den = den * (Fraction(ratio.denominator) / cd)
    if den.leading_coeff() < 0:
        num, den = -num, -den
    return num, den


def _ratfunc_canonical(num: Poly, den: Poly) -> RatFunc:
    """RatFunc of num / den when num is already prime to den (Henrici)."""
    if num.is_zero:
        return _RF_ZERO
    return RatFunc._raw(*_canonical_scale(num, den))


_RF_ZERO = RatFunc._raw(_ZERO, _ONE)


def canonical_sort_key(x) -> tuple:
    """Deterministic ordering key for Poly/RatFunc values; scalars by value."""
    if isinstance(x, Poly):
        return (x.total_degree(), 0, x.render())
    if isinstance(x, RatFunc):
        return (x.num.total_degree(), x.den.total_degree(), x.render())
    return (-1, x, "")
