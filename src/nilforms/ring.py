"""Exact coefficient ring for frame computations.

Elements are rational-linear combinations of monomials built from three
ingredients:

* constant parameters (matrix entries ``a11``..``a33``, coupling constants,
  instanton weights, ...), encoded as ``("c", name)``;
* derivative jets of a single scalar field ``f(x1, .., x4)`` up to third
  order, encoded as ``("j", idx)`` with ``idx`` a sorted tuple over
  ``{1, 2, 3, 4}`` (the empty tuple is ``f`` itself);
* integer powers of ``e^f``, carried as a per-monomial exponent so that
  ``e^{k f}`` factors multiply additively and divide exactly.

All arithmetic is exact.  A coefficient is an ``int``, or a
``fractions.Fraction`` whose denominator is not 1: every operation drops zero
terms and demotes integral Fractions to ``int``, so integer work stays on
the fast ``int`` path and no float ever becomes a coefficient.  Equal values
always have identical term dictionaries, so ``==`` is semantic equality.

How a monomial is stored is private to this module.  Other modules build
elements with ``rat``/``const``/``jet``/``expf`` and ``coerce``, and read
them through ``CoefExpr.monomials()`` (decoded ``(coef, k, powers)``
terms, rebuilt by ``from_monomials``), ``is_jet``, ``as_fraction()``,
``len()`` and ``bool()``.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational
from typing import Iterable, Mapping

MAX_JET_ORDER = 3
COORDS = (1, 2, 3, 4)


class JetOrderExceeded(Exception):
    """Raised when differentiation would create a jet beyond order 3."""


class UnboundSymbol(Exception):
    """Raised by evaluate() when the assignment misses a needed symbol."""


# ---------------------------------------------------------------------------
# symbols and monomials

def const_sym(name: str) -> tuple:
    return ("c", str(name))


def jet_sym(*indices: int) -> tuple:
    idx = tuple(sorted(indices))
    if len(idx) > MAX_JET_ORDER:
        raise JetOrderExceeded(f"jet order {len(idx)} exceeds {MAX_JET_ORDER}")
    for i in idx:
        if i not in COORDS:
            raise ValueError(f"jet index {i} outside {COORDS}")
    return ("j", idx)


def _mul_syms(s1: tuple, s2: tuple) -> tuple:
    """Merge two sorted ((sym, power), ...) tuples."""
    if not s1:
        return s2
    if not s2:
        return s1
    out = []
    i = j = 0
    while i < len(s1) and j < len(s2):
        a, pa = s1[i]
        b, pb = s2[j]
        if a == b:
            out.append((a, pa + pb))
            i += 1
            j += 1
        elif a < b:
            out.append(s1[i])
            i += 1
        else:
            out.append(s2[j])
            j += 1
    out.extend(s1[i:])
    out.extend(s2[j:])
    return tuple(out)


def _canonical(acc: dict) -> dict:
    """Drop zero entries of an int/Fraction accumulator, demote integral Fractions."""
    return {
        key: c if type(c) is int or c.denominator != 1 else c.numerator
        for key, c in acc.items()
        if c
    }


def _mul_into(acc: dict, a: "CoefExpr", b: "CoefExpr", sign: int) -> None:
    """Add sign * a * b (sign = +/-1) to the raw accumulator acc, term by term."""
    get = acc.get
    right = b.terms.items()
    for (k1, s1), c1 in a.terms.items():
        if sign < 0:
            c1 = -c1
        for (k2, s2), c2 in right:
            key = (k1 + k2, _mul_syms(s1, s2))
            acc[key] = get(key, 0) + c1 * c2


def _add_into(acc: dict, a: "CoefExpr", sign: int) -> None:
    """Add sign * a (sign = +/-1) to the raw accumulator acc."""
    get = acc.get
    for key, coef in a.terms.items():
        acc[key] = get(key, 0) + (-coef if sign < 0 else coef)


def _wrap(terms: dict) -> "CoefExpr":
    """A CoefExpr owning ``terms``, which must already be canonical."""
    res = CoefExpr.__new__(CoefExpr)
    res.terms = terms
    return res


class CoefExpr:
    """A canonical-form element of the coefficient ring."""

    __slots__ = ("terms",)
    __hash__ = None  # mutable container; compare by value only

    def __init__(self, terms: Mapping[tuple, object] | None = None):
        self.terms: dict[tuple, int | Fraction] = {}
        if terms:
            for key, coef in terms.items():
                if type(coef) is not int:
                    if type(coef) is not Fraction:
                        coef = Fraction(coef)  # never store a float or bool
                    if coef.denominator == 1:
                        coef = int(coef.numerator)
                if coef:
                    self.terms[key] = coef

    # -- basic predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        """Number of monomials with a nonzero coefficient."""
        return len(self.terms)

    def __eq__(self, other) -> bool:
        other = _operand(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    # -- decoded terms -------------------------------------------------------

    def monomials(self):
        """Yield (coef, k, powers) for each term coef * e^{kf} * prod(sym^p).

        coef is an int or a Fraction, powers a sorted tuple of (symbol, p)
        pairs; from_monomials() rebuilds the element from these triples.
        The storage layout behind them is private to this module.
        """
        for (k, powers), coef in self.terms.items():
            yield coef, k, powers

    def as_fraction(self) -> Fraction | None:
        """The value as a Fraction when self is a rational constant, else None."""
        terms = self.terms
        if not terms:
            return Fraction(0)
        if len(terms) == 1 and (0, ()) in terms:
            return Fraction(terms[(0, ())])
        return None

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other) -> "CoefExpr":
        if not isinstance(other, CoefExpr):
            other = _operand(other)
            if other is None:
                return NotImplemented
        out = dict(self.terms)
        for key, coef in other.terms.items():
            c = out.get(key, 0) + coef
            if not c:
                del out[key]  # only a present term can cancel
            elif type(c) is int or c.denominator != 1:
                out[key] = c
            else:
                out[key] = c.numerator
        return _wrap(out)

    __radd__ = __add__

    def __neg__(self) -> "CoefExpr":
        return _wrap({key: -coef for key, coef in self.terms.items()})

    def __sub__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "CoefExpr":
        if not isinstance(other, CoefExpr):
            other = _operand(other)
            if other is None:
                return NotImplemented
        out: dict = {}
        _mul_into(out, self, other, 1)
        return _wrap(_canonical(out))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "CoefExpr":
        if n < 0:
            raise ValueError("negative powers are not in the ring")
        res = ONE
        base = self
        while n:
            if n & 1:
                res = res * base
            base = base * base
            n >>= 1
        return res

    # -- calculus ------------------------------------------------------------

    def partial(self, i: int) -> "CoefExpr":
        """Flat coordinate derivative d/dx^i (Leibniz over each monomial)."""
        if i not in COORDS:
            raise ValueError(f"coordinate {i} outside {COORDS}")
        out: dict = {}
        di = ((jet_sym(i), 1),)
        for (k, syms), coef in self.terms.items():
            # derivative of the e^{kf} factor
            if k:
                key = (k, _mul_syms(syms, di))
                out[key] = out.get(key, 0) + coef * k
            # derivative of each symbol factor
            for pos, (sym, power) in enumerate(syms):
                if sym[0] != "j":
                    continue
                dsym = jet_sym(*(sym[1] + (i,)))  # may raise JetOrderExceeded
                rest = list(syms)
                if power == 1:
                    del rest[pos]
                else:
                    rest[pos] = (sym, power - 1)
                key = (k, _mul_syms(tuple(rest), ((dsym, 1),)))
                out[key] = out.get(key, 0) + coef * power
        return _wrap(_canonical(out))

    def substitute(self, mapping: Mapping) -> "CoefExpr":
        """Replace constant-parameter or jet symbols by ring elements."""
        table = {as_symbol(key): coerce(val) for key, val in mapping.items()}
        pieces = []
        for (k, syms), coef in self.terms.items():
            piece = _wrap({(k, ()): coef})
            for sym, power in syms:
                if sym in table:
                    piece = piece * table[sym] ** power
                else:
                    piece = piece * _wrap({(0, ((sym, power),)): 1})
            pieces.append(piece)
        return sum_exprs(pieces)

    def evaluate(self, assignment: Mapping) -> float:
        """Numeric value; needs every symbol (and f for e^{kf}) bound."""
        import math

        table = {as_symbol(k): float(v) for k, v in assignment.items()}
        fsym = jet_sym()
        total = 0.0
        for key in sorted(self.terms):  # deterministic summation order
            k, syms = key
            coef = self.terms[key]
            val = float(coef)
            if k:
                if fsym not in table:
                    raise UnboundSymbol("f value needed for e^{kf} factor")
                val *= math.exp(k * table[fsym])
            for sym, power in syms:
                if sym not in table:
                    raise UnboundSymbol(f"symbol {sym} not bound")
                val *= table[sym] ** power
            total += val
        return total

    def symbols(self) -> set:
        out = set()
        for (_, syms) in self.terms:
            for sym, _ in syms:
                out.add(sym)
        return out

    def expf_range(self) -> tuple[int, int]:
        ks = [k for (k, _) in self.terms]
        return (min(ks), max(ks)) if ks else (0, 0)

    def scale_expf(self, shift: int) -> "CoefExpr":
        return _wrap({(k + shift, syms): c for (k, syms), c in self.terms.items()})

    # -- display -------------------------------------------------------------

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for key in sorted(self.terms):
            k, syms = key
            coef = self.terms[key]
            factors = []
            if coef != 1 or (not syms and k == 0):
                factors.append(str(coef))
            if k:
                factors.append(f"E({k}f)" if k != 1 else "E(f)")
            for sym, power in syms:
                if sym[0] == "c":
                    name = sym[1]
                else:
                    name = "f" + "".join(str(i) for i in sym[1]) if sym[1] else "f"
                factors.append(name if power == 1 else f"{name}^{power}")
            bits.append("*".join(factors) if factors else "1")
        return " + ".join(bits)


def coerce(x) -> CoefExpr:
    """x as a ring element: a CoefExpr unchanged, a rational number as a constant.

    The one conversion into the ring.  Anything else (a float, a string)
    has no single exact reading, so it raises TypeError and the caller
    decides how to read it.
    """
    if isinstance(x, CoefExpr):
        return x
    if isinstance(x, Rational):
        return rat(x)
    raise TypeError(f"cannot use {x!r} as a ring element")


def _operand(x) -> CoefExpr | None:
    """coerce(x), or None where an operator should return NotImplemented."""
    try:
        return coerce(x)
    except TypeError:
        return None


def as_symbol(key) -> tuple:
    """The symbol named by key: a constant's name, or a symbol as const_sym/jet_sym build it."""
    if isinstance(key, tuple) and len(key) == 2 and key[0] in ("c", "j"):
        return key
    if isinstance(key, str):
        return const_sym(key)
    raise TypeError(f"not a ring symbol: {key!r}")


def is_jet(sym) -> bool:
    """True for a jet symbol (f or one of its derivatives), False for a named constant."""
    return sym[0] == "j"


# ---------------------------------------------------------------------------
# constructors and module-level operations

def rat(p, q=1) -> CoefExpr:
    """The rational constant p/q."""
    return CoefExpr({(0, ()): p if q == 1 and type(p) is int else Fraction(p, q)})


def const(name: str) -> CoefExpr:
    """The named constant parameter."""
    return _wrap({(0, ((const_sym(name), 1),)): 1})


def jet(*indices: int) -> CoefExpr:
    """The jet f_{indices} (no indices: f itself)."""
    return _wrap({(0, ((jet_sym(*indices), 1),)): 1})


def expf(k: int) -> CoefExpr:
    """e^{kf}."""
    return _wrap({(int(k), ()): 1})


def from_monomials(terms: Iterable[tuple]) -> CoefExpr:
    """The sum of decoded (coef, k, powers) terms, as CoefExpr.monomials() yields them."""
    out: dict = {}
    for coef, k, powers in terms:
        key = (k, tuple(sorted(powers)))
        out[key] = out.get(key, 0) + coef
    return CoefExpr(out)


ZERO = CoefExpr()
ONE = rat(1)


def sum_exprs(exprs: Iterable[CoefExpr]) -> CoefExpr:
    """Sum of ring elements, accumulated in one dict."""
    out: dict = {}
    for e in exprs:
        _add_into(out, e, 1)
    return _wrap(_canonical(out))


def flat_laplacian(e: CoefExpr) -> CoefExpr:
    return sum_exprs(e.partial(i).partial(i) for i in COORDS)


def grad_square() -> CoefExpr:
    """|grad f|^2 = sum_i f_i^2."""
    return sum_exprs(jet(i) * jet(i) for i in COORDS)


def hessian2() -> CoefExpr:
    """Second elementary symmetric of the Hessian: sum_{i<j} (f_ii f_jj - f_ij^2)."""
    return sum_exprs(
        jet(i, i) * jet(j, j) - jet(i, j) * jet(i, j) for i in COORDS for j in COORDS if i < j
    )


def p_laplacian4() -> CoefExpr:
    """4-Laplacian of f: sum_i d_i(|grad f|^2 f_i)."""
    g2 = grad_square()
    return sum_exprs((g2 * jet(i)).partial(i) for i in COORDS)


def evaluate_exact(e: CoefExpr, assignment: Mapping, e2f: Fraction) -> Fraction:
    """Exact Fraction value; e^{kf} factors become e2f^{k/2} (k must be even)."""
    table = {as_symbol(k): Fraction(v) for k, v in assignment.items()}
    e2f = Fraction(e2f)
    total = Fraction(0)
    for (k, syms), coef in e.terms.items():
        if k % 2:
            raise UnboundSymbol("odd e^{kf} power has no exact rational value")
        val = coef * e2f ** (k // 2)
        for sym, power in syms:
            if sym not in table:
                raise UnboundSymbol(f"symbol {sym} not bound")
            val *= table[sym] ** power
        total += val
    return total


def restrict_onevar(e: CoefExpr) -> CoefExpr:
    """Keep only monomials whose jets involve coordinate 1 alone (f = f(x1))."""
    return _wrap({
        (k, syms): coef
        for (k, syms), coef in e.terms.items()
        if not any(sym[0] == "j" and any(i != 1 for i in sym[1]) for sym, _ in syms)
    })


# ---------------------------------------------------------------------------
# exact division

def _division_vars(*exprs: CoefExpr) -> list:
    vs = set()
    for e in exprs:
        vs |= e.symbols()
    return sorted(vs)


def try_divide(num: CoefExpr, den: CoefExpr) -> CoefExpr | None:
    """Exact quotient num/den in the ring, or None when not an exact multiple.

    e^{kf} powers are cleared first (they are units), then classical
    multivariate division in lex order runs on the remaining polynomial
    part.  Never returns a false negative on an exact multiple.
    """
    if den.is_zero():
        raise ZeroDivisionError("division by the zero element")
    if num.is_zero():
        return CoefExpr()

    kn = num.expf_range()[0]
    kd = den.expf_range()[0]
    n = num.scale_expf(-kn)
    d = den.scale_expf(-kd)

    variables = _division_vars(n, d)
    index = {v: pos for pos, v in enumerate(variables)}
    nvars = len(variables)

    def vec(key):
        k, syms = key
        v = [0] * (nvars + 1)
        for sym, power in syms:
            v[index[sym]] = power
        v[nvars] = k  # expf exponent ranked last
        return tuple(v)

    def key_of(v):
        syms = tuple(
            (variables[pos], p) for pos, p in enumerate(v[:nvars]) if p
        )
        return (v[nvars], syms)

    d_items = {vec(key): coef for key, coef in d.terms.items()}
    d_lead = max(d_items)
    d_lead_coef = d_items[d_lead]

    r = {vec(key): coef for key, coef in n.terms.items()}
    q: dict = {}
    max_steps = 16 * (len(r) + 1) * (len(d_items) + 1) + 1024

    for _ in range(max_steps):
        if not r:
            quotient = _wrap(_canonical({key_of(v): c for v, c in q.items()}))
            return quotient.scale_expf(kn - kd)
        r_lead = max(r)
        diff = tuple(a - b for a, b in zip(r_lead, d_lead))
        if any(x < 0 for x in diff[:nvars]):
            return None
        coef = Fraction(r[r_lead], d_lead_coef)  # exact; `/` on ints gives a float
        if coef.denominator == 1:
            coef = coef.numerator
        q[diff] = q.get(diff, 0) + coef
        for dv, dc in d_items.items():
            t = tuple(a + b for a, b in zip(diff, dv))
            c = r.get(t, 0) - coef * dc
            if c:
                r[t] = c
            else:
                r.pop(t, None)
    return None
