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

A monomial e^{kf} * prod(sym^p) is stored as one ``int`` (the packed
exponent vectors of Monagan & Pearce): every symbol gets a slot the first
time it is seen, the lowest field holds k plus a bias, and each slot above
it holds that symbol's power in a fixed-width field whose top bit is a
guard.  A product of monomials is then one integer add, and a result that
sets a guard bit (a power above ``MAX_POWER``, or k outside
``EXPF_MIN..EXPF_MAX``) raises OverflowError instead of wrapping into the
next field.  Decoding a key is cached, and everything whose output depends
on term order (``evaluate``, ``repr``) walks the terms sorted by their
decoded form, so no output depends on the order in which slots were given.

How a monomial is stored is private to this module.  Other modules build
elements with ``rat``/``const``/``jet``/``expf``, ``coerce`` and ``exact``
(which reads a config or constructor number exactly), and read
them through ``CoefExpr.monomials()`` (decoded ``(coef, k, powers)``
terms, rebuilt by ``from_monomials``), ``is_jet``, ``as_fraction()``,
``len()`` and ``bool()``.  ``substitute`` puts an exact number in for
a symbol in one pass over the packed keys, the way a numeric frame is read
off its symbolic family.  ``evaluate``/``evaluate_exact`` read a
``{symbol: value}`` table as given; names are resolved to symbols only
where such a table is built.  An element is immutable, so it keeps what
their first calls work out: the float plan of ``evaluate``, the integer
plan of ``evaluate_exact`` and the symbol set of ``symbols()``, which a
sweep reads to ask a profile for only the jets it needs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational
from typing import Iterable, Mapping

MAX_JET_ORDER = 3
COORDS = (1, 2, 3, 4)


class JetOrderExceeded(Exception):
    """Raised when differentiation would create a jet beyond order 3."""


class UnboundSymbol(Exception):
    """Raised by evaluate() when its table misses a needed symbol."""


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


_F = jet_sym()  # f itself, whose value an e^{kf} factor needs

# A monomial key: field 0 (the lowest) holds k + _BIAS, field s >= 1 the power
# of the symbol in slot s.  Every valid field is below _TOP, so the sum of two
# fields never carries into the next one; a sum that reaches _TOP sets the
# field's guard bit, and a k below EXPF_MIN borrows and sets it as well.
_W = 16  # bits per field
_FIELD = (1 << _W) - 1
_TOP = 1 << (_W - 1)
_BIAS = 1 << (_W - 2)
MAX_POWER = _TOP - 1
EXPF_MIN, EXPF_MAX = -_BIAS, _TOP - 1 - _BIAS
_ONE = _BIAS  # the key of the monomial 1

_SYMS: list = [None]  # slot -> symbol; slot 0 is the e^{kf} field
_SLOT: dict = {}  # symbol -> slot
_GUARD = _TOP  # the guard bit of every field in use
_DECODED: dict = {}  # key -> (k, sorted ((symbol, power), ...), their slots)
_DPARTIAL: dict = {i: [] for i in COORDS}  # coordinate -> per-slot table, see _dpartial
_BEYOND = object()  # a jet whose derivative would exceed MAX_JET_ORDER


def _slot(sym: tuple) -> int:
    """The slot of sym, given the next free one the first time sym is seen."""
    s = _SLOT.get(sym)
    if s is None:
        global _GUARD
        s = _SLOT[sym] = len(_SYMS)
        _SYMS.append(sym)
        _GUARD |= _TOP << (_W * s)
    return s


def _overflow():
    raise OverflowError(
        f"monomial exponent out of range (powers <= {MAX_POWER}, e^{{kf}} with "
        f"{EXPF_MIN} <= k <= {EXPF_MAX})"
    )


def _encode(k: int, powers: Iterable[tuple]) -> int:
    """The key of e^{kf} * prod(sym^p); a repeated symbol adds its powers."""
    if not EXPF_MIN <= k <= EXPF_MAX:
        _overflow()
    exps: dict = {}
    for sym, p in powers:
        if p < 0:
            raise ValueError("negative powers are not in the ring")
        s = _slot(sym)
        exps[s] = exps.get(s, 0) + p
    key = _ONE + k
    for s, p in exps.items():
        if p > MAX_POWER:
            _overflow()
        key += p << (_W * s)
    return key


def _decode(key: int) -> tuple:
    """(k, ((symbol, power), ...) sorted by symbol, (slot, ...) in that order)."""
    out = _DECODED.get(key)
    if out is None:
        found = []
        rest, s = key >> _W, 1
        while rest:
            p = rest & _FIELD
            if p:
                found.append((_SYMS[s], p, s))
            rest >>= _W
            s += 1
        found.sort()
        out = _DECODED[key] = (
            (key & _FIELD) - _BIAS,
            tuple((sym, p) for sym, p, _ in found),
            tuple(s for _, _, s in found),
        )
    return out


def _dpartial(i: int) -> list:
    """Per slot, the key change d/dx^i makes to one factor of that slot.

    Slot 0 (e^{kf}) gains a power of f_i; a jet loses one power and its
    i-derivative gains one; a constant has None, and a third-order jet
    _BEYOND.  The table grows to cover every slot interned so far.
    """
    table = _DPARTIAL[i]
    while len(table) < len(_SYMS):
        s = len(table)
        sym = _SYMS[s]
        if s == 0:
            table.append(1 << (_W * _slot(jet_sym(i))))
        elif sym[0] != "j":
            table.append(None)
        elif len(sym[1]) == MAX_JET_ORDER:
            table.append(_BEYOND)
        else:
            table.append((1 << (_W * _slot(jet_sym(*sym[1], i)))) - (1 << (_W * s)))
    return table


def _canonical(acc: dict) -> dict:
    """Drop zero entries of an int/Fraction accumulator, demote integral Fractions."""
    return {
        key: c if type(c) is int or c.denominator != 1 else c.numerator
        for key, c in acc.items()
        if c
    }


def _mul_into(acc: dict, a: "CoefExpr", b: "CoefExpr", sign: int) -> None:
    """Add sign * a * b (sign any int) to the raw accumulator acc, term by term."""
    get = acc.get
    guard = _GUARD
    right = b.terms.items()
    for m1, c1 in a.terms.items():
        m1 -= _BIAS
        if sign != 1:
            c1 = c1 * sign
        for m2, c2 in right:
            key = m1 + m2
            if key & guard:
                _overflow()
            acc[key] = get(key, 0) + c1 * c2


def _add_into(acc: dict, a: "CoefExpr", sign: int) -> None:
    """Add sign * a (sign = +/-1) to the raw accumulator acc."""
    get = acc.get
    for key, coef in a.terms.items():
        acc[key] = get(key, 0) + (-coef if sign < 0 else coef)


def _partial_into(acc: dict, g: "CoefExpr", i: int, shift: int, sign: int) -> None:
    """Add sign * e^{shift f} * d/dx^i g (sign any int) to the raw accumulator acc.

    Every key formed gets the guard test of the derivative at once and that
    of the shift at the end, so this raises OverflowError or
    JetOrderExceeded exactly where g.partial(i).scale_expf(shift) would.
    """
    table = _dpartial(i)
    guard = _GUARD
    get = acc.get
    keys = 0  # every shifted key or'ed together: a guard bit marks a k out of range
    for key, coef in g.terms.items():
        k, syms, slots = _decode(key)
        if sign != 1:
            coef = coef * sign
        # derivative of the e^{kf} factor
        if k:
            new = key + table[0]
            if new & guard:
                _overflow()
            new += shift
            keys |= new
            acc[new] = get(new, 0) + coef * k
        # derivative of each jet factor: one power of it becomes its i-derivative
        for (sym, power), s in zip(syms, slots):
            delta = table[s]
            if delta is None:
                continue
            if delta is _BEYOND:
                raise JetOrderExceeded(f"jet order {MAX_JET_ORDER + 1} exceeds {MAX_JET_ORDER}")
            new = key + delta
            if new & guard:
                _overflow()
            new += shift
            keys |= new
            acc[new] = get(new, 0) + coef * power
    if keys & guard or not -_TOP < shift < _TOP:
        _overflow()


def _halved(acc: dict) -> dict:
    """The canonical form of the int/Fraction accumulator acc divided by 2."""
    out = {}
    for key, c in acc.items():
        if not c:
            continue
        if type(c) is int:
            out[key] = Fraction(c, 2) if c & 1 else c >> 1
        else:
            c = c / 2
            out[key] = c if c.denominator != 1 else c.numerator
    return out


def _wrap(terms: dict) -> "CoefExpr":
    """A CoefExpr owning ``terms``, which must already be canonical."""
    res = CoefExpr.__new__(CoefExpr)
    res.terms = terms
    return res


class CoefExpr:
    """A canonical-form element of the coefficient ring.

    An element is never mutated after construction: no code outside
    ``__init__`` and ``_wrap`` writes ``terms``.  So ``evaluate``,
    ``evaluate_exact`` and ``symbols`` can keep what their first call works
    out for as long as the element lives.
    """

    __slots__ = ("terms", "_plan", "_exact_plan", "_symbols")
    __hash__ = None  # compare by value only

    def __init__(self, terms: Mapping[int, object] | None = None):
        """From a {monomial key: number} mapping; the public constructors build the keys."""
        self.terms: dict[int, int | Fraction] = {}
        if terms:
            for key, coef in terms.items():
                if type(coef) is not int:
                    if type(coef) is not Fraction:
                        coef = Fraction(coef)  # never store a float or bool
                    if coef.denominator == 1:
                        coef = int(coef.numerator)
                if coef:
                    self.terms[key] = coef

    def __reduce__(self):
        # slots are given per process, so a pickle carries the decoded terms
        return from_monomials, (list(self.monomials()),)

    # -- basic predicates ----------------------------------------------------

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
        for key, coef in self.terms.items():
            k, powers, _ = _decode(key)
            yield coef, k, powers

    def as_fraction(self) -> Fraction | None:
        """The value as a Fraction when self is a rational constant, else None."""
        terms = self.terms
        if not terms:
            return Fraction(0)
        if len(terms) == 1 and _ONE in terms:
            return Fraction(terms[_ONE])
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
        while True:
            if n & 1:
                res = res * base
            n >>= 1
            if not n:
                return res
            base = base * base  # only while a higher bit still needs it

    # -- calculus ------------------------------------------------------------

    def partial(self, i: int) -> "CoefExpr":
        """Flat coordinate derivative d/dx^i (Leibniz over each monomial)."""
        if i not in COORDS:
            raise ValueError(f"coordinate {i} outside {COORDS}")
        out: dict = {}
        _partial_into(out, self, i, 0, 1)
        return _wrap(_canonical(out))

    def substitute(self, mapping: Mapping) -> "CoefExpr":
        """Replace constant-parameter or jet symbols by ring elements.

        A symbol put to a number leaves each term in one pass over the packed
        keys: the term clears the symbol's field and multiplies its
        coefficient by value^power, the way a numeric frame is read off its
        symbolic family.  Only a symbol put to a non-constant element builds
        ring products.  The sum is canonicalised once.
        """
        numbers, exprs = {}, {}  # slot -> value; a symbol no element holds has no slot
        for key, val in mapping.items():
            s = _SLOT.get(key)  # a symbol as symbols() gives it; a name is resolved first
            if s is None:
                s = _SLOT.get(as_symbol(key))
            if not isinstance(val, Rational):
                val = coerce(val)  # a float raises TypeError
                q = val.as_fraction()
                if q is None:
                    if s is not None:
                        exprs[s] = val
                    continue
                val = q
            if s is not None:
                numbers[s] = val if type(val) is int or val.denominator != 1 else val.numerator
        out: dict = {}
        get = out.get
        for key, coef in self.terms.items():
            hits = ()
            for s in _decode(key)[2]:
                val = numbers.get(s)
                if val is None and s not in exprs:
                    continue
                shift = _W * s
                p = key >> shift & _FIELD
                key -= p << shift
                if val is None:
                    hits += ((s, p),)
                else:
                    coef *= val if p == 1 else val ** p
            if not coef:
                continue
            if hits:
                piece = _wrap({key: coef})
                for s, p in hits:
                    piece = piece * exprs[s] ** p
                _add_into(out, piece, 1)
            else:
                out[key] = get(key, 0) + coef
        return _wrap(_canonical(out))

    def evaluate(self, table: Mapping) -> float:
        """Float value at a {symbol: float} table, read as given.

        numeric.build_assignment builds such a table once per sample point;
        every symbol of self, and f itself for an e^{kf} factor, must be bound.
        The first call builds the float plan: one (float coef, k, ((symbol,
        power), ...)) per term in decoded order, the deterministic summation
        order.  Every call reads it, so no call sorts, decodes or converts.
        """
        try:
            plan = self._plan
        except AttributeError:
            plan = self._plan = tuple(
                (float(coef), k, syms)
                for (k, syms, _), coef in sorted((_decode(key), coef) for key, coef in self.terms.items())
            )
        total = 0.0
        try:
            for val, k, syms in plan:
                if k:
                    val *= math.exp(k * table[_F])
                for sym, power in syms:
                    val *= table[sym] ** power
                total += val
        except KeyError as exc:
            raise UnboundSymbol(f"symbol {exc.args[0]} not bound") from None
        return total

    def symbols(self) -> frozenset:
        """The symbols that occur in some term (f only as a jet factor, not for e^{kf})."""
        try:
            return self._symbols
        except AttributeError:
            out = self._symbols = frozenset(sym for key in self.terms for sym, _ in _decode(key)[1])
            return out

    def scale_expf(self, shift: int) -> "CoefExpr":
        """self * e^{shift f}: each key's k field moves by shift."""
        if not -_TOP < shift < _TOP:
            _overflow()
        guard = _GUARD
        out = {}
        for key, c in self.terms.items():
            key += shift
            if key & guard:
                _overflow()
            out[key] = c
        return _wrap(out)

    # -- display -------------------------------------------------------------

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for key in sorted(self.terms, key=_decode):
            k, syms, _ = _decode(key)
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


def exact(x) -> CoefExpr:
    """x as a ring element, with a number from outside the ring read exactly.

    The one reading of config and constructor numbers.  A CoefExpr or
    Rational goes through coerce(), a string through Fraction ("1/2").  A
    float is the decimal it prints as, read exactly (0.1 -> 1/10), when
    that has denominator <= 10^9; any other float (pi, 1/3, 1e-12, nan,
    inf) raises ValueError.  A bool raises TypeError: JSON's true is no
    number.
    """
    if isinstance(x, bool):
        raise TypeError(f"{x!r} is no number")
    if isinstance(x, float):
        q = Fraction(repr(x))  # nan and inf raise ValueError here
        if q.denominator > 10**9:
            raise ValueError(f"{x!r} is no short rational; pass a Fraction or a string")
        x = q
    elif isinstance(x, str):
        x = Fraction(x)
    return coerce(x)


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
    return CoefExpr({_ONE: p if q == 1 and type(p) is int else Fraction(p, q)})


def const(name: str) -> CoefExpr:
    """The named constant parameter."""
    return _wrap({_encode(0, ((const_sym(name), 1),)): 1})


def jet(*indices: int) -> CoefExpr:
    """The jet f_{indices} (no indices: f itself)."""
    return _wrap({_encode(0, ((jet_sym(*indices), 1),)): 1})


def expf(k: int) -> CoefExpr:
    """e^{kf}."""
    return _wrap({_encode(int(k), ()): 1})


def from_monomials(terms: Iterable[tuple]) -> CoefExpr:
    """The sum of decoded (coef, k, powers) terms, as CoefExpr.monomials() yields them."""
    out: dict = {}
    for coef, k, powers in terms:
        key = _encode(k, powers)
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


# the jet forms below read no input, so each is built once per process on its
# first call and then shared: an element is immutable
_JET_FORMS: dict = {}


def _jet_form(name: str, build) -> CoefExpr:
    e = _JET_FORMS.get(name)
    if e is None:
        e = _JET_FORMS[name] = build()
    return e


def lap_e2f() -> CoefExpr:
    """Flat Laplacian of e^{2f}."""
    return _jet_form("lap_e2f", lambda: flat_laplacian(expf(2)))


def lap_e_m2f() -> CoefExpr:
    """Flat Laplacian of e^{-2f}."""
    return _jet_form("lap_e_m2f", lambda: flat_laplacian(expf(-2)))


def grad_square() -> CoefExpr:
    """|grad f|^2 = sum_i f_i^2."""
    return sum_exprs(jet(i) * jet(i) for i in COORDS)


def hessian2() -> CoefExpr:
    """Second elementary symmetric of the Hessian: sum_{i<j} (f_ii f_jj - f_ij^2)."""
    return _jet_form("hessian2", lambda: sum_exprs(
        jet(i, i) * jet(j, j) - jet(i, j) * jet(i, j) for i in COORDS for j in COORDS if i < j
    ))


def p_laplacian4() -> CoefExpr:
    """4-Laplacian of f: sum_i d_i(|grad f|^2 f_i)."""
    def build():
        g2 = grad_square()
        return sum_exprs((g2 * jet(i)).partial(i) for i in COORDS)

    return _jet_form("p_laplacian4", build)


def _plan_exact(e: CoefExpr) -> tuple:
    """(L, odd, terms) for evaluate_exact: L the lcm of e's coefficient
    denominators, odd whether a term has an odd k, and per term, in the order
    of e.terms, (coef * L as an int, (k/2, total degree) or None for an odd k,
    ((symbol, power), ...))."""
    L = math.lcm(*(c.denominator for c in e.terms.values() if type(c) is not int))
    terms = []
    for key, coef in e.terms.items():
        k, syms, _ = _decode(key)
        bucket = None if k % 2 else (k // 2, sum(p for _, p in syms))
        terms.append((coef * L if type(coef) is int else coef.numerator * (L // coef.denominator), bucket, syms))
    return L, any(bucket is None for _, bucket, _ in terms), tuple(terms)


def evaluate_exact(e: CoefExpr, table: Mapping, e2f: Fraction) -> Fraction:
    """Exact value at a {symbol: Fraction} table, read as given.

    e^{kf} factors become e2f^{k/2}, so every k must be even.  The values e
    reads are put over one common denominator D, so each term
    coef * prod (n_s/D)^p sums in integers, by (k/2, total degree), and one
    Fraction holds the result.  A missing symbol or an odd k raises
    UnboundSymbol at the first term, in term order, that has one.
    """
    try:
        L, odd, plan = e._exact_plan
    except AttributeError:
        L, odd, plan = e._exact_plan = _plan_exact(e)
    try:
        vals = {sym: table[sym] for sym in e.symbols()}
    except KeyError:
        odd = True
    if odd:
        for _, bucket, syms in plan:
            if bucket is None:
                raise UnboundSymbol("odd e^{kf} power has no exact rational value")
            for sym, _ in syms:
                if sym not in table:
                    raise UnboundSymbol(f"symbol {sym} not bound")
    D = math.lcm(*(v.denominator for v in vals.values()))
    nums = {sym: v.numerator * (D // v.denominator) for sym, v in vals.items()}
    buckets: dict = {}
    for c, bucket, syms in plan:
        for sym, p in syms:
            c *= nums[sym] if p == 1 else nums[sym] ** p
        buckets[bucket] = buckets.get(bucket, 0) + c
    if not buckets:
        return Fraction(0)
    # over L * D^dmax * a^A * b^B, with e2f = a/b, A = max(0, -min h) and B = max(0, max h)
    a, b = e2f.numerator, e2f.denominator
    A = max(0, -min(h for h, _ in buckets))
    B = max(0, max(h for h, _ in buckets))
    dmax = max(deg for _, deg in buckets)
    num = sum(c * D ** (dmax - deg) * a ** (h + A) * b ** (B - h) for (h, deg), c in buckets.items())
    return Fraction(num, L * D ** dmax * a ** A * b ** B)


def restrict_onevar(e: CoefExpr) -> CoefExpr:
    """Keep only monomials whose jets involve coordinate 1 alone (f = f(x1))."""
    others = 0  # every field of a jet that involves another coordinate
    for s, sym in enumerate(_SYMS):
        if s and sym[0] == "j" and any(i != 1 for i in sym[1]):
            others |= _FIELD << (_W * s)
    return _wrap({key: coef for key, coef in e.terms.items() if not key & others})


# ---------------------------------------------------------------------------
# exact division

def _extremes(keys) -> tuple:
    """(lowest k, highest k, {slot: highest power}) over monomial keys."""
    ks, top = [], {}
    for key in keys:
        k, powers, slots = _decode(key)
        ks.append(k)
        for (_, p), s in zip(powers, slots):
            top[s] = max(top.get(s, 0), p)
    return min(ks), max(ks), top


def try_divide(num: CoefExpr, den: CoefExpr) -> CoefExpr | None:
    """Exact quotient num/den in the ring, or None when not an exact multiple.

    Classical division on the monomial keys themselves: their integer order
    is a lex order with the e^{kf} field last, and a key difference is a
    monomial quotient.  Degrees add in a domain, so every monomial of an
    exact quotient lies in the box of num and den: each symbol's power is at
    most its degree in num less its degree in den, and k lies between the
    differences of the lowest and of the highest k's.  A quotient key that
    leaves the box returns None (the guard-bit test on its differences from
    the box's corners); one inside it keeps every remainder key within the
    fields of num.  The leading remainder key falls at every step, so each
    quotient key is new and the loop ends within the box's size.
    """
    if not den:
        raise ZeroDivisionError("division by the zero element")
    if not num:
        return CoefExpr()

    n_klo, n_khi, n_top = _extremes(num.terms)
    d_klo, d_khi, d_top = _extremes(den.terms)
    if any(p > n_top.get(s, 0) for s, p in d_top.items()):
        return None
    k_lo, k_hi = max(n_klo - d_klo, EXPF_MIN), min(n_khi - d_khi, EXPF_MAX)
    lo = _ONE + k_lo
    hi = _ONE + k_hi + sum((p - d_top.get(s, 0)) << (_W * s) for s, p in n_top.items())

    guard = _GUARD
    d_items = den.terms
    d_lead = max(d_items)
    d_lead_coef = d_items[d_lead]
    d_rest = [(key - _BIAS, coef) for key, coef in d_items.items() if key != d_lead]

    r = dict(num.terms)
    q: dict = {}
    while r:
        r_lead = max(r)
        key = r_lead - d_lead + _BIAS
        if (key | (hi - key) | (key - lo)) & guard:
            return None
        coef = Fraction(r.pop(r_lead), d_lead_coef)  # exact; `/` on ints gives a float
        if coef.denominator == 1:
            coef = coef.numerator
        q[key] = coef
        for dk, dc in d_rest:
            t = key + dk
            c = r.get(t, 0) - coef * dc
            if c:
                r[t] = c
            else:
                r.pop(t, None)
    return _wrap(q)  # every coefficient is already canonical and nonzero
