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

All arithmetic is exact.  An element holds integer numerators over one
denominator: ``terms`` maps each monomial key to a nonzero ``int`` and
``den`` is a positive ``int`` with gcd(den, *numerators) = 1, so den is 1
for an integral element (zero included) and equal values always have
identical (den, terms): ``==`` is semantic equality.  Rational and integer
work run the same integer loops, and no float ever becomes a coefficient.
A ``fractions.Fraction`` is made only where a rational number enters
(``rat(p, q)``, ``exact``), where a coefficient or value is read out
(``monomials()``, ``as_fraction()``, ``repr``, ``evaluate_exact``), and
for the quotient coefficients of ``try_divide``.

The kernels that ring products, derivatives and the form operators run
(``_mul_into``, ``_add_into``, ``_partial_into``) add integer numerators
into a raw accumulator ``{D: {key: int}}``, in the bucket of their
operands' denominator D.  ``_canonical(acc, scale)`` is its one reader: it
puts the buckets over their lcm, divides by the int scale (2 for the
Koszul 1/2 and the su(2) projection) and reduces by the gcd.  Other
modules pass accumulators to these functions and never read their layout.
``+``, ``-`` and the reflected ``-`` run the same kernel: the first
operand's numerators seed one accumulator, ``_add_into`` adds the other
with sign +/-1, and ``_canonical`` reads it once; ``_wrap``, which makes an
element of numerators over a denominator, always reduces by the gcd.
``dot(xs, ys)``, the sum of x * y over pairs, is the one sum-of-products
kernel: every product goes into one accumulator, canonicalised once.

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
(which reads a config or constructor number exactly), and read them
through ``CoefExpr.monomials()`` (decoded ``(coef, k, powers)`` terms,
rebuilt by ``from_monomials``), ``is_jet``, ``as_fraction()``,
``as_number()`` (the same value, an int where it is integral), ``len()``
and ``bool()``.  ``substitute`` puts exact numbers in for symbols in one
integer pass over the packed keys, the way a numeric frame and its anomaly
residual are read off their symbolic family, working out each distinct
monomial in those symbols once.  ``evaluate`` reads a float
table of columns over a point set, ``{symbol: [one float per point]}``, and
returns one float per point; ``evaluate_exact`` reads a table of jet
numerators over powers of one N, ints at a rational point or elements at a
symbolic one.  Names are resolved to symbols only where such
a table is built, and ``evaluate`` keeps each column of e^{kf} (under the
int key k) or of a symbol's power it computes in its table, for every
later term that reads it.  An
element is immutable, so it keeps what their first calls work out: the
float plan of ``evaluate``, the integer plan of ``evaluate_exact`` and the
symbol set of ``symbols()``, which a sweep reads to ask a profile for only
the jets it needs.  It keeps the integer plan of ``substitute`` for a set
of symbols put to numbers from the second call with that set on.
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
_DECODED: dict = {}  # key -> (k, sorted ((symbol, power), ...), their (slot, power) factors)
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
    """(k, ((symbol, power), ...) sorted by symbol, ((slot, power), ...) in that order)."""
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
            tuple((s, p) for _, p, s in found),
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


def _wrap(terms: dict, den: int = 1) -> "CoefExpr":
    """The element terms / den (terms nonzero int numerators, den > 0), reduced by their gcd."""
    if den != 1:
        g = math.gcd(den, *terms.values())
        if g != 1:
            den //= g
            terms = {key: n // g for key, n in terms.items()}
    res = CoefExpr.__new__(CoefExpr)
    res.terms = terms
    res.den = den
    return res


def _canonical(acc: dict, scale: int = 1) -> "CoefExpr":
    """The element a raw accumulator {D: {key: int}} holds, divided by the int scale.

    The one reader of an accumulator: its buckets go over the lcm of their
    denominators, zero sums are dropped and _wrap reduces by the gcd.
    """
    if len(acc) == 1:
        [(L, bucket)] = acc.items()
        return _wrap({key: n for key, n in bucket.items() if n}, L * scale)
    L = math.lcm(*acc)
    sums: dict = {}
    for D, bucket in acc.items():
        f = L // D
        for key, n in bucket.items():
            if key in sums:
                sums[key] += n * f
            else:
                sums[key] = n * f
    return _wrap({key: n for key, n in sums.items() if n}, L * scale)


def _number(n: int, den: int):
    """n / den as an int when it is integral, else as a Fraction."""
    return n // den if not n % den else Fraction(n, den)


def _mul_into(acc: dict, a: "CoefExpr", b: "CoefExpr", sign: int) -> None:
    """Add sign * a * b (sign any int) to the raw accumulator acc: integer products over a.den * b.den.

    Like _add_into and _partial_into, it finds its bucket with no call when
    acc has it, as a caller that seeds its one bucket (CoefExpr.__mul__) does.
    """
    bucket = acc[D] if (D := a.den * b.den) in acc else acc.setdefault(D, {})
    get = bucket.get
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
            bucket[key] = get(key, 0) + c1 * c2


def _add_into(acc: dict, a: "CoefExpr", sign: int) -> None:
    """Add sign * a (sign = +/-1) to the raw accumulator acc."""
    bucket = acc[D] if (D := a.den) in acc else acc.setdefault(D, {})
    for key, n in a.terms.items():
        if key in bucket:
            bucket[key] += n * sign
        else:
            bucket[key] = n * sign


def _put_numbers(e: "CoefExpr", numbers: dict) -> "CoefExpr":
    """e with each slot of numbers put to its int or Fraction value, in one integer pass.

    For a value p/q of a slot whose highest power in e is P, a term with
    power j (0 where the symbol is absent) has its numerator multiplied by
    p^j q^(P-j), so every sum is an integer over the one denominator
    e.den * Q, Q = prod q^P.  A term's monomial in the slots put in, a
    tuple of (slot, power) pairs, so has the factor Q // q^P * p^j q^(P-j)
    over its pairs, and the empty monomial, no slot put in, the factor Q.
    e itself when no symbol of numbers occurs in it.  The plan for a set of
    slots holds each such slot with its highest power, the distinct
    monomials, the output keys in first-seen order, and per term its
    numerator, the position of its output key (the term's key with those
    slots' fields cleared) and the index of its monomial.  A call works out
    each monomial's factor once and adds one product per term.  e keeps the
    plan from the second call with that set of slots on, so an element
    substituted once keeps none, and a later call decodes nothing and tests
    no slot it does not put in.
    """
    if not numbers:
        return e
    slots = frozenset(numbers)
    try:
        subst = e._subst
    except AttributeError:
        subst = e._subst = {}
    plan = subst.get(slots)
    if plan is None:
        top, monomials, where, terms = {}, {}, {}, []  # slot -> highest power; monomial, output key -> index
        for key, n in e.terms.items():
            pairs = tuple((s, p) for s, p in _decode(key)[2] if s in slots)
            for s, p in pairs:
                top[s] = max(top.get(s, 0), p)
                key -= p << (_W * s)
            terms.append((n, where.setdefault(key, len(where)), monomials.setdefault(pairs, len(monomials))))
        plan = tuple(top.items()), tuple(monomials), tuple(where), tuple(terms)
        subst[slots] = plan if slots in subst else None  # a first call only marks its set
    top, monomials, keys, terms = plan
    if not top:
        return e
    rows, Q = {}, 1  # slot -> [p^j q^(P-j) for j = 0..P]
    for s, P in top:
        v = numbers[s]
        p, q = v.numerator, v.denominator
        Q *= q ** P
        rows[s] = [p ** j * q ** (P - j) for j in range(P + 1)]
    factors = []
    for pairs in monomials:
        f = Q
        for s, j in pairs:
            row = rows[s]
            f = f // row[0] * row[j]  # row[0] = q^P divides f exactly
        factors.append(f)
    sums = [0] * len(keys)
    for n, pos, m in terms:
        sums[pos] += n * factors[m]
    return _canonical({e.den * Q: dict(zip(keys, sums))})


def _partial_into(acc: dict, g: "CoefExpr", i: int, shift: int, sign: int) -> None:
    """Add sign * e^{shift f} * d/dx^i g (sign any int) to the raw accumulator acc.

    Every key formed gets the guard test of the derivative at once and that
    of the shift at the end, so this raises OverflowError or
    JetOrderExceeded exactly where g.partial(i).scale_expf(shift) would.
    """
    table = _dpartial(i)
    guard = _GUARD
    bucket = acc[D] if (D := g.den) in acc else acc.setdefault(D, {})
    get = bucket.get
    keys = 0  # every shifted key or'ed together: a guard bit marks a k out of range
    for key, n in g.terms.items():
        k, _, factors = _decode(key)
        if sign != 1:
            n = n * sign
        # derivative of the e^{kf} factor
        if k:
            new = key + table[0]
            if new & guard:
                _overflow()
            new += shift
            keys |= new
            bucket[new] = get(new, 0) + n * k
        # derivative of each jet factor: one power of it becomes its i-derivative
        for s, power in factors:
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
            bucket[new] = get(new, 0) + n * power
    if keys & guard or not -_TOP < shift < _TOP:
        _overflow()


class CoefExpr:
    """A canonical-form element of the coefficient ring: integer numerators over one denominator.

    ``terms`` maps each monomial key to a nonzero int numerator and ``den``
    is their common positive denominator, with gcd(den, *numerators) = 1,
    so den is 1 for an integral element (zero included) and equal values
    have identical (den, terms).  An element is never mutated after
    construction: no code outside ``__init__`` and ``_wrap`` writes
    ``terms`` or ``den``.  So ``evaluate``, ``evaluate_exact``,
    ``substitute`` and ``symbols`` can keep what their first call works out
    for as long as the element lives.
    """

    __slots__ = ("terms", "den", "_plan", "_exact_plan", "_symbols", "_subst")
    __hash__ = None  # compare by value only

    def __init__(self, terms: Mapping[int, object] | None = None):
        """From a {monomial key: number} mapping; the public constructors build the keys."""
        acc: dict = {}
        for key, coef in (terms or {}).items():
            if type(coef) is not int and type(coef) is not Fraction:
                coef = Fraction(coef)  # never store a float or bool
            acc.setdefault(coef.denominator, {})[key] = coef.numerator
        e = _canonical(acc)
        self.terms: dict[int, int] = e.terms
        self.den: int = e.den

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
        return self.den == other.den and self.terms == other.terms

    # -- decoded terms -------------------------------------------------------

    def monomials(self):
        """Yield (coef, k, powers) for each term coef * e^{kf} * prod(sym^p).

        coef is an int or a Fraction, powers a sorted tuple of (symbol, p)
        pairs; from_monomials() rebuilds the element from these triples.
        The storage layout behind them is private to this module.
        """
        den = self.den
        for key, n in self.terms.items():
            k, powers, _ = _decode(key)
            yield _number(n, den), k, powers

    def as_number(self) -> int | Fraction | None:
        """The value as an int, or a Fraction when not integral, when self is a rational constant, else None."""
        terms = self.terms
        if len(terms) > 1 or terms and _ONE not in terms:
            return None
        n = terms.get(_ONE, 0)
        return n if self.den == 1 else Fraction(n, self.den)  # in lowest terms, so never integral

    def as_fraction(self) -> Fraction | None:
        """The value as a Fraction when self is a rational constant, else None."""
        q = self.as_number()
        return Fraction(q) if type(q) is int else q

    # -- arithmetic ----------------------------------------------------------

    def _sum(self, other, sign: int, reflected: bool = False):
        """self + sign * other (sign = +/-1), or other - self when reflected: the
        first operand's numerators seed the accumulator, _add_into adds the second."""
        if not isinstance(other, CoefExpr):
            other = _operand(other)
            if other is None:
                return NotImplemented
        a, b = (other, self) if reflected else (self, other)
        acc = {a.den: dict(a.terms)}
        _add_into(acc, b, sign)
        return _canonical(acc)

    def __add__(self, other) -> "CoefExpr":
        return self._sum(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "CoefExpr":
        return _wrap({key: -n for key, n in self.terms.items()}, self.den)

    def __sub__(self, other) -> "CoefExpr":
        return self._sum(other, -1)

    def __rsub__(self, other) -> "CoefExpr":
        return self._sum(other, -1, reflected=True)

    def __mul__(self, other) -> "CoefExpr":
        if not isinstance(other, CoefExpr):
            other = _operand(other)
            if other is None:
                return NotImplemented
        acc = {self.den * other.den: {}}  # its one bucket, seeded
        _mul_into(acc, self, other, 1)
        return _canonical(acc)

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
        acc = {self.den: {}}
        _partial_into(acc, self, i, 0, 1)
        return _canonical(acc)

    def substitute(self, mapping: Mapping) -> "CoefExpr":
        """Replace constant-parameter or jet symbols by ring elements.

        The symbols put to numbers leave in one integer pass over the packed
        keys (_put_numbers), the way a numeric frame is read off its
        symbolic family.  That pass works out each distinct monomial in
        those symbols once, and the element keeps its plan from the second
        call with a set of symbols on, so a family read again and again with
        the same symbols decodes its terms twice and an element substituted
        once keeps no plan.  Only a symbol put to a
        non-constant element builds ring products, after that pass: each
        term clears the symbol's field and is multiplied by element^power,
        and the sum is canonicalised once.  So the substitution is simultaneous: a number never enters an
        element put in.
        """
        numbers, exprs = {}, {}  # slot -> value; a symbol no element holds has no slot
        for key, val in mapping.items():
            s = _SLOT.get(key)  # a symbol as symbols() gives it; a name is resolved first
            if s is None:
                s = _SLOT.get(as_symbol(key))
            if type(val) is not int and not isinstance(val, Rational):
                x = coerce(val)  # a float raises TypeError
                val = x.as_number()
                if val is None:
                    if s is not None:
                        exprs[s] = x
                    continue
            if s is not None:
                numbers[s] = val
        e = _put_numbers(self, numbers)
        if not exprs:
            return e
        bucket: dict = {}
        acc = {e.den: bucket}
        for key, n in e.terms.items():
            hits = ()
            for s, _ in _decode(key)[2]:
                if s in exprs:
                    shift = _W * s
                    p = key >> shift & _FIELD
                    key -= p << shift
                    hits += ((s, p),)
            if hits:
                piece = _wrap({key: n}, e.den)
                for s, p in hits:
                    piece = piece * exprs[s] ** p
                _add_into(acc, piece, 1)
            else:
                bucket[key] = bucket.get(key, 0) + n
        return _canonical(acc)

    def evaluate(self, table: dict) -> list:
        """One float per point of a float table of columns, {symbol: [float at each point]}.

        numeric.build_assignment builds such a table once per point set; every
        column has one float per point, and every symbol of self, and f itself
        for an e^{kf} factor, must be bound.  The first call builds the float
        plan: one (float coef, k, ((symbol, power), ...)) per term in decoded
        order, the deterministic summation order.  Every call reads it, so no
        call sorts, decodes or converts.  The plan is walked once per term over
        the columns: at each point a term is coef * e^{kf} * sym^power * ...,
        multiplied left to right, and added into that point's total in plan
        order, so each point gets the operations, in their order, of
        evaluating there alone.  The column of e^{kf}, math.exp(k * f) at each
        point, and that of a sym^power with power above one are computed once
        per table: the first term that needs one stores it in the table, under
        the int key k or the key (sym, power), and every later term and
        element evaluated on that table reads it there.  So a table's columns
        must not change once it has been evaluated on.
        """
        try:
            plan = self._plan
        except AttributeError:
            den = self.den  # int true division rounds correctly: n / den is float(Fraction(n, den))
            plan = self._plan = tuple(
                (n / den, k, syms) for (k, syms, _), n in sorted((_decode(key), n) for key, n in self.terms.items())
            )
        npts = len(next(iter(table.values()), ()))
        try:
            totals = [0.0] * npts
            for val, k, syms in plan:
                factors = []  # the columns of e^{kf} and each sym^power, a computed one kept in the table
                if k:
                    col = table.get(k)
                    if col is None:
                        col = table[k] = [math.exp(k * f) for f in table[_F]]
                    factors.append(col)
                for sym, power in syms:
                    if power == 1:  # x ** 1 is x
                        factors.append(table[sym])
                        continue
                    col = table.get((sym, power))
                    if col is None:
                        col = table[sym, power] = [x ** power for x in table[sym]]
                    factors.append(col)
                # val * c0 * c1 * ..., left to right, the last product added into the total
                *head, last = factors or [[1.0] * npts]  # a constant term: val * 1.0 is val
                prods = [val * x for x in head[0]] if head else [val] * npts
                for col in head[1:]:
                    prods = [p * x for p, x in zip(prods, col)]
                totals = [t + p * x for t, p, x in zip(totals, prods, last)]
        except KeyError as exc:
            raise UnboundSymbol(f"symbol {exc.args[0]} not bound") from None
        return totals

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
        for key, n in self.terms.items():
            key += shift
            if key & guard:
                _overflow()
            out[key] = n
        return _wrap(out, self.den)

    # -- display -------------------------------------------------------------

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for key in sorted(self.terms, key=_decode):
            k, syms, _ = _decode(key)
            coef = _number(self.terms[key], self.den)
            factors = []
            if coef != 1 or (not syms and k == 0):
                factors.append(str(coef))
            if k:
                factors.append(f"E({k}f)" if k != 1 else "E(f)")
            for sym, power in syms:
                name = sym[1] if sym[0] == "c" else "f" + "".join(str(i) for i in sym[1])
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
    if type(x) is int or isinstance(x, Rational):
        return rat(x)
    raise TypeError(f"cannot use {x!r} as a ring element")


class BadParams(Exception):
    """Raised for malformed or out-of-range parameters of a profile, gauge or scenario."""


def exact(x) -> CoefExpr:
    """x as a ring element, with a number from outside the ring read exactly.

    The one reading of config and constructor numbers.  A CoefExpr or
    Rational goes through coerce(), a string through Fraction ("1/2"; a zero
    denominator, "1/0", raises ValueError naming the string).  A
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
        try:
            x = Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"{x!r} has a zero denominator") from None
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
    if q == 1 and type(p) is int:
        return _wrap({_ONE: p} if p else {})
    return CoefExpr({_ONE: Fraction(p, q)})


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
    acc: dict = {}
    for e in exprs:
        _add_into(acc, e, 1)
    return _canonical(acc)


def dot(xs: Iterable[CoefExpr], ys: Iterable[CoefExpr]) -> CoefExpr:
    """Sum of x * y over the pairs of xs and ys: the one sum-of-products kernel.

    Every product goes into one accumulator (_mul_into), which is
    canonicalised once, so no product is canonicalised on its own.
    """
    acc: dict = {}
    for x, y in zip(xs, ys):
        _mul_into(acc, x, y, 1)
    return _canonical(acc)


def distinct_up_to_sign(elements: Iterable[CoefExpr]) -> tuple:
    """One element of each class {e, -e} among elements: the first one seen, in first-seen order.

    |e.evaluate(t)| and |(-e).evaluate(t)| are the same float bit for bit:
    the float plan is in decoded-key order, the same for e and -e, and
    float(-q) == -float(q), with products and sums rounding symmetrically.
    So the largest |e| over these is the largest over elements.  The zero
    element is its own class.
    """
    seen, out = set(), []
    for e in elements:
        key = (e.den, frozenset(e.terms.items()))
        if key not in seen:
            seen.add(key)
            seen.add((e.den, frozenset((k, -n) for k, n in e.terms.items())))
            out.append(e)
    return tuple(out)


def flat_laplacian(e: CoefExpr) -> CoefExpr:
    return sum_exprs(e.partial(i).partial(i) for i in COORDS)


_HELD: dict = {}  # name -> the value held(name, build) made


def held(name: str, build):
    """build(), made on the first call for name in the process and then shared.

    For a value that reads no input and never changes, such as a ring
    element (which is immutable): the jet forms below and the closed forms
    of the anomaly chain.  Nothing is built at import.
    """
    value = _HELD.get(name)
    if value is None:
        value = _HELD[name] = build()
    return value


def lap_e2f() -> CoefExpr:
    """Flat Laplacian of e^{2f}."""
    return held("lap_e2f", lambda: flat_laplacian(expf(2)))


def lap_e_m2f() -> CoefExpr:
    """Flat Laplacian of e^{-2f}."""
    return held("lap_e_m2f", lambda: flat_laplacian(expf(-2)))


def onshell_factor(absA2: CoefExpr) -> CoefExpr:
    """lap e^{2f} + 2|A|^2, the factor of every on-shell-vanishing residual."""
    return lap_e2f() + rat(2) * absA2


def grad_square() -> CoefExpr:
    """|grad f|^2 = sum_i f_i^2."""
    f = [jet(i) for i in COORDS]
    return dot(f, f)


def hessian2() -> CoefExpr:
    """Second elementary symmetric of the Hessian: sum_{i<j} (f_ii f_jj - f_ij^2)."""
    return held("hessian2", lambda: sum_exprs(
        jet(i, i) * jet(j, j) - jet(i, j) * jet(i, j) for i in COORDS for j in COORDS if i < j
    ))


def p_laplacian4() -> CoefExpr:
    """4-Laplacian of f: sum_i d_i(|grad f|^2 f_i)."""
    def build():
        g2 = grad_square()
        return sum_exprs((g2 * jet(i)).partial(i) for i in COORDS)

    return held("p_laplacian4", build)


def _plan_exact(e: CoefExpr) -> tuple:
    """Per term of e, in the order of e.terms, for evaluate_exact: (its numerator, (k/2, weight) or None
    for an odd k, ((symbol, power), ...)).  The weight is the sum of order times power over the term's
    jets; a constant has order 0."""
    plan = []
    for key, n in e.terms.items():
        k, syms, _ = _decode(key)
        plan.append((n, None if k % 2 else (k // 2, sum(len(s[1]) * p for s, p in syms if s[0] == "j")), syms))
    return tuple(plan)


def evaluate_exact(e: CoefExpr, nums: Mapping, N, e2f: tuple):
    """Exact value at a table over powers of one N: a jet s of order m is
    nums[s] / N^m, a constant s is nums[s], and e^{2f} is a / b for e2f = (a, b).

    The table's numbers are ints (a rational point: the value is a Fraction)
    or ring elements (a symbolic point: the value is its numerator over
    e.den * N^wmax * a^A * b^B, returned as that element); the one route
    below runs on both.  e^{kf} factors become (a/b)^{k/2}, so every k must
    be even.  Each term coef * prod nums[s]^p sums, by (k/2, weight), and the
    buckets go over one denominator.  A missing symbol or an odd k raises
    UnboundSymbol at the first term, in term order, that has one.
    """
    try:
        plan = e._exact_plan
    except AttributeError:
        plan = e._exact_plan = _plan_exact(e)
    buckets: dict = {}
    try:
        for c, bucket, syms in plan:
            if bucket is None:
                raise UnboundSymbol("odd e^{kf} power has no exact rational value")
            for sym, p in syms:
                c *= nums[sym] if p == 1 else nums[sym] ** p
            buckets[bucket] = buckets.get(bucket, 0) + c
    except KeyError as exc:  # only nums raises it
        raise UnboundSymbol(f"symbol {exc.args[0]} not bound") from None
    if not buckets:
        return Fraction(0)
    # over e.den * N^wmax * a^A * b^B, with A = max(0, -min h) and B = max(0, max h)
    a, b = e2f
    A = max(0, -min(h for h, _ in buckets))
    B = max(0, max(h for h, _ in buckets))
    wmax = max(w for _, w in buckets)
    num = sum(c * (N ** (wmax - w) * a ** (h + A) * b ** (B - h)) for (h, w), c in buckets.items())
    return num if isinstance(num, CoefExpr) else Fraction(num, e.den * N ** wmax * a ** A * b ** B)


def restrict_onevar(e: CoefExpr) -> CoefExpr:
    """Keep only monomials whose jets involve coordinate 1 alone (f = f(x1))."""
    others = 0  # every field of a jet that involves another coordinate
    for s, sym in enumerate(_SYMS):
        if s and sym[0] == "j" and any(i != 1 for i in sym[1]):
            others |= _FIELD << (_W * s)
    return _wrap({key: n for key, n in e.terms.items() if not key & others}, e.den)


# ---------------------------------------------------------------------------
# exact division

def _extremes(keys) -> tuple:
    """(lowest k, highest k, {slot: highest power}) over monomial keys."""
    ks, top = [], {}
    for key in keys:
        k, _, factors = _decode(key)
        ks.append(k)
        for s, p in factors:
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
    quotient key is new and the loop ends within the box's size.  The
    division runs on the integer numerators of num and den, and the
    quotient is then scaled by den.den / num.den.
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
    acc: dict = {}  # q divides the numerators: the quotient is q * den.den / num.den
    for key, c in q.items():
        acc.setdefault(c.denominator, {})[key] = c.numerator * den.den
    return _canonical(acc, num.den)

