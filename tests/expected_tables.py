"""Frozen expected values for the 7-leg symbolic frame (independent oracles).

Every table here was transcribed by hand and is deliberately NOT computed via
the engine's own Koszul/curvature pipeline, so equality tests certify the
pipeline against an independent record rather than against itself.
"""
from __future__ import annotations

from naive_forms import sigma_bar
from nilforms import ring
from nilforms.frames import abs_A_squared

f = ring.jet
ef = ring.expf
rat = ring.rat


def a(r, m):
    return ring.const(f"a{r}{m}")


def col_dot(m, n):
    """Column inner product sum_r a_{rm} a_{rn} of the symbolic row matrix."""
    out = ring.CoefExpr()
    for r in (1, 2, 3):
        out = out + a(r, m) * a(r, n)
    return out


def one_form(c, coefs):
    return c.form(1, {(k,): v for k, v in coefs.items() if v})


def two_form(c, *pieces):
    out = c.zero(2)
    for base, coef in pieces:
        out = out + base * coef
    return out


# sign-mirrored duplicates displayed alongside the horizontal block:
# entry(b) == sign * entry(a)
MIRROR_PAIRS = (((1, 2), (3, 4), 1), ((1, 3), (2, 4), -1), ((1, 4), (2, 3), 1))

ZERO_PAIRS = ((5, 6), (5, 7), (6, 7))


def minus_connection_table(c):
    """The 18 nonzero strictly-upper connection 1-forms of the (-)-connection."""
    E1, E2 = ef(-1), ef(-2)
    w = {}
    w[(1, 2)] = one_form(c, {1: E1 * f(2), 2: -(E1 * f(1)), 3: E1 * f(4), 4: -(E1 * f(3))})
    w[(1, 3)] = one_form(c, {1: E1 * f(3), 2: -(E1 * f(4)), 3: -(E1 * f(1)), 4: E1 * f(2)})
    w[(1, 4)] = one_form(c, {1: E1 * f(4), 2: E1 * f(3), 3: -(E1 * f(2)), 4: -(E1 * f(1))})
    w[(3, 4)] = w[(1, 2)]
    w[(2, 4)] = -w[(1, 3)]
    w[(2, 3)] = w[(1, 4)]
    # mixed entries: leg 4+s against horizontal legs, driven by row s of the matrix
    for s in (1, 2, 3):
        leg = 4 + s
        w[(1, leg)] = one_form(c, {2: -(E2 * a(s, 1)), 3: -(E2 * a(s, 2)), 4: -(E2 * a(s, 3))})
        w[(2, leg)] = one_form(c, {1: E2 * a(s, 1), 3: E2 * a(s, 3), 4: -(E2 * a(s, 2))})
        w[(3, leg)] = one_form(c, {1: E2 * a(s, 2), 2: -(E2 * a(s, 3)), 4: E2 * a(s, 1)})
        w[(4, leg)] = one_form(c, {1: E2 * a(s, 3), 2: E2 * a(s, 2), 3: -(E2 * a(s, 1))})
    return w


def minus_curvature_table(c):
    """All 21 strictly-upper curvature 2-forms of the (-)-connection.

    The symbol-group sign in the sigma_3 block of entry (1, 3) is the one
    forced by the volume identity (see test_curvature_sign_forced_by_volume_identity).
    """
    E2, E3, E4 = ef(-2), ef(-3), ef(-4)
    two = rat(2)
    sig = lambda m: sigma_bar(c, m)
    e = lambda i, j: c.basis(i, j)
    S11, S22, S33 = col_dot(1, 1), col_dot(2, 2), col_dot(3, 3)
    S12, S13, S23 = col_dot(1, 2), col_dot(1, 3), col_dot(2, 3)

    OM = {}
    OM[(1, 2)] = two_form(
        c,
        (e(1, 2), -(E2 * (f(1, 1) + f(2, 2) + two * f(3) ** 2 + two * f(4) ** 2) + E4 * S11)),
        (sig(2), E2 * (f(1, 4) - f(2, 3) - two * f(1) * f(4) + two * f(2) * f(3)) - E4 * S12),
        (sig(3), -(E2 * (f(1, 3) + f(2, 4) - two * f(1) * f(3) - two * f(2) * f(4)) + E4 * S13)),
        (e(3, 4), -(E2 * (f(3, 3) + f(4, 4) + two * f(1) ** 2 + two * f(2) ** 2) + E4 * (S22 + S33))),
    )
    OM[(1, 3)] = two_form(
        c,
        (sig(1), -(E2 * (f(1, 4) + f(2, 3) - two * f(1) * f(4) - two * f(2) * f(3)) + E4 * S12)),
        (e(1, 3), -(E2 * (f(1, 1) + f(3, 3) + two * f(2) ** 2 + two * f(4) ** 2) + E4 * S22)),
        (sig(3), E2 * (f(1, 2) - f(3, 4) - two * f(1) * f(2) + two * f(3) * f(4)) - E4 * S23),
        (e(2, 4), E2 * (f(2, 2) + f(4, 4) + two * f(1) ** 2 + two * f(3) ** 2) + E4 * (S11 + S33)),
    )
    OM[(1, 4)] = two_form(
        c,
        (sig(1), E2 * (f(1, 3) - f(2, 4) - two * f(1) * f(3) + two * f(2) * f(4)) - E4 * S13),
        (sig(2), -(E2 * (f(1, 2) + f(3, 4) - two * f(1) * f(2) - two * f(3) * f(4)) + E4 * S23)),
        (e(1, 4), -(E2 * (f(1, 1) + f(4, 4) + two * f(2) ** 2 + two * f(3) ** 2) + E4 * S33)),
        (e(2, 3), -(E2 * (f(2, 2) + f(3, 3) + two * f(1) ** 2 + two * f(4) ** 2) + E4 * (S11 + S22))),
    )
    OM[(2, 3)] = two_form(
        c,
        (sig(1), E2 * (f(1, 3) - f(2, 4) - two * f(1) * f(3) + two * f(2) * f(4)) + E4 * S13),
        (sig(2), -(E2 * (f(1, 2) + f(3, 4) - two * f(1) * f(2) - two * f(3) * f(4)) - E4 * S23)),
        (e(1, 4), -(E2 * (f(1, 1) + f(4, 4) + two * f(2) ** 2 + two * f(3) ** 2) + E4 * (S11 + S22))),
        (e(2, 3), -(E2 * (f(2, 2) + f(3, 3) + two * f(1) ** 2 + two * f(4) ** 2) + E4 * S33)),
    )
    OM[(2, 4)] = two_form(
        c,
        (sig(1), E2 * (f(1, 4) + f(2, 3) - two * f(1) * f(4) - two * f(2) * f(3)) - E4 * S12),
        (e(1, 3), E2 * (f(1, 1) + f(3, 3) + two * f(2) ** 2 + two * f(4) ** 2) + E4 * (S11 + S33)),
        (sig(3), -(E2 * (f(1, 2) - f(3, 4) - two * f(1) * f(2) + two * f(3) * f(4)) + E4 * S23)),
        (e(2, 4), -(E2 * (f(2, 2) + f(4, 4) + two * f(1) ** 2 + two * f(3) ** 2) + E4 * S22)),
    )
    OM[(3, 4)] = two_form(
        c,
        (e(1, 2), -(E2 * (f(1, 1) + f(2, 2) + two * f(3) ** 2 + two * f(4) ** 2) + E4 * (S22 + S33))),
        (sig(2), E2 * (f(1, 4) - f(2, 3) - two * f(1) * f(4) + two * f(2) * f(3)) + E4 * S12),
        (sig(3), -(E2 * (f(1, 3) + f(2, 4) - two * f(1) * f(3) - two * f(2) * f(4)) - E4 * S13)),
        (e(3, 4), -(E2 * (f(3, 3) + f(4, 4) + two * f(1) ** 2 + two * f(2) ** 2) + E4 * S11)),
    )
    for s in (1, 2, 3):
        leg = 4 + s
        OM[(1, leg)] = two_form(
            c,
            (sig(1), two * E3 * (a(s, 1) * f(1) - a(s, 3) * f(3) + a(s, 2) * f(4))),
            (sig(2), two * E3 * (a(s, 2) * f(1) + a(s, 3) * f(2) - a(s, 1) * f(4))),
            (sig(3), two * E3 * (a(s, 3) * f(1) - a(s, 2) * f(2) + a(s, 1) * f(3))),
        )
        OM[(2, leg)] = two_form(
            c,
            (sig(1), two * E3 * (a(s, 1) * f(2) - a(s, 2) * f(3) - a(s, 3) * f(4))),
            (sig(2), -(two * E3 * (a(s, 3) * f(1) - a(s, 2) * f(2) - a(s, 1) * f(3)))),
            (sig(3), two * E3 * (a(s, 2) * f(1) + a(s, 3) * f(2) + a(s, 1) * f(4))),
        )
        OM[(3, leg)] = two_form(
            c,
            (sig(1), two * E3 * (a(s, 3) * f(1) + a(s, 2) * f(2) + a(s, 1) * f(3))),
            (sig(2), -(two * E3 * (a(s, 1) * f(2) - a(s, 2) * f(3) + a(s, 3) * f(4)))),
            (sig(3), -(two * E3 * (a(s, 1) * f(1) - a(s, 3) * f(3) - a(s, 2) * f(4)))),
        )
        OM[(4, leg)] = two_form(
            c,
            (sig(1), -(two * E3 * (a(s, 2) * f(1) - a(s, 3) * f(2) - a(s, 1) * f(4)))),
            (sig(2), two * E3 * (a(s, 1) * f(1) + a(s, 3) * f(3) + a(s, 2) * f(4))),
            (sig(3), -(two * E3 * (a(s, 1) * f(2) + a(s, 2) * f(3) - a(s, 3) * f(4)))),
        )

    def minor(r1, r2, m1, m2):
        return a(r1, m1) * a(r2, m2) - a(r1, m2) * a(r2, m1)

    for (i, j), (r1, r2) in (((5, 6), (1, 2)), ((5, 7), (1, 3)), ((6, 7), (2, 3))):
        OM[(i, j)] = two_form(
            c,
            (sig(1), two * E4 * minor(r1, r2, 2, 3)),
            (sig(2), -(two * E4 * minor(r1, r2, 1, 3))),
            (sig(3), two * E4 * minor(r1, r2, 1, 2)),
        )
    return OM


def torsion_fixture(c):
    """The expected totally skew torsion 3-form on the symbolic 7-leg frame."""
    E1, E2 = ef(-1), ef(-2)
    two = rat(2)
    T = c.form(3, {
        (2, 3, 4): -(E1 * two * f(1)),
        (1, 3, 4): E1 * two * f(2),
        (1, 2, 4): -(E1 * two * f(3)),
        (1, 2, 3): E1 * two * f(4),
    })
    for s in (1, 2, 3):
        block = c.zero(2)
        for m in (1, 2, 3):
            block = block + sigma_bar(c, m) * (E2 * a(s, m))
        T = T + block.wedge(c.basis(4 + s))
    return T


def torsion_divergence_fixture(c):
    """d of the torsion fixture: -(lap e^{2f} + 2|A|^2) e^{-4f} ebar^{1234}."""
    return c.form(4, {(1, 2, 3, 4): -((ring.lap_e2f() + rat(2) * abs_A_squared(c)).scale_expf(-4))})
