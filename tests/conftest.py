"""Shared fixtures: the symbolic 7-leg frame and its connection/curvature family."""
from __future__ import annotations

import pytest

from nilforms.connection import curvature, koszul, levi_civita
from nilforms.frames import k_a, h21
from nilforms.gstruct import direct_torsion


@pytest.fixture(scope="session")
def ka():
    return k_a()


@pytest.fixture(scope="session")
def ka_family(ka):
    """(T, levi-civita, minus, plus) on the symbolic 7-leg frame."""
    T = direct_torsion(ka)
    lc = levi_civita(ka)
    wm = koszul(ka, T, -1)
    wp = koszul(ka, T, +1)
    return T, lc, wm, wp


@pytest.fixture(scope="session")
def ka_curvatures(ka_family):
    """(minus-curvature, plus-curvature) on the symbolic 7-leg frame."""
    _T, _lc, wm, wp = ka_family
    return curvature(wm), curvature(wp)


@pytest.fixture(scope="session")
def h21_sym():
    return h21()


@pytest.fixture(scope="session")
def h21_family(h21_sym):
    T = direct_torsion(h21_sym)
    lc = levi_civita(h21_sym)
    wm = koszul(h21_sym, T, -1)
    wp = koszul(h21_sym, T, +1)
    return T, lc, wm, wp


@pytest.fixture(scope="session")
def h21_curvatures(h21_family):
    """(minus-curvature, plus-curvature) on the symbolic 5-leg frame."""
    _T, _lc, wm, wp = h21_family
    return curvature(wm), curvature(wp)
