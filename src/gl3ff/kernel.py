"""Rational building blocks used by every Bethe-equation and determinant formula.

All functions live on the complex rapidity plane and depend on a single
nonzero coupling constant ``c``:

    g(x, y) = c / (x - y)
    f(x, y) = 1 + g(x, y) = (x - y + c) / (x - y)
    h(x, y) = f / g = (x - y + c) / c
    t(x, y) = g / h = c**2 / ((x - y) * (x - y + c))

Rapidity sets are plain sequences of complex numbers: a tuple is taken as it
is, a list or a one-dimensional numpy array as the tuple of its elements, and
any other value as a one-point set.  Order is significant and always
preserved: the ordered antisymmetric products and the determinant row/column
conventions downstream depend on it.

Each term raises a ``PoleError`` naming itself at its own poles, within
the collision tolerance :func:`pole_tol`, a pure function of ``c`` computed
once per coupling value and then looked up.  That is the one pole test of
every scalar path: a caller reaches the term rather than testing its pole
first.
"""

from __future__ import annotations

import functools
import operator
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import PoleError

SetOrScalar = Union[complex, Sequence[complex]]

# Collision guard: points closer than COLLISION_SCALE * max(1, |c|) count as
# a pole hit for every denominator in the package.
COLLISION_SCALE = 1e-10


@functools.lru_cache(maxsize=128)
def pole_tol(c: complex) -> float:
    """Absolute collision tolerance for coupling ``c``."""
    return COLLISION_SCALE * max(1.0, abs(c))


# Each rational term has a private form that takes the tolerance pole_tol(c)
# as an argument, so that a loop over many terms at one c looks it up once;
# the public form looks it up per call.  h and 1/g are entire and ignore it.

def _g(x: complex, y: complex, c: complex, tol: float) -> complex:
    d = x - y
    if abs(d) <= tol:
        raise PoleError(f"g(x, y) pole: x={x} collides with y={y}")
    return c / d


def _f(x: complex, y: complex, c: complex, tol: float) -> complex:
    d = x - y
    if abs(d) <= tol:
        raise PoleError(f"f(x, y) pole: x={x} collides with y={y}")
    return (d + c) / d


def _h(x: complex, y: complex, c: complex, tol: float) -> complex:
    return (x - y + c) / c


def _t(x: complex, y: complex, c: complex, tol: float) -> complex:
    d = x - y
    if abs(d) <= tol:
        raise PoleError(f"t(x, y) pole: x={x} collides with y={y}")
    if abs(d + c) <= tol:
        raise PoleError(f"t(x, y) pole: x={x} collides with y={y} - c")
    return c * c / (d * (d + c))


# The reciprocals 1/f = (x - y)/(x - y + c), 1/h = c/(x - y + c) and
# 1/g = (x - y)/c.  1/f is finite (zero) where f has a pole, so it is the
# safe way to divide by an f-product whose arguments may coincide; 1/f and
# 1/h raise only at x - y = -c, and 1/g is entire.
def _inv_f(x: complex, y: complex, c: complex, tol: float) -> complex:
    d = x - y
    if abs(d + c) <= tol:
        raise PoleError(f"1/f pole: x={x} collides with y={y} - c")
    return d / (d + c)


def _inv_h(x: complex, y: complex, c: complex, tol: float) -> complex:
    den = x - y + c
    if abs(den) <= tol:
        raise PoleError(f"1/h pole: x={x} collides with y={y} - c")
    return c / den


def _inv_g(x: complex, y: complex, c: complex, tol: float) -> complex:
    return (x - y) / c


def g(x: complex, y: complex, c: complex) -> complex:
    """g(x, y) = c / (x - y)."""
    return _g(x, y, c, pole_tol(c))


def f(x: complex, y: complex, c: complex) -> complex:
    """f(x, y) = (x - y + c) / (x - y)."""
    return _f(x, y, c, pole_tol(c))


def h(x: complex, y: complex, c: complex) -> complex:
    """h(x, y) = (x - y + c) / c.  Entire; vanishes at x - y = -c."""
    return _h(x, y, c, 0.0)


def t(x: complex, y: complex, c: complex) -> complex:
    """t(x, y) = c**2 / ((x - y) * (x - y + c))."""
    return _t(x, y, c, pole_tol(c))


def _as_tuple(v: SetOrScalar) -> tuple:
    """The rapidity set ``v`` as a tuple (see the module docstring); the
    tuples and complex points of the determinant builders come first."""
    if type(v) is tuple:
        return v
    if type(v) is complex:
        return (v,)
    if isinstance(v, (list, tuple)):
        return tuple(v)
    if isinstance(v, np.ndarray) and v.ndim:
        if v.ndim > 1:
            raise TypeError("a rapidity set is one-dimensional, got an array "
                            f"of shape {v.shape}")
        return tuple(v.tolist())
    return (v,)


def _prod(term: Callable[[complex, complex, complex, float], complex],
          lhs: SetOrScalar, rhs: SetOrScalar, c: complex, tol: float,
          keep: Optional[Callable[[int, int], bool]] = None) -> complex:
    """Product of ``term(x_i, y_j, c, tol)`` over the pairs of lhs x rhs,
    taken in order (i outer, j inner); the empty product is 1.

    ``keep(i, j)``, when given, selects the index pairs that enter the
    product: ``operator.lt`` gives the ordered products over a set against
    itself.
    """
    xs, ys = _as_tuple(lhs), _as_tuple(rhs)
    out = 1.0 + 0.0j
    if keep is None:
        for x in xs:
            for y in ys:
                out *= term(x, y, c, tol)
        return out
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            if keep(i, j):
                out *= term(x, y, c, tol)
    return out


def g_prod(lhs: SetOrScalar, rhs: SetOrScalar, c: complex) -> complex:
    return _prod(_g, lhs, rhs, c, pole_tol(c))


def f_prod(lhs: SetOrScalar, rhs: SetOrScalar, c: complex) -> complex:
    return _prod(_f, lhs, rhs, c, pole_tol(c))


def h_prod(lhs: SetOrScalar, rhs: SetOrScalar, c: complex) -> complex:
    return _prod(_h, lhs, rhs, c, 0.0)


def t_prod(lhs: SetOrScalar, rhs: SetOrScalar, c: complex) -> complex:
    return _prod(_t, lhs, rhs, c, pole_tol(c))


def inv_f_prod(lhs: SetOrScalar, rhs: SetOrScalar, c: complex) -> complex:
    return _prod(_inv_f, lhs, rhs, c, pole_tol(c))


def inv_h_prod(lhs: SetOrScalar, rhs: SetOrScalar, c: complex) -> complex:
    return _prod(_inv_h, lhs, rhs, c, pole_tol(c))


def inv_g_prod(lhs: SetOrScalar, rhs: SetOrScalar, c: complex) -> complex:
    return _prod(_inv_g, lhs, rhs, c, 0.0)


def delta_prime(xs: Sequence[complex], c: complex) -> complex:
    """Ordered antisymmetric product over index pairs j < k of g(x_j, x_k)."""
    return _prod(_g, xs, xs, c, pole_tol(c), operator.lt)


def delta(xs: Sequence[complex], c: complex) -> complex:
    """Ordered antisymmetric product over index pairs j > k of g(x_j, x_k)."""
    return _prod(_g, xs, xs, c, pole_tol(c), operator.gt)


def exclude(xs: Sequence[complex], i: int) -> tuple:
    """The sequence with entry ``i`` removed (the bar-minus-one convention)."""
    xs = _as_tuple(xs)
    return xs[:i] + xs[i + 1:]


def collision(lhs: SetOrScalar, rhs: SetOrScalar, c: complex,
              shift: complex) -> Optional[tuple]:
    """First index pair ``(i, j)``, in the order of :func:`_prod`, with
    ``|x_i - y_j - shift| <= pole_tol(c)``, or None.

    Every term above raises its own ``PoleError`` at its poles.  This test
    finds what no term guards: with ``shift`` -c, the zeros of ``f`` that
    :func:`~gl3ff.model.bethe_defect` would divide by.  The caller raises
    its own error from the pair.
    """
    tol = pole_tol(c)
    xs, ys = _as_tuple(lhs), _as_tuple(rhs)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            if abs(x - y - shift) <= tol:
                return i, j
    return None
