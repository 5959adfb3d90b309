"""Determinant representations for matrix elements of monodromy entries
between on-shell states, the Gaudin-determinant norm, and the row-sum
identities that underpin them.

Conventions used throughout (fixed once, invariance is then a theorem that
the test-suite checks numerically):

* every evaluation pairs a "left" state (root sets ``u_left``, ``v_left``)
  with a "right" state (``u_right``, ``v_right``);
* determinant columns are labelled by ``cols = u_right + v_left + (z,)`` in
  exactly this order;
* determinant rows are labelled by ``u_left`` then ``v_right``.

For the entries T(i,j) with |i-j| = 1 the value is ``prefactor * det``; the
(2,3), (2,1) and (3,1) cases are evaluated with the roles of the two states
exchanged, which realises the transposition antimorphism.  Diagonal entries
and the (1,3)/(3,1) pair append one extra row to the same matrix.

Every piece of an element (the prefactor, the matrix entries, the closing
rows) has two builders.  Below ``GRID_MIN_COLS`` determinant columns it is
built column by column from the scalar kernel products; from there on it is
a product along one axis of an array of differences between the roots and
the column points (:class:`_Grid`), with the kernel's pole guards as masks
on the same array.  A piece whose mask finds a pole is handed to the
per-column code, which raises the error of its first pole.  A diagonal
closing row is its colour's Kronecker pattern plus (colour 1) or minus
(colour 3) one bracket row, and only the bracket has two builders.

Every element is the sign of its kind times its prefactor times
det(matrix), taken from the z-free part (:class:`_Part`) of its assembly.
Only the last column of the matrix, the closing row's last entry and the
prefactor's factors p(z) involve the probe point z.  Below
``GRID_MIN_COLS`` columns the prefactor is P0 * p(z), P0 being the
prefactor over the other columns, and a part serves every z.  From there on
a part serves its first z only, and the grid it keeps gives the prefactor
over all columns and every row: the grid builds the z column in one array
pass with the others, and a column built on its own differs in some bits.
"""

from __future__ import annotations

import cmath
import operator
import warnings
import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import (DegeneracyWarning, NonFiniteResult, PoleError,
                     SectorMismatch)
from .kernel import (collision, delta, delta_prime, exclude, f_prod, g_prod,
                     h_prod, inv_f_prod, inv_g_prod, inv_h_prod, pole_tol, t)
from .model import (BetheState, ModelFunctions, RootConfig, dtau_droots,
                    gaudin_matrix, tau)
from .solver import states_distance
from .solver import states_equal  # noqa: F401  (bench/selftest.py rebinds it)

KINDS = ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3))

SAME_STATE_TOL = 1e-9
NEAR_DEGENERATE_TOL = 1e-5

# Determinant columns from which the grid builder takes over.  In four size
# sweeps of all kinds and the norm at 3-12 columns (2 vCPUs, numpy 2.4), on
# an L=8 chain and on a generalized model with interpolated r1, r3, the
# builders tie at 6 columns (grid/per-column time 0.99-1.02 and 0.97-1.00)
# and the grid is faster from 7 on (0.81-0.83 and 0.82-0.84; 0.40 and 0.42
# at 12).  The L<=5 chains of the suites and the `gl3ff ff` table reach at
# most 5 columns, so they keep the per-column code.
GRID_MIN_COLS = 7


def sector_shift(kind: tuple, a: int, b: int) -> tuple:
    """Sector (a', b') of the left state pairing with a right state (a, b)."""
    i, j = kind
    return a + (i == 1) - (j == 1), b + (j == 3) - (i == 3)


def det_lu(m: np.ndarray) -> complex:
    """Determinant via LU with partial pivoting; the empty matrix gives 1,
    and a matrix with a non-finite entry raises ``NonFiniteResult``."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"square matrix required, got shape {m.shape}")
    if m.size and not np.isfinite(m).all():
        raise NonFiniteResult("matrix contains non-finite entries")
    return complex(np.linalg.det(m))


def _element(pref: complex, m: np.ndarray, what: str) -> complex:
    """``pref * det(m)`` for a public element function; an overflow in the
    matrix or in the product raises instead of returning ``inf``/``nan``."""
    try:
        value = pref * det_lu(m)
    except NonFiniteResult:
        raise NonFiniteResult(
            f"{what}: determinant matrix has non-finite entries") from None
    if not cmath.isfinite(value):
        raise NonFiniteResult(f"{what} is not finite: {value}")
    return value


def lu_condition(m: np.ndarray) -> float:
    """2-norm condition estimate reported alongside tabulated values."""
    m = np.asarray(m, dtype=complex)
    if m.size == 0:
        return 1.0
    return float(np.linalg.cond(m))


@dataclass(frozen=True)
class FFAssembly:
    """Validated row/column bookkeeping for one determinant evaluation."""

    u_left: tuple
    v_left: tuple
    u_right: tuple
    v_right: tuple
    z: complex
    model: ModelFunctions

    @property
    def cols(self) -> tuple:
        return self.u_right + self.v_left + (self.z,)

    @property
    def n_rows(self) -> int:
        return len(self.u_left) + len(self.v_right)

    @cached_property
    def _grid(self) -> "_Grid":
        """Difference arrays of the grid builder, formed once per assembly
        (the assemblies of a grid-size :class:`_Part` share its grid)."""
        return _Grid(self)


class _Grid:
    """Differences ``d = q - x`` between every root ``q`` of ``u_left +
    v_right + u_right + v_left`` (row blocks ``U``, ``VR``, ``UR``, ``VL``)
    and every column point ``x``, with the kernel's pole masks ``zero``
    (``|d| <= tol``), ``plus`` (``|d + c| <= tol``) and ``minus``
    (``|c - d| <= tol``).

    A kernel term of a column point and a root is a function of ``d``:
    ``t(q, x) = c^2 / (d (d + c))``, ``t(x, q) = c^2 / (-d (c - d))``,
    ``h(q, x) = (d + c) / c``, ``1/f(x, q) = -d / (c - d)`` and so on, so
    every product over a root set is a product along the row axis of one
    block.  Each piece returns None when a mask finds a pole in a term it
    uses; its per-column builder then raises that pole's error.

    r1 is taken only at the right u-roots and z, r3 only at the left v-roots
    and z (see :func:`n_column`); the columns are ``u_right + v_left +
    (z,)``, so the others are known by index.
    """

    def __init__(self, asm: FFAssembly):
        self.model = weakref.ref(asm.model)  # for r1 and r3 alone
        c = self.c = asm.model.c
        nu, nr, a = len(asm.u_left), asm.n_rows, len(asm.u_right)
        self.a = a
        self.U, self.VR = slice(0, nu), slice(nu, nr)
        self.UR, self.VL = slice(nr, nr + a), slice(nr + a, None)
        self.cols = asm.cols
        self.x = np.array(asm.cols, dtype=complex)
        q = self.q = np.array(asm.u_left + asm.v_right + asm.u_right
                              + asm.v_left, dtype=complex)
        d = self.d = q[:, None] - self.x
        tol = pole_tol(c)
        self.zero = np.abs(d) <= tol
        self.plus = np.abs(d + c) <= tol
        self.minus = np.abs(c - d) <= tol

    def clear(self, same_state: bool) -> bool:
        """Whether every guard of :func:`assemble` passes: distinct column
        labels (rows UR and VL are the columns but the last), rows apart
        from columns, and h(v_left, u_right) != 0."""
        n = self.VR.stop
        return not (np.triu(self.zero[n:], 1).any()
                    or (not same_state and self.zero[:n].any())
                    or self.plus[self.VL, :self.a].any())

    def prefactor(self):
        """:func:`prefactor_H`: its six partial products, each over a
        C-contiguous array of the per-column builder's terms in its order
        (Delta(cols): the lower triangle of rows UR and VL, then z's row),
        multiplied in its order, so that the same ones overflow."""
        c, d, q, n, a = self.c, self.d, self.q, self.VR.stop, self.a
        g_args = [np.subtract.outer(p, p)[~np.tri(len(p), dtype=bool)]
                  for p in (q[self.U], q[self.VR])]  # Delta' pairs j < k
        g_args.append(np.concatenate((
            d[n:, :-1][np.tri(len(q) - n, k=-1, dtype=bool)],
            self.x[-1] - self.x[:-1])))
        if self.plus[self.VL, :a].any() or any(
                (np.abs(g) <= pole_tol(c)).any() for g in g_args):
            return None
        with np.errstate(over="ignore", invalid="ignore"):
            h_cu, h_vc, ih_vu, dp_u, dp_v, d_c = (complex(p.prod()) for p in (
                np.ascontiguousarray(((c - d[self.UR]) / c).T),
                (d[self.VL] + c) / c, c / (d[self.VL, :a] + c),
                *(c / g for g in g_args)))
        return h_cu * h_vc * ih_vu * dp_u * dp_v * d_c

    def _at_cols(self, r, killed: range) -> np.ndarray:
        """The ratio ``r`` at the column points in column order, with 0 at
        the ``killed`` columns in place of a call."""
        return np.array([0j if k in killed else r(x)
                         for k, x in enumerate(self.cols)], dtype=complex)

    @cached_property
    def v_factors(self) -> tuple:
        """The column vectors of :func:`_v_factors`."""
        c, d = self.c, self.d
        vr, ur, vl = d[self.VR], d[self.UR], d[self.VL]
        sign = -1.0 if (vr.shape[0] - 1) % 2 else 1.0
        r3 = self._at_cols(self.model().r3, range(self.a))
        with np.errstate(over="ignore", invalid="ignore"):
            return (sign, r3, ((c - vr) / c).prod(axis=0),
                    (-ur / (c - ur)).prod(axis=0),
                    ((vr + c) / c).prod(axis=0),
                    (c / (vl + c)).prod(axis=0))

    def n_matrix(self):
        rows = slice(0, self.VR.stop)
        if ((self.zero[rows] | self.plus[rows] | self.minus[rows]).any()
                or self.minus[self.UR].any() or self.plus[self.VL].any()):
            return None
        c, d = self.c, self.d
        u, v = d[self.U], d[self.VR]
        out = np.empty(d[rows].shape, dtype=complex)
        if u.size:
            sign = -1.0 if (u.shape[0] - 1) % 2 else 1.0
            r1 = self._at_cols(self.model().r1,
                               range(self.a, len(self.cols) - 1))
            ur, vl = d[self.UR], d[self.VL]
            with np.errstate(over="ignore", invalid="ignore"):
                if_vx = (vl / (vl + c)).prod(axis=0)
                ih_xu = (c / (c - ur)).prod(axis=0)
                out[self.U] = (sign * (c * c / (u * (u + c))) * r1
                               * ((u + c) / c).prod(axis=0) * if_vx * ih_xu
                               + (c * c / (-u * (c - u)))
                               * ((c - u) / c).prod(axis=0) * ih_xu)
        if v.size:
            sign, r3, h_xv, if_xu, h_vx, ih_vx = self.v_factors
            with np.errstate(over="ignore", invalid="ignore"):
                out[self.VR] = (sign * (c * c / (-v * (c - v))) * r3 * h_xv
                                * if_xu * ih_vx
                                + (c * c / (v * (v + c))) * h_vx * ih_vx)
        return out

    def diag_bracket(self):
        """The bracket row of :func:`y_row_diag` over the z-free columns."""
        c, d = self.c, self.d
        cu, cv = slice(0, self.a), slice(self.a, -1)
        if (self.zero[self.VR, cu].any() or self.plus[self.VL, cu].any()
                or self.zero[self.U, cv].any()
                or self.minus[self.UR, cv].any()):
            return None
        vr, vl = d[self.VR, cu], d[self.VL, cu]
        u, ur = d[self.U, cv], d[self.UR, cv]
        out = np.empty(len(self.cols) - 1, dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            out[:self.a] = (self.x[cu] / c) * (
                ((vr + c) / vr).prod(axis=0) * (vl / (vl + c)).prod(axis=0)
                - 1.0)
            out[self.a:] = ((self.x[cv] + c) / c) * (
                ((c - u) / -u).prod(axis=0) * (-ur / (c - ur)).prod(axis=0)
                - 1.0)
        return out

    def y_row_13(self):
        if self.minus[self.UR].any() or self.plus[self.VL].any():
            return None
        sign, r3, h_xv, if_xu, h_vx, ih_vx = self.v_factors
        with np.errstate(over="ignore", invalid="ignore"):
            return sign * r3 * h_xv * if_xu * ih_vx + h_vx * ih_vx


def assemble(left: BetheState, right: BetheState, z: complex,
             same_state: bool = False) -> FFAssembly:
    """Build and validate the column set {u_right, v_left, z}.

    With ``same_state`` the row-versus-column distinctness check is skipped:
    the regularised diagonal branch never evaluates the generic entries.
    """
    model = left.model
    if abs(model.c - right.model.c) > pole_tol(model.c):
        raise ValueError("left and right states use different couplings")
    asm = FFAssembly(u_left=left.u, v_left=left.v, u_right=right.u,
                     v_right=right.v, z=complex(z), model=model)
    if len(asm.cols) >= GRID_MIN_COLS and asm._grid.clear(same_state):
        return asm
    _label_guards(asm, same_state)
    if collision(asm.v_left, asm.u_right, model.c, -model.c) is not None:
        raise PoleError("prefactor denominator h(v_left, u_right) ~ 0")
    return asm


def _label_guards(asm: FFAssembly, same_state: bool) -> None:
    """Raise the PoleError of the first pair of coinciding column labels,
    then, unless ``same_state``, of the first row label on a column point."""
    cols = asm.cols
    hit = collision(cols, cols, asm.model.c, keep=operator.lt)
    if hit is not None:
        raise _label_clash(cols, *hit)
    if not same_state:
        _row_guard(asm, cols)


def _probe_guards(asm: FFAssembly, same_state: bool) -> None:
    """The guards of :func:`_label_guards` that involve the probe point, on
    an assembly whose other columns passed them: the probe point against
    the other columns, then against the rows.  The error is the one the
    full test would raise."""
    cols = asm.cols
    hit = collision(cols[:-1], cols[-1:], asm.model.c)
    if hit is not None:
        raise _label_clash(cols, hit[0], len(cols) - 1)
    if not same_state:
        _row_guard(asm, cols[-1:])


def _label_clash(cols: tuple, j: int, k: int) -> PoleError:
    """The error of the column labels ``j`` and ``k``."""
    return PoleError(
        f"column labels {j} and {k} collide ({cols[j]} ~ {cols[k]})")


def _row_guard(asm: FFAssembly, points: tuple) -> None:
    """Raise the PoleError of the first row label on one of ``points``."""
    rows = asm.u_left + asm.v_right
    hit = collision(rows, points, asm.model.c)
    if hit is not None:
        raise PoleError(
            f"row label {rows[hit[0]]} collides with column point "
            f"{points[hit[1]]}; shared roots between the two states "
            "are outside the generic-position formulas")


def prefactor_H(u_left: Sequence[complex], v_left: Sequence[complex],
                u_right: Sequence[complex], v_right: Sequence[complex],
                cols: Sequence[complex], c: complex) -> complex:
    """Scalar prefactor

        h(cols, u_right) h(v_left, cols) / h(v_left, u_right)
            * Delta'(u_left) Delta'(v_right) Delta(cols)

    shared by every determinant representation, from the scalar kernel
    products.  Passing ``cols`` without the probe point (only the merged
    root sets) yields the norm prefactor.  An element below
    ``GRID_MIN_COLS`` columns takes it over its columns but the probe point,
    times :func:`_probe_factor`; from there on :meth:`_Grid.prefactor`,
    unless that finds a pole."""
    u_left, v_left = tuple(u_left), tuple(v_left)
    u_right, v_right = tuple(u_right), tuple(v_right)
    cols = tuple(cols)
    return (h_prod(cols, u_right, c) * h_prod(v_left, cols, c)
            * inv_h_prod(v_left, u_right, c) * delta_prime(u_left, c)
            * delta_prime(v_right, c) * delta(cols, c))


def _probe_factor(asm: FFAssembly) -> complex:
    """p(z), the factors of :func:`prefactor_H` over ``asm.cols`` in the
    probe point z: h(z, u_right) h(v_left, z) and the pairs g(z, x) of
    Delta(cols), x over the other columns ``u_right + v_left``.  The
    prefactor over the other columns times p(z) is the element's prefactor.
    Since h(z, u) g(z, u) = f(z, u) and h(v, z) g(z, v) = -f(v, z),
    p(z) = (-1)^b_left f(z, u_right) f(v_left, z)."""
    c, z = asm.model.c, asm.z
    sign = -1.0 if len(asm.v_left) % 2 else 1.0
    return sign * f_prod(z, asm.u_right, c) * f_prod(asm.v_left, z, c)


def _v_factors(asm: FFAssembly, x: complex) -> tuple:
    """Row-independent factors of the v-rows at column point ``x``: the
    parity sign, r3(x), h(x, v_right), 1/f(x, u_right), h(v_right, x) and
    1/h(v_left, x).  At a right u-root 1/f(x, u_right) is 0, and 0 stands
    in for r3(x), which is not called."""
    m = asm.model
    c = m.c
    sign = -1.0 if (len(asm.v_right) - 1) % 2 else 1.0
    r3 = 0j if x in asm.u_right else m.r3(x)
    return (sign, r3, h_prod(x, asm.v_right, c),
            inv_f_prod(x, asm.u_right, c), h_prod(asm.v_right, x, c),
            inv_h_prod(asm.v_left, x, c))


def n_column(asm: FFAssembly, x: complex) -> list:
    """Matrix entries of every row at column point ``x``.

    Rows 0..len(u_left)-1 are u-type, the rest v-type.  Each entry is a row
    factor t(u_j, x) or t(x, v_j) times products that depend on ``x`` alone,
    which are built once per column.  The closed form uses only t/h ratios,
    so it stays finite at columns equal to right u-roots or left v-roots,
    where the r3 term of a v-row (the r1 term of a u-row) is killed by a
    zero of 1/f(x, u_right) (of 1/f(v_left, x)).  There 0 stands in for the
    ratio, which is not called, so a pole of the ratio at such a root does
    not end the entry.
    """
    m = asm.model
    c = m.c
    out = []
    if asm.u_left:
        sign = -1.0 if (len(asm.u_left) - 1) % 2 else 1.0
        r1 = 0j if x in asm.v_left else m.r1(x)
        h_ux = h_prod(asm.u_left, x, c)
        if_vx = inv_f_prod(asm.v_left, x, c)
        ih_xu = inv_h_prod(x, asm.u_right, c)
        h_xu = h_prod(x, asm.u_left, c)
        out += [sign * t(uj, x, c) * r1 * h_ux * if_vx * ih_xu
                + t(x, uj, c) * h_xu * ih_xu for uj in asm.u_left]
    if asm.v_right:
        sign, r3, h_xv, if_xu, h_vx, ih_vx = _v_factors(asm, x)
        out += [sign * t(x, vj, c) * r3 * h_xv * if_xu * ih_vx
                + t(vj, x, c) * h_vx * ih_vx for vj in asm.v_right]
    return out


def n_entry_tau_form(asm: FFAssembly, row: int, x: complex) -> complex:
    """Cross-check form of the entry ``n_column(asm, x)[row]``, built from the
    analytic derivative of the eigenvalue tau instead of the explicit t/h
    expression.

    The only algebraic preparation is the pairing g/f = 1/h on the right
    u-set, needed for the expression to stay finite at those columns; at
    columns equal to left v-roots this form is structurally 0 * inf and
    cannot be evaluated.  The derivatives come from
    :func:`~gl3ff.model.dtau_droots`, in every root of the state at once,
    so a point at a pole of t(x, q) or t(q, x) for any root q of that state
    raises its ``PoleError``.
    """
    m = asm.model
    c = m.c
    n_u = len(asm.u_left)
    left_roots = RootConfig(u=asm.u_left, v=asm.v_left)
    right_roots = RootConfig(u=asm.u_right, v=asm.v_right)
    if row < n_u:
        coef = (c * inv_h_prod(x, asm.u_right, c)
                * inv_f_prod(asm.v_left, x, c)
                * inv_g_prod(x, asm.u_left, c))
        return coef * dtau_droots(x, left_roots, m)[0][row]
    coef = (-c * inv_h_prod(asm.v_left, x, c)
            * inv_f_prod(x, asm.u_right, c)
            * inv_g_prod(asm.v_right, x, c))
    return coef * dtau_droots(x, right_roots, m)[1][row - n_u]


def n_matrix(asm: FFAssembly) -> np.ndarray:
    cols = asm.cols
    if len(cols) >= GRID_MIN_COLS:
        out = asm._grid.n_matrix()
        if out is not None:
            return out
    out = np.empty((asm.n_rows, len(cols)), dtype=complex)
    for k, x in enumerate(cols):
        out[:, k] = n_column(asm, x)
    return out


def y_row_diag(asm: FFAssembly, s: int, same_state: bool) -> np.ndarray:
    """Closing row for the diagonal entries, one component per column.

    Its z-free components are the Kronecker pattern of the colour ``s``
    (d_s2 - d_s1 at the a right u-roots, d_s2 - d_s3 at the b left v-roots)
    plus (d_s1 - d_s3) times a bracket row that does not depend on ``s``
    (:func:`_column_diag_bracket`), so the three rows sum to zero there.
    Colour 2 and the ``same_state`` rows are the pattern alone.  The final
    component is built from the left state's roots.
    """
    if s not in (1, 2, 3):
        raise ValueError(f"s must be 1, 2 or 3, got {s}")
    a = len(asm.u_right)
    out = np.empty(len(asm.cols), dtype=complex)
    out[:a] = (s == 2) - (s == 1)
    out[a:-1] = (s == 2) - (s == 3)
    if s != 2 and not same_state:
        bracket = (asm._grid.diag_bracket()
                   if len(asm.cols) >= GRID_MIN_COLS else None)
        if bracket is None:
            bracket = _column_diag_bracket(asm)
        if s == 1:
            out[:-1] += bracket
        else:
            out[:-1] -= bracket
    out[-1] = _y_diag_entry(asm, s)
    return out


def _y_diag_entry(asm: FFAssembly, s: int) -> complex:
    """The last component of :func:`y_row_diag`, the only one that depends
    on the probe point."""
    if s == 2:
        return 1.0
    m = asm.model
    c, z = m.c, asm.z
    denom = inv_f_prod(asm.v_left, z, c) * inv_f_prod(z, asm.u_left, c)
    if s == 1:
        return m.r1(z) * f_prod(asm.u_left, z, c) * denom
    return m.r3(z) * f_prod(z, asm.v_left, c) * denom


def _column_diag_bracket(asm: FFAssembly) -> np.ndarray:
    """The bracket row of :func:`y_row_diag` over the z-free columns, built
    per column: (x/c) [f(v_right, x) / f(v_left, x) - 1] at a right u-root
    x, ((x + c)/c) [f(x, u_left) / f(x, u_right) - 1] at a left v-root x.
    It vanishes when the two states coincide."""
    c = asm.model.c
    out = np.empty(len(asm.cols) - 1, dtype=complex)
    a = len(asm.u_right)
    for k, ub in enumerate(asm.u_right):
        out[k] = (ub / c) * (f_prod(asm.v_right, ub, c)
                             * inv_f_prod(asm.v_left, ub, c) - 1.0)
    for k, vc in enumerate(asm.v_left):
        out[a + k] = ((vc + c) / c) * (f_prod(vc, asm.u_left, c)
                                       * inv_f_prod(vc, asm.u_right, c) - 1.0)
    return out


def y_row_13(asm: FFAssembly) -> np.ndarray:
    """Closing row for the (1,3) entry over the full column set: the v-row
    entry without its row factors.  Its sign (-1)^b_left equals the v-row
    sign, b_left being one more than the number of v-rows."""
    if len(asm.cols) >= GRID_MIN_COLS:
        out = asm._grid.y_row_13()
        if out is not None:
            return out
    out = np.empty(len(asm.cols), dtype=complex)
    for k, x in enumerate(asm.cols):
        out[k] = _y13_entry(asm, x)
    return out


def _y13_entry(asm: FFAssembly, x: complex) -> complex:
    """The component of :func:`y_row_13` at column point ``x``."""
    sign, r3, h_xv, if_xu, h_vx, ih_vx = _v_factors(asm, x)
    return sign * r3 * h_xv * if_xu * ih_vx + h_vx * ih_vx


def _require_untwisted(*states: BetheState) -> None:
    for st in states:
        if not st.twist.is_identity():
            raise ValueError("determinant representations require untwisted states")


def _check_sector(kind: tuple, left: BetheState, right: BetheState) -> None:
    ap, bp = sector_shift(kind, right.a, right.b)
    if ap < 0 or bp < 0:
        raise SectorMismatch(
            f"entry {kind} needs left sector ({ap}, {bp}) which does not exist")
    if (left.a, left.b) != (ap, bp):
        raise SectorMismatch(
            f"entry {kind}: left sector ({left.a}, {left.b}) != required ({ap}, {bp})")


def _same_state_rows(asm: FFAssembly) -> np.ndarray:
    """The rows above the closing row of the regularised diagonal-entry
    matrix for coinciding root sets.

    The naive entries develop cancelling poles there, so the first columns
    are the Gaudin matrix, the last column carries the scaled tau
    derivatives and the closing row collapses to its Kronecker pattern.
    """
    roots = RootConfig(u=asm.u_left, v=asm.v_left)
    n = roots.a + roots.b
    rows = np.empty((n, n + 1), dtype=complex)
    rows[:, :n] = gaudin_matrix(roots, asm.model)
    rows[:, n] = _tau_column(asm)
    return rows


def _tau_column(asm: FFAssembly) -> list:
    """The rows of the same-state matrix at the probe point: the tau
    derivatives in each root, times 1/(f(z, u) f(v, z))."""
    m = asm.model
    c, z = m.c, asm.z
    scale = inv_f_prod(z, asm.u_left, c) * inv_f_prod(asm.v_left, z, c)
    du, dv = dtau_droots(z, RootConfig(u=asm.u_left, v=asm.v_left), m)
    return [c * d * scale for d in du] + [-c * d * scale for d in dv]


def _row_keys(kind: tuple) -> tuple:
    """The rows of the matrix of ``kind`` (see :func:`_rows`): the N rows,
    then the closing row of a diagonal entry's colour or of the (1,3)/(3,1)
    pair.  Two kinds on one assembly with the same keys have the same
    matrix."""
    i, j = kind
    if i == j:
        return None, i
    return (None, (1, 3)) if kind in ((1, 3), (3, 1)) else (None,)


def _rows(asm: FFAssembly, key, same: bool) -> np.ndarray:
    """Rows of the matrices on ``asm`` over all columns: for ``key`` None
    the N rows (in the same-state branch the Gaudin block and tau column),
    else the closing row of a diagonal colour or of (1,3)."""
    if key is None:
        return _same_state_rows(asm) if same else n_matrix(asm)
    if key == (1, 3):
        return y_row_13(asm)[None]
    return y_row_diag(asm, key, same)[None]


def _last_column(asm: FFAssembly, key, same: bool):
    """The last column of :func:`_rows`, the only one that involves the
    probe point."""
    if key is None:
        return _tau_column(asm) if same else n_column(asm, asm.z)
    if key == (1, 3):
        return _y13_entry(asm, asm.z)
    return _y_diag_entry(asm, key)


class _Part:
    """The z-free part of the elements on one assembly (its two states
    after the exchange of the (2,3), (2,1) and (3,1) entries).  The first
    call on the assembly builds it at its probe point z0, and every call,
    that one included, takes its element from it.

    It holds the validated roots and branch, the kinds whose twist and
    sector checks passed on its states, P0 (:func:`prefactor_H` over
    every column but the probe point), the prefactor P0 * p(z0) (see
    :func:`_probe_factor`), and the rows of the matrix (:func:`_rows`), each
    built whole by the first call that needs it and kept with its probe
    point: the N rows and each closing row some kind needed.  Only their
    last column involves z.  Below ``GRID_MIN_COLS`` columns every entry is
    built from its own column point, so at another z a call runs the guards
    that involve z and builds only the last column and p(z), and no value or
    error depends on the order of the calls.  From ``GRID_MIN_COLS`` on the
    grid builds the z column in the same array pass as the others, and a
    column built on its own does not match it in every bit, so a part there
    serves its z0 only, and its prefactor (over all columns; no P0) and
    rows come from the one :class:`_Grid` it keeps.  States and model are
    held by weak reference, as in the grid, so the part keeps no model
    alive; its rows are read-only."""

    def __init__(self, left: BetheState, right: BetheState, asm: FFAssembly,
                 same: bool, near: bool):
        self.left, self.right = weakref.ref(left), weakref.ref(right)
        self.model = weakref.ref(asm.model)
        self.roots = (asm.u_left, asm.v_left, asm.u_right, asm.v_right)
        self.same, self.near, self.z0 = same, near, asm.z
        self.grid = asm._grid if len(asm.cols) >= GRID_MIN_COLS else None
        self.checked = set()
        if self.grid is not None:
            self.pref0 = self.grid.prefactor()
            if self.pref0 is None:  # raises the error of its pole
                self.pref0 = prefactor_H(*self.roots, asm.cols, asm.model.c)
        else:
            self.p0 = prefactor_H(*self.roots, asm.cols[:-1], asm.model.c)
            self.pref0 = self.p0 * _probe_factor(asm)
        self.kept = {}

    def holds(self, left: BetheState, right: BetheState) -> bool:
        return self.left() is left and self.right() is right

    def serves(self, z: complex) -> bool:
        return self.grid is None or z == self.z0

    def assembly(self, z: complex) -> FFAssembly:
        """The assembly at the probe point ``z``, after the guards that
        involve it if it is new, else on the part's grid if it keeps one."""
        asm = FFAssembly(*self.roots, z=z, model=self.model())
        if z != self.z0:
            _probe_guards(asm, self.same)
        elif self.grid is not None:
            asm.__dict__["_grid"] = self.grid  # the cached_property's slot
        return asm

    def rows(self, asm: FFAssembly, key) -> np.ndarray:
        """The rows ``key`` at the assembly's probe point: built whole and
        kept on first need, else the kept rows, with their last column
        rebuilt if they were built at another z."""
        kept = self.kept.get(key)
        if kept is None:
            rows = _rows(asm, key, self.same)
            rows.flags.writeable = False
            self.kept[key] = rows, asm.z
            return rows
        rows, z = kept
        if asm.z != z:
            rows = rows.copy()
            rows[:, -1] = _last_column(asm, key, self.same)
        return rows


# the part of the most recent assembly (see determinant_element)
_last = None


def determinant_element(kind: tuple, left: BetheState, right: BetheState,
                        z: complex) -> tuple:
    """``(value, matrix, same_state)`` for the entry T(i,j) between two
    on-shell states: ``value = prefactor * det(matrix)`` and ``same_state``
    tells whether a diagonal entry took the regularised same-state branch.
    The (2,3), (2,1) and (3,1) entries are evaluated with the two states
    exchanged.  The matrix is a new array on every call.

    All kinds of one sector pair share the assembly (its two states after
    the exchange), the prefactor and the N rows; they differ only in the
    closing row.  Only the last column of the matrix, the closing row's
    last entry and the prefactor's factors h(z, u_right), h(v_left, z) and
    the pairs of Delta(cols) with z depend on ``z``.  Every element is taken
    from the :class:`_Part` of its assembly, which the first call on the
    assembly builds and which is kept until a call on another assembly.  A
    call at the part's z0 builds at most its own closing row; a call at
    another z below ``GRID_MIN_COLS`` columns runs the guards that involve
    z and builds the last column, the closing entry and p(z); from
    ``GRID_MIN_COLS`` columns on, a call at another z builds a new part.
    The twist and sector checks run once for each kind a part serves: its
    states are immutable and held by identity, so a repeat call of a kind
    cannot fail them.  The near-degeneracy warning is issued on every call.
    No value, matrix or error depends on the order of the calls.
    """
    global _last
    kind = (int(kind[0]), int(kind[1]))
    if kind not in KINDS:
        raise ValueError(f"unknown entry {kind}")
    i, j = kind
    states = ((right, left) if kind in ((2, 3), (2, 1), (3, 1))
              else (left, right))
    part = _last if _last is not None and _last.holds(*states) else None
    if part is None or kind not in part.checked:
        _require_untwisted(left, right)
        _check_sector(kind, left, right)
    left, right = states
    z = complex(z)
    if part is not None and part.serves(z):
        same, near = part.same, part.near
    else:
        part = None
        # one matching decides both branches (SAME_STATE_TOL is the smaller)
        dist = (states_distance(left.roots, right.roots, NEAR_DEGENERATE_TOL)
                if i == j else np.inf)
        same = dist < SAME_STATE_TOL
        near = not same and dist < NEAR_DEGENERATE_TOL
    if near:
        warnings.warn(
            "root multisets nearly coincide; both evaluation branches of "
            "the diagonal form factor are ill-conditioned here",
            DegeneracyWarning, stacklevel=3)
    if part is None:
        asm = assemble(left, right, z, same_state=same)
        part = _last = _Part(left, right, asm, same, near)
    else:
        asm = part.assembly(z)
    part.checked.add(kind)
    pref = part.pref0 if z == part.z0 else part.p0 * _probe_factor(asm)
    mat = np.concatenate([part.rows(asm, key) for key in _row_keys(kind)])
    if i == j:
        pref = (-1.0 if len(asm.v_right) % 2 else 1.0) * pref
    elif kind in ((1, 3), (3, 1)):
        pref = (-1.0 if len(asm.v_left) % 2 else 1.0) * pref
    return _element(pref, mat, f"T{kind}"), mat, same


def form_factor(kind: tuple, left: BetheState, right: BetheState,
                z: complex) -> complex:
    """Matrix element of any of the nine entries T(i,j) between two on-shell
    states (see :func:`determinant_element`; the calls on one assembly share
    its z-free part, so a run of kinds and z on one pair builds the z-free
    columns once)."""
    return determinant_element(kind, left, right, z)[0]


def ff_diag(s: int, left: BetheState, right: BetheState, z: complex) -> complex:
    """Matrix element of the diagonal entry T(s,s) between two on-shell
    states of equal sector; dispatches between the generic determinant and
    its regularised same-state limit."""
    return form_factor((s, s), left, right, z)


def norm_squared(state: BetheState) -> complex:
    """Bilinear square of the norm of an untwisted on-shell state:
    prefactor (over the merged root sets, no probe column) times the Gaudin
    determinant."""
    _require_untwisted(state)
    cols = state.u + state.v
    pref = prefactor_H(state.u, state.v, state.u, state.v, cols,
                       state.model.c)
    return _element(pref, gaudin_matrix(state.roots, state.model), "norm")


def omega_vector(u_left: Sequence[complex], v_left: Sequence[complex],
                 u_right: Sequence[complex], v_right: Sequence[complex],
                 c: complex) -> np.ndarray:
    """Row-combination coefficients: exclusion g-products of each left u-root
    (right v-root) against its own set over the g-product against the other
    state's set."""
    u_left, v_left = tuple(u_left), tuple(v_left)
    u_right, v_right = tuple(u_right), tuple(v_right)
    out = np.empty(len(u_left) + len(v_right), dtype=complex)
    for j in range(len(u_left)):
        out[j] = (g_prod(u_left[j], exclude(u_left, j), c)
                  * inv_g_prod(u_left[j], u_right, c))
    for j in range(len(v_right)):
        out[len(u_left) + j] = (g_prod(v_right[j], exclude(v_right, j), c)
                                * inv_g_prod(v_right[j], v_left, c))
    return out


def s_function(x: complex, omega: np.ndarray, asm: FFAssembly) -> complex:
    """Omega-weighted sum of the matrix rows evaluated at column point x."""
    if len(omega) != asm.n_rows:
        raise ValueError("omega length must match the number of rows")
    return sum(w * e for w, e in zip(omega, n_column(asm, x)))


def s_function_reference(x: complex, left: BetheState, right: BetheState) -> complex:
    """Independent closed form of the same sum:
    (tau_left(x) - tau_right(x)) / (f(v_left, x) f(x, u_right))."""
    m = left.model
    num = tau(x, left.roots, m) - tau(x, right.roots, m)
    return num * inv_f_prod(left.v, x, m.c) * inv_f_prod(x, right.u, m.c)


def appendix_identities(u_left: Sequence[complex], u_right: Sequence[complex],
                        v_left: Sequence[complex], v_right: Sequence[complex],
                        z: complex, c: complex) -> dict:
    """Evaluate both sides of the four omega summation identities.

    Returns a mapping name -> (lhs, rhs, relative residual).  The u-pair and
    v-pair of sets must have equal cardinalities; inputs are generic points,
    no on-shell condition is involved.
    """
    u_left, u_right = tuple(u_left), tuple(u_right)
    v_left, v_right = tuple(v_left), tuple(v_right)
    if len(u_left) != len(u_right) or len(v_left) != len(v_right):
        raise ValueError("set pairs must have equal cardinalities")
    omega = omega_vector(u_left, v_left, u_right, v_right, c)
    a = len(u_left)

    def rel(lhs, rhs):
        return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30)

    out = {}
    # each colour: its rows (u_left, v_right), the other state's set of the
    # same colour and the rows' omega weights
    for name, rows, other, w in (("u", u_left, u_right, omega[:a]),
                                 ("v", v_right, v_left, omega[a:])):
        lhs = sum(t(q, z, c) * wq for q, wq in zip(rows, w))
        rhs = (h_prod(other, z, c) * inv_h_prod(rows, z, c)
               * (1.0 - f_prod(rows, z, c) * inv_f_prod(other, z, c)))
        out[f"{name}_row_from_left"] = (lhs, rhs, rel(lhs, rhs))
        lhs = sum(t(z, q, c) * wq for q, wq in zip(rows, w))
        rhs = (h_prod(z, other, c) * inv_h_prod(z, rows, c)
               * (f_prod(z, rows, c) * inv_f_prod(z, other, c) - 1.0))
        out[f"{name}_row_from_right"] = (lhs, rhs, rel(lhs, rhs))
    return out


def gl2_ff(kind: tuple, u_left: Sequence[complex], u_right: Sequence[complex],
           z: complex, model: ModelFunctions) -> complex:
    """Reference value of the entry ``kind`` in (1,2), (2,1), (1,1), (2,2)
    for states without v-roots, built from the rank-1 eigenvalue derivative
    (independent of the t/h closed form).  The annihilation entry is the
    creation formula with the two u-sets exchanged; the diagonal entries
    between distinct states add one closing row."""
    u_left, u_right = tuple(u_left), tuple(u_right)
    if kind == (1, 2):
        if len(u_left) != len(u_right) + 1:
            raise SectorMismatch("left set must have one more root")
    elif kind == (2, 1):
        if len(u_right) != len(u_left) + 1:
            raise SectorMismatch("right set must have one more root")
        u_left, u_right = u_right, u_left
    elif kind in ((1, 1), (2, 2)):
        if len(u_left) != len(u_right):
            raise SectorMismatch("equal sectors required")
    else:
        raise ValueError(f"no rank-1 reference entry of kind {kind}")
    c = model.c
    a = len(u_left)
    cols = u_right + (z,)
    roots = RootConfig(u=u_left, v=())
    mat = np.empty((len(cols), len(cols)), dtype=complex)
    for k, x in enumerate(cols):
        coef = c * inv_g_prod(x, u_left, c)
        mat[:a, k] = [coef * d for d in dtau_droots(x, roots, model)[0]]
    if kind == (1, 1):
        sign = -1.0 if a % 2 else 1.0
        mat[a] = [sign * model.r1(x) * h_prod(u_right, x, c) for x in cols]
    elif kind == (2, 2):
        mat[a] = [h_prod(x, u_right, c) for x in cols]
    return delta_prime(u_left, c) * delta(cols, c) * det_lu(mat)
