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
(2,3) and (2,1) cases are evaluated with the roles of the two states
exchanged, which realises the transposition antimorphism.  Diagonal entries
and the (1,3)/(3,1) pair append one extra row to the same matrix.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (DegeneracyWarning, NonFiniteResult, PoleError,
                     SectorMismatch)
from .kernel import (delta, delta_prime, exclude, f_prod, g_prod, h, h_prod,
                     inv_f_prod, inv_g_prod, inv_h_prod, pole_tol, t)
from .model import (BetheState, ModelFunctions, RootConfig, dtau_du,
                    dtau_dv, gaudin_matrix, tau)
from .solver import states_equal

KINDS = ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3))

SAME_STATE_TOL = 1e-9
NEAR_DEGENERATE_TOL = 1e-5


def sector_shift(kind: tuple, a: int, b: int) -> tuple:
    """Sector (a', b') of the left state pairing with a right state (a, b)."""
    i, j = kind
    return a + (i == 1) - (j == 1), b + (j == 3) - (i == 3)


def det_lu(m: np.ndarray) -> complex:
    """Determinant via LU with partial pivoting; the empty matrix gives 1."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"square matrix required, got shape {m.shape}")
    if m.size and not np.all(np.isfinite(m)):
        raise ValueError("matrix contains non-finite entries")
    return complex(np.linalg.det(m))


def _element(pref: complex, m: np.ndarray, what: str) -> complex:
    """``pref * det(m)`` for a public element function; an overflow in the
    matrix or in the product raises instead of returning ``inf``/``nan``."""
    if m.size and not np.all(np.isfinite(m)):
        raise NonFiniteResult(f"{what}: determinant matrix has non-finite entries")
    value = pref * det_lu(m)
    if not np.isfinite(value):
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
    cols = asm.cols
    tol = pole_tol(model.c)
    for j in range(len(cols)):
        for k in range(j + 1, len(cols)):
            if abs(cols[j] - cols[k]) <= tol:
                raise PoleError(
                    f"column labels {j} and {k} collide ({cols[j]} ~ {cols[k]})")
    if not same_state:
        for lbl in asm.u_left + asm.v_right:
            for x in cols:
                if abs(lbl - x) <= tol:
                    raise PoleError(
                        f"row label {lbl} collides with column point {x}; "
                        "shared roots between the two states are outside the "
                        "generic-position formulas")
    for vl in asm.v_left:
        for ur in asm.u_right:
            if abs(h(vl, ur, model.c)) <= tol:
                raise PoleError("prefactor denominator h(v_left, u_right) ~ 0")
    return asm


def prefactor_H(u_left: Sequence[complex], v_left: Sequence[complex],
                u_right: Sequence[complex], v_right: Sequence[complex],
                cols: Sequence[complex], c: complex) -> complex:
    """Scalar prefactor

        h(cols, u_right) h(v_left, cols) / h(v_left, u_right)
            * Delta'(u_left) Delta'(v_right) Delta(cols)

    shared by every determinant representation.  Passing ``cols`` without the
    probe point (only the merged root sets) yields the norm prefactor.
    """
    u_left, v_left = tuple(u_left), tuple(v_left)
    u_right, v_right = tuple(u_right), tuple(v_right)
    cols = tuple(cols)
    return (h_prod(cols, u_right, c) * h_prod(v_left, cols, c)
            * inv_h_prod(v_left, u_right, c)
            * delta_prime(u_left, c) * delta_prime(v_right, c)
            * delta(cols, c))


def n_entry(asm: FFAssembly, row: int, x: complex) -> complex:
    """Matrix entry for row index ``row`` at column point ``x``.

    Rows 0..len(u_left)-1 are u-type, the rest v-type.  The closed form uses
    only t/h ratios, so it stays finite at columns equal to right u-roots or
    left v-roots (where the respective r-term is killed by an inverse-f zero).
    """
    m = asm.model
    c = m.c
    n_u = len(asm.u_left)
    if row < 0 or row >= asm.n_rows:
        raise IndexError(f"row {row} out of range")
    if row < n_u:
        uj = asm.u_left[row]
        sign = -1.0 if (n_u - 1) % 2 else 1.0
        term1 = (sign * t(uj, x, c) * m.r1(x)
                 * h_prod(asm.u_left, x, c)
                 * inv_f_prod(asm.v_left, x, c)
                 * inv_h_prod(x, asm.u_right, c))
        term2 = (t(x, uj, c) * h_prod(x, asm.u_left, c)
                 * inv_h_prod(x, asm.u_right, c))
        return term1 + term2
    vj = asm.v_right[row - n_u]
    n_v = len(asm.v_right)
    sign = -1.0 if (n_v - 1) % 2 else 1.0
    term1 = (sign * t(x, vj, c) * m.r3(x)
             * h_prod(x, asm.v_right, c)
             * inv_f_prod(x, asm.u_right, c)
             * inv_h_prod(asm.v_left, x, c))
    term2 = (t(vj, x, c) * h_prod(asm.v_right, x, c)
             * inv_h_prod(asm.v_left, x, c))
    return term1 + term2


def n_entry_tau_form(asm: FFAssembly, row: int, x: complex) -> complex:
    """Cross-check form of the same entry built from the analytic derivative
    of the eigenvalue tau instead of the explicit t/h expression.

    The only algebraic preparation is the pairing g/f = 1/h on the right
    u-set, needed for the expression to stay finite at those columns; at
    columns equal to left v-roots this form is structurally 0 * inf and
    cannot be evaluated.
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
        return coef * dtau_du(x, left_roots, m, row)
    j = row - n_u
    coef = (-c * inv_h_prod(asm.v_left, x, c)
            * inv_f_prod(x, asm.u_right, c)
            * inv_g_prod(asm.v_right, x, c))
    return coef * dtau_dv(x, right_roots, m, j)


def n_matrix(asm: FFAssembly) -> np.ndarray:
    cols = asm.cols
    out = np.empty((asm.n_rows, len(cols)), dtype=complex)
    for r in range(asm.n_rows):
        for k, x in enumerate(cols):
            out[r, k] = n_entry(asm, r, x)
    return out


def y_row_diag(asm: FFAssembly, s: int, same_state: bool) -> np.ndarray:
    """Closing row for the diagonal entries, one component per column.

    The first a components carry the Kronecker pattern of the colour ``s``
    plus a bracket that vanishes when the two v-sets coincide; the next b
    components mirror it for the u-sets; the final component only matters in
    the same-state case and is built from the left state's roots.
    """
    if s not in (1, 2, 3):
        raise ValueError(f"s must be 1, 2 or 3, got {s}")
    m = asm.model
    c = m.c
    d1, d2, d3 = (s == 1), (s == 2), (s == 3)
    out = np.empty(len(asm.cols), dtype=complex)
    a = len(asm.u_right)
    b = len(asm.v_left)
    for k, ub in enumerate(asm.u_right):
        val = complex(d2 - d1)
        if not same_state and (d1 or d3):
            bracket = (f_prod(asm.v_right, ub, c)
                       * inv_f_prod(asm.v_left, ub, c) - 1.0)
            val += (ub / c) * (d1 - d3) * bracket
        out[k] = val
    for k, vc in enumerate(asm.v_left):
        val = complex(d2 - d3)
        if not same_state and (d1 or d3):
            bracket = (f_prod(vc, asm.u_left, c)
                       * inv_f_prod(vc, asm.u_right, c) - 1.0)
            val += ((vc + c) / c) * (d1 - d3) * bracket
        out[a + k] = val
    z = asm.z
    u_ref, v_ref = asm.u_left, asm.v_left
    denom = inv_f_prod(v_ref, z, c) * inv_f_prod(z, u_ref, c)
    if d1:
        out[a + b] = m.r1(z) * f_prod(u_ref, z, c) * denom
    elif d2:
        out[a + b] = 1.0
    else:
        out[a + b] = m.r3(z) * f_prod(z, v_ref, c) * denom
    return out


def y_row_13(asm: FFAssembly) -> np.ndarray:
    """Closing row for the (1,3) entry over the full column set."""
    m = asm.model
    c = m.c
    b_left = len(asm.v_left)
    sign = -1.0 if b_left % 2 else 1.0
    out = np.empty(len(asm.cols), dtype=complex)
    for k, x in enumerate(asm.cols):
        term1 = (sign * m.r3(x) * h_prod(x, asm.v_right, c)
                 * inv_f_prod(x, asm.u_right, c)
                 * inv_h_prod(asm.v_left, x, c))
        term2 = h_prod(asm.v_right, x, c) * inv_h_prod(asm.v_left, x, c)
        out[k] = term1 + term2
    return out


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


def ff_offdiag(kind: tuple, left: BetheState, right: BetheState,
               z: complex) -> complex:
    """Matrix element of T(i,j) with |i-j| = 1 between two on-shell states."""
    if kind not in ((1, 2), (3, 2), (2, 3), (2, 1)):
        raise ValueError(f"not a first-off-diagonal entry: {kind}")
    _require_untwisted(left, right)
    _check_sector(kind, left, right)
    if kind in ((2, 3), (2, 1)):
        asm = assemble(right, left, z)
    else:
        asm = assemble(left, right, z)
    pref = prefactor_H(asm.u_left, asm.v_left, asm.u_right, asm.v_right,
                       asm.cols, asm.model.c)
    return _element(pref, n_matrix(asm), f"T{kind}")


def _same_state_matrix(asm: FFAssembly, s: int) -> np.ndarray:
    """Regularised diagonal-entry matrix for coinciding root sets.

    The naive entries develop cancelling poles there, so the top-left block
    is the Gaudin matrix, the last column carries the scaled tau derivatives
    and the closing row collapses to its Kronecker pattern.
    """
    m = asm.model
    c = m.c
    roots = RootConfig(u=asm.u_left, v=asm.v_left)
    a, b = roots.a, roots.b
    z = asm.z
    scale = inv_f_prod(z, roots.u, c) * inv_f_prod(roots.v, z, c)
    mat = np.zeros((a + b + 1, a + b + 1), dtype=complex)
    mat[:a + b, :a + b] = gaudin_matrix(roots, m)
    for j in range(a):
        mat[j, a + b] = c * dtau_du(z, roots, m, j) * scale
    for j in range(b):
        mat[a + j, a + b] = -c * dtau_dv(z, roots, m, j) * scale
    mat[a + b, :a + b + 1] = y_row_diag(asm, s, same_state=True)
    return mat


def ff_diag(s: int, left: BetheState, right: BetheState, z: complex) -> complex:
    """Matrix element of the diagonal entry T(s,s) between two on-shell
    states of equal sector; dispatches between the generic determinant and
    its regularised same-state limit."""
    if s not in (1, 2, 3):
        raise ValueError(f"s must be 1, 2 or 3, got {s}")
    _require_untwisted(left, right)
    _check_sector((s, s), left, right)
    same = states_equal(left.roots, right.roots, SAME_STATE_TOL)
    if not same and states_equal(left.roots, right.roots, NEAR_DEGENERATE_TOL):
        warnings.warn(
            "root multisets nearly coincide; both evaluation branches of the "
            "diagonal form factor are ill-conditioned here",
            DegeneracyWarning, stacklevel=2)
    asm = assemble(left, right, z, same_state=same)
    sign = -1.0 if right.b % 2 else 1.0
    pref = prefactor_H(asm.u_left, asm.v_left, asm.u_right, asm.v_right,
                       asm.cols, asm.model.c)
    if same:
        return _element(sign * pref, _same_state_matrix(asm, s), f"T({s}, {s})")
    mat = np.vstack([n_matrix(asm), y_row_diag(asm, s, same_state=False)])
    return _element(sign * pref, mat, f"T({s}, {s})")


def ff_13(left: BetheState, right: BetheState, z: complex) -> complex:
    """Matrix element of T(1,3); left sector must be (a+1, b+1)."""
    _require_untwisted(left, right)
    _check_sector((1, 3), left, right)
    asm = assemble(left, right, z)
    mat = np.vstack([n_matrix(asm), y_row_13(asm)])
    sign = -1.0 if len(left.v) % 2 else 1.0
    pref = prefactor_H(asm.u_left, asm.v_left, asm.u_right, asm.v_right,
                       asm.cols, asm.model.c)
    return _element(sign * pref, mat, "T(1, 3)")


def ff_31(left: BetheState, right: BetheState, z: complex) -> complex:
    """Matrix element of T(3,1), evaluated through the transposition map:
    same determinant as T(1,3) with the two states exchanged."""
    _require_untwisted(left, right)
    _check_sector((3, 1), left, right)
    return ff_13(right, left, z)


def form_factor(kind: tuple, left: BetheState, right: BetheState,
                z: complex) -> complex:
    """Dispatch any of the nine entries T(i,j) to its determinant route."""
    kind = (int(kind[0]), int(kind[1]))
    if kind not in KINDS:
        raise ValueError(f"unknown entry {kind}")
    i, j = kind
    if i == j:
        return ff_diag(i, left, right, z)
    if kind == (1, 3):
        return ff_13(left, right, z)
    if kind == (3, 1):
        return ff_31(left, right, z)
    return ff_offdiag(kind, left, right, z)


def norm_squared(state: BetheState) -> complex:
    """Bilinear square of the norm of an untwisted on-shell state:
    prefactor (over the merged root sets, no probe column) times the Gaudin
    determinant."""
    if not state.twist.is_identity():
        raise ValueError("norm formula applies to untwisted states")
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
    return sum(omega[r] * n_entry(asm, r, x) for r in range(asm.n_rows))


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
    lhs = sum(t(u_left[j], z, c) * omega[j] for j in range(a))
    rhs = (h_prod(u_right, z, c) * inv_h_prod(u_left, z, c)
           * (1.0 - f_prod(u_left, z, c) * inv_f_prod(u_right, z, c)))
    out["u_row_from_left"] = (lhs, rhs, rel(lhs, rhs))

    lhs = sum(t(z, u_left[j], c) * omega[j] for j in range(a))
    rhs = (h_prod(z, u_right, c) * inv_h_prod(z, u_left, c)
           * (f_prod(z, u_left, c) * inv_f_prod(z, u_right, c) - 1.0))
    out["u_row_from_right"] = (lhs, rhs, rel(lhs, rhs))

    lhs = sum(t(v_right[j], z, c) * omega[a + j] for j in range(len(v_right)))
    rhs = (h_prod(v_left, z, c) * inv_h_prod(v_right, z, c)
           * (1.0 - f_prod(v_right, z, c) * inv_f_prod(v_left, z, c)))
    out["v_row_from_left"] = (lhs, rhs, rel(lhs, rhs))

    lhs = sum(t(z, v_right[j], c) * omega[a + j] for j in range(len(v_right)))
    rhs = (h_prod(z, v_left, c) * inv_h_prod(z, v_right, c)
           * (f_prod(z, v_right, c) * inv_f_prod(z, v_left, c) - 1.0))
    out["v_row_from_right"] = (lhs, rhs, rel(lhs, rhs))
    return out


def gl2_ff_12(u_left: Sequence[complex], u_right: Sequence[complex],
              z: complex, model: ModelFunctions) -> complex:
    """Reference creation-entry value for states without v-roots, built from
    the rank-1 eigenvalue derivative (independent of the t/h closed form)."""
    u_left, u_right = tuple(u_left), tuple(u_right)
    if len(u_left) != len(u_right) + 1:
        raise SectorMismatch("left set must have one more root")
    c = model.c
    cols = u_right + (z,)
    roots = RootConfig(u=u_left, v=())
    mat = np.empty((len(u_left), len(cols)), dtype=complex)
    for j in range(len(u_left)):
        for k, x in enumerate(cols):
            mat[j, k] = c * inv_g_prod(x, u_left, c) * dtau_du(x, roots, model, j)
    return delta_prime(u_left, c) * delta(cols, c) * det_lu(mat)


def gl2_ff_21(u_left: Sequence[complex], u_right: Sequence[complex],
              z: complex, model: ModelFunctions) -> complex:
    """Reference annihilation-entry value: the creation formula with the two
    u-sets exchanged."""
    u_left, u_right = tuple(u_left), tuple(u_right)
    if len(u_right) != len(u_left) + 1:
        raise SectorMismatch("right set must have one more root")
    c = model.c
    cols = u_left + (z,)
    roots = RootConfig(u=u_right, v=())
    mat = np.empty((len(u_right), len(cols)), dtype=complex)
    for j in range(len(u_right)):
        for k, x in enumerate(cols):
            mat[j, k] = c * inv_g_prod(x, u_right, c) * dtau_du(x, roots, model, j)
    return delta_prime(u_right, c) * delta(cols, c) * det_lu(mat)


def gl2_ff_diag(s: int, u_left: Sequence[complex], u_right: Sequence[complex],
                z: complex, model: ModelFunctions) -> complex:
    """Reference diagonal-entry value (s = 1 or 2) for distinct states
    without v-roots: eigenvalue-derivative rows plus one closing row."""
    if s not in (1, 2):
        raise ValueError("reference diagonal entries exist for s = 1, 2")
    u_left, u_right = tuple(u_left), tuple(u_right)
    if len(u_left) != len(u_right):
        raise SectorMismatch("equal sectors required")
    c = model.c
    a = len(u_left)
    cols = u_right + (z,)
    roots = RootConfig(u=u_left, v=())
    mat = np.empty((a + 1, a + 1), dtype=complex)
    for j in range(a):
        for k, x in enumerate(cols):
            mat[j, k] = c * inv_g_prod(x, u_left, c) * dtau_du(x, roots, model, j)
    for k, x in enumerate(cols):
        if s == 1:
            sign = -1.0 if a % 2 else 1.0
            mat[a, k] = sign * model.r1(x) * h_prod(u_right, x, c)
        else:
            mat[a, k] = h_prod(x, u_right, c)
    return delta_prime(u_left, c) * delta(cols, c) * det_lu(mat)
