"""Generalized GL(3) model layer: free vacuum-ratio functions, transfer-matrix
eigenvalues, Bethe-equation residuals in multiplicative and logarithmic form,
and the Gaudin matrix.

The model is fixed by two scalar functions r1, r3 (ratios of vacuum
eigenvalues of the diagonal monodromy entries) together with their exact
logarithmic derivatives, plus the coupling c.  A concrete inhomogeneous spin
chain realisation is provided by :func:`xxx_chain`.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import PoleError, ZeroArgError
from .kernel import (_f, _t, collision, exclude, f_prod, pole_tol, t)

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ModelFunctions:
    """Free functional data of a generalized model.

    dlog_r1/dlog_r3 are the analytic logarithmic derivatives of r1/r3.  They
    are required exactly (not by numerical differentiation) because the
    diagonal of the Gaudin matrix is tolerance-critical.

    ``sites`` is the length L of a fundamental gl(3) chain, which bounds how
    many Bethe states each sector can hold (the solver stops seeding a sector
    once it has found that many).  Only :func:`xxx_chain` sets it; mirror and
    generalized models leave it None, since a dual or generic representation
    counts its states differently.
    """

    c: complex
    r1: Callable[[complex], complex]
    r3: Callable[[complex], complex]
    dlog_r1: Callable[[complex], complex]
    dlog_r3: Callable[[complex], complex]
    description: str = ""
    inhomogeneities: Optional[tuple] = None  # seeding/pole hints, may be None
    sites: Optional[int] = None

    def __post_init__(self):
        # a tuple keeps the model hashable (the solver memoizes per model)
        if self.inhomogeneities is not None:
            object.__setattr__(self, "inhomogeneities",
                               tuple(self.inhomogeneities))


@dataclass(frozen=True)
class Twist:
    """Diagonal twist (k1, k2, k3); the identity twist is (1, 1, 1)."""

    k1: complex = 1.0 + 0.0j
    k2: complex = 1.0 + 0.0j
    k3: complex = 1.0 + 0.0j

    def __post_init__(self):
        if min(abs(self.k1), abs(self.k2), abs(self.k3)) == 0:
            raise ValueError("twist components must be nonzero")

    @classmethod
    def identity(cls) -> "Twist":
        return cls()

    def as_tuple(self) -> tuple:
        return (self.k1, self.k2, self.k3)

    def is_identity(self) -> bool:
        return max(abs(self.k1 - 1), abs(self.k2 - 1), abs(self.k3 - 1)) <= 1e-14


@dataclass(frozen=True)
class RootConfig:
    """Two ordered Bethe-parameter sets: u (size a) and v (size b)."""

    u: tuple = ()
    v: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "u", tuple(complex(x) for x in self.u))
        object.__setattr__(self, "v", tuple(complex(x) for x in self.v))

    @property
    def a(self) -> int:
        return len(self.u)

    @property
    def b(self) -> int:
        return len(self.v)

    def as_array(self) -> np.ndarray:
        return np.array(self.u + self.v, dtype=complex)


@dataclass(frozen=True)
class BetheState:
    """A (possibly twisted) on-shell root configuration with bookkeeping."""

    roots: RootConfig
    twist: Twist
    mode_numbers: tuple
    residual: float
    model: ModelFunctions

    @property
    def u(self) -> tuple:
        return self.roots.u

    @property
    def v(self) -> tuple:
        return self.roots.v

    @property
    def a(self) -> int:
        return self.roots.a

    @property
    def b(self) -> int:
        return self.roots.b


def assert_regular(roots: RootConfig, c: complex) -> None:
    """Check the intra/inter-set distinctness every formula relies on:
    raise PoleError naming the first pair of roots (u then v) closer than
    the collision tolerance."""
    xs = roots.u + roots.v
    hit = collision(xs, xs, c, keep=operator.lt)
    if hit is not None:
        j, k = hit
        raise PoleError(f"roots (u then v): entries {j} and {k} collide "
                        f"({xs[j]} ~ {xs[k]})")


def tau(w: complex, roots: RootConfig, model: ModelFunctions) -> complex:
    """Transfer-matrix eigenvalue at the identity twist (see ``tau_twisted``)."""
    return tau_twisted(w, roots, Twist.identity(), model)


def tau_twisted(w: complex, roots: RootConfig, twist: Twist,
                model: ModelFunctions) -> complex:
    """Eigenvalue of the transfer matrix twisted by (k1, k2, k3)

        tau(w) = k1 r1(w) f(u, w) + k2 f(w, u) f(v, w) + k3 r3(w) f(w, v)

    with the shorthand product convention over the root sets.  At a root
    each term has a pole, which cancels in the sum only on shell; the
    direct evaluation raises ``PoleError`` there.
    """
    if collision(w, roots.u + roots.v, model.c) is not None:
        raise PoleError(f"tau probe point {w} collides with a root")
    u, v, c = roots.u, roots.v, model.c
    return (twist.k1 * model.r1(w) * f_prod(u, w, c)
            + twist.k2 * f_prod(w, u, c) * f_prod(v, w, c)
            + twist.k3 * model.r3(w) * f_prod(w, v, c))


def dtau_dkappa(s: int, w: complex, roots: RootConfig,
                model: ModelFunctions) -> complex:
    """Derivative of the twisted eigenvalue in the s-th twist component at the
    identity twist; equals the s-th summand of tau."""
    u, v, c = roots.u, roots.v, model.c
    if s == 1:
        return model.r1(w) * f_prod(u, w, c)
    if s == 2:
        return f_prod(w, u, c) * f_prod(v, w, c)
    if s == 3:
        return model.r3(w) * f_prod(w, v, c)
    raise ValueError(f"s must be 1, 2 or 3, got {s}")


def dtau_du(w: complex, roots: RootConfig, model: ModelFunctions,
            j: int) -> complex:
    """Analytic derivative of tau(w | u, v) in the j-th u-root."""
    u, v, c = roots.u, roots.v, model.c
    return (-model.r1(w) * f_prod(u, w, c) * t(u[j], w, c)
            + f_prod(w, u, c) * f_prod(v, w, c) * t(w, u[j], c)) / c


def dtau_dv(w: complex, roots: RootConfig, model: ModelFunctions,
            j: int) -> complex:
    """Analytic derivative of tau(w | u, v) in the j-th v-root."""
    u, v, c = roots.u, roots.v, model.c
    return (-f_prod(w, u, c) * f_prod(v, w, c) * t(v[j], w, c)
            + model.r3(w) * f_prod(w, v, c) * t(w, v[j], c)) / c


def dtau_dkappa_onshell(s: int, w: complex, roots: RootConfig,
                        model: ModelFunctions) -> complex:
    """Full derivative of the twisted eigenvalue in the s-th twist component
    at the identity twist, for an on-shell configuration: the explicit
    summand plus the contribution of the roots moving with the twist.

    The root motion solves the differentiated logarithmic Bethe system, whose
    Jacobian is the Gaudin matrix up to the +-c column scaling.  This is the
    quantity the normalized diagonal matrix elements equal (the eigenvalue
    version of first-order perturbation theory in the twist).
    """
    if s not in (1, 2, 3):
        raise ValueError(f"s must be 1, 2 or 3, got {s}")
    a, b = roots.a, roots.b
    value = dtau_dkappa(s, w, roots, model)
    if a + b == 0:
        return value
    jac = gaudin_jacobian(roots, model)
    dtarget = np.array([(s == 2) - (s == 1)] * a
                       + [(s == 2) - (s == 3)] * b, dtype=complex)
    motion = np.linalg.solve(jac, dtarget)
    for j in range(a):
        value += dtau_du(w, roots, model, j) * motion[j]
    for j in range(b):
        value += dtau_dv(w, roots, model, j) * motion[a + j]
    return value


def bethe_defect(roots: RootConfig, twist: Twist,
                 model: ModelFunctions) -> np.ndarray:
    """Multiplicative residuals of the (twisted) Bethe system, one per root.

    Entry j < a:   (k1/k2) r1(u_j) f(u_j-bar, u_j) / (f(u_j, u_j-bar) f(v, u_j)) - 1
    Entry a + j:   (k3/k2) r3(v_j) f(v_j, v_j-bar) / (f(v_j-bar, v_j) f(v_j, u)) - 1

    All entries vanish exactly on shell.
    """
    assert_regular(roots, model.c)
    u, v, c = roots.u, roots.v, model.c
    out = np.empty(roots.a + roots.b, dtype=complex)
    for j in range(roots.a):
        rest = exclude(u, j)
        ratio = (model.r1(u[j]) * f_prod(rest, u[j], c)
                 / (f_prod(u[j], rest, c) * f_prod(v, u[j], c)))
        out[j] = (twist.k1 / twist.k2) * ratio - 1.0
    for j in range(roots.b):
        rest = exclude(v, j)
        ratio = (model.r3(v[j]) * f_prod(v[j], rest, c)
                 / (f_prod(rest, v[j], c) * f_prod(v[j], u, c)))
        out[roots.a + j] = (twist.k3 / twist.k2) * ratio - 1.0
    return out


def _log_checked(value: complex, tol: float, what: str) -> complex:
    if abs(value) <= tol:
        raise ZeroArgError(f"log argument ~ 0 in {what}: {value}")
    return cmath.log(value)


def phi_log(roots: RootConfig, model: ModelFunctions) -> np.ndarray:
    """Logarithmic Bethe residual functions, principal branch per factor.

    Entry j < a:   log r1(u_j) - sum_{k != j} [log f(u_j,u_k) - log f(u_k,u_j)]
                   - sum_m log f(v_m, u_j)
    Entry a + j:   log r3(v_j) - sum_{m != j} [log f(v_m,v_j) - log f(v_j,v_m)]
                   - sum_k log f(v_j, u_k)

    Branch choices only relabel the integer mode numbers carried alongside.
    """
    assert_regular(roots, model.c)
    u, v, c = roots.u, roots.v, model.c
    tol = pole_tol(c)
    a, b = roots.a, roots.b
    # each log f is taken once, where the loops below first need it: the
    # pairs of a set at the row of their lower index, log f(v_m, u_j) at the
    # u-row j; the v-rows read those
    log_uu = [[None] * a for _ in range(a)]
    log_vv = [[None] * b for _ in range(b)]
    log_vu = [[None] * a for _ in range(b)]
    out = np.empty(a + b, dtype=complex)
    for j in range(a):
        acc = _log_checked(model.r1(u[j]), tol, "r1(u_j)")
        for k in range(a):
            if k == j:
                continue
            if k > j:
                log_uu[j][k] = _log_checked(_f(u[j], u[k], c, tol), tol,
                                            "f(u_j, u_k)")
                log_uu[k][j] = _log_checked(_f(u[k], u[j], c, tol), tol,
                                            "f(u_k, u_j)")
            acc -= log_uu[j][k]
            acc += log_uu[k][j]
        for m in range(b):
            log_vu[m][j] = _log_checked(_f(v[m], u[j], c, tol), tol,
                                        "f(v_m, u_j)")
            acc -= log_vu[m][j]
        out[j] = acc
    for j in range(b):
        acc = _log_checked(model.r3(v[j]), tol, "r3(v_j)")
        for m in range(b):
            if m == j:
                continue
            if m > j:
                log_vv[m][j] = _log_checked(_f(v[m], v[j], c, tol), tol,
                                            "f(v_m, v_j)")
                log_vv[j][m] = _log_checked(_f(v[j], v[m], c, tol), tol,
                                            "f(v_j, v_m)")
            acc -= log_vv[m][j]
            acc += log_vv[j][m]
        for k in range(a):
            acc -= log_vu[j][k]
        out[a + j] = acc
    return out


def gaudin_matrix(roots: RootConfig, model: ModelFunctions) -> np.ndarray:
    """Jacobian matrix of the logarithmic Bethe system in closed form.

    Rows and columns follow the u-then-v ordering.  The blocks are

        uu:  d_{jk} (-c (log r1)'(u_k) - sum_{l != k} 2c^2/((u_k-u_l)^2-c^2)
                     + sum_m t(v_m, u_k))            + 2c^2/((u_j-u_k)^2-c^2)
        uv:  t(v_k, u_j)           vu:  t(v_j, u_k)
        vv:  d_{jk} ( c (log r3)'(v_k) - sum_{m != k} 2c^2/((v_k-v_m)^2-c^2)
                     + sum_l t(v_k, u_l))            + 2c^2/((v_j-v_k)^2-c^2)

    and satisfy M[:, :a] = -c dPhi/du, M[:, a:] = +c dPhi/dv.  The matrix is
    symmetric.
    """
    assert_regular(roots, model.c)
    u, v, c = roots.u, roots.v, model.c
    a, b = roots.a, roots.b
    tol = pole_tol(c)
    c2 = c * c

    def pair_term(x, y):
        d2 = (x - y) ** 2 - c2
        if abs(d2) <= tol * max(1.0, abs(c2)):
            raise PoleError(f"root separation {x - y} collides with +-c")
        return 2.0 * c2 / d2

    # each pair term and each t(v_m, u_k) is evaluated once, where the loops
    # below first need it: a pair at the column of its lower index, t(v_m,
    # u_k) at the u-column k
    pair_uu = [[None] * a for _ in range(a)]
    pair_vv = [[None] * b for _ in range(b)]
    t_vu = [[None] * a for _ in range(b)]
    m = np.zeros((a + b, a + b), dtype=complex)
    for k in range(a):
        diag = -c * model.dlog_r1(u[k])
        for l in range(a):
            if l > k:
                pair_uu[k][l] = pair_term(u[k], u[l])
            if l != k:
                diag -= pair_uu[k][l]
        for mm in range(b):
            t_vu[mm][k] = _t(v[mm], u[k], c, tol)
            diag += t_vu[mm][k]
        m[k, k] = diag
        for j in range(a):
            if j > k:
                pair_uu[j][k] = pair_term(u[j], u[k])
            if j != k:
                m[j, k] = pair_uu[j][k]
    for k in range(b):
        diag = c * model.dlog_r3(v[k])
        for mm in range(b):
            if mm > k:
                pair_vv[k][mm] = pair_term(v[k], v[mm])
            if mm != k:
                diag -= pair_vv[k][mm]
        for l in range(a):
            diag += t_vu[k][l]
        m[a + k, a + k] = diag
        for j in range(b):
            if j > k:
                pair_vv[j][k] = pair_term(v[j], v[k])
            if j != k:
                m[a + j, a + k] = pair_vv[j][k]
    for j in range(a):
        for k in range(b):
            m[j, a + k] = t_vu[k][j]
            m[a + k, j] = t_vu[k][j]
    return m


def gaudin_jacobian(roots: RootConfig, model: ModelFunctions) -> np.ndarray:
    """Jacobian of the logarithmic Bethe system in the roots, u then v:
    the Gaudin matrix with columns :a divided by -c and a: by +c."""
    c = model.c
    return gaudin_matrix(roots, model) / np.array([-c] * roots.a
                                                  + [c] * roots.b)


def xxx_chain(L: int, xi: Sequence[complex], c: complex) -> ModelFunctions:
    """Model functions of an inhomogeneous chain of length L:

        r1(w) = prod_k f(w, xi_k),   r3(w) = 1.
    """
    if L < 1:
        raise ValueError("chain length must be >= 1")
    xi = tuple(complex(x) for x in xi)
    if len(xi) != L:
        raise ValueError(f"need {L} inhomogeneities, got {len(xi)}")
    c = complex(c)
    if c == 0:
        raise ValueError("coupling c must be nonzero")
    tol = pole_tol(c)

    def r1(w: complex) -> complex:
        return f_prod(w, xi, c)

    def dlog_r1(w: complex) -> complex:
        acc = 0.0 + 0.0j
        for x in xi:
            d = w - x
            if abs(d) <= tol or abs(d + c) <= tol:
                raise PoleError(f"dlog r1 pole: w={w} collides with xi={x}")
            acc += 1.0 / (d + c) - 1.0 / d
        return acc

    return ModelFunctions(
        c=c,
        r1=r1,
        r3=lambda w: 1.0 + 0.0j,
        dlog_r1=dlog_r1,
        dlog_r3=lambda w: 0.0 + 0.0j,
        description=f"xxx chain L={L}",
        inhomogeneities=xi,
        sites=L,
    )


def mirror_model(model: ModelFunctions) -> ModelFunctions:
    """The model with r1/r3 exchanged and arguments negated.

    Realises the color-reflection isomorphism on the level of the vacuum
    ratios: r1~(w) = r3(-w), r3~(w) = r1(-w).
    """
    xi = model.inhomogeneities
    return ModelFunctions(
        c=model.c,
        r1=lambda w: model.r3(-w),
        r3=lambda w: model.r1(-w),
        dlog_r1=lambda w: -model.dlog_r3(-w),
        dlog_r3=lambda w: -model.dlog_r1(-w),
        description=f"mirror of ({model.description})",
        inhomogeneities=None if xi is None else tuple(-x for x in xi),
    )
