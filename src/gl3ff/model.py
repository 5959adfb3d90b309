"""Generalized GL(3) model layer: free vacuum-ratio functions, transfer-matrix
eigenvalues, Bethe-equation residuals in multiplicative and logarithmic form,
and the Gaudin matrix.

The model is fixed by two scalar functions r1, r3 (ratios of vacuum
eigenvalues of the diagonal monodromy entries) together with their exact
logarithmic derivatives, plus the coupling c.  A concrete inhomogeneous spin
chain realisation is provided by :func:`xxx_chain`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import Gl3Error, PoleError, ZeroArgError
from .kernel import collision, exclude, f_prod, pole_tol, t

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


@dataclass(frozen=True, eq=False)
class RootStack:
    """Root configurations of one sector as the rows of ``x`` (shape
    (n, a + b), u then v), for ``phi_log`` and ``gaudin_matrix`` to evaluate
    at once."""

    x: np.ndarray
    a: int


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
    x, a = _rows(roots)
    with np.errstate(over="ignore"):  # an overflowed difference is no pole
        diff = x[:, :, None] - x[:, None, :]
    # the first test of every guard: x_j ~ x_k at j < k
    err, = _guard_errors((diff,), pole_tol(c),
                         _pair_blocks(a, x.shape[1]).phi_guard[:1], {},
                         lambda row, test, j, k: _collided(x, row, j, k))
    if err is not None:
        raise err


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


def dtau_droots(w: complex, roots: RootConfig,
                model: ModelFunctions) -> tuple:
    """Analytic derivatives of tau(w | u, v) in every root at one point
    ``w``: the lists (d tau / d u_j over j, d tau / d v_j over j), with

        d tau / d u_j = (-r1(w) f(u, w) t(u_j, w)
                         + f(w, u) f(v, w) t(w, u_j)) / c,
        d tau / d v_j = (-f(w, u) f(v, w) t(v_j, w)
                         + r3(w) f(w, v) t(w, v_j)) / c.

    The set products are taken once for all roots, r1 only if there are
    u-roots and r3 only if there are v-roots, in the order of the formulas.
    """
    u, v, c = roots.u, roots.v, model.c
    du, dv = [], []
    if not (u or v):
        return du, dv
    if u:
        r1_term = -model.r1(w) * f_prod(u, w, c)
    f_wu, f_vw = f_prod(w, u, c), f_prod(v, w, c)
    if u:
        mid = f_wu * f_vw
        du = [(r1_term * t(uj, w, c) + mid * t(w, uj, c)) / c for uj in u]
    if v:
        mid = -f_wu * f_vw
        r3_term = model.r3(w) * f_prod(w, v, c)
        dv = [(mid * t(vj, w, c) + r3_term * t(w, vj, c)) / c for vj in v]
    return du, dv


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
    a, b = roots.a, roots.b
    value = dtau_dkappa(s, w, roots, model)
    if a + b == 0:
        return value
    jac = gaudin_jacobian(roots, model)
    dtarget = np.array([(s == 2) - (s == 1)] * a
                       + [(s == 2) - (s == 3)] * b, dtype=complex)
    motion = np.linalg.solve(jac, dtarget)
    du, dv = dtau_droots(w, roots, model)
    for j, d in enumerate(du + dv):
        value += d * motion[j]
    return value


def bethe_defect(roots: RootConfig, twist: Twist,
                 model: ModelFunctions) -> np.ndarray:
    """Multiplicative residuals of the (twisted) Bethe system, one per root.

    Entry j < a:   (k1/k2) r1(u_j) f(u_j-bar, u_j) / (f(u_j, u_j-bar) f(v, u_j)) - 1
    Entry a + j:   (k3/k2) r3(v_j) f(v_j, v_j-bar) / (f(v_j-bar, v_j) f(v_j, u)) - 1

    All entries vanish exactly on shell.  Two roots x, y of the pairs (u, u),
    (v, u) or (v, v) with x - y = -c put f(x, y) = 0 into a denominator;
    they raise a ``PoleError`` that names the pair.
    """
    assert_regular(roots, model.c)
    u, v, c = roots.u, roots.v, model.c
    for x, y, (xn, yn) in ((u, u, "uu"), (v, u, "vu"), (v, v, "vv")):
        hit = collision(x, y, c, shift=-c)
        if hit is not None:
            i, j = hit
            raise PoleError(f"Bethe defect denominator f({xn}_{i}, {yn}_{j}) "
                            f"~ 0: {xn}_{i} = {x[i]}, {yn}_{j} = {y[j]}")
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


def _root_values(x: np.ndarray, a: int, on_u: Callable, on_v: Callable,
                 scales: tuple) -> tuple:
    """``on_u`` at the first ``a`` roots and ``on_v`` at the others of each
    row, each times its factor in ``scales`` (u, v) unless that is None: an
    (n, a + b) array and {(row, root): the Gl3Error of a call that raised},
    whose entries are nan.

    A chain's ratios (both of type ``_ChainRatio``) take the whole array in
    one ``stacked`` pass each; a root on one of their poles gets the error of
    its own scalar call.  Any other pair is called once per root."""
    su, sv = scales
    failed = {}

    def call(row: int, k: int, w: complex) -> complex:
        on, scale = (on_u, su) if k < a else (on_v, sv)
        try:
            value = on(w)
        except Gl3Error as exc:
            failed[row, k] = exc
            return math.nan
        return value if scale is None else scale * value

    if not (isinstance(on_u, _ChainRatio) and isinstance(on_v, _ChainRatio)):
        values = [call(row, k, w) for row, ws in enumerate(x.tolist())
                  for k, w in enumerate(ws)]
        return np.array(values, dtype=complex).reshape(x.shape), failed
    values = np.empty(x.shape, dtype=complex)
    for on, scale, start, stop in ((on_u, su, 0, a), (on_v, sv, a, None)):
        part, poles = on.stacked(x[:, start:stop])
        values[:, start:stop] = part if scale is None else part * scale
        if poles is not None:
            for row, j in np.argwhere(poles).tolist():
                k = start + j
                values[row, k] = call(row, k, complex(x[row, k]))
    return values, failed


class _PairBlocks(NamedTuple):
    """Read-only (n, n) masks and signs over the root pairs (row j, column k)
    of sector (a, n - a), u then v, and the pair masks of each guard test,
    stacked in the order the guard takes them."""

    same: np.ndarray    # j != k within one set
    vu: np.ndarray      # j a v-root, k a u-root
    need: np.ndarray    # the log f(x_j, x_k) in phi_log: all but f(u, v)
    cl: np.ndarray      # sign of log f(x_j, x_k) in entry j of phi_log
    clt: np.ndarray     # sign of log f(x_k, x_j) in entry j of phi_log
    sign: np.ndarray    # sign of Gaudin entry (j, k) in diagonal entry j
    # phi_log: x_j = x_k at j < k, then a log f(x_j, x_k) of ~0
    phi_guard: np.ndarray
    # gaudin_matrix: x_j = x_k at j < k, x_j - x_k = +-c within a set at
    # j < k, then t(v_j, u_k) at v_j = u_k - c
    gaudin_guard: np.ndarray
    # solver._check_collisions: x_j = x_k at j < k, then x_j - x_k = c at
    # every ordered pair but a v-root j and a u-root k (v = u + c is
    # allowed; a pair at -c is the other order's pair at +c)
    collision_guard: np.ndarray


@functools.lru_cache(maxsize=None)
def _pair_blocks(a: int, n: int) -> _PairBlocks:
    is_u = np.arange(n) < a
    uu = is_u[:, None] & is_u[None, :]
    vv = ~is_u[:, None] & ~is_u[None, :]
    vu = ~is_u[:, None] & is_u[None, :]
    off = ~np.eye(n, dtype=bool)
    upper = np.triu(off)
    same = (uu | vv) & off
    need = same | vu
    blocks = _PairBlocks(
        same=same, vu=vu, need=need,
        cl=1.0 * (uu & off) - 1.0 * (vv & off) + vu,
        clt=-1.0 * (uu & off) + 1.0 * (vv & off) + vu.T,
        sign=1.0 * (vu | vu.T) - same,
        phi_guard=np.stack((upper, need)),
        gaudin_guard=np.stack((upper, same & upper, vu)),
        collision_guard=np.stack((upper, same | vu.T)))
    for arr in blocks:
        arr.setflags(write=False)
    return blocks


def _rows(roots) -> tuple:
    """(rows, a) of a RootStack, or of a RootConfig as a stack of one."""
    if isinstance(roots, RootStack):
        return roots.x, roots.a
    return (np.array(roots.u + roots.v, dtype=complex).reshape(1, -1),
            roots.a)


def _per_stack(roots, values: np.ndarray, errors: list):
    """The result for a RootStack, (values, errors); for a RootConfig its one
    row, or its error raised."""
    if isinstance(roots, RootStack):
        return values, errors
    if errors[0] is not None:
        raise errors[0]
    return values[0]


def _guard_errors(values: tuple, limits, masks: np.ndarray, failed: dict,
                  pair_error: Callable) -> list:
    """Each row's error or None under a stacked guard.  Test i flags the
    pairs of ``masks[i]`` where ``|values[i]|`` (n, a+b, a+b) is at most its
    limit (``limits`` is one limit or one per test, shaped (tests, 1, 1)).
    A row's error is that of its first flagged pair in (test, j, k) order,
    ``pair_error(row, test, j, k)``; in a row with no flag, that of its
    first failing root call, u then v, in ``failed`` {(row, root): error}."""
    n, m = values[0].shape[:2]
    size = np.abs(np.concatenate(values, axis=1)).reshape(n, len(values), m, m)
    flags = (size <= limits) & masks
    errors: list = [None] * n
    for row, k in sorted(failed, reverse=True):
        errors[row] = failed[row, k]
    if np.count_nonzero(flags):
        for row in np.flatnonzero(flags.reshape(n, -1).any(axis=1)):
            errors[row] = pair_error(row, *np.argwhere(flags[row])[0].tolist())
    return errors


def _collided(x: np.ndarray, row: int, j: int, k: int) -> PoleError:
    """The regularity guard's error for the colliding roots j < k of row
    ``row`` of the stack ``x``."""
    xs = x[row].tolist()
    return PoleError(f"roots (u then v): entries {j} and {k} "
                     f"collide ({xs[j]} ~ {xs[k]})")


def _label(k: int, a: int) -> str:
    """Name of root k of a sector with ``a`` u-roots: u_k or v_(k - a)."""
    return f"u_{k}" if k < a else f"v_{k - a}"


def phi_log(roots, model: ModelFunctions):
    """Logarithmic Bethe residual functions, principal branch per factor.

    Entry j < a:   log r1(u_j) - sum_{k != j} [log f(u_j,u_k) - log f(u_k,u_j)]
                   - sum_m log f(v_m, u_j)
    Entry a + j:   log r3(v_j) - sum_{m != j} [log f(v_m,v_j) - log f(v_j,v_m)]
                   - sum_k log f(v_j, u_k)

    Branch choices only relabel the integer mode numbers carried alongside.

    ``roots`` is a RootConfig, whose entries come back as a vector, or a
    RootStack, whose rows are evaluated at once: then the result is the
    (n, a + b) array of entries and a list holding each row's error or None
    (a failing row's entries are meaningless).  A row fails, and a
    RootConfig raises, with the error of its first flagged pair in (test,
    j, k) order: ``PoleError`` for x_j ~ x_k at j < k, then ``ZeroArgError``
    for a log f(x_j, x_k) of ~0 ("~": within the collision tolerance).  With
    no flagged pair, it is that of its first failing root, u then v: an
    error of ``r1`` or ``r3``, or ``ZeroArgError`` for a value of ~0.

    ``r1`` and ``r3`` are evaluated by ``_root_values``: a chain's over the
    whole stack in one array pass, any other model's once per root.
    """
    x, a = _rows(roots)
    n = x.shape[1]
    c = model.c
    tol = pole_tol(c)
    pairs = _pair_blocks(a, n)
    d = x[:, :, None] - x[:, None, :]
    with np.errstate(all="ignore"):
        r, failed = _root_values(x, a, model.r1, model.r3, (None, None))
        fv = (d + c) / d
        lf = np.log(np.where(pairs.need, fv, 1.0))
        out = np.log(r) - (lf * pairs.cl
                           + lf.swapaxes(1, 2) * pairs.clt).sum(2)
    small = np.abs(r) <= tol
    if np.count_nonzero(small):
        for row, k in np.argwhere(small).tolist():
            failed[row, k] = ZeroArgError(
                f"log argument ~ 0 in {'r1' if k < a else 'r3'}"
                f"({_label(k, a)}): {r[row, k]}")

    def pair_error(row, test, j, k):
        if test == 0:
            return _collided(x, row, j, k)
        return ZeroArgError(f"log argument ~ 0 in f({_label(j, a)}, "
                            f"{_label(k, a)}): {fv[row, j, k]}")

    return _per_stack(roots, out, _guard_errors(
        (d, fv), tol, pairs.phi_guard, failed, pair_error))


def gaudin_matrix(roots, model: ModelFunctions):
    """Jacobian matrix of the logarithmic Bethe system in closed form.

    Rows and columns follow the u-then-v ordering.  The blocks are

        uu:  d_{jk} (-c (log r1)'(u_k) - sum_{l != k} 2c^2/((u_k-u_l)^2-c^2)
                     + sum_m t(v_m, u_k))            + 2c^2/((u_j-u_k)^2-c^2)
        uv:  t(v_k, u_j)           vu:  t(v_j, u_k)
        vv:  d_{jk} ( c (log r3)'(v_k) - sum_{m != k} 2c^2/((v_k-v_m)^2-c^2)
                     + sum_l t(v_k, u_l))            + 2c^2/((v_j-v_k)^2-c^2)

    and satisfy M[:, :a] = -c dPhi/du, M[:, a:] = +c dPhi/dv.  The matrix is
    symmetric.

    ``roots`` is a RootConfig, or a RootStack whose matrices come back as an
    (n, a + b, a + b) array with each row's error or None, as in
    ``phi_log``.  The error is that of the first flagged pair in (test, j,
    k) order, each a ``PoleError``: x_j ~ x_k at j < k, then x_j - x_k ~
    +-c within one set at j < k, then v_j ~ u_k - c.  With no flagged pair,
    it is that of the first failing root call, ``dlog_r1`` on u then
    ``dlog_r3`` on v.  As in ``phi_log``, a chain's ``dlog_r1`` and
    ``dlog_r3`` take the whole stack in one array pass.
    """
    x, a = _rows(roots)
    n = x.shape[1]
    c = model.c
    tol = pole_tol(c)
    c2 = c * c
    pairs = _pair_blocks(a, n)
    d = x[:, :, None] - x[:, None, :]
    dc = d + c
    with np.errstate(all="ignore"):
        # the diagonal's own terms, -c (log r1)'(u_k) and c (log r3)'(v_k)
        own, failed = _root_values(x, a, model.dlog_r1, model.dlog_r3,
                                   (-c, c))
        d2 = d * d - c2
        cross = np.where(pairs.vu, c2 / (d * dc), 0.0)
        m = np.where(pairs.same, 2.0 * c2 / d2, cross + cross.swapaxes(1, 2))
        m.reshape(len(m), -1)[:, ::n + 1] = own + (m * pairs.sign).sum(2)
    limits = np.array([tol, tol * max(1.0, abs(c2)), tol])[:, None, None]

    def pair_error(row, test, j, k):
        xs = x[row].tolist()
        if test == 0:
            return _collided(x, row, j, k)
        if test == 1:
            return PoleError(f"root separation {xs[j] - xs[k]} collides "
                             f"with +-c")
        return PoleError(f"t(x, y) pole: x={xs[j]} collides with "
                         f"y={xs[k]} - c")

    return _per_stack(roots, m, _guard_errors(
        (d, d2, dc), limits, pairs.gaudin_guard, failed, pair_error))


def gaudin_jacobian(roots, model: ModelFunctions):
    """Jacobian of the logarithmic Bethe system in the roots, u then v:
    the Gaudin matrix with columns :a divided by -c and a: by +c.  Takes and
    returns what ``gaudin_matrix`` does."""
    c = model.c
    x, a = _rows(roots)
    m, errors = gaudin_matrix(RootStack(x, a), model)
    scale = np.array([-c] * a + [c] * (x.shape[1] - a))
    with np.errstate(all="ignore"):     # a failing row may hold inf or nan
        jac = m / scale
    return _per_stack(roots, jac, errors)


class _ChainRatio(staticmethod):
    """A chain's vacuum ratio r1(w) = prod_k f(w, xi_k), or with ``dlog`` its
    logarithmic derivative sum_k [1/(w - xi_k + c) - 1/(w - xi_k)]; over no
    sites, the constants r3 = 1 and (log r3)' = 0.  The tolerance is taken at
    construction.

    A call takes one point and runs the scalar loop that the staticmethod
    wraps (``kernel.f_prod(w, xi, c)`` written out, with the kernel's error
    at a pole).  A staticmethod calls what it wraps from C, so a point costs
    what a plain function call does; a Python ``__call__`` would add about
    15 % at L=5, which the form-factor builders pay at every column whose
    r1 or r3 term survives (r1 at the right u-roots and z, r3 at the left
    v-roots and z).
    ``stacked`` takes an array of points at once, for ``_root_values``."""

    def __init__(self, xi: tuple, c: complex, dlog: bool):
        tol = pole_tol(c)

        def r1(w: complex) -> complex:
            out = 1.0 + 0.0j
            for x in xi:
                d = w - x
                if abs(d) <= tol:
                    raise PoleError(f"f(x, y) pole: x={w} collides with y={x}")
                out *= (d + c) / d
            return out

        def dlog_r1(w: complex) -> complex:
            acc = 0.0 + 0.0j
            for x in xi:
                d = w - x
                if abs(d) <= tol or abs(d + c) <= tol:
                    raise PoleError(f"dlog r1 pole: w={w} collides with xi={x}")
                acc += 1.0 / (d + c) - 1.0 / d
            return acc

        super().__init__(dlog_r1 if dlog else r1)
        self.sites = np.array(xi, dtype=complex)
        self.sites.setflags(write=False)
        self.c, self.tol, self.dlog = c, tol, dlog

    def stacked(self, w: np.ndarray) -> tuple:
        """The values at every point of the array ``w``, and None or, if a
        point is on a pole (w ~ xi_k, or for ``dlog`` also w ~ xi_k - c),
        the mask of the points where a call raises, whose values are
        meaningless (and may warn: the caller sets ``np.errstate``).  Over
        no sites the value is one constant."""
        if not self.sites.size:
            return (0j if self.dlog else 1 + 0j), None
        c, tol = self.c, self.tol
        d = w[..., None] - self.sites
        if self.dlog:
            dc = d + c
            near = np.minimum(np.abs(d), np.abs(dc))
            values = (1.0 / dc - 1.0 / d).sum(-1)
        else:
            near = np.abs(d)
            values = ((d + c) / d).prod(-1)
        poles = near <= tol
        return values, poles.any(-1) if np.count_nonzero(poles) else None


def xxx_chain(L: int, xi: Sequence[complex], c: complex) -> ModelFunctions:
    """Model functions of an inhomogeneous chain of length L:

        r1(w) = prod_k f(w, xi_k),   r3(w) = 1.

    All four ratios are ``_ChainRatio``s, which ``phi_log`` and
    ``gaudin_matrix`` evaluate over a whole stack of roots at once.
    """
    if L < 1:
        raise ValueError("chain length must be >= 1")
    xi = tuple(complex(x) for x in xi)
    if len(xi) != L:
        raise ValueError(f"need {L} inhomogeneities, got {len(xi)}")
    c = complex(c)
    if c == 0:
        raise ValueError("coupling c must be nonzero")
    return ModelFunctions(
        c=c,
        r1=_ChainRatio(xi, c, dlog=False),
        r3=_ChainRatio((), c, dlog=False),
        dlog_r1=_ChainRatio(xi, c, dlog=True),
        dlog_r3=_ChainRatio((), c, dlog=True),
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
