"""Brute-force ground truth on the explicit 3^L Hilbert space of an
inhomogeneous three-colour chain.

The monodromy matrix is never built as operators: ``apply_monodromy``
applies all nine entries to a stack of vectors one site at a time, at
O(9 L 3^L) per vector.  The dense entries (for structural checks) are that
sweep on the identity, and the (twisted) transfer matrix is the
twist-weighted sum of their diagonal entries.

A state's vectors are its Bethe vectors, built by the same sweep from the
explicit formulas (Belliard-Pakuliak-Ragoucy-Slavnov, "Bethe vectors of
GL(3)-invariant integrable models", J. Stat. Mech. 2013) in the
normalization the determinant formulas use; the dual vector runs the sweep
over the sites in reverse order, which transposes every entry.  A vector is
accepted only as a confirmed transfer-matrix eigenvector (``eigen_residual``
measures how far it is from one).  It depends only on the state, the side
and the chain, and is memoized per model (``_EXTRACTED``, like the solver's
sector memo).  With both vectors, an element is C @ T(i,j)(z) @ B, one sweep
of ``apply_monodromy`` on B and one dot product; ``invariant_ratio`` divides
two of them, a ratio that does not depend on the vectors' normalization."""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateEigenvalue, NoConvergence, ZeroDenominator
from .kernel import exclude, f_prod, g
from .model import (BetheState, ModelFunctions, Twist, tau_twisted, xxx_chain)

MAX_SITES = 6


@dataclass(frozen=True)
class SpinChainSpec:
    """Concrete chain: length, per-site rapidity shifts, coupling."""

    L: int
    xi: tuple
    c: complex

    def __post_init__(self):
        object.__setattr__(self, "xi", tuple(complex(x) for x in self.xi))
        object.__setattr__(self, "c", complex(self.c))
        if not 1 <= self.L <= MAX_SITES:
            raise ValueError(f"chain length must be in [1, {MAX_SITES}]")
        if len(self.xi) != self.L:
            raise ValueError(f"need {self.L} inhomogeneities, got {len(self.xi)}")
        homogeneous = all(x == self.xi[0] for x in self.xi)
        if not homogeneous:
            tol = 1e-8 * max(1.0, abs(self.c))
            for j in range(self.L):
                for k in range(j + 1, self.L):
                    if abs(self.xi[j] - self.xi[k]) <= tol:
                        raise ValueError(
                            "inhomogeneities must be pairwise distinct or all equal")

    @property
    def dim(self) -> int:
        return 3 ** self.L

    def model(self) -> ModelFunctions:
        return xxx_chain(self.L, self.xi, self.c)


def permutation_matrix() -> np.ndarray:
    """Exchange operator on the tensor product of two three-state spaces."""
    p = np.zeros((9, 9), dtype=complex)
    for i in range(3):
        for j in range(3):
            p[3 * i + j, 3 * j + i] = 1.0
    return p


def r_matrix(x: complex, y: complex, c: complex) -> np.ndarray:
    """Identity plus g(x, y) times the exchange operator, as a 9 x 9 matrix."""
    return np.eye(9, dtype=complex) + g(x, y, c) * permutation_matrix()


def apply_monodromy(w: complex, spec: SpinChainSpec,
                    vecs: np.ndarray) -> np.ndarray:
    """``T(i,j)(w) @ vecs`` for all nine entries, without forming any
    operator: an array of shape ``(3, 3) + vecs.shape``.

    ``vecs`` is one vector of length ``dim`` or a ``(dim, k)`` stack of
    columns.  The state lives on a ``(3, 3) + (3,)*L + (k,)`` tensor that
    starts as ``delta_ij`` times ``vecs``; site k (site 1 is the leftmost
    tensor factor, site L is applied last) adds ``g(w, xi_k)`` times the
    tensor with the auxiliary row index exchanged with the site index.
    Cost O(9 L 3^L k) instead of the O(L 9^L) of the dense operators.  The
    pseudovacuum (all sites in colour 1) then carries the eigenvalue pattern
    (prod_k f(w, xi_k), 1, 1) on the diagonal entries.
    """
    return _sweep(w, spec, vecs, reverse=False)


def _sweep(w: complex, spec: SpinChainSpec, vecs: np.ndarray,
           reverse: bool) -> np.ndarray:
    """``apply_monodromy``, with the sites taken from L down to 1 when
    ``reverse``.  The R-matrix is symmetric, so entry (j, i) of the
    reversed sweep is ``T(i,j)(w).T @ vecs``: the dual Bethe vectors are
    built from it.  The factors g(w, xi_k) come first, so a pole at a site
    raises before the vectors are read."""
    sites = [(k, g(w, xi_k, spec.c)) for k, xi_k in enumerate(spec.xi, 1)]
    vecs = np.asarray(vecs, dtype=complex)
    if vecs.ndim not in (1, 2) or vecs.shape[0] != spec.dim:
        raise ValueError(f"need vectors of length {spec.dim}, got shape {vecs.shape}")
    cols = vecs.reshape((3,) * spec.L + (-1,))
    x = np.zeros((3, 3) + cols.shape, dtype=complex)
    for i in range(3):
        x[i, i] = cols
    for site, g_k in (sites[::-1] if reverse else sites):
        x = x + g_k * x.swapaxes(0, site + 1)
    return x.reshape((3, 3) + vecs.shape)


def monodromy(w: complex, spec: SpinChainSpec) -> np.ndarray:
    """All nine operator-valued entries of the monodromy matrix at ``w``,
    as an array of shape (3, 3, dim, dim)."""
    return apply_monodromy(w, spec, np.eye(spec.dim, dtype=complex))


def transfer_matrix(w: complex, spec: SpinChainSpec,
                    twist: Twist = Twist.identity()) -> np.ndarray:
    """Twist-weighted trace sum_i kappa_i T(i,i)(w) of the monodromy matrix
    over the auxiliary space."""
    entries = monodromy(w, spec)
    kappas = twist.as_tuple()
    return sum(kappas[i] * entries[i, i] for i in range(3))


def probe_points(rng: np.random.Generator, n: int, avoid: Sequence[complex],
                 c: complex) -> list:
    """``n`` points drawn uniformly from the square [-1.6, 1.6]^2, each
    farther than 0.15 from every point of ``avoid`` and from its shifts by
    +-c; raises NoConvergence after 500 draws."""
    pts = []
    guard = 0
    while len(pts) < n and guard < 500:
        guard += 1
        w = complex(rng.uniform(-1.6, 1.6), rng.uniform(-1.6, 1.6))
        clear = all(min(abs(w - p), abs(w - p + c), abs(w - p - c)) > 0.15
                    for p in avoid)
        if clear:
            pts.append(w)
    if len(pts) < n:
        raise NoConvergence("could not draw enough probe points")
    return pts


# model -> {(spec, roots, twist, side): read-only vector}; the entries hold
# no reference to their model, so they die with it
_EXTRACTED = weakref.WeakKeyDictionary()

# a vector is accepted where its eigen_residual is at most this
_EIGEN_TOL = 1e-9


def eigenvector_for_state(state: BetheState, side: str,
                          spec: SpinChainSpec) -> np.ndarray:
    """The state's Bethe vector, confirmed as a twisted transfer-matrix
    eigenvector, in the normalization of the determinant formulas.

    ``side='right'`` gives B(u) = T12(u_1) ... T12(u_a)|0>, or for one
    v-root

        B(u; v) = f(v, u)^-1 [ T12(u) T23(v)
                    + sum_j g(v, u_j) f(u_j, u_j-bar) T13(u_j) T12(u_j-bar) ] |0>

    (u_j-bar is u without u_j; the pseudovacuum |0> has every site in
    colour 1).  ``side='left'`` gives the dual vector C as a column, by
    the same formula on the transposed entries (no conjugation), so that
    C @ B is the bilinear norm ``norm_squared`` and C @ T(i,j)(z) @ B the
    element ``form_factor``.

    The vector is accepted only if it is nonzero and, at three probe points
    drawn with a fixed seed, an eigenvector of the twisted transfer matrix
    with ``tau_twisted`` within ``_EIGEN_TOL`` of its terms' scale; else,
    and for b >= 2 v-roots (no formula here), ``DegenerateEigenvalue``.
    Vectors are memoized while the state's model lives, per (spec, roots,
    twist, side): a repeated call returns the same read-only array.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    per_model = _EXTRACTED.setdefault(state.model, {})
    key = (spec, state.roots, state.twist, side)
    if key not in per_model:
        if state.b > 1:
            raise DegenerateEigenvalue(
                f"no Bethe-vector formula for {state.b} v-roots")
        reverse = side == "left"
        vec = _bethe_vector(state.u, state.v, spec, reverse)
        _confirm_eigenvector(vec, state, spec, reverse)
        vec.flags.writeable = False
        per_model[key] = vec
    return per_model[key]


def _bethe_vector(u: tuple, v: tuple, spec: SpinChainSpec,
                  reverse: bool) -> np.ndarray:
    """B(u; v) of ``eigenvector_for_state`` for at most one v-root; with
    ``reverse`` every entry is transposed, which gives the dual vector.

    For one v-root, column 0 of one stack builds T12(u) T23(v)|0> and
    column j+1 builds T12(u_j-bar)|0> (each T12 step skips it), so the
    vector takes 2a + 1 sweeps."""
    vac = np.zeros(spec.dim, dtype=complex)
    vac[0] = 1.0
    if not v:
        for uk in u:
            vac = _sweep(uk, spec, vac, reverse)[0, 1]
        return vac.copy()  # not a view that keeps all nine entries alive
    (v1,) = v
    c = spec.c
    cols = np.repeat(vac[:, None], len(u) + 1, axis=1)
    cols[:, 0] = _sweep(v1, spec, vac, reverse)[1, 2]
    for k, uk in enumerate(u):
        skipped = cols[:, k + 1].copy()
        cols = _sweep(uk, spec, cols, reverse)[0, 1]
        cols[:, k + 1] = skipped
    vec = cols[:, 0]
    for j, uj in enumerate(u):
        coef = g(v1, uj, c) * f_prod(uj, exclude(u, j), c)
        vec = vec + coef * _sweep(uj, spec, cols[:, j + 1], reverse)[0, 2]
    return vec / f_prod(v1, u, c)


def _confirm_eigenvector(vec: np.ndarray, state: BetheState,
                         spec: SpinChainSpec, reverse: bool) -> None:
    """Raise ``DegenerateEigenvalue`` unless ``vec`` is nonzero and, at
    three fixed-seed probe points, has an eigen-residual (nan fails) within
    ``_EIGEN_TOL``, of the transposed entries with ``reverse``."""
    if not vec.any():
        raise DegenerateEigenvalue("the Bethe vector vanishes")
    avoid = list(spec.xi) + list(state.u) + list(state.v)
    for w in probe_points(np.random.default_rng(0), 3, avoid, spec.c):
        resid = _eigen_residual(vec, state, spec, w, reverse)
        if not resid <= _EIGEN_TOL:
            raise DegenerateEigenvalue(
                f"Bethe vector is no transfer-matrix eigenvector: relative "
                f"residual {resid:.3e} above {_EIGEN_TOL:.0e} at w={w}")


def eigen_residual(state: BetheState, spec: SpinChainSpec,
                   w: complex) -> float:
    """|t(w) B - tau(w) B| / sum_i |kappa_i| |T(i,i)(w) B| for the state's
    Bethe vector B, twisted transfer matrix t(w) and ``tau_twisted``: the
    eigen-residual on the scale of the terms that cancel, taken by one
    sweep on B and no transfer matrix."""
    vec = eigenvector_for_state(state, "right", spec)
    return _eigen_residual(vec, state, spec, w, reverse=False)


def _eigen_residual(vec: np.ndarray, state: BetheState, spec: SpinChainSpec,
                    w: complex, reverse: bool) -> float:
    """``eigen_residual`` of ``vec``, of the transposed entries with
    ``reverse``."""
    kappas = state.twist.as_tuple()
    entries = _sweep(w, spec, vec, reverse)
    terms = [kappas[i] * entries[i, i] for i in range(3)]
    tv = tau_twisted(w, state.roots, state.twist, state.model)
    resid = np.linalg.norm(sum(terms) - tv * vec)
    return float(resid / sum(np.linalg.norm(t) for t in terms))


def invariant_ratio(kind: tuple, z1: complex, z2: complex,
                    left_state: BetheState, right_state: BetheState,
                    spec: SpinChainSpec, rng: np.random.Generator) -> complex:
    """``C @ T(i,j)(z1) @ B / C @ T(i,j)(z2) @ B`` between the two states'
    Bethe vectors C (left) and B (right); ``ZeroDenominator`` where the
    denominator is within 1e-12 of max(|C| |B|, |numerator|), a floor that,
    like the ratio, does not change when either vector is rescaled.  ``rng``
    is not used: the benchmark under ``bench/`` passes one, and the
    parameter goes when that call drops it."""
    i, j = kind
    vl = eigenvector_for_state(left_state, "left", spec)
    vr = eigenvector_for_state(right_state, "right", spec)
    num, den = (complex(vl @ apply_monodromy(z, spec, vr)[i - 1, j - 1])
                for z in (z1, z2))
    floor = 1e-12 * max(np.linalg.norm(vl) * np.linalg.norm(vr), abs(num))
    if abs(den) <= floor:
        raise ZeroDenominator(f"denominator element {den} too small")
    return num / den
