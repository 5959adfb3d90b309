"""Brute-force ground truth on the explicit 3^L Hilbert space of an
inhomogeneous three-colour chain.

The monodromy matrix is never built as operators: ``apply_monodromy``
applies all nine entries to a stack of vectors one site at a time, at
O(9 L 3^L) per vector.  On top of it sit the dense entries (for structural
checks), the (twisted) transfer matrix restricted to one weight sector
(built from that sector's basis vectors alone), eigenvector extraction by
inverse iteration at a known eigenvalue, and normalization-invariant
comparators that need one matrix-vector product per matrix element."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .errors import (DegenerateEigenvalue, NoConvergence, PoleError,
                     ZeroDenominator)
from .kernel import g, pole_tol
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
    tol = pole_tol(spec.c)
    if any(abs(w - x) <= tol for x in spec.xi):
        raise PoleError(f"probe point {w} collides with an inhomogeneity")
    vecs = np.asarray(vecs, dtype=complex)
    if vecs.ndim not in (1, 2) or vecs.shape[0] != spec.dim:
        raise ValueError(f"need vectors of length {spec.dim}, got shape {vecs.shape}")
    cols = vecs.reshape((3,) * spec.L + (-1,))
    x = np.zeros((3, 3) + cols.shape, dtype=complex)
    for i in range(3):
        x[i, i] = cols
    for site, xi_k in enumerate(spec.xi, start=1):
        x = x + g(w, xi_k, spec.c) * x.swapaxes(0, site + 1)
    return x.reshape((3, 3) + vecs.shape)


def monodromy(w: complex, spec: SpinChainSpec) -> np.ndarray:
    """All nine operator-valued entries of the monodromy matrix at ``w``,
    as an array of shape (3, 3, dim, dim)."""
    return apply_monodromy(w, spec, np.eye(spec.dim, dtype=complex))


def monodromy_entry(i: int, j: int, w: complex, spec: SpinChainSpec) -> np.ndarray:
    """The (i, j) auxiliary-space block (1-based colour indices)."""
    if not (1 <= i <= 3 and 1 <= j <= 3):
        raise ValueError("colour indices must be in {1, 2, 3}")
    return monodromy(w, spec)[i - 1, j - 1]


def transfer_matrix(w: complex, spec: SpinChainSpec,
                    twist: Twist = Twist.identity(),
                    sector: Optional[np.ndarray] = None) -> np.ndarray:
    """Twist-weighted trace of the monodromy matrix over the auxiliary space.

    With ``sector`` (basis indices, as from ``weight_sector_indices``) only
    the block on those indices is returned, computed from the monodromy
    applied to their basis vectors alone; the transfer matrix preserves
    every weight sector, so the block equals the restricted full matrix.
    """
    if sector is None:
        blocks = monodromy(w, spec)
    else:
        cols = np.zeros((spec.dim, len(sector)), dtype=complex)
        cols[sector, np.arange(len(sector))] = 1.0
        blocks = apply_monodromy(w, spec, cols)[:, :, sector]
    kappas = twist.as_tuple()
    return sum(kappas[i] * blocks[i, i] for i in range(3))


@lru_cache(maxsize=64)
def _occupations(L: int) -> np.ndarray:
    """Colour occupation counts (n1, n2, n3) of every basis state."""
    dim = 3 ** L
    out = np.zeros((dim, 3), dtype=int)
    for idx in range(dim):
        rem = idx
        for _ in range(L):
            out[idx, rem % 3] += 1
            rem //= 3
    return out


def weight_sector_indices(L: int, counts: Sequence[int]) -> np.ndarray:
    """Basis indices of the subspace with the given occupation counts."""
    counts = tuple(int(n) for n in counts)
    if len(counts) != 3 or any(n < 0 for n in counts) or sum(counts) != L:
        raise ValueError(f"invalid occupation counts {counts} for L={L}")
    occ = _occupations(L)
    return np.nonzero((occ == np.array(counts)).all(axis=1))[0]


def state_sector(spec: SpinChainSpec, a: int, b: int) -> np.ndarray:
    """Sector indices of a state with a u-roots and b v-roots:
    occupation counts (L - a, a - b, b)."""
    if not 0 <= b <= a <= spec.L:
        raise ValueError(f"sector (a={a}, b={b}) not realizable on L={spec.L}")
    return weight_sector_indices(spec.L, (spec.L - a, a - b, b))


def _probe_point(rng: np.random.Generator, spec: SpinChainSpec,
                 avoid: Sequence[complex]) -> complex:
    for _ in range(200):
        w = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        if all(abs(w - p) > 0.2 for p in avoid):
            return w
    raise NoConvergence("could not find a probe point away from poles")


def eigenvector_for_state(state: BetheState, side: str, spec: SpinChainSpec,
                          rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Unit-length sector eigenvector matching the state's eigenvalue.

    Inverse iteration with the known eigenvalue as shift, validated at three
    independent probe points (the true eigenvector is probe-independent, so
    accidental eigenvalue collisions at the shift point are caught).  The
    overall phase and scale are arbitrary; callers must use invariant
    comparators.  ``side='left'`` iterates on the transposed matrix, giving
    the bilinear dual eigenvector (no conjugation).
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    if rng is None:
        rng = np.random.default_rng(0)
    idx = state_sector(spec, state.a, state.b)
    model = state.model
    avoid = list(spec.xi) + list(state.u) + list(state.v)
    last_error = "no attempts made"
    for _ in range(5):
        w0 = _probe_point(rng, spec, avoid)
        m_sec = transfer_matrix(w0, spec, state.twist, idx)
        tau0 = tau_twisted(w0, state.roots, state.twist, model)
        scale = np.linalg.norm(m_sec, 2)
        eigs = np.linalg.eigvals(m_sec)
        close = np.sum(np.abs(eigs - tau0) <= 1e-7 * max(1.0, abs(tau0)))
        if close == 0:
            last_error = f"eigenvalue {tau0} not present in sector at w0={w0}"
            continue
        if close > 1:
            last_error = f"{close} sector eigenvalues within 1e-7 of {tau0}"
            continue
        a_mat = m_sec.T if side == "left" else m_sec
        shift = tau0 + 1e-12j * scale
        vec = rng.normal(size=len(idx)) + 1j * rng.normal(size=len(idx))
        vec /= np.linalg.norm(vec)
        try:
            for _ in range(3):
                vec = np.linalg.solve(a_mat - shift * np.eye(len(idx)), vec)
                vec /= np.linalg.norm(vec)
        except np.linalg.LinAlgError as exc:
            last_error = f"inverse iteration solve failed: {exc}"
            continue
        ok = True
        for _ in range(3):
            wt = _probe_point(rng, spec, avoid)
            mt = transfer_matrix(wt, spec, state.twist, idx)
            taut = tau_twisted(wt, state.roots, state.twist, model)
            if side == "left":
                resid = np.linalg.norm(vec @ mt - taut * vec)
            else:
                resid = np.linalg.norm(mt @ vec - taut * vec)
            if resid > 1e-8 * np.linalg.norm(mt, 2):
                ok = False
                last_error = f"probe residual {resid:.3e} at w={wt}"
                break
        if ok:
            full = np.zeros(spec.dim, dtype=complex)
            full[idx] = vec
            return full
    raise DegenerateEigenvalue(last_error)


def _entry_value(i: int, j: int, z: complex, vl: np.ndarray, vr: np.ndarray,
                 spec: SpinChainSpec) -> complex:
    return complex(vl @ apply_monodromy(z, spec, vr)[i - 1, j - 1])


def invariant_ratio(kind: tuple, z1: complex, z2: complex,
                    left_state: BetheState, right_state: BetheState,
                    spec: SpinChainSpec,
                    rng: Optional[np.random.Generator] = None,
                    kind2: Optional[tuple] = None) -> complex:
    """Ratio of two matrix elements of the same (or an equally sector-shifting)
    entry between the same pair of eigenvectors; invariant under rescaling of
    either eigenvector."""
    if rng is None:
        rng = np.random.default_rng(0)
    if kind2 is None:
        kind2 = kind
    vl = eigenvector_for_state(left_state, "left", spec, rng)
    vr = eigenvector_for_state(right_state, "right", spec, rng)
    num = _entry_value(kind[0], kind[1], z1, vl, vr, spec)
    den = _entry_value(kind2[0], kind2[1], z2, vl, vr, spec)
    floor = 1e-12 * max(1.0, abs(num))
    if abs(den) <= floor:
        raise ZeroDenominator(f"denominator element {den} too small")
    return num / den


def invariant_product(kind: tuple, z1: complex, z2: complex,
                      left_state: BetheState, right_state: BetheState,
                      spec: SpinChainSpec,
                      rng: Optional[np.random.Generator] = None) -> complex:
    """Product <C|T(i,j)(z1)|B> <B|T(j,i)(z2)|C> / (<B|B> <C|C>) with bilinear
    left eigenvectors; invariant under independent rescaling of all four
    vectors."""
    if rng is None:
        rng = np.random.default_rng(0)
    i, j = kind
    vl_c = eigenvector_for_state(left_state, "left", spec, rng)
    vr_c = eigenvector_for_state(left_state, "right", spec, rng)
    vl_b = eigenvector_for_state(right_state, "left", spec, rng)
    vr_b = eigenvector_for_state(right_state, "right", spec, rng)
    num = (_entry_value(i, j, z1, vl_c, vr_b, spec)
           * _entry_value(j, i, z2, vl_b, vr_c, spec))
    den = complex(vl_b @ vr_b) * complex(vl_c @ vr_c)
    if abs(den) <= 1e-12:
        raise ZeroDenominator("defective eigenpair: <left|right> ~ 0")
    return num / den
