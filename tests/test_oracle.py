import numpy as np
import pytest

import gl3ff.oracle as orc
from gl3ff.errors import PoleError, ZeroDenominator
from gl3ff.model import Twist, tau
from conftest import vacuum_state


def test_spec_validation():
    with pytest.raises(ValueError):
        orc.SpinChainSpec(L=7, xi=(0,) * 7, c=1.0)
    with pytest.raises(ValueError):
        orc.SpinChainSpec(L=2, xi=(0.1,), c=1.0)
    with pytest.raises(ValueError):
        orc.SpinChainSpec(L=3, xi=(0.1, 0.1 + 1e-12, 0.4), c=1.0)
    orc.SpinChainSpec(L=3, xi=(0.0, 0.0, 0.0), c=1.0)  # homogeneous ok


def test_r_matrix_limits():
    c = 1.0
    r = orc.r_matrix(1e9, 0.0, c)
    assert np.max(np.abs(r - np.eye(9))) < 1e-7
    x, y = 0.31 + 0.12j, -0.44 + 0.75j
    g = c / (x - y)
    p = (orc.r_matrix(x, y, c) - np.eye(9)) / g
    assert np.max(np.abs(p @ p - np.eye(9))) < 1e-12


def test_yang_baxter():
    c = 1.0
    rng = np.random.default_rng(4)
    eye3 = np.eye(3)
    for _ in range(3):
        x, y, z = (complex(*rng.uniform(-2, 2, 2)) for _ in range(3))
        r4 = lambda a, b: orc.r_matrix(a, b, c).reshape(3, 3, 3, 3)
        r12 = np.einsum("abcd,mn->abmcdn", r4(x, y), eye3).reshape(27, 27)
        r13 = np.einsum("abcd,mn->ambcnd", r4(x, z), eye3).reshape(27, 27)
        r23 = np.einsum("abcd,mn->mabncd", r4(y, z), eye3).reshape(27, 27)
        resid = np.linalg.norm(r12 @ r13 @ r23 - r23 @ r13 @ r12)
        assert resid < 1e-12


def test_vacuum_action(chain2):
    spec, model = chain2
    w = 0.83 - 0.31j
    vac = np.zeros(spec.dim, dtype=complex)
    vac[0] = 1.0
    lam = [model.r1(w), 1.0, 1.0]
    for i in range(3):
        col = orc.monodromy_entry(i + 1, i + 1, w, spec) @ vac
        assert np.max(np.abs(col - lam[i] * vac)) < 1e-12 * abs(lam[i])
    for i in range(1, 4):
        for j in range(1, 4):
            if i > j:
                assert np.max(np.abs(orc.monodromy_entry(i, j, w, spec) @ vac)) < 1e-14


def test_rtt_exchange(chain2):
    spec, _ = chain2
    w1, w2 = 0.91 + 0.17j, -0.55 + 0.62j
    dim = spec.dim
    b1 = orc.monodromy(w1, spec)
    b2 = orc.monodromy(w2, spec)
    t1 = np.zeros((3, 3, 3, 3, dim, dim), dtype=complex)
    t2 = np.zeros_like(t1)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                t1[i, k, j, k] = b1[i, j]
                t2[k, i, k, j] = b2[i, j]
    t1m = t1.transpose(0, 1, 4, 2, 3, 5).reshape(9 * dim, 9 * dim)
    t2m = t2.transpose(0, 1, 4, 2, 3, 5).reshape(9 * dim, 9 * dim)
    r12 = np.kron(orc.r_matrix(w1, w2, spec.c), np.eye(dim))
    assert np.linalg.norm(r12 @ t1m @ t2m - t2m @ t1m @ r12) < 1e-10


def test_weight_shift_structure(chain3):
    # T(i,j) removes one site of colour i and adds one of colour j
    spec, _ = chain3
    w = 0.64 - 0.23j
    occ = np.array([[int(np.base_repr(idx, 3).zfill(spec.L)[k]) for k in range(spec.L)]
                    for idx in range(spec.dim)])
    counts = np.stack([(occ == s).sum(axis=1) for s in range(3)], axis=1)
    for i in range(1, 4):
        for j in range(1, 4):
            if i == j:
                continue
            block = orc.monodromy_entry(i, j, w, spec)
            rows, cols = np.nonzero(np.abs(block) > 1e-12)
            for r, c_ in zip(rows, cols):
                src = counts[c_].copy()
                src[i - 1] -= 1
                src[j - 1] += 1
                assert np.array_equal(src, counts[r])


def test_transfer_preserves_sectors(chain3):
    # structural zero blocks: no entries connect different occupation sectors
    spec, _ = chain3
    m = orc.transfer_matrix(0.52 - 0.74j, spec)
    seen = np.zeros(spec.dim, dtype=bool)
    for n1 in range(spec.L + 1):
        for n2 in range(spec.L + 1 - n1):
            idx = orc.weight_sector_indices(spec.L, (n1, n2, spec.L - n1 - n2))
            seen[idx] = True
            mask = np.zeros(spec.dim, dtype=bool)
            mask[idx] = True
            assert np.all(m[np.ix_(idx, ~mask)] == 0)
    assert seen.all()


def test_transfer_family_commutes(chain2):
    spec, _ = chain2
    tw = Twist(0.8 + 0.2j, 1.0, 1.3 - 0.1j)
    m1 = orc.transfer_matrix(0.45 + 0.81j, spec, tw)
    m2 = orc.transfer_matrix(-0.93 + 0.27j, spec, tw)
    assert np.linalg.norm(m1 @ m2 - m2 @ m1) < 1e-10


def test_monodromy_pole_guard(chain2):
    spec, _ = chain2
    with pytest.raises(PoleError):
        orc.monodromy(spec.xi[0], spec)


def test_sector_indices():
    idx = orc.weight_sector_indices(2, (1, 1, 0))
    assert sorted(idx) == [1, 3]  # |12> and |21>
    with pytest.raises(ValueError):
        orc.weight_sector_indices(2, (2, 1, 0))
    with pytest.raises(ValueError):
        orc.state_sector(orc.SpinChainSpec(2, (0.1, -0.1), 1.0), 1, 2)


def test_eigenvector_vacuum(chain2, rng):
    spec, model = chain2
    vec = orc.eigenvector_for_state(vacuum_state(model), "right", spec, rng)
    assert abs(abs(vec[0]) - 1.0) < 1e-12
    assert np.max(np.abs(vec[1:])) < 1e-12


def test_eigenvector_residual_and_pairing(state_lib, rng):
    spec, model = state_lib[2]["spec"], state_lib[2]["model"]
    st = state_lib[2]["m10"][0]
    vr = orc.eigenvector_for_state(st, "right", spec, rng)
    vl = orc.eigenvector_for_state(st, "left", spec, rng)
    w = 0.72 + 0.66j
    m = orc.transfer_matrix(w, spec)
    tv = tau(w, st.roots, model)
    assert np.linalg.norm(m @ vr - tv * vr) < 1e-10 * np.linalg.norm(m)
    assert np.linalg.norm(vl @ m - tv * vl) < 1e-10 * np.linalg.norm(m)
    assert abs(complex(vl @ vr)) > 1e-3  # non-defective pairing


def test_orthogonality_distinct_eigenvalues(state_lib, rng):
    spec = state_lib[3]["spec"]
    a, b = state_lib[3]["m10"][0], state_lib[3]["m10"][1]
    vl = orc.eigenvector_for_state(a, "left", spec, rng)
    vr = orc.eigenvector_for_state(b, "right", spec, rng)
    assert abs(complex(vl @ vr)) < 1e-9


def test_invariant_ratio_trivial_and_diag(state_lib, rng):
    spec = state_lib[3]["spec"]
    a, b = state_lib[3]["m10"][0], state_lib[3]["m10"][1]
    z = 0.9 + 0.6j
    assert abs(orc.invariant_ratio((1, 1), z, z, a, b, spec, rng) - 1.0) < 1e-12
    # mixed diagonal kinds share the sector shift
    val = orc.invariant_ratio((1, 1), z, 0.4 - 0.3j, a, b, spec, rng,
                              kind2=(2, 2))
    assert np.isfinite(val.real) and val != 0


def test_invariant_product_same_state_reduces(state_lib, rng):
    spec = state_lib[3]["spec"]
    st = state_lib[3]["m10"][0]
    z = 0.9 + 0.6j
    got = orc.invariant_product((2, 2), z, z, st, st, spec, rng)
    vl = orc.eigenvector_for_state(st, "left", spec, rng)
    vr = orc.eigenvector_for_state(st, "right", spec, rng)
    expect = (complex(vl @ orc.monodromy_entry(2, 2, z, spec) @ vr)
              / complex(vl @ vr)) ** 2
    assert abs(got - expect) <= 1e-10 * abs(expect)


def test_zero_denominator_detected(state_lib, rng):
    spec, model = state_lib[2]["spec"], state_lib[2]["model"]
    st = state_lib[2]["m10"][0]
    vac = vacuum_state(model)
    with pytest.raises(ZeroDenominator):
        # annihilation entry on the vacuum is exactly zero
        orc.invariant_ratio((2, 1), 0.9 + 0.6j, 0.4 - 0.3j, st, vac, spec, rng)


def _kron_monodromy(w, spec):
    """T(w) on aux (x) site 1 (x) ... (x) site L, as R_{0L} ... R_{01}:
    each R_{0k} is the 9 x 9 R-matrix on (aux, site k) embedded by explicit
    Kronecker products of single-space units; site L is applied last."""
    eye3 = np.eye(3)
    units = [[np.outer(eye3[a], eye3[b]) for b in range(3)] for a in range(3)]
    full = np.eye(3 * spec.dim, dtype=complex)
    for k, xi_k in enumerate(spec.xi):
        r = orc.r_matrix(w, xi_k, spec.c).reshape(3, 3, 3, 3)  # (a, s, b, t)
        rk = np.zeros_like(full)
        for a in range(3):
            for s in range(3):
                for b in range(3):
                    for t in range(3):
                        op = units[a][b]
                        for site in range(spec.L):
                            op = np.kron(op, units[s][t] if site == k else eye3)
                        rk += r[a, s, b, t] * op
        full = rk @ full
    return full.reshape(3, spec.dim, 3, spec.dim).transpose(0, 2, 1, 3)


@pytest.mark.parametrize("L", [1, 2, 3])
def test_monodromy_matches_kronecker_reference(L):
    rng = np.random.default_rng(100 + L)
    xi = tuple(complex(*rng.uniform(-0.4, 0.4, 2)) for _ in range(L))
    spec = orc.SpinChainSpec(L=L, xi=xi, c=0.7 + 0.4j)
    w = 0.61 - 0.47j
    ref = _kron_monodromy(w, spec)
    got = orc.monodromy(w, spec)
    assert got.shape == (3, 3, spec.dim, spec.dim)
    for i in range(3):
        for j in range(3):
            assert np.max(np.abs(got[i, j] - ref[i, j])) < 1e-13 * np.max(np.abs(ref))


def _chain4():
    xi = (0.21 + 0.05j, -0.13 + 0.17j, 0.04 - 0.22j, -0.18 - 0.09j)
    return orc.SpinChainSpec(L=4, xi=xi, c=0.9 + 0.3j)


def test_sector_transfer_matrix_is_restricted_block():
    spec = _chain4()
    tw = Twist(0.8 + 0.2j, 1.0, 1.3 - 0.1j)
    w = 0.57 + 0.38j
    full = orc.transfer_matrix(w, spec, tw)
    for n1 in range(spec.L + 1):
        for n2 in range(spec.L + 1 - n1):
            idx = orc.weight_sector_indices(spec.L, (n1, n2, spec.L - n1 - n2))
            sec = orc.transfer_matrix(w, spec, tw, idx)
            # the columns are computed independently, so the block is exact
            assert np.array_equal(sec, full[np.ix_(idx, idx)])


def test_apply_monodromy_matvec_matches_dense():
    spec = _chain4()
    rng = np.random.default_rng(11)
    vl = rng.normal(size=spec.dim) + 1j * rng.normal(size=spec.dim)
    vr = rng.normal(size=spec.dim) + 1j * rng.normal(size=spec.dim)
    z = -0.42 + 0.73j
    assert orc.apply_monodromy(z, spec, vr).shape == (3, 3, spec.dim)
    for i in range(1, 4):
        for j in range(1, 4):
            expect = complex(vl @ orc.monodromy_entry(i, j, z, spec) @ vr)
            got = orc._entry_value(i, j, z, vl, vr, spec)
            assert abs(got - expect) <= 1e-12 * np.linalg.norm(vl) * np.linalg.norm(vr)
    with pytest.raises(ValueError):
        orc.apply_monodromy(z, spec, vr[:-1])


def test_pole_guard_on_every_entry_point(state_lib, rng):
    spec = state_lib[3]["spec"]
    a, b = state_lib[3]["m10"][0], state_lib[3]["m10"][1]
    vec = np.ones(spec.dim, dtype=complex)
    idx = orc.state_sector(spec, 1, 0)
    for xi_k in spec.xi:
        calls = [
            lambda: orc.apply_monodromy(xi_k, spec, vec),
            lambda: orc.monodromy(xi_k, spec),
            lambda: orc.monodromy_entry(1, 2, xi_k, spec),
            lambda: orc.transfer_matrix(xi_k, spec),
            lambda: orc.transfer_matrix(xi_k, spec, Twist.identity(), idx),
            lambda: orc._entry_value(2, 2, xi_k, vec, vec, spec),
            lambda: orc.invariant_ratio((1, 1), xi_k, 0.9 + 0.6j, a, b, spec, rng),
        ]
        for call in calls:
            with pytest.raises(PoleError):
                call()
