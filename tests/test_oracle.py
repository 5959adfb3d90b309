import dataclasses
import gc
import itertools
import weakref

import numpy as np
import pytest

import gl3ff.checks as checks
import gl3ff.formfactor as ff
import gl3ff.oracle as orc
from gl3ff.checks import Report
from gl3ff.errors import (DegenerateEigenvalue, Gl3Error, PoleError,
                          ZeroDenominator)
from gl3ff.model import Twist, tau, tau_twisted
from gl3ff.solver import distinct_states
from conftest import make_state, vacuum_state


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
    mono = orc.monodromy(w, spec)
    for i in range(3):
        col = mono[i, i] @ vac
        assert np.max(np.abs(col - lam[i] * vac)) < 1e-12 * abs(lam[i])
    for i in range(1, 4):
        for j in range(1, 4):
            if i > j:
                assert np.max(np.abs(mono[i - 1, j - 1] @ vac)) < 1e-14


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
    mono = orc.monodromy(w, spec)
    for i in range(1, 4):
        for j in range(1, 4):
            if i == j:
                continue
            block = mono[i - 1, j - 1]
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
        orc.weight_sector_indices(2, (1, -1, 2))  # a=1 u-root, b=2 v-roots


def test_eigenvector_vacuum(chain2):
    spec, model = chain2
    vec = orc.eigenvector_for_state(vacuum_state(model), "right", spec)
    assert abs(abs(vec[0]) - 1.0) < 1e-12
    assert np.max(np.abs(vec[1:])) < 1e-12


def test_eigenvector_residual_and_pairing(state_lib):
    spec, model = state_lib[2]["spec"], state_lib[2]["model"]
    st = state_lib[2]["m10"][0]
    vr = orc.eigenvector_for_state(st, "right", spec)
    vl = orc.eigenvector_for_state(st, "left", spec)
    w = 0.72 + 0.66j
    m = orc.transfer_matrix(w, spec)
    tv = tau(w, st.roots, model)
    assert np.linalg.norm(m @ vr - tv * vr) < 1e-10 * np.linalg.norm(m)
    assert np.linalg.norm(vl @ m - tv * vl) < 1e-10 * np.linalg.norm(m)
    assert abs(complex(vl @ vr)) > 1e-3  # non-defective pairing


def test_eigenvector_off_shell_state_raises(state_lib):
    # one root moved by 1e-3: its Bethe vector is off shell, no eigenvector
    spec, model = state_lib[3]["spec"], state_lib[3]["model"]
    st = state_lib[3]["m21"][0]
    moved = make_state(model, (st.u[0] + 1e-3,) + st.u[1:], st.v)
    for side in ("left", "right"):
        with pytest.raises(DegenerateEigenvalue,
                           match="no transfer-matrix eigenvector"):
            orc.eigenvector_for_state(moved, side, spec)


def test_two_v_roots_raise_before_any_sweep(state_lib, monkeypatch):
    def sweep(*args, **kwargs):
        raise AssertionError("swept a state with no vector formula")

    monkeypatch.setattr(orc, "_sweep", sweep)
    spec, model = state_lib[4]["spec"], state_lib[4]["model"]
    st = make_state(model, (0.1, 0.5, -0.4 + 0.3j), (0.2 + 0.1j, -0.3j))
    for side in ("left", "right"):
        with pytest.raises(DegenerateEigenvalue,
                           match="no Bethe-vector formula for 2 v-roots"):
            orc.eigenvector_for_state(st, side, spec)


def test_twisted_pair_state_passes_on_both_sides(state_lib):
    spec, model = state_lib[2]["spec"], state_lib[2]["model"]
    tw = Twist(0.9 + 0.1j, 1.0, 1.2 - 0.2j)
    st = distinct_states(model, 1, 1, twist=tw, rng_seed=7)[0]
    vr = orc.eigenvector_for_state(st, "right", spec)
    vl = orc.eigenvector_for_state(st, "left", spec)
    w = 0.72 + 0.66j
    m = orc.transfer_matrix(w, spec, tw)
    tv = tau_twisted(w, st.roots, tw, model)
    scale = np.linalg.norm(m)
    assert np.linalg.norm(m @ vr - tv * vr) < 1e-10 * scale * np.linalg.norm(vr)
    assert np.linalg.norm(vl @ m - tv * vl) < 1e-10 * scale * np.linalg.norm(vl)


def test_eigen_residual_is_relative_to_the_cancelling_terms(state_lib,
                                                            monkeypatch):
    spec, model = state_lib[2]["spec"], state_lib[2]["model"]
    tw = Twist(0.9 + 0.1j, 1.0, 1.2 - 0.2j)
    st = distinct_states(model, 1, 1, twist=tw, rng_seed=7)[0]
    w = 0.72 + 0.66j
    vec = orc.eigenvector_for_state(st, "right", spec)

    def forbidden(*args, **kwargs):
        raise AssertionError("the eigen-residual built a transfer matrix")

    monkeypatch.setattr(orc, "transfer_matrix", forbidden)
    assert orc.eigen_residual(st, spec, w) <= 1e-13
    # an eigenvalue off by 1e-6 relative leaves |tau| 1e-6 |B| in the
    # numerator, divided by sum_i |kappa_i| |T(i,i)(w) B|
    tv = tau_twisted(w, st.roots, tw, model)
    entries = orc.apply_monodromy(w, spec, vec)
    scale = sum(abs(k) * np.linalg.norm(entries[i, i])
                for i, k in enumerate(tw.as_tuple()))
    expect = 1e-6 * abs(tv) * np.linalg.norm(vec) / scale
    monkeypatch.setattr(orc, "tau_twisted",
                        lambda *args: (1 + 1e-6) * tau_twisted(*args))
    assert abs(orc.eigen_residual(st, spec, w) - expect) <= 1e-6 * expect


def test_vectors_need_no_transfer_matrix_or_eigendecomposition(state_lib,
                                                               monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a vector built a matrix or decomposed one")

    swept = []
    sweep = orc._sweep

    def counted(w, spec, vecs, reverse):
        swept.append(reverse)
        return sweep(w, spec, vecs, reverse)

    monkeypatch.setattr(orc, "transfer_matrix", forbidden)
    monkeypatch.setattr(np.linalg, "eig", forbidden)
    monkeypatch.setattr(np.linalg, "eigvals", forbidden)
    monkeypatch.setattr(orc, "_sweep", counted)
    spec = state_lib[5]["spec"]
    st = dataclasses.replace(state_lib[5]["m31"][0], model=spec.model())
    orc.eigenvector_for_state(st, "left", spec)
    orc.eigenvector_for_state(st, "right", spec)
    # per side 2a + 1 sweeps for the (3,1) vector, three for its eigen-test
    assert swept == [True] * 10 + [False] * 10


@pytest.mark.parametrize("side", ["left", "right"])
def test_extraction_repeats_bit_for_bit(state_lib, side):
    # the memoized vector, taken after other extractions, has the bits of a
    # fresh extraction of the same roots on a new model object
    spec = state_lib[3]["spec"]
    st, other = state_lib[3]["m21"][0], state_lib[3]["m10"][0]
    orc.eigenvector_for_state(other, "left", spec)
    orc.eigenvector_for_state(other, "right", spec)
    orc.eigenvector_for_state(state_lib[2]["m10"][0], side, state_lib[2]["spec"])
    memoized = orc.eigenvector_for_state(st, side, spec)
    fresh = dataclasses.replace(st, model=spec.model())
    assert fresh.model is not st.model
    assert np.array_equal(orc.eigenvector_for_state(fresh, side, spec),
                          memoized)


def test_extraction_memo_dies_with_model(state_lib):
    spec = state_lib[3]["spec"]
    model = spec.model()
    st = dataclasses.replace(state_lib[3]["m21"][0], model=model)
    entries = len(orc._EXTRACTED)
    vectors = {side: orc.eigenvector_for_state(st, side, spec)
               for side in ("left", "right")}
    for side in ("left", "right", "left"):
        assert orc.eigenvector_for_state(st, side, spec) is vectors[side]
    assert len(orc._EXTRACTED) == entries + 1
    ref = weakref.ref(model)
    del model, st
    gc.collect()
    assert ref() is None
    assert len(orc._EXTRACTED) == entries


def test_extracted_vector_is_read_only(state_lib):
    spec = state_lib[2]["spec"]
    vec = orc.eigenvector_for_state(state_lib[2]["m10"][0], "right", spec)
    with pytest.raises(ValueError):
        vec[0] = 0.0
    with pytest.raises(ValueError):
        vec *= 2.0


def test_bethe_vectors_carry_the_formulas_normalization(state_lib):
    # C.B is the bilinear norm, and C.T(i,j)(z).B every element that the
    # determinant formulas accept, on the scale |C| |T(i,j)(z).B|
    z = 0.41 - 0.83j
    n_elements = 0
    for L in (3, 4, 5):
        lib, spec = state_lib[L], state_lib[L]["spec"]
        states = [lib["vac"]] + [st for key in ("m10", "m21", "m20", "m31")
                                 for st in lib.get(key, ())]
        left = [orc.eigenvector_for_state(st, "left", spec) for st in states]
        right = [orc.eigenvector_for_state(st, "right", spec) for st in states]
        for st, vl, vr in zip(states, left, right):
            ns = ff.norm_squared(st)
            assert abs(complex(vl @ vr) - ns) <= 1e-10 * abs(ns)
        for r, vr in zip(states, right):
            t_vr = orc.apply_monodromy(z, spec, vr)
            for l, vl in zip(states, left):
                for i, j in itertools.product((1, 2, 3), repeat=2):
                    try:
                        val = ff.form_factor((i, j), l, r, z)
                    except Gl3Error:
                        continue
                    col = t_vr[i - 1, j - 1]
                    scale = np.linalg.norm(vl) * np.linalg.norm(col)
                    assert abs(val - complex(vl @ col)) <= 1e-11 * scale
                    n_elements += 1
    assert n_elements >= 300


def _near_zero_pair(spec):
    """Unit vectors whose T(1,1) elements lie below 1e-12: the vacuum on
    the right, on the left a basis vector tilted by 1e-14 towards it."""
    vr = np.zeros(spec.dim, dtype=complex)
    vr[0] = 1.0
    vl = np.zeros(spec.dim, dtype=complex)
    vl[1], vl[0] = 1.0, 1e-14
    return vl, vr


def _ratio_or_error(kind, left, right, spec, scale, monkeypatch,
                    vectors=None):
    """``invariant_ratio`` with every Bethe vector (or ``vectors``, by side)
    multiplied by ``scale``; None where the floor raises."""
    build = orc.eigenvector_for_state

    def vector(state, side, spec_):
        return scale * (vectors[side] if vectors else build(state, side, spec_))

    with monkeypatch.context() as m:
        m.setattr(orc, "eigenvector_for_state", vector)
        try:
            return orc.invariant_ratio(kind, 0.9 + 0.6j, 0.4 - 0.3j, left,
                                       right, spec, None)
        except ZeroDenominator:
            return None


def test_floors_do_not_depend_on_vector_scale(state_lib, monkeypatch):
    spec = state_lib[3]["spec"]
    a, b = state_lib[3]["m10"][0], state_lib[3]["m10"][1]
    vl, vr = _near_zero_pair(spec)
    cases = [((1, 1), a, b, None), ((2, 1), a, state_lib[3]["vac"], None),
             ((1, 1), a, b, {"left": vl, "right": vr})]
    decided = []
    for kind, left, right, vectors in cases:
        got = _ratio_or_error(kind, left, right, spec, 1.0, monkeypatch,
                              vectors)
        scaled = _ratio_or_error(kind, left, right, spec, 1e6, monkeypatch,
                                 vectors)
        assert (got is None) == (scaled is None)
        if got is not None:
            assert abs(scaled - got) <= 1e-13 * abs(got)
        decided.append(got is None)
    assert decided == [False, True, True]

    build = orc.eigenvector_for_state

    def orthogonality(scale):
        def vector(state, side, spec_):
            return scale * build(state, side, spec_)

        report = Report("orthogonality", 7)
        with monkeypatch.context() as m:
            m.setattr(checks.orc, "eigenvector_for_state", vector)
            checks.check_orthogonality(report, state_lib, None)
        (record,) = report.records
        return record

    # the overlap is of unit scale and at rounding level: compare absolutely
    unit, scaled = orthogonality(1.0), orthogonality(1e6)
    assert unit["pass"] == scaled["pass"]
    assert abs(scaled["residual"] - unit["residual"]) <= 1e-15


def test_orthogonality_distinct_eigenvalues(state_lib):
    spec = state_lib[3]["spec"]
    a, b = state_lib[3]["m10"][0], state_lib[3]["m10"][1]
    vl = orc.eigenvector_for_state(a, "left", spec)
    vr = orc.eigenvector_for_state(b, "right", spec)
    assert abs(complex(vl @ vr)) < 1e-9


def test_invariant_ratio_trivial_and_diag(state_lib, rng):
    spec = state_lib[3]["spec"]
    a, b = state_lib[3]["m10"][0], state_lib[3]["m10"][1]
    z = 0.9 + 0.6j
    assert abs(orc.invariant_ratio((1, 1), z, z, a, b, spec, rng) - 1.0) < 1e-12
    # mixed diagonal kinds share the sector shift
    vl = orc.eigenvector_for_state(a, "left", spec)
    vr = orc.eigenvector_for_state(b, "right", spec)
    val = (complex(vl @ orc.apply_monodromy(z, spec, vr)[0, 0])
           / complex(vl @ orc.apply_monodromy(0.4 - 0.3j, spec, vr)[1, 1]))
    assert np.isfinite(val.real) and val != 0


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


def _chain(L):
    rng = np.random.default_rng(200 + L)
    xi = tuple(complex(*rng.uniform(-0.4, 0.4, 2)) for _ in range(L))
    return orc.SpinChainSpec(L=L, xi=xi, c=0.9 + 0.3j)


def _assert_principal_block(block, full, idx):
    # numpy runs the sweep's elementwise steps in other loops for other
    # column counts, which can move the last bit
    ref = full[np.ix_(idx, idx)]
    assert block.shape == ref.shape
    assert np.max(np.abs(block - ref), initial=0) <= 1e-14 * np.max(np.abs(full))


def test_sector_transfer_matrix_is_restricted_block():
    tw = Twist(0.8 + 0.2j, 1.0, 1.3 - 0.1j)
    kappas = tw.as_tuple()
    w = 0.57 + 0.38j
    for L in range(1, orc.MAX_SITES + 1):
        spec = _chain(L)
        full = orc.transfer_matrix(w, spec, tw)
        if L <= 4:
            # the kappa-weighted trace of the Kronecker-product reference
            ref = _kron_monodromy(w, spec)
            trace = sum(kappas[i] * ref[i, i] for i in range(3))
            assert np.max(np.abs(full - trace)) <= 1e-13 * np.max(np.abs(trace))
        for n1 in range(L + 1):
            for n2 in range(L + 1 - n1):
                idx = orc.weight_sector_indices(L, (n1, n2, L - n1 - n2))
                _assert_principal_block(
                    orc.transfer_matrix(w, spec, tw, idx), full, idx)
        # a subset of one sector, in any order, gives the restricted block
        sub = orc.weight_sector_indices(L, (L - 1, 1, 0))[::-1][:max(1, L - 1)]
        _assert_principal_block(orc.transfer_matrix(w, spec, tw, sub), full, sub)


def test_sector_transfer_matrix_guards_its_indices():
    spec = _chain(3)
    w = 0.57 + 0.38j
    # an index that is no 1-D list, or that a -1 would wrap around, raises
    for bad in (0, [[0, 1], [3, 9]], [-1], [0, -1], [spec.dim], [1, 40]):
        with pytest.raises(ValueError):
            orc.transfer_matrix(w, spec, Twist.identity(), bad)
    # indices of two weight sectors give the principal block all the same
    idx = np.concatenate([orc.weight_sector_indices(3, (2, 1, 0)),
                          orc.weight_sector_indices(3, (1, 1, 1))[:2]])
    full = orc.transfer_matrix(w, spec)
    _assert_principal_block(orc.transfer_matrix(w, spec, Twist.identity(), idx),
                            full, idx)
    with pytest.raises(ValueError):
        orc._occupations(3)[0] = 0


def test_apply_monodromy_matvec_matches_dense():
    spec = _chain4()
    rng = np.random.default_rng(11)
    vl = rng.normal(size=spec.dim) + 1j * rng.normal(size=spec.dim)
    vr = rng.normal(size=spec.dim) + 1j * rng.normal(size=spec.dim)
    z = -0.42 + 0.73j
    assert orc.apply_monodromy(z, spec, vr).shape == (3, 3, spec.dim)
    mono = orc.monodromy(z, spec)
    for i in range(1, 4):
        for j in range(1, 4):
            expect = complex(vl @ mono[i - 1, j - 1] @ vr)
            got = complex(vl @ orc.apply_monodromy(z, spec, vr)[i - 1, j - 1])
            assert abs(got - expect) <= 1e-12 * np.linalg.norm(vl) * np.linalg.norm(vr)
    with pytest.raises(ValueError):
        orc.apply_monodromy(z, spec, vr[:-1])


def test_pole_guard_on_every_entry_point(state_lib, rng):
    spec = state_lib[3]["spec"]
    a, b = state_lib[3]["m10"][0], state_lib[3]["m10"][1]
    vec = np.ones(spec.dim, dtype=complex)
    idx = orc.weight_sector_indices(spec.L, (spec.L - 1, 1, 0))
    for xi_k in spec.xi:
        calls = [
            lambda: orc.apply_monodromy(xi_k, spec, vec),
            lambda: orc.monodromy(xi_k, spec),
            lambda: orc.transfer_matrix(xi_k, spec),
            lambda: orc.transfer_matrix(xi_k, spec, Twist.identity(), idx),
            lambda: orc.invariant_ratio((1, 1), xi_k, 0.9 + 0.6j, a, b, spec, rng),
        ]
        for call in calls:
            with pytest.raises(PoleError):
                call()
