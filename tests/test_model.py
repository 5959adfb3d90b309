import dataclasses
import re
import warnings

import numpy as np
import pytest

import gl3ff.oracle as orc
from gl3ff.errors import PoleError, ZeroArgError
from gl3ff.kernel import f_prod, pole_tol, t
from gl3ff.model import (RootConfig, RootStack, Twist, bethe_defect,
                         dtau_dkappa, dtau_dkappa_onshell, dtau_droots,
                         gaudin_matrix, mirror_model, phi_log, tau,
                         tau_twisted, xxx_chain)

TWO_PI = 2 * np.pi


def test_xxx_chain_values():
    m = xxx_chain(1, (0.0,), 1.0)
    assert abs(m.r1(2.0) - 1.5) < 1e-15
    for w in (0.3 + 0.2j, -1.1j):
        assert m.r3(w) == 1.0


def test_xxx_chain_pole_guard():
    m = xxx_chain(2, (0.1, -0.2), 1.0)
    with pytest.raises(PoleError):
        m.r1(0.1)
    with pytest.raises(PoleError):
        m.dlog_r1(-0.2)


@pytest.mark.parametrize("c", [1.0, 0.7 + 0.2j])
@pytest.mark.parametrize("L", [2, 5, 6])
def test_xxx_chain_r1_is_the_kernel_product(L, c):
    # the chain's r1 is f_prod(w, xi, c) written out: the same bits at every
    # point, and the kernel's error within pole_tol of each inhomogeneity
    rng = np.random.default_rng([L, int(10 * c.real)])
    xi = tuple(complex(p) for p in rng.normal(size=L) + 1j * rng.normal(size=L))
    model = xxx_chain(L, xi, c)
    pts = 1.5 * (rng.normal(size=1000) + 1j * rng.normal(size=1000))
    for w in pts.tolist() + list(pts[:50]):
        got, expect = model.r1(w), f_prod(w, xi, c)
        assert got.real == expect.real and got.imag == expect.imag
    tol = pole_tol(c)
    for x in xi:
        w = x + 0.5 * tol * np.exp(2j * np.pi * rng.uniform())
        with pytest.raises(PoleError) as expect:
            f_prod(w, xi, c)
        with pytest.raises(PoleError) as got:
            model.r1(w)
        assert str(got.value) == str(expect.value)
        assert str(got.value).startswith("f(x, y) pole: x=")


def _seeded_chain(L, c, salt):
    rng = np.random.default_rng([L, int(10 * c.real), salt])
    xi = tuple(complex(p) for p in rng.normal(size=L) + 1j * rng.normal(size=L))
    return xxx_chain(L, xi, c), rng


@pytest.mark.parametrize("c", [1.0, 0.7 + 0.2j])
@pytest.mark.parametrize("L", [1, 2, 5, 6])
def test_chain_ratios_stacked_match_scalar(L, c):
    # numpy's complex arithmetic rounds differently from Python's, so the
    # stacked ratios may differ from the scalar calls in the last bits: by at
    # most 1e-14 of |r1|, and for dlog r1 of the sum of its terms' sizes
    # sum_k (|1/(w - xi_k + c)| + |1/(w - xi_k)|); r3 and dlog r3 stay 1, 0
    model, rng = _seeded_chain(L, c, 1)
    w = 1.5 * (rng.normal(size=(40, 5)) + 1j * rng.normal(size=(40, 5)))
    d = w[..., None] - np.array(model.inhomogeneities)
    sizes = (np.abs(1 / (d + c)) + np.abs(1 / d)).sum(-1)
    for ratio, size in ((model.r1, None), (model.dlog_r1, sizes)):
        values, poles = ratio.stacked(w)
        expect = np.array([[ratio(p) for p in row] for row in w.tolist()])
        size = np.abs(expect) if size is None else size
        assert poles is None
        assert np.all(np.abs(values - expect) <= 1e-14 * size)
    for ratio, const in ((model.r3, 1), (model.dlog_r3, 0)):
        values, poles = ratio.stacked(w)
        assert np.all(values == const) and poles is None
        assert ratio(w[0, 0]) == const


@pytest.mark.parametrize("c", [1.0, 0.7 + 0.2j])
@pytest.mark.parametrize("L", [1, 2, 5, 6])
def test_chain_ratio_poles_raise_the_scalar_error(L, c):
    # a root within pole_tol of xi_k (a pole of r1 and dlog r1) or of
    # xi_k - c (a pole of dlog r1) is flagged in the stacked pass, and its row
    # fails with the exact error of the scalar call, stacked or alone
    model, rng = _seeded_chain(L, c, 2)
    tol = pole_tol(c)
    base = np.array([2.1 + 0.3j, -1.7 - 0.2j, 0.4 + 2.2j])
    for k, x in enumerate(model.inhomogeneities):
        for fn, ratio, at in ((phi_log, model.r1, x),
                              (gaudin_matrix, model.dlog_r1, x),
                              (gaudin_matrix, model.dlog_r1, x - c)):
            w = at + 0.5 * tol * np.exp(2j * np.pi * rng.uniform())
            with pytest.raises(PoleError) as expect:
                ratio(w)
            bad = base.copy()
            bad[1] = w
            stack = np.array([base, bad, base + 0.1])
            assert np.array_equal(ratio.stacked(stack[:, :2])[1],
                                  [[False, False], [False, True],
                                   [False, False]])
            _, errors = fn(RootStack(stack, 2), model)
            assert errors[0] is None and errors[2] is None
            assert type(errors[1]) is PoleError
            assert str(errors[1]) == str(expect.value)
            with pytest.raises(PoleError) as got:
                fn(RootConfig(tuple(bad[:2]), tuple(bad[2:])), model)
            assert str(got.value) == str(expect.value)


def test_chain_ratios_are_stacked_by_type():
    # a hand-built r1 goes through the per-root loop, one call per u-root,
    # and moves phi_log's u entries by log 2; a chain without its site
    # count keeps the stacked ratios, bit for bit
    chain, rng = _seeded_chain(5, 0.7 + 0.2j, 3)
    x = 1.5 * (rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3)))
    stack = RootStack(x, 2)
    calls = []

    def doubled(w):
        calls.append(w)
        return 2 * chain.r1(w)

    got, errors = phi_log(stack, dataclasses.replace(chain, r1=doubled))
    ref, ref_errors = phi_log(stack, chain)
    assert errors == ref_errors == [None] * 4
    assert len(calls) == 4 * 2
    assert np.max(np.abs(got[:, :2] - ref[:, :2] - np.log(2))) < 1e-14
    assert np.array_equal(got[:, 2:], ref[:, 2:])
    # the loop rounds r1 otherwise than the stacked pass ...
    looped, _ = phi_log(stack, dataclasses.replace(chain,
                                                   r1=lambda w: chain.r1(w)))
    assert not np.array_equal(looped, ref)
    # ... which a chain keeps without its site count
    unsized = dataclasses.replace(chain, sites=None)
    for fn in (phi_log, gaudin_matrix):
        assert np.array_equal(fn(stack, unsized)[0], fn(stack, chain)[0])


def test_xxx_chain_rejects_zero_coupling():
    # every rational kernel term divides by c or vanishes with it
    with pytest.raises(ValueError, match="nonzero"):
        xxx_chain(2, (0.1, -0.2), 0.0)


def test_r1_matches_oracle_vacuum(chain2):
    spec, model = chain2
    w = 0.7 - 0.45j
    vac = np.zeros(spec.dim, dtype=complex)
    vac[0] = 1.0
    col = orc.monodromy(w, spec)[0, 0] @ vac
    assert abs(col[0] - model.r1(w)) <= 1e-12 * abs(model.r1(w))


def test_tau_empty_sector():
    m = xxx_chain(2, (0.0, 0.0), 1.0)
    w = 0.4 + 0.9j
    roots = RootConfig((), ())
    assert abs(tau(w, roots, m) - (m.r1(w) + 2.0)) < 1e-14 * abs(m.r1(w) + 2)


def test_tau_is_oracle_eigenvalue_homogeneous():
    # L=2 homogeneous chain, single root u = -1/2 solves (u+1)^2 = u^2
    spec = orc.SpinChainSpec(L=2, xi=(0.0, 0.0), c=1.0)
    model = spec.model()
    roots = RootConfig((-0.5,), ())
    w = 1.0j
    eigs = np.linalg.eigvals(orc.transfer_matrix(w, spec))
    tv = tau(w, roots, model)
    assert np.min(np.abs(eigs - tv)) <= 1e-10 * abs(tv)


def test_tau_pole_and_limit(state_lib):
    st = state_lib[3]["m10"][0]
    model = state_lib[3]["model"]
    u = st.u[0]
    with pytest.raises(PoleError, match=re.escape("f(x, y) pole")):
        tau(u, st.roots, model)
    # on shell the pole cancels: symmetric differences shrink linearly
    for direction in (1.0, 1.0j):
        d_big = abs(tau(u + 1e-3 * direction, st.roots, model)
                    - tau(u - 1e-3 * direction, st.roots, model))
        d_small = abs(tau(u + 1e-5 * direction, st.roots, model)
                      - tau(u - 1e-5 * direction, st.roots, model))
        assert d_small < 0.02 * d_big
    # the symmetric two-point limit at the root
    limit = 0.5 * (tau(u + 1e-5, st.roots, model)
                   + tau(u - 1e-5, st.roots, model))
    nearby = tau(u + 1e-5, st.roots, model)
    assert abs(limit - nearby) < 1e-3 * max(1.0, abs(limit))


def test_tau_twisted_raises_the_f_pole_at_every_root(state_lib):
    # the f-product of the first term that takes the root raises
    st = state_lib[3]["m21"][0]
    tw = Twist(0.9 + 0.1j, 1.0, 1.2 - 0.2j)
    for w in st.u + st.v:
        with pytest.raises(PoleError, match=re.escape("f(x, y) pole")):
            tau_twisted(w, st.roots, tw, state_lib[3]["model"])


def test_tau_twisted_reductions(state_lib):
    st = state_lib[3]["m21"][0]
    model = state_lib[3]["model"]
    w = 0.9 - 0.6j
    assert tau_twisted(w, st.roots, Twist.identity(), model) == tau(w, st.roots, model)
    kappa = Twist(0.7 + 0.1j, 0.7 + 0.1j, 0.7 + 0.1j)
    lhs = tau_twisted(w, st.roots, kappa, model)
    assert abs(lhs - kappa.k1 * tau(w, st.roots, model)) < 1e-12 * abs(lhs)


def test_tau_twisted_empty_sector():
    m = xxx_chain(2, (0.0, 0.0), 1.0)
    tw = Twist(2.0, 3.0, 4.0)
    w = 0.4 + 0.9j
    expect = 2.0 * m.r1(w) + 3.0 + 4.0
    assert abs(tau_twisted(w, RootConfig((), ()), tw, m) - expect) < 1e-13 * abs(expect)


def test_dtau_dkappa_summands(state_lib):
    st = state_lib[3]["m21"][0]
    model = state_lib[3]["model"]
    w = 1.1 + 0.3j
    total = sum(dtau_dkappa(s, w, st.roots, model) for s in (1, 2, 3))
    ref = tau(w, st.roots, model)
    assert abs(total - ref) <= 1e-13 * abs(ref)
    m0 = xxx_chain(2, (0.0, 0.0), 1.0)
    assert dtau_dkappa(2, w, RootConfig((), ()), m0) == 1.0


def test_dtau_dkappa_finite_difference(state_lib):
    st = state_lib[3]["m21"][0]
    model = state_lib[3]["model"]
    w = 1.1 + 0.3j
    eps = 1e-6
    for s in (1, 2, 3):
        up = [1.0, 1.0, 1.0]
        dn = [1.0, 1.0, 1.0]
        up[s - 1] += eps
        dn[s - 1] -= eps
        fd = (tau_twisted(w, st.roots, Twist(*up), model)
              - tau_twisted(w, st.roots, Twist(*dn), model)) / (2 * eps)
        exact = dtau_dkappa(s, w, st.roots, model)
        assert abs(fd - exact) <= 1e-8 * abs(exact)


def test_dtau_root_derivatives_finite_difference(state_lib):
    st = state_lib[3]["m21"][0]
    model = state_lib[3]["model"]
    w = 1.1 + 0.3j
    eps = 1e-6
    du, dv = dtau_droots(w, st.roots, model)
    assert (len(du), len(dv)) == (st.a, st.b)
    for j in range(st.a):
        u = list(st.u)
        u[j] += eps
        up = tau(w, RootConfig(tuple(u), st.v), model)
        u[j] -= 2 * eps
        dn = tau(w, RootConfig(tuple(u), st.v), model)
        fd = (up - dn) / (2 * eps)
        assert abs(fd - du[j]) < 1e-7 * abs(fd)
    v = list(st.v)
    v[0] += eps
    up = tau(w, RootConfig(st.u, tuple(v)), model)
    v[0] -= 2 * eps
    dn = tau(w, RootConfig(st.u, tuple(v)), model)
    fd = (up - dn) / (2 * eps)
    assert abs(fd - dv[0]) < 1e-7 * abs(fd)


def _dtau_du_per_root(w, roots, model, j):
    """d tau / d u_j on its own, each set product taken for this root."""
    u, v, c = roots.u, roots.v, model.c
    return (-model.r1(w) * f_prod(u, w, c) * t(u[j], w, c)
            + f_prod(w, u, c) * f_prod(v, w, c) * t(w, u[j], c)) / c


def _dtau_dv_per_root(w, roots, model, j):
    """d tau / d v_j on its own, each set product taken for this root."""
    u, v, c = roots.u, roots.v, model.c
    return (-f_prod(w, u, c) * f_prod(v, w, c) * t(v[j], w, c)
            + model.r3(w) * f_prod(w, v, c) * t(w, v[j], c)) / c


def _bits(values):
    return np.array(values, dtype=complex).tobytes()


def _assert_per_root_bits(w, roots, model):
    du, dv = dtau_droots(w, roots, model)
    assert _bits(du) == _bits([_dtau_du_per_root(w, roots, model, j)
                               for j in range(roots.a)])
    assert _bits(dv) == _bits([_dtau_dv_per_root(w, roots, model, j)
                               for j in range(roots.b)])


def test_dtau_droots_equals_the_per_root_formulas_bit_for_bit(state_lib):
    # the set products shared by all roots change no bit of any derivative:
    # library states, and random sets at couplings with signed zeros
    for L in (2, 3, 4, 5):
        model = state_lib[L]["model"]
        for key in ("m10", "m21", "m20", "m31"):
            for st in state_lib[L].get(key, ()):
                for w in (1.1 + 0.3j, -0.7 - 0.45j):
                    _assert_per_root_bits(w, st.roots, model)
    rng = np.random.default_rng(17)
    for c in (1.0 + 0j, 1j, -1j, complex(-0.0, -1.0), 0.5 - 0.3j):
        chain = xxx_chain(3, (0.1, -0.25 + 0.1j, 0.4j), c)
        for model in (chain, mirror_model(chain)):
            for a, b in ((0, 0), (1, 0), (0, 2), (2, 1), (3, 3)):
                for _ in range(4):
                    pts = rng.normal(size=(a + b + 1, 2)) @ (1, 1j)
                    # real and imaginary points: exact zero parts
                    for p in (pts, pts.real + 0j, 1j * pts.imag):
                        roots = RootConfig(tuple(p[:a].tolist()),
                                           tuple(p[a:-1].tolist()))
                        _assert_per_root_bits(complex(p[-1]), roots, model)


def test_bethe_defect_closed_form_root():
    model = xxx_chain(2, (0.0, 0.0), 1.0)
    d = bethe_defect(RootConfig((-0.5,), ()), Twist.identity(), model)
    assert abs(d[0]) < 1e-14


def test_bethe_defect_empty_and_offshell():
    model = xxx_chain(2, (0.0, 0.0), 1.0)
    assert bethe_defect(RootConfig((), ()), Twist.identity(), model).size == 0
    d = bethe_defect(RootConfig((0.3 + 0.2j,), ()), Twist.identity(), model)
    assert abs(d[0]) > 1e-3


@pytest.mark.parametrize("u, v, pair", [
    ((0.0, 1.0), (), r"f\(u_0, u_1\)"),
    ((0.3 + 0.2j,), (-0.7 + 0.2j,), r"f\(v_0, u_0\)"),
    ((0.3, 0.9), (0.5j, 1.0 + 0.5j), r"f\(v_0, v_1\)"),
    ((0.2 + 0.1j, 0.2 + 0.1j), (), r"f\(x, y\) pole"),
    ((0.2 + 0.1j,), (0.2 + 0.1j,), r"f\(x, y\) pole"),
    ((0.4,), (-0.3j, -0.3j + 1e-12), r"f\(x, y\) pole"),
], ids=["u_u", "v_u", "v_v", "u_is_u", "v_is_u", "v_is_v"])
def test_bethe_defect_zero_denominator_is_a_pole_error(u, v, pair):
    # two roots -c apart put f(x, y) = 0 into a denominator: a typed error
    # that names the pair, not a ZeroDivisionError; two coinciding roots
    # raise the pole of the f-product that takes them; just off that point
    # the defect is finite
    model = xxx_chain(2, (0.05, -0.03), 1.0)
    with pytest.raises(PoleError, match=pair):
        bethe_defect(RootConfig(u, v), Twist.identity(), model)
    off = RootConfig(u[:-1] + (u[-1] + 1e-6,), v) if not v else \
        RootConfig(u, v[:-1] + (v[-1] + 1e-6,))
    assert np.isfinite(bethe_defect(off, Twist.identity(), model)).all()


@pytest.mark.parametrize("fn", [phi_log, gaudin_matrix])
def test_guards_take_overflowing_differences_silently(fn):
    # roots 2e308 apart overflow their difference to inf, which is no
    # collision: no PoleError and no numpy warning; a collision next to
    # such a pair is still found and named
    model = xxx_chain(2, (0.0, 0.3), 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fn(RootConfig((1e308, -1e308), ()), model)
        fn(RootConfig((1e308,), (-1e308 + 1e308j,)), model)
        with pytest.raises(PoleError, match="entries 0 and 2 collide"):
            fn(RootConfig((1e308, -1e308, 1e308), ()), model)


@pytest.mark.parametrize("k", [
    (np.nan, 1, 1), (1, np.inf, 1), (1, 1, complex(0, -np.inf)),
    (1, complex(np.nan, 0), 1), (0, 1, 1), (1, 1, 0j)])
def test_twist_components_are_finite_and_nonzero(k):
    # a nan or inf twist would make tau_twisted nan and leave every sector
    # of distinct_states empty
    with pytest.raises(ValueError, match="finite and nonzero"):
        Twist(*k)


def test_phi_log_on_shell_and_exp_consistency(state_lib):
    st = state_lib[3]["m21"][0]
    model = state_lib[3]["model"]
    phi = phi_log(st.roots, model)
    assert np.max(np.abs(np.exp(phi) - 1
                         - bethe_defect(st.roots, Twist.identity(), model))) < 1e-12
    # on shell untwisted: every component sits on the 2 pi i lattice
    lattice = phi / (2j * np.pi)
    assert np.max(np.abs(lattice - np.round(lattice.real))) < 1e-12


def test_phi_log_twisted_lattice(state_lib):
    model = state_lib[2]["model"]
    tw = Twist(0.9 + 0.1j, 1.0, 1.2 - 0.2j)
    from gl3ff.solver import distinct_states
    st = distinct_states(model, 1, 1, twist=tw, n_seeds=32, rng_seed=7)[0]
    phi = phi_log(st.roots, model)
    offsets = np.array([np.log(tw.k2) - np.log(tw.k1),
                        np.log(tw.k2) - np.log(tw.k3)])
    lattice = (phi - offsets) / (2j * np.pi)
    assert np.max(np.abs(lattice - np.round(lattice.real))) < 1e-12


def test_phi_log_zero_arg():
    model = xxx_chain(2, (0.0, 0.0), 1.0)
    # u = -c makes r1(u) = 0 exactly
    with pytest.raises(ZeroArgError):
        phi_log(RootConfig((-1.0,), ()), model)


@pytest.mark.parametrize("fn, u, v, error, match", [
    # phi_log: a collision, a log f of ~0, r1(u) = 0, an r1 that raises
    (phi_log, (0.2 + 0.1j, 0.2 + 0.1j), (), PoleError, "entries 0 and 1"),
    (phi_log, (0.2 + 0.1j, 1.2 + 0.1j), (), ZeroArgError, r"f\(u_0, u_1\)"),
    (phi_log, (-1.0,), (), ZeroArgError, r"r1\(u_0\)"),
    (phi_log, (0.3,), (), PoleError, "pole"),
    # gaudin_matrix: a collision, a +-c separation in one set, v = u - c
    (gaudin_matrix, (0.2,), (0.2,), PoleError, "entries 0 and 1"),
    (gaudin_matrix, (), (0.2 + 0.1j, 1.2 + 0.1j), PoleError, "separation"),
    (gaudin_matrix, (0.2 + 0.1j,), (-0.8 + 0.1j,), PoleError, r"t\(x, y\)"),
    # two faults: a flagged pair before a failing root call (r1 and
    # dlog_r1 have a pole at u_0 = 0), a collision before a log of ~0
    (phi_log, (0.0, 1.0), (), ZeroArgError, r"f\(u_0, u_1\)"),
    (gaudin_matrix, (0.0, 1.0), (), PoleError, "separation"),
    (phi_log, (0.2, 0.2, 1.2), (), PoleError, "entries 0 and 1"),
])
def test_guard_error_of_a_row(fn, u, v, error, match):
    # a RootConfig raises the error its docstring orders first; in a stack
    # the failing row returns that same error between clean rows
    model = xxx_chain(2, (0.0, 0.3), 1.0)
    roots = RootConfig(u, v)
    with pytest.raises(error, match=match) as raised:
        fn(roots, model)
    assert type(raised.value) is error
    clean = 0.5 + 0.7j + (2.0 + 3.0j) * np.arange(roots.a + roots.b)
    _, errors = fn(RootStack(np.array([clean, roots.as_array(), clean]),
                             roots.a), model)
    assert errors[0] is None and errors[2] is None
    assert type(errors[1]) is error and str(errors[1]) == str(raised.value)


def test_gaudin_single_root_block():
    model = xxx_chain(2, (0.0, 0.0), 1.0)
    m = gaudin_matrix(RootConfig((-0.5,), ()), model)
    expect = -1.0 * model.dlog_r1(-0.5)
    assert abs(m[0, 0] - expect) < 1e-14 * abs(expect)
    assert abs(expect - (-8.0)) < 1e-12


def test_gaudin_symmetry_and_jacobian(state_lib):
    st = state_lib[5]["m31"][0]
    model = state_lib[5]["model"]
    m = gaudin_matrix(st.roots, model)
    assert np.max(np.abs(m - m.T)) <= 1e-14 * np.max(np.abs(m))
    a, b = st.a, st.b
    eps = 1e-7
    x0 = st.roots.as_array()
    fd = np.zeros_like(m)
    for k in range(a + b):
        xp, xm = x0.copy(), x0.copy()
        xp[k] += eps
        xm[k] -= eps
        fp = phi_log(RootConfig(tuple(xp[:a]), tuple(xp[a:])), model)
        fm = phi_log(RootConfig(tuple(xm[:a]), tuple(xm[a:])), model)
        fd[:, k] = (fp - fm) / (2 * eps)
    scaled = np.hstack([-model.c * fd[:, :a], model.c * fd[:, a:]])
    assert np.max(np.abs(scaled - m)) <= 1e-6 * np.max(np.abs(m))


def test_gaudin_pole_guard():
    model = xxx_chain(2, (0.0, 0.0), 1.0)
    with pytest.raises(PoleError):
        gaudin_matrix(RootConfig((0.5j, 0.5j + 1.0), ()), model)


def test_dtau_dkappa_onshell_vacuum_matches_partial():
    model = xxx_chain(2, (0.0, 0.0), 1.0)
    roots = RootConfig((), ())
    w = 0.5 + 0.2j
    for s in (1, 2, 3):
        assert dtau_dkappa_onshell(s, w, roots, model) == dtau_dkappa(s, w, roots, model)


def test_dtau_dkappa_onshell_vs_twist_continuation(state_lib):
    # the full derivative agrees with a finite twist step of the solved state
    from gl3ff.solver import continue_in_twist
    st = state_lib[3]["m10"][0]
    model = state_lib[3]["model"]
    w = 1.3 - 0.8j
    eps = 1e-6
    for s in (1, 2, 3):
        up = [1.0, 1.0, 1.0]
        dn = [1.0, 1.0, 1.0]
        up[s - 1] += eps
        dn[s - 1] -= eps
        st_up = continue_in_twist(st, Twist(*up), steps=1)
        st_dn = continue_in_twist(st, Twist(*dn), steps=1)
        fd = (tau_twisted(w, st_up.roots, st_up.twist, model)
              - tau_twisted(w, st_dn.roots, st_dn.twist, model)) / (2 * eps)
        exact = dtau_dkappa_onshell(s, w, st.roots, model)
        assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact))


def test_mirror_model_round_trip(chain3):
    _, model = chain3
    mm = mirror_model(model)
    w = 0.37 + 0.21j
    assert mm.r1(w) == model.r3(-w)
    assert mm.r3(w) == model.r1(-w)
    eps = 1e-6
    fd = (np.log(mm.r3(w + eps)) - np.log(mm.r3(w - eps))) / (2 * eps)
    assert abs(fd - mm.dlog_r3(w)) < 1e-6 * abs(fd)
