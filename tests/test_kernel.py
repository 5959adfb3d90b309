import numpy as np
import pytest

from gl3ff.errors import PoleError
from gl3ff import kernel as K


def test_g_direct_values():
    assert K.g(2.0, 1.0, 1.0) == 1.0
    assert K.g(0.0, -2.0, 2.0) == 1.0


def test_g_pole():
    with pytest.raises(PoleError):
        K.g(1.0, 1.0, 1.0)


def test_f_h_t_direct_values():
    assert K.f(1.0, 0.0, 1.0) == 2.0
    assert K.h(0.5, 0.5 + 1.0, 1.0) == 0.0  # x - y = -c
    assert K.t(2.0, 1.0, 1.0) == 0.5


def test_t_pole_at_shifted_coincidence():
    with pytest.raises(PoleError):
        K.t(0.0, 1.0, 1.0)


def test_reflection_properties():
    rng = np.random.default_rng(0)
    for _ in range(200):
        x, y = (complex(*rng.uniform(-2, 2, 2)) for _ in range(2))
        c = complex(*rng.uniform(-2, 2, 2))
        if abs(x - y) < 1e-3 or abs(x - y + c) < 1e-3 or abs(c) < 1e-3:
            continue
        for fn in (K.g, K.f, K.h, K.t):
            lhs = fn(-x, -y, c)
            rhs = fn(y, x, c)
            assert abs(lhs - rhs) <= 1e-14 * abs(rhs)


def test_algebraic_identities():
    rng = np.random.default_rng(1)
    for _ in range(200):
        x, y = (complex(*rng.uniform(-2, 2, 2)) for _ in range(2))
        c = complex(*rng.uniform(-2, 2, 2))
        if abs(x - y) < 1e-3 or abs(x - y + c) < 1e-3 or abs(c) < 1e-3:
            continue
        f, g, h, t = (fn(x, y, c) for fn in (K.f, K.g, K.h, K.t))
        assert abs(f - (1 + g)) <= 1e-14 * abs(f)
        assert abs(t * h - g) <= 1e-14 * abs(g)
        assert abs(f - g * h) <= 1e-14 * abs(f)


def test_empty_products_are_one():
    assert K.f_prod(0.5j, (), 1.0) == 1.0


def test_pair_product_value():
    val = K.f_prod((1.0, 3.0), (0.0,), 1.0)
    assert abs(val - 8.0 / 3.0) < 1e-15


def test_prod_fn_reports_offending_pair():
    with pytest.raises(PoleError):
        K.f_prod((1.0, 2.0), (2.0,), 1.0)


def test_delta_values():
    assert K.delta_prime((0.5,), 1.0) == 1.0
    assert K.delta((), 1.0) == 1.0
    assert K.delta_prime((2.0, 1.0), 1.0) == 1.0   # g(2,1)
    assert K.delta((2.0, 1.0), 1.0) == -1.0        # g(1,2)


def test_delta_product_permutation_symmetric():
    rng = np.random.default_rng(2)
    xs = tuple(complex(*rng.uniform(-2, 2, 2)) for _ in range(4))
    ref = K.delta_prime(xs, 1.0) * K.delta(xs, 1.0)
    for perm in ((1, 0, 2, 3), (3, 2, 1, 0), (2, 3, 0, 1)):
        ys = tuple(xs[i] for i in perm)
        val = K.delta_prime(ys, 1.0) * K.delta(ys, 1.0)
        assert abs(val - ref) <= 1e-12 * abs(ref)


def test_inverse_products_match_reciprocals():
    rng = np.random.default_rng(3)
    xs = tuple(complex(*rng.uniform(-2, 2, 2)) for _ in range(3))
    ys = tuple(complex(*rng.uniform(-2, 2, 2)) for _ in range(2))
    c = 1.0
    assert abs(K.inv_f_prod(xs, ys, c) * K.f_prod(xs, ys, c) - 1) < 1e-12
    assert abs(K.inv_h_prod(xs, ys, c) * K.h_prod(xs, ys, c) - 1) < 1e-12
    assert abs(K.inv_g_prod(xs, ys, c) * K.g_prod(xs, ys, c) - 1) < 1e-12


def test_inverse_products_raise_at_minus_c():
    for c in (1.0, 0.8 + 0.6j):
        x = 0.3 - 0.2j
        for prod in (K.inv_f_prod, K.inv_h_prod):
            with pytest.raises(PoleError):
                prod((0.9, x), (x + c,), c)  # x - y = -c


def test_delta_matches_scalar_double_loops():
    rng = np.random.default_rng(4)
    xs = tuple(complex(*rng.uniform(-2, 2, 2)) for _ in range(4))
    c = 0.7 - 0.4j
    later = earlier = 1.0 + 0.0j
    for j in range(4):
        for k in range(4):
            if j < k:
                later *= K.g(xs[j], xs[k], c)
            if j > k:
                earlier *= K.g(xs[j], xs[k], c)
    assert K.delta_prime(xs, c) == later
    assert K.delta(xs, c) == earlier


def test_collision_first_pair():
    c = 0.5 + 0.5j
    xs = (0.1, 0.2 + 1e-12, 0.3)
    assert K.collision(xs, (0.3, 0.2), c, 0.0) == (1, 1)
    # pairs in the order of _prod: i outer, j inner
    assert K.collision(xs, xs[::-1], c, 0.0) == (0, 2)
    assert K.collision(xs, (0.3 + c,), c, -c) == (2, 0)
    assert K.collision(0.4, xs, c, 0.0) is None


def test_inv_f_prod_finite_at_coincidence():
    # the safe reciprocal is zero (not a pole) where f itself diverges
    assert K.inv_f_prod((0.5,), (0.5,), 1.0) == 0.0


def test_numpy_arrays_are_rapidity_sets():
    # a 1-D array is the set of its elements, as the list of them is
    u, w = [0.2 + 0.1j, -0.3 + 0.4j], [0.7 - 0.2j, 0.1j, -0.5]
    z, c = 0.4 + 0.2j, 1.0
    for prod in (K.h_prod, K.inv_g_prod, K.f_prod, K.inv_f_prod, K.g_prod,
                 K.t_prod, K.inv_h_prod):
        for lhs, rhs in ((u, z), (z, u), (u, w)):
            ref = prod(lhs, rhs, c)
            got = prod(*(np.array(s) if isinstance(s, list) else s
                         for s in (lhs, rhs)), c)
            assert type(got) is complex and got == ref
    assert K.delta_prime(np.array(u), c) == K.delta_prime(u, c)
    assert K.collision(np.array(u), np.array(u), c, 0.0) == (0, 0)
    assert K.exclude(np.array(u), 0) == (u[1],)
    # a guarded product finds the pole of an array entry
    with pytest.raises(PoleError):
        K.f_prod(np.array(u), u[1], c)
    # a 0-d array is one point; an array of more dimensions is refused
    assert K.h_prod(np.array(z), u, c) == K.h_prod(z, u, c)
    with pytest.raises(TypeError, match="one-dimensional"):
        K.h_prod(np.array([u, u]), z, c)
    with pytest.raises(TypeError, match="one-dimensional"):
        K.collision(u, np.array([u]), c, 0.0)
