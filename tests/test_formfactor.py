import numpy as np
import pytest

import gl3ff.formfactor as ff
from gl3ff.errors import (DegeneracyWarning, NonFiniteResult, PoleError,
                          SectorMismatch)
from gl3ff.kernel import delta, delta_prime, h_prod, inv_f_prod, t
from gl3ff.model import (Twist, dtau_dkappa, dtau_dkappa_onshell,
                         mirror_model, tau, xxx_chain)
from conftest import make_state, vacuum_state


# ---------------------------------------------------------------------------
# determinant plumbing

def test_det_lu_basics():
    assert ff.det_lu(np.eye(3)) == 1.0
    assert abs(ff.det_lu(np.diag([2.0, 3.0j])) - 6.0j) < 1e-14
    assert ff.det_lu(np.zeros((0, 0))) == 1.0
    rng = np.random.default_rng(0)
    m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    inv = np.linalg.solve(m, np.eye(5))
    assert abs(ff.det_lu(m) * ff.det_lu(inv) - 1.0) < 1e-10


def test_det_lu_rejects_bad_input():
    with pytest.raises(ValueError):
        ff.det_lu(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        ff.det_lu(np.array([[np.inf, 0], [0, 1]], dtype=complex))


def test_overflow_raises_nonfinite_result():
    # a + b = 32 generic roots on a long chain: the raw products overflow
    # and every element used to come back as nan + nanj
    rng = np.random.default_rng(48)

    def pts(n):
        return tuple(complex(p) for p in 3 * np.sqrt(rng.uniform(0, 1, n))
                     * np.exp(2j * np.pi * rng.uniform(0, 1, n)))

    model = xxx_chain(80, pts(80), 1.0)
    right = make_state(model, pts(16), pts(16))
    z = 0.4 + 0.3j
    # one kind per determinant route: ff_offdiag, ff_diag, ff_13, ff_31
    for kind in ((1, 2), (2, 2), (1, 3), (3, 1)):
        a, b = ff.sector_shift(kind, right.a, right.b)
        left = make_state(model, pts(a), pts(b))
        with pytest.raises(NonFiniteResult):
            ff.form_factor(kind, left, right, z)
    with pytest.raises(NonFiniteResult):
        ff.ff_diag(2, right, right, z)  # same-state branch
    with pytest.raises(NonFiniteResult):
        ff.norm_squared(right)
    # an overflowing matrix entry is typed too, not det_lu's ValueError
    chain = xxx_chain(80, (0.0,) * 80, 1.0)
    vac = vacuum_state(chain)
    with pytest.raises(NonFiniteResult):
        ff.form_factor((1, 1), vac, vac, 1e-4)
    assert ff.form_factor((2, 2), vac, vac, 1e-4) == 1.0


def test_sector_shift_table():
    assert ff.sector_shift((1, 2), 2, 1) == (3, 1)
    assert ff.sector_shift((2, 1), 2, 1) == (1, 1)
    assert ff.sector_shift((2, 3), 2, 1) == (2, 2)
    assert ff.sector_shift((3, 2), 2, 1) == (2, 0)
    assert ff.sector_shift((1, 3), 2, 1) == (3, 2)
    assert ff.sector_shift((3, 1), 2, 1) == (1, 0)
    assert ff.sector_shift((2, 2), 2, 1) == (2, 1)


# ---------------------------------------------------------------------------
# prefactor and matrix entries

def test_prefactor_vacuum_case():
    model = xxx_chain(2, (0.0, 0.0), 1.0)
    assert ff.prefactor_H((), (), (), (), (0.7 + 0.2j,), model.c) == 1.0


def test_prefactor_b0_reduction(state_lib):
    model = state_lib[4]["model"]
    left = state_lib[4]["m20"][0]
    right = [s for s in state_lib[4]["m10"]][0]
    z = 0.9 + 0.8j
    cols = right.u + (z,)
    full = ff.prefactor_H(left.u, (), right.u, (), cols, model.c)
    reduced = (h_prod(cols, right.u, model.c) * delta_prime(left.u, model.c)
               * delta(cols, model.c))
    assert abs(full - reduced) <= 1e-13 * abs(full)


def test_n_entry_term_structure(state_lib):
    # at a column equal to a right u-root the r3 part of a v-row is killed
    model = state_lib[5]["model"]
    left, right = state_lib[5]["m31"][0], state_lib[5]["m31"][1]
    asm = ff.assemble(left, right, 0.9 + 0.8j)
    c = model.c
    x = right.u[0]
    row = len(left.u)  # first v-row
    vj = right.v[0]
    term2 = (t(vj, x, c) * h_prod(right.v, x, c)
             / h_prod(left.v, x, c))
    assert abs(ff.n_entry(asm, row, x) - term2) <= 1e-12 * abs(term2)
    # at a column equal to a left v-root the r1 part of a u-row is killed
    x = left.v[0]
    uj = left.u[0]
    term2 = (t(x, uj, c) * h_prod(x, left.u, c) / h_prod(x, right.u, c))
    assert abs(ff.n_entry(asm, 0, x) - term2) <= 1e-12 * abs(term2)


def test_n_entry_matches_tau_form(state_lib):
    model = state_lib[5]["model"]
    left, right = state_lib[5]["m31"][0], state_lib[5]["m31"][1]
    z = 0.9 + 0.8j
    asm = ff.assemble(left, right, z)
    probes = list(right.u) + [z, 1.3 - 0.4j, -1.2 + 0.9j]
    for r in range(asm.n_rows):
        for x in probes:
            if r >= len(asm.u_left) and any(abs(x - ub) < 1e-9 for ub in right.u):
                continue  # derivative form is 0 * inf at those points
            e1 = ff.n_entry(asm, r, x)
            e2 = ff.n_entry_tau_form(asm, r, x)
            assert abs(e1 - e2) <= 1e-10 * max(abs(e1), 1e-30)


# ---------------------------------------------------------------------------
# closing rows

def test_y_row_diag_values(state_lib):
    left, right = state_lib[5]["m31"][0], state_lib[5]["m31"][1]
    z = 1.1 + 0.7j
    asm = ff.assemble(left, right, z)
    rows = {s: ff.y_row_diag(asm, s, same_state=False) for s in (1, 2, 3)}
    a, b = right.a, left.b
    total = rows[1] + rows[2] + rows[3]
    assert np.max(np.abs(total[:a + b])) < 1e-12
    model = left.model
    expect = tau(z, left.roots, model) * inv_f_prod(z, left.u, model.c) \
        * inv_f_prod(left.v, z, model.c)
    assert abs(total[a + b] - expect) <= 1e-12 * abs(expect)
    asm_same = ff.assemble(left, left, z, same_state=True)
    same = {s: ff.y_row_diag(asm_same, s, same_state=True) for s in (1, 2, 3)}
    assert np.all(same[2][:a + b] == 1.0)
    assert same[2][a + b] == 1.0
    assert np.all(same[1][:a] == -1.0)
    assert np.all(same[1][a:a + b] == 0.0)
    assert np.all(same[3][:a] == 0.0)
    assert np.all(same[3][a:a + b] == -1.0)


# ---------------------------------------------------------------------------
# diagonal entries

def test_vacuum_diagonal_values():
    model = xxx_chain(2, (0.05, -0.03), 1.0)
    vac = vacuum_state(model)
    z = 0.6 + 0.4j
    assert abs(ff.ff_diag(1, vac, vac, z) - model.r1(z)) < 1e-13 * abs(model.r1(z))
    assert abs(ff.ff_diag(2, vac, vac, z) - 1.0) < 1e-14
    assert abs(ff.ff_diag(3, vac, vac, z) - 1.0) < 1e-14


def test_diag_sum_rules(state_lib):
    left, right = state_lib[5]["m31"][0], state_lib[5]["m31"][1]
    z = 1.1 + 0.7j
    vals = [ff.ff_diag(s, left, right, z) for s in (1, 2, 3)]
    assert abs(sum(vals)) <= 1e-10 * max(abs(v) for v in vals)
    same = [ff.ff_diag(s, left, left, z) for s in (1, 2, 3)]
    model = left.model
    expect = tau(z, left.roots, model) * ff.norm_squared(left)
    assert abs(sum(same) - expect) <= 1e-10 * abs(expect)


def test_diag_same_state_is_twist_derivative(state_lib):
    st = state_lib[3]["m21"][0]
    model = state_lib[3]["model"]
    z = 1.4 - 0.9j
    ns = ff.norm_squared(st)
    for s in (1, 2, 3):
        lhs = ff.ff_diag(s, st, st, z) / ns
        rhs = dtau_dkappa_onshell(s, z, st.roots, model)
        assert abs(lhs - rhs) <= 1e-10 * abs(rhs)
        # the explicit summand alone differs once roots can move
        if s == 1:
            partial = dtau_dkappa(s, z, st.roots, model)
            assert abs(lhs - partial) > 1e-6 * abs(lhs)


def test_diag_sector_mismatch(state_lib):
    left = state_lib[3]["m21"][0]
    right = state_lib[3]["m10"][0]
    with pytest.raises(SectorMismatch):
        ff.ff_diag(2, left, right, 0.5)


def test_diag_near_degenerate_warning(state_lib):
    st = state_lib[3]["m10"][0]
    model = state_lib[3]["model"]
    shifted = make_state(model, (st.u[0] + 1e-7,), ())
    with pytest.warns(DegeneracyWarning):
        ff.ff_diag(2, shifted, st, 0.9 + 0.4j)


# ---------------------------------------------------------------------------
# off-diagonal entries

def test_offdiag_against_rank1_reference(state_lib):
    model = state_lib[4]["model"]
    c20 = state_lib[4]["m20"][0]
    b10 = max(state_lib[4]["m10"],
              key=lambda s: min(abs(s.u[0] - r) for r in c20.u))
    z = 0.8 - 0.7j
    v12 = ff.ff_offdiag((1, 2), c20, b10, z)
    assert abs(ff.gl2_ff_12(c20.u, b10.u, z, model) - v12) <= 1e-12 * abs(v12)
    v21 = ff.ff_offdiag((2, 1), b10, c20, z)
    assert abs(ff.gl2_ff_21(b10.u, c20.u, z, model) - v21) <= 1e-12 * abs(v21)


def test_gl2_diag_reduction(state_lib):
    model = state_lib[3]["model"]
    s_a, s_b = state_lib[3]["m10"][0], state_lib[3]["m10"][1]
    z = 0.8 - 0.7j
    for s in (1, 2):
        v = ff.ff_diag(s, s_a, s_b, z)
        ref = ff.gl2_ff_diag(s, s_a.u, s_b.u, z, model)
        assert abs(ref - v) <= 1e-12 * abs(v)


def test_transposition_pairs(state_lib):
    model = state_lib[4]["model"]
    c21 = state_lib[4]["m21"][0]
    b20 = state_lib[4]["m20"][0]
    z = 0.66 + 0.59j
    v1 = ff.ff_offdiag((2, 3), c21, b20, z)
    v2 = ff.ff_offdiag((3, 2), b20, c21, z)
    assert abs(v1 - v2) <= 1e-12 * abs(v1)
    vac = vacuum_state(model)
    b10 = state_lib[4]["m10"][0]
    v1 = ff.ff_offdiag((1, 2), b10, vac, z)
    v2 = ff.ff_offdiag((2, 1), vac, b10, z)
    assert abs(v1 - v2) <= 1e-12 * abs(v1)


def test_reflection_map(state_lib):
    model = state_lib[4]["model"]
    mm = mirror_model(model)
    c21 = state_lib[4]["m21"][0]
    b20 = state_lib[4]["m20"][0]

    def mirrored(st):
        return make_state(mm, tuple(-x for x in st.v), tuple(-x for x in st.u))

    z = 0.66 + 0.59j
    lhs = ff.ff_offdiag((2, 3), c21, b20, z)
    rhs = ff.ff_offdiag((1, 2), mirrored(c21), mirrored(b20), -z)
    assert abs(lhs - rhs) <= 1e-10 * abs(lhs)


def test_offdiag_sector_checks(state_lib):
    b10 = state_lib[3]["m10"][0]
    vac = vacuum_state(state_lib[3]["model"])
    with pytest.raises(SectorMismatch):
        ff.ff_offdiag((1, 2), vac, b10, 0.5)  # wrong direction
    with pytest.raises(ValueError):
        ff.ff_offdiag((1, 3), b10, vac, 0.5)  # not first-off-diagonal
    twisted = make_state(state_lib[3]["model"], b10.u, (),
                         twist=Twist(1.1, 1.0, 1.0))
    with pytest.raises(ValueError):
        ff.ff_offdiag((2, 1), vac, twisted, 0.5)


def test_ff13_shape_and_sector(state_lib):
    model = state_lib[5]["model"]
    c31, b20 = state_lib[5]["m31"][0], state_lib[5]["m20"][0]
    z = 0.77 - 0.66j
    asm = ff.assemble(c31, b20, z)
    mat = np.vstack([ff.n_matrix(asm), ff.y_row_13(asm)])
    assert mat.shape == (4, 4)  # a + b + 2 with right sector (2, 0)
    val = ff.ff_13(c31, b20, z)
    assert np.isfinite(val.real) and np.isfinite(val.imag) and val != 0
    # transposition identity is exact by construction
    assert ff.ff_31(b20, c31, z) == ff.ff_13(c31, b20, z)
    vac = vacuum_state(model)
    with pytest.raises(SectorMismatch):
        ff.ff_31(vac, vac, z)  # a' = -1 is not a sector


def test_ff13_vacuum_right_shape():
    # synthetic (1,1)-type left sets: the matrix closes to 2 x 2 and the
    # evaluation stays finite (no finite on-shell pair exists here, so this
    # checks dimension bookkeeping only)
    model = xxx_chain(2, (0.05, -0.03), 1.0)
    left = make_state(model, (0.4 + 0.3j,), (-0.8 + 0.1j,))
    right = vacuum_state(model)
    z = 0.9 - 0.5j
    asm = ff.assemble(left, right, z)
    mat = np.vstack([ff.n_matrix(asm), ff.y_row_13(asm)])
    assert mat.shape == (2, 2)
    assert np.all(np.isfinite(mat))


def test_permutation_invariance(state_lib):
    left, right = state_lib[5]["m31"][0], state_lib[5]["m31"][1]
    z = 1.2 + 0.5j
    ref = {k: ff.form_factor(k, left, right, z) for k in ((1, 1), (2, 2))}
    perm_left = make_state(left.model, (left.u[2], left.u[0], left.u[1]), left.v)
    perm_right = make_state(right.model, (right.u[1], right.u[0], right.u[2]),
                            right.v)
    for kind, val in ref.items():
        got = ff.form_factor(kind, perm_left, perm_right, z)
        assert abs(got - val) <= 1e-10 * abs(val)


def test_assemble_validation(state_lib):
    model = state_lib[3]["model"]
    a = make_state(model, (0.5,), ())
    b = make_state(model, (0.5 + 1e-13,), ())
    with pytest.raises(PoleError):
        ff.assemble(a, b, 0.9)  # column collision between u-right and z? no: u vs u
    c_ = make_state(model, (0.4,), ())
    with pytest.raises(PoleError):
        ff.assemble(c_, a, 0.5)  # z collides with right root


# ---------------------------------------------------------------------------
# norms, omega, appendix identities

def test_norm_squared_values(state_lib):
    model = xxx_chain(2, (0.0, 0.0), 1.0)
    assert ff.norm_squared(vacuum_state(model)) == 1.0
    st = make_state(model, (-0.5,), ())
    assert abs(ff.norm_squared(st) - (-8.0)) < 1e-12


def test_norm_squared_oracle_ratio(state_lib, rng):
    import gl3ff.oracle as orc
    spec, model = state_lib[3]["spec"], state_lib[3]["model"]
    st = state_lib[3]["m21"][0]
    z = 1.2 - 0.7j
    vl = orc.eigenvector_for_state(st, "left", spec, rng)
    vr = orc.eigenvector_for_state(st, "right", spec, rng)
    for s in (1, 2, 3):
        oracle = complex(vl @ orc.monodromy_entry(s, s, z, spec) @ vr)
        oracle /= complex(vl @ vr)
        det_side = ff.ff_diag(s, st, st, z) / ff.norm_squared(st)
        assert abs(det_side - oracle) <= 1e-8 * abs(oracle)


def test_norm_requires_identity_twist(state_lib):
    model = state_lib[3]["model"]
    st = make_state(model, (0.3,), (), twist=Twist(1.1, 1.0, 1.0))
    with pytest.raises(ValueError):
        ff.norm_squared(st)


def test_omega_and_s_function(state_lib):
    left, right = state_lib[5]["m31"][0], state_lib[5]["m31"][1]
    model = left.model
    z = 1.15 + 0.35j
    asm = ff.assemble(left, right, z)
    omega = ff.omega_vector(left.u, left.v, right.u, right.v, model.c)
    for pt in right.u + left.v:
        assert abs(ff.s_function(pt, omega, asm)) < 1e-10
    rng = np.random.default_rng(9)
    for _ in range(20):
        x = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        lhs = ff.s_function(x, omega, asm)
        rhs = ff.s_function_reference(x, left, right)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs))


def test_cofactor_reduction(state_lib):
    left, right = state_lib[5]["m31"][0], state_lib[5]["m31"][1]
    model = left.model
    z = 1.15 + 0.35j
    asm = ff.assemble(left, right, z)
    nrows = asm.n_rows
    omega = ff.omega_vector(left.u, left.v, right.u, right.v, model.c)
    s_z = ff.s_function(z, omega, asm)
    for s in (1, 2, 3):
        mat = np.vstack([ff.n_matrix(asm), ff.y_row_diag(asm, s, False)])
        full = ff.det_lu(mat)
        minor = np.delete(np.delete(mat, nrows - 1, axis=0), nrows, axis=1)
        rhs = s_z / omega[nrows - 1] * (-ff.det_lu(minor))
        assert abs(full - rhs) <= 1e-10 * abs(full)


def test_appendix_identities_random_draws():
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(50):
        a = int(rng.integers(1, 4))
        b = int(rng.integers(1, 4))
        draw = lambda n: tuple(complex(*rng.uniform(-1.8, 1.8, 2)) for _ in range(n))
        z = complex(*rng.uniform(-1.8, 1.8, 2))
        try:
            res = ff.appendix_identities(draw(a), draw(a), draw(b), draw(b), z, 1.0)
        except PoleError:
            continue
        worst = max(worst, max(v[2] for v in res.values()))
    assert worst < 1e-12


def test_appendix_single_term_case():
    # one left root: the first sum collapses to one explicit term
    u_left, u_right = (0.7 + 0.2j,), (-0.4 + 0.5j,)
    z = 0.1 - 0.9j
    c = 1.0
    res = ff.appendix_identities(u_left, u_right, (1.2j,), (0.3,), z, c)
    omega = ff.omega_vector(u_left, (0.3,), u_right, (1.2j,), c)
    direct = t(u_left[0], z, c) * omega[0]
    lhs, rhs, rel = res["u_row_from_left"]
    assert abs(lhs - direct) < 1e-14 * abs(direct)
    assert rel < 1e-13


def test_appendix_identical_sets_vanish():
    u = (0.7 + 0.2j, -0.5 - 0.4j)
    v = (1.2j, 0.3)
    res = ff.appendix_identities(u, u, v, v, 0.1 - 0.9j, 1.0)
    for lhs, rhs, _ in res.values():
        assert abs(lhs) < 1e-14 and abs(rhs) < 1e-14
