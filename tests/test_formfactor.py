import dataclasses
import gc
import hashlib
import re
import warnings
import weakref

import numpy as np
import pytest

import gl3ff.formfactor as ff
import gl3ff.oracle as orc
import gl3ff.solver as solver
from gl3ff.errors import (DegeneracyWarning, Gl3Error, NonFiniteResult,
                          PoleError, SectorMismatch)
from gl3ff.kernel import delta, delta_prime, h_prod, inv_f_prod, t
from gl3ff.model import (ModelFunctions, Twist, dtau_dkappa,
                         dtau_dkappa_onshell, mirror_model, tau, xxx_chain)
from conftest import make_state, require_pinned_build, vacuum_state


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
    # a typed error, so that a check calling det_lu records it
    with pytest.raises(NonFiniteResult, match="non-finite entries"):
        ff.det_lu(np.array([[np.inf, 0], [0, 1]], dtype=complex))


def test_overflow_raises_nonfinite_result():
    # a + b = 32 generic roots on a long chain: the raw products overflow
    # and every element used to come back as nan + nanj; these sizes take
    # the grid builder, whose overflow must not leak a numpy warning either
    warnings.simplefilter("error", RuntimeWarning)
    assert 32 >= ff.GRID_MIN_COLS
    rng = np.random.default_rng(48)

    def pts(n):
        return tuple(complex(p) for p in 3 * np.sqrt(rng.uniform(0, 1, n))
                     * np.exp(2j * np.pi * rng.uniform(0, 1, n)))

    model = xxx_chain(80, pts(80), 1.0)
    right = make_state(model, pts(16), pts(16))
    z = 0.4 + 0.3j
    # one kind per determinant route: first off-diagonal, diagonal, (1,3)
    # and (3,1)
    for kind in ((1, 2), (2, 2), (1, 3), (3, 1)):
        a, b = ff.sector_shift(kind, right.a, right.b)
        left = make_state(model, pts(a), pts(b))
        with pytest.raises(NonFiniteResult):
            ff.form_factor(kind, left, right, z)
    with pytest.raises(NonFiniteResult):
        ff.ff_diag(2, right, right, z)  # same-state branch
    with pytest.raises(NonFiniteResult):
        ff.norm_squared(right)
    # at a + b = 48 the grid builder's partial products overflow inside
    # numpy's own products
    right = make_state(model, pts(24), pts(24))
    with pytest.raises(NonFiniteResult):
        ff.form_factor((1, 2), make_state(model, pts(25), pts(24)), right, z)
    with pytest.raises(NonFiniteResult):
        ff.norm_squared(right)
    # a real overflow: on the homogeneous L=80 chain the vacuum's closing
    # entry r1(z) = f(z, 0)^80 is about 1e320 at z = +-1e-4, beyond the
    # double range, and the element keeps its own message; the second z
    # goes through the part kept from the first
    chain = xxx_chain(80, (0.0,) * 80, 1.0)
    vac = vacuum_state(chain)
    parts = []
    for z in (1e-4, -1e-4):
        with pytest.raises(NonFiniteResult, match=r"T\(1, 1\): "
                           "determinant matrix has non-finite"):
            ff.form_factor((1, 1), vac, vac, z)
        assert ff.form_factor((2, 2), vac, vac, z) == 1.0
        parts.append(ff._last)
    assert parts[0] is parts[1] and parts[0].z0 == 1e-4


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
    assert abs(ff.n_column(asm, x)[row] - term2) <= 1e-12 * abs(term2)
    # at a column equal to a left v-root the r1 part of a u-row is killed
    x = left.v[0]
    uj = left.u[0]
    term2 = (t(x, uj, c) * h_prod(x, left.u, c) / h_prod(x, right.u, c))
    assert abs(ff.n_column(asm, x)[0] - term2) <= 1e-12 * abs(term2)


def test_killed_terms_at_grid_size(monkeypatch):
    # the same term structure on an assembly of GRID_MIN_COLS columns and
    # more, in both builders, and the ratio of a killed term is not called
    rng = np.random.default_rng(4)
    calls = {"r1": [], "r3": []}

    def counted(name, ratio):
        def call(w):
            calls[name].append(w)
            return ratio(w)
        return call

    model = _polynomial_model(rng)
    model = dataclasses.replace(model, r1=counted("r1", model.r1),
                                r3=counted("r3", model.r3))
    left, right, z = _pair(rng, model, (1, 3), 3, 3)
    c = model.c
    ncols = len(right.u) + len(left.v) + 1
    assert ncols >= ff.GRID_MIN_COLS

    def build():
        for seen in calls.values():
            seen.clear()
        asm = ff.assemble(left, right, z)
        out = ff.n_matrix(asm), ff.y_row_13(asm)
        return out, {name: list(seen) for name, seen in calls.items()}

    # the per-column y_row_13 takes r3 again; the grid's n_matrix and
    # y_row_13 share one v_factors
    for ((mat, row13), seen), r3_passes in zip(
            _both_builders(monkeypatch, build), (2, 1)):
        assert mat.shape[1] == ncols
        for k, x in enumerate(right.u):  # r3 terms of the v-rows killed
            for j, vj in enumerate(right.v):
                term = (t(vj, x, c) * h_prod(right.v, x, c)
                        / h_prod(left.v, x, c))
                entry = mat[len(left.u) + j, k]
                assert abs(entry - term) <= 1e-12 * abs(term)
            term = h_prod(right.v, x, c) / h_prod(left.v, x, c)
            assert abs(row13[k] - term) <= 1e-12 * abs(term)
        for k, x in enumerate(left.v, len(right.u)):  # r1 terms killed
            for j, uj in enumerate(left.u):
                term = (t(x, uj, c) * h_prod(x, left.u, c)
                        / h_prod(x, right.u, c))
                assert abs(mat[j, k] - term) <= 1e-12 * abs(term)
        # r1 at the right u-roots and z, r3 at the left v-roots and z, in
        # column order
        assert seen["r1"] == [*right.u, z]
        assert seen["r3"] == r3_passes * [*left.v, z]


def test_n_matrix_builds_column_products_once(monkeypatch, state_lib):
    # the h-products of a column depend on the column point alone: two for
    # the u-rows and two for the v-rows, whatever the number of rows
    left, right = state_lib[5]["m31"][0], state_lib[5]["m31"][1]
    asm = ff.assemble(left, right, 0.9 + 0.8j)
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return h_prod(*args)

    monkeypatch.setattr(ff, "h_prod", counted)
    ff.n_matrix(asm)
    assert asm.n_rows == 4
    assert calls[0] == 4 * len(asm.cols)


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
            e1 = ff.n_column(asm, x)[r]
            e2 = ff.n_entry_tau_form(asm, r, x)
            assert abs(e1 - e2) <= 1e-10 * max(abs(e1), 1e-30)


# ---------------------------------------------------------------------------
# the grid builder against the per-column builder

# GRID_MIN_COLS values that force each builder
PER_COLUMN, GRID = 10 ** 9, 0


def _clear_points(rng, n, c=1.0, gap=0.05):
    """n points in the disk of radius 2, pairwise clear of coincidence and
    of +-c shifts."""
    pts = []
    while len(pts) < n:
        w = complex(*rng.uniform(-2.0, 2.0, 2))
        if abs(w) < 2.0 and all(min(abs(w - p), abs(w - p + c),
                                    abs(w - p - c)) > gap for p in pts):
            pts.append(w)
    return pts


def _polynomial_model(rng):
    """Generalized model whose vacuum ratios are random cubic polynomials."""
    p1, p3 = (np.poly1d(rng.normal(size=4) + 1j * rng.normal(size=4))
              for _ in range(2))
    d1, d3 = p1.deriv(), p3.deriv()
    return ModelFunctions(c=1.0 + 0.0j, r1=lambda w: complex(p1(w)),
                          r3=lambda w: complex(p3(w)),
                          dlog_r1=lambda w: complex(d1(w) / p1(w)),
                          dlog_r3=lambda w: complex(d3(w) / p3(w)),
                          description="polynomial test model")


def _pair(rng, model, kind, a, b):
    """Generic left and right states for ``kind`` with the right state in
    sector (a, b), and a probe point."""
    la, lb = ff.sector_shift(kind, a, b)
    pts = iter(_clear_points(rng, a + b + la + lb + 1))
    take = lambda n: tuple(next(pts) for _ in range(n))
    right = make_state(model, take(a), take(b))
    left = make_state(model, take(la), take(lb))
    return left, right, next(pts)


def _both_builders(monkeypatch, build):
    out = []
    for threshold in (PER_COLUMN, GRID):
        monkeypatch.setattr(ff, "GRID_MIN_COLS", threshold)
        # an element kept from the other builder would serve the same call
        monkeypatch.setattr(ff, "_last", None)
        out.append(build())
    return out


def test_grid_builder_matches_per_column(monkeypatch):
    rng = np.random.default_rng(13)
    models = (xxx_chain(6, tuple(_clear_points(rng, 6)), 1.0),
              _polynomial_model(rng))
    seen, kinds = set(), set()
    for model in models:
        for n in range(2, ff.GRID_MIN_COLS + 6):
            a, b = n - n // 2, n // 2
            for kind in ff.KINDS:
                la, lb = ff.sector_shift(kind, a, b)
                if lb > la:
                    continue  # no chain state there: the element vanishes
                left, right, z = _pair(rng, model, kind, a, b)
                ff_col, ff_grid = _both_builders(
                    monkeypatch, lambda: ff.form_factor(kind, left, right, z))
                assert abs(ff_grid - ff_col) <= 1e-10 * abs(ff_col)
                kinds.add(kind)
                if kind in ((2, 3), (2, 1), (3, 1)):
                    left, right = right, left
                asm = ff.assemble(left, right, z)
                seen.add(len(asm.cols))
                pref_col = ff.prefactor_H(asm.u_left, asm.v_left, asm.u_right,
                                          asm.v_right, asm.cols, model.c)
                pref_grid = asm._grid.prefactor()
                assert abs(pref_grid - pref_col) <= 1e-13 * abs(pref_col)
                rows_col, rows_grid = _both_builders(monkeypatch, lambda: [
                    *ff.n_matrix(ff.assemble(left, right, z)),
                    *(ff.y_row_diag(asm, s, False) for s in (1, 2, 3)),
                    ff.y_row_13(ff.assemble(left, right, z))])
                for r_col, r_grid in zip(rows_col, rows_grid):
                    scale = np.max(np.abs(r_col))
                    assert np.max(np.abs(r_grid - r_col)) <= 1e-13 * scale
    assert min(seen) <= 3 and max(seen) >= ff.GRID_MIN_COLS + 6
    assert kinds == set(ff.KINDS)


def test_grid_prefactor_hands_poles_to_the_per_column_builder():
    # a pole in a Delta' pair, a column label clash or a zero of
    # h(v_left, u_right) sends the grid's prefactor back, and the per-column
    # builder raises its error
    rng = np.random.default_rng(17)
    model = _polynomial_model(rng)
    p = tuple(_clear_points(rng, 9))
    c = model.c
    for roots, what in (((p[:2] + p[:1], p[3:5], p[5:8], p[8:]), "g(x, y)"),
                        ((p[:3], p[3:5], p[5:8], p[8:] + p[8:]), "g(x, y)"),
                        ((p[:3], p[3:4] + p[5:6], p[5:8], p[8:]), "g(x, y)"),
                        ((p[:3], (p[5] - c,), p[5:8], p[8:]), "1/h")):
        asm = ff.FFAssembly(*roots, z=p[2] + 0.5, model=model)
        assert asm._grid.prefactor() is None
        with pytest.raises(PoleError, match=re.escape(what)):
            ff.prefactor_H(*roots, asm.cols, c)
    asm = ff.FFAssembly(p[:3], p[3:5], p[5:8], p[8:], z=0.1j, model=model)
    assert asm._grid.prefactor() is not None


# sha256 of the values and matrices of test_grid_elements_are_pinned's
# table.  It pins the Python and numpy of conftest.PINNED_BUILD, and may
# change only in a change whose CHANGES.md entry says why the element bytes
# moved.
GRID_SHA256 = \
    "3be41b737b9972fc9c8f42e15db7e045d8774d36216c6c915ba9f3afe9c033d6"


def test_grid_elements_are_pinned(monkeypatch):
    # the reports and the `gl3ff ff` table reach only the per-column sizes;
    # this pins the grid builder's elements, bit for bit, for every kind on
    # generalized pairs of 7-24 columns
    monkeypatch.setattr(ff, "_last", None)
    rng = np.random.default_rng(30)
    model = _polynomial_model(rng)
    digest, cols = hashlib.sha256(), set()
    for n in range(7, 23):
        a, b = n - n // 2, n // 2
        for kind in ff.KINDS:
            left, right, z = _pair(rng, model, kind, a, b)
            try:
                value, mat, _ = ff.determinant_element(kind, left, right, z)
            except Gl3Error as exc:
                digest.update(f"{kind}: {type(exc).__name__}: {exc}".encode())
                continue
            digest.update(np.complex128(value).tobytes() + mat.tobytes())
            cols.add(mat.shape[1])
    assert min(cols) == ff.GRID_MIN_COLS and max(cols) == 24
    require_pinned_build()
    assert digest.hexdigest() == GRID_SHA256


# ---------------------------------------------------------------------------
# closing rows

def test_y_row_diag_values(monkeypatch, state_lib):
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
    # the same-state row is the Kronecker pattern, and the same-state matrix
    # closes with it, also at grid size: built whole, and on the element
    # kept from the colour before
    rng = np.random.default_rng(5)
    _, big, big_z = _pair(rng, _polynomial_model(rng), (1, 1), 3, 3)
    for st, w in ((left, z), (big, big_z)):
        asm_same = ff.assemble(st, st, w, same_state=True)
        a, b = st.a, st.b
        same = {s: ff.y_row_diag(asm_same, s, same_state=True)
                for s in (1, 2, 3)}
        assert np.all(same[2][:a + b] == 1.0)
        assert same[2][a + b] == 1.0
        assert np.all(same[1][:a] == -1.0)
        assert np.all(same[1][a:a + b] == 0.0)
        assert np.all(same[3][:a] == 0.0)
        assert np.all(same[3][a:a + b] == -1.0)
        for whole in (True, False):
            for s in (1, 2, 3):
                if whole:
                    monkeypatch.setattr(ff, "_last", None)
                _, mat, is_same = ff.determinant_element((s, s), st, st, w)
                assert is_same
                assert mat[-1].tobytes() == same[s].tobytes()
    assert len(asm_same.cols) >= ff.GRID_MIN_COLS


def test_diag_closing_rows_are_pattern_plus_minus_one_bracket(monkeypatch,
                                                              state_lib):
    # the closing rows of colours 1, 2, 3 are their Kronecker patterns plus,
    # nothing and minus one bracket row, in both builders: they sum to zero
    # on the z-free columns up to the rounding of the two additions, and
    # their last entries sum to tau_left(z) / (f(v_left, z) f(z, u_left))
    rng = np.random.default_rng(9)
    # the library's (2,1) states at L=5 share u-roots but for a few pairs
    pairs = [(state_lib[L][key][i], state_lib[L][key][j], 1.1 + 0.7j)
             for L, key, i, j in ((3, "m10", 0, 1), (5, "m20", 0, 1),
                                  (5, "m21", 0, 5), (5, "m31", 0, 1))]
    pairs.append(_pair(rng, _polynomial_model(rng), (1, 1), 4, 3))
    eps, largest = np.finfo(float).eps, {}
    for left, right, z in pairs:
        asm = ff.assemble(left, right, z)
        model = left.model
        expect = (tau(z, left.roots, model) * inv_f_prod(left.v, z, model.c)
                  * inv_f_prod(z, left.u, model.c))
        bracket = np.abs(ff._column_diag_bracket(asm))
        largest[left.b] = max(largest.get(left.b, 0.0), np.max(bracket))
        for threshold in (PER_COLUMN, GRID):
            monkeypatch.setattr(ff, "GRID_MIN_COLS", threshold)
            total = sum(ff.y_row_diag(asm, s, False) for s in (1, 2, 3))
            assert np.all(np.abs(total[:-1])
                          <= 4 * eps * np.maximum(1.0, bracket))
            assert abs(total[-1] - expect) <= 1e-12 * abs(expect)
        assert asm._grid.diag_bracket() is not None  # no mask sent it back
    assert len(asm.cols) >= ff.GRID_MIN_COLS
    # between b=0 states both v-sets are empty and the bracket is 0 (the
    # third colour decouples); from b=1 on the rows carry one
    assert largest[0] == 0.0 and largest[1] > 1e-2 and largest[3] > 1e-2


def _count_grids(monkeypatch) -> list:
    """The assemblies that form a :class:`ff._Grid` from now on, in order."""
    built = []

    class Counted(ff._Grid):
        def __init__(self, asm):
            built.append(asm)
            super().__init__(asm)

    monkeypatch.setattr(ff, "_Grid", Counted)
    return built


def test_pattern_rows_build_no_grid(monkeypatch):
    # colour 2 and the same-state rows are the Kronecker pattern alone: at
    # grid size they form no difference array, on a fresh assembly or
    # through the part that colour 1 left
    built = _count_grids(monkeypatch)
    monkeypatch.setattr(ff, "_last", None)
    rng = np.random.default_rng(11)
    left, right, z = _pair(rng, _polynomial_model(rng), (1, 1), 4, 3)
    fresh = dataclasses.replace(ff.assemble(left, right, z))
    same = dataclasses.replace(ff.assemble(right, right, z, same_state=True))
    assert len(fresh.cols) >= ff.GRID_MIN_COLS
    assert len(same.cols) >= ff.GRID_MIN_COLS
    built.clear()
    ff.y_row_diag(fresh, 2, False)
    for s in (1, 2, 3):
        ff.y_row_diag(same, s, True)
    assert built == []
    ff.y_row_diag(fresh, 1, False)  # a bracket row forms one
    assert built == [fresh]
    ff.determinant_element((1, 1), left, right, z)
    built.clear()
    ff.determinant_element((2, 2), left, right, z)
    ff.determinant_element((3, 3), left, right, z)  # a bracket on its grid
    assert built == []


def test_grid_size_part_forms_one_grid(monkeypatch):
    # a part of GRID_MIN_COLS columns and more keeps the grid of its first
    # assembly: its prefactor and every row of each kind of its group, in
    # either order, come from that one grid
    built = _count_grids(monkeypatch)
    rng = np.random.default_rng(11)
    model = _polynomial_model(rng)
    for kind in ((1, 1), (1, 2), (1, 3)):
        left, right, z = _pair(rng, model, kind, 4, 3)
        for group in (_group(kind, left, right),
                      _group(kind, left, right)[::-1]):
            monkeypatch.setattr(ff, "_last", None)
            built.clear()
            for call in group:
                _, mat, _ = ff.determinant_element(*call, z)
                assert mat.shape[1] >= ff.GRID_MIN_COLS
            assert len(built) == 1, group
            grid = ff._last.grid
            assert built[0]._grid is grid
            assert ff._last.pref0 == grid.prefactor()


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
    for z in (0.9 + 0.4j, -0.6 + 0.8j, 1.1 - 0.3j):  # on every call
        with pytest.warns(DegeneracyWarning):
            ff.ff_diag(2, shifted, st, z)


def test_third_colour_decouples_between_distinct_b0_states(state_lib):
    # on a chain r3 = 1, and a b = 0 vector has no colour-3 site, so the
    # auxiliary colour 3 never returns: T33(z) B = B, and F33 = C'.B = 0
    # between distinct b = 0 states.  Measured on the scale of the ff-table
    # sum rule, unit(l, r) * max_s |dtau_dkappa(s)|, on which F11 between
    # the same states is not small
    z_points = Z_POINTS[:3]
    checked = set()
    for L in (4, 5):
        for sector in ("m10", "m20"):
            states = state_lib[L][sector]
            for left in states:
                for right in states:
                    if left is right:
                        continue
                    checked.add((L, sector))
                    unit = abs(ff.norm_squared(left)
                               * ff.norm_squared(right)) ** 0.5
                    for z in z_points:
                        scale = unit * max(
                            abs(dtau_dkappa(s, z, left.roots, left.model))
                            for s in (1, 2, 3))
                        f33 = ff.form_factor((3, 3), left, right, z)
                        assert abs(f33) <= 1e-10 * scale, (L, sector, z)
                        f11 = ff.form_factor((1, 1), left, right, z)
                        assert abs(f11) > 1e-3 * scale, (L, sector, z)
    # the library holds one L=4 (2,0) state at its seed
    assert checked >= {(4, "m10"), (5, "m10"), (5, "m20")}


# ---------------------------------------------------------------------------
# off-diagonal entries

def test_offdiag_against_rank1_reference(state_lib):
    model = state_lib[4]["model"]
    c20 = state_lib[4]["m20"][0]
    b10 = max(state_lib[4]["m10"],
              key=lambda s: min(abs(s.u[0] - r) for r in c20.u))
    z = 0.8 - 0.7j
    v12 = ff.form_factor((1, 2), c20, b10, z)
    assert abs(ff.gl2_ff((1, 2), c20.u, b10.u, z, model) - v12) <= 1e-12 * abs(v12)
    v21 = ff.form_factor((2, 1), b10, c20, z)
    assert abs(ff.gl2_ff((2, 1), b10.u, c20.u, z, model) - v21) <= 1e-12 * abs(v21)


def test_gl2_diag_reduction(state_lib):
    model = state_lib[3]["model"]
    s_a, s_b = state_lib[3]["m10"][0], state_lib[3]["m10"][1]
    z = 0.8 - 0.7j
    for s in (1, 2):
        v = ff.ff_diag(s, s_a, s_b, z)
        ref = ff.gl2_ff((s, s), s_a.u, s_b.u, z, model)
        assert abs(ref - v) <= 1e-12 * abs(v)


def test_transposition_pairs(state_lib):
    model = state_lib[4]["model"]
    c21 = state_lib[4]["m21"][0]
    b20 = state_lib[4]["m20"][0]
    z = 0.66 + 0.59j
    v1 = ff.form_factor((2, 3), c21, b20, z)
    v2 = ff.form_factor((3, 2), b20, c21, z)
    assert abs(v1 - v2) <= 1e-12 * abs(v1)
    vac = vacuum_state(model)
    b10 = state_lib[4]["m10"][0]
    v1 = ff.form_factor((1, 2), b10, vac, z)
    v2 = ff.form_factor((2, 1), vac, b10, z)
    assert abs(v1 - v2) <= 1e-12 * abs(v1)


def test_reflection_map(state_lib):
    model = state_lib[4]["model"]
    mm = mirror_model(model)
    c21 = state_lib[4]["m21"][0]
    b20 = state_lib[4]["m20"][0]

    def mirrored(st):
        return make_state(mm, tuple(-x for x in st.v), tuple(-x for x in st.u))

    z = 0.66 + 0.59j
    lhs = ff.form_factor((2, 3), c21, b20, z)
    rhs = ff.form_factor((1, 2), mirrored(c21), mirrored(b20), -z)
    assert abs(lhs - rhs) <= 1e-10 * abs(lhs)


def test_offdiag_sector_checks(state_lib):
    b10 = state_lib[3]["m10"][0]
    vac = vacuum_state(state_lib[3]["model"])
    with pytest.raises(SectorMismatch):
        ff.form_factor((1, 2), vac, b10, 0.5)  # wrong direction
    twisted = make_state(state_lib[3]["model"], b10.u, (),
                         twist=Twist(1.1, 1.0, 1.0))
    with pytest.raises(ValueError):
        ff.form_factor((2, 1), vac, twisted, 0.5)


def test_ff13_shape_and_sector(state_lib):
    model = state_lib[5]["model"]
    c31, b20 = state_lib[5]["m31"][0], state_lib[5]["m20"][0]
    z = 0.77 - 0.66j
    asm = ff.assemble(c31, b20, z)
    mat = np.vstack([ff.n_matrix(asm), ff.y_row_13(asm)])
    assert mat.shape == (4, 4)  # a + b + 2 with right sector (2, 0)
    val = ff.form_factor((1, 3), c31, b20, z)
    assert np.isfinite(val.real) and np.isfinite(val.imag) and val != 0
    # transposition identity is exact by construction
    assert ff.form_factor((3, 1), b20, c31, z) == val
    vac = vacuum_state(model)
    with pytest.raises(SectorMismatch):
        ff.form_factor((3, 1), vac, vac, z)  # a' = -1 is not a sector


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
        ff.assemble(a, b, 0.9)  # left u-root (a row) meets right u-root (a column)
    c_ = make_state(model, (0.4,), ())
    with pytest.raises(PoleError):
        ff.assemble(c_, a, 0.5)  # z collides with right root
    # h(v_left, u_right) = 0 in the prefactor's denominator: v_left = u_right - c
    chain = xxx_chain(2, (0.05, -0.03), 0.6 + 0.5j)
    right = make_state(chain, (0.7 + 0.1j,), ())
    left = make_state(chain, (0.2 - 0.3j, -0.5j), (0.7 + 0.1j - chain.c,))
    with pytest.raises(PoleError, match="prefactor denominator"):
        ff.assemble(left, right, 0.9)


def test_grid_guards_raise_the_per_column_error(monkeypatch):
    # above GRID_MIN_COLS each pole is found by a mask on the difference
    # array; the error, and the first pair it names, are the per-column ones.
    # A pole of r1 or r3 raises where its term survives and nowhere else.
    rng = np.random.default_rng(21)
    model = xxx_chain(4, tuple(_clear_points(rng, 4)), 1.0)
    c = model.c
    n = ff.GRID_MIN_COLS + 2
    a, b = n - n // 2, n // 2
    left, right, z = _pair(rng, model, (1, 2), a, b)
    ur = right.u

    def shifted(u=(), v=()):
        """The left state with some roots replaced: {index: new root}."""
        lu, lv = list(left.u), list(left.v)
        for k, w in dict(u).items():
            lu[k] = w
        for k, w in dict(v).items():
            lv[k] = w
        return make_state(model, lu, lv)

    site = model.inhomogeneities[0]
    cases = {
        "row on a column": (shifted(u={2: ur[3], 0: ur[1]}), z),
        "h(v_left, u_right) = 0": (shifted(v={1: ur[0] - c, 0: ur[2] - c}),
                                   z),
        "equal column labels": (shifted(v={1: ur[0], 0: ur[1]}), z),
        "t pole at u_j - x = -c": (shifted(u={1: ur[3] - c, 0: ur[1] - c}),
                                   z),
        # r1 has a pole at each site, and its term survives at z
        "r1 pole at the probe point": (left, site),
    }
    for what, (bad_left, w) in cases.items():
        assert len(ff.assemble(left, right, w).cols) >= ff.GRID_MIN_COLS

        def error():
            with pytest.raises(PoleError) as info:
                ff.form_factor((1, 2), bad_left, right, w)
            return str(info.value)

        per_column, grid = _both_builders(monkeypatch, error)
        assert grid == per_column, what
    assert grid == f"f(x, y) pole: x={site} collides with y={site}"

    # at a left v-root the r1 term of every u-row is killed, so a left
    # v-root on a site gives the continuous extension of the element
    def near_site(eps):
        on = shifted(v={0: site + eps})
        return _both_builders(
            monkeypatch, lambda: ff.form_factor((1, 2), on, right, z))

    for on, near in zip(near_site(0.0), near_site(1e-9)):
        assert np.isfinite(on) and abs(on - near) <= 1e-6 * abs(on)

    # a ratio that raises at every killed column, r1 at the left v-roots and
    # r3 at the right u-roots, gives every kind at 3-12 columns, in both
    # builders, bit for bit the element of the same ratios without a raise
    plain = _polynomial_model(rng)

    def raising(ratio, poles):
        def call(w):
            if w in poles:
                raise PoleError(f"ratio pole at {w}")
            return ratio(w)
        return call

    cols = set()
    for n in range(3, 11):
        a, b = n - n // 2, n // 2
        for kind in ff.KINDS:
            left, right, z = _pair(rng, plain, kind, a, b)
            poles = dataclasses.replace(
                plain, r1=raising(plain.r1, left.v + right.v),
                r3=raising(plain.r3, left.u + right.u))
            pairs = ((left, right), tuple(make_state(poles, st.u, st.v)
                                          for st in (left, right)))
            for (v0, m0), (v1, m1) in _both_builders(monkeypatch, lambda: [
                    ff.determinant_element(kind, *pair, z)[:2]
                    for pair in pairs]):
                assert v1 == v0 and m1.tobytes() == m0.tobytes(), kind
                cols.add(m0.shape[1])
    assert min(cols) == 3 and max(cols) == 12


# ---------------------------------------------------------------------------
# norms, omega, appendix identities

def test_norm_squared_values(state_lib):
    model = xxx_chain(2, (0.0, 0.0), 1.0)
    assert ff.norm_squared(vacuum_state(model)) == 1.0
    st = make_state(model, (-0.5,), ())
    assert abs(ff.norm_squared(st) - (-8.0)) < 1e-12


def test_norm_squared_oracle_ratio(state_lib):
    import gl3ff.oracle as orc
    spec, model = state_lib[3]["spec"], state_lib[3]["model"]
    st = state_lib[3]["m21"][0]
    z = 1.2 - 0.7j
    vl = orc.eigenvector_for_state(st, "left", spec)
    vr = orc.eigenvector_for_state(st, "right", spec)
    for s in (1, 2, 3):
        oracle = complex(vl @ orc.monodromy(z, spec)[s - 1, s - 1] @ vr)
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


# ---------------------------------------------------------------------------
# the z-free part of an element, kept for the next call on the same states

Z_POINTS = (0.9 + 0.8j, -0.7 + 1.1j, 1.3 - 0.4j, -1.2 - 0.9j)


def _forget():
    """Evaluate an element between other states, so that the next call
    builds its element whole."""
    vac = vacuum_state(xxx_chain(2, (0.05, -0.03), 1.0))
    ff.form_factor((2, 2), vac, vac, 0.5)


def _library_pairs(state_lib):
    """(kind, left, right): for every kind the largest pair of distinct L=5
    (else L=4) library states, then the same-state pair of each diagonal
    kind."""
    out = []
    for kind in ff.KINDS:
        for L in (5, 4):
            by_sector = {(0, 0): [state_lib[L]["vac"]]}
            by_sector.update({(int(k[1]), int(k[2])): v
                              for k, v in state_lib[L].items()
                              if k[0] == "m" and k[1:].isdigit()})
            pairs = [(left, right) for (a, b), rights in by_sector.items()
                     for right in rights
                     for left in by_sector.get(ff.sector_shift(kind, a, b), ())
                     if left is not right]
            if pairs:
                out.append((kind, *max(pairs, key=lambda p: len(p[0].u)
                                       + len(p[0].v) + len(p[1].u)
                                       + len(p[1].v))))
                break
    st = state_lib[5]["m21"][0]
    return out + [((s, s), st, st) for s in (1, 2, 3)]


def test_repeat_call_is_bit_identical_to_a_cold_call(monkeypatch, state_lib):
    z1, z2 = Z_POINTS[:2]
    built = []

    def counting(build):
        def counted(*args):
            built.append(build)
            return build(*args)
        return counted

    for name in ("n_matrix", "gaudin_matrix"):
        monkeypatch.setattr(ff, name, counting(getattr(ff, name)))
    cases = _library_pairs(state_lib)
    assert {kind for kind, _, _ in cases} == set(ff.KINDS)
    rng = np.random.default_rng(5)
    n = ff.GRID_MIN_COLS
    left, right, _ = _pair(rng, _polynomial_model(rng), (1, 1),
                           n - 1 - (n - 1) // 2, (n - 1) // 2)
    cases.append(((1, 1), left, right))
    for kind, left, right in cases:
        ff.determinant_element(kind, left, right, z1)
        built.clear()
        warm = ff.determinant_element(kind, left, right, z2)
        # the z-free columns are kept below GRID_MIN_COLS columns only
        assert bool(built) == (warm[1].shape[1] >= ff.GRID_MIN_COLS), kind
        _forget()
        cold = ff.determinant_element(kind, left, right, z2)
        assert warm[0] == cold[0] and warm[2] == cold[2], kind
        assert np.array_equal(warm[1], cold[1]), kind
    assert warm[1].shape[1] >= ff.GRID_MIN_COLS  # the generalized pair
    assert cases[-2][1] is cases[-2][2] and warm[2] is False


def test_repeat_call_raises_what_a_cold_call_raises(state_lib):
    left, right = state_lib[5]["m31"][0], state_lib[5]["m21"][0]
    st = state_lib[5]["m21"][0]
    c = st.model.c
    xi = state_lib[5]["spec"].xi[0]
    cases = [
        ((1, 2), left, right, right.u[1], "column labels 1 and 3 collide"),
        ((1, 2), left, right, left.u[2], f"row label {left.u[2]} collides"),
        ((1, 2), left, right, left.u[0] + c, "t(x, y) pole"),
        ((2, 2), st, st, st.v[0], "column labels 2 and 3 collide"),
        ((1, 1), st, st, xi, "f(x, y) pole"),
    ]
    for kind, left, right, z, what in cases:
        got = []
        for warm in (True, False):
            if warm:
                ff.form_factor(kind, left, right, Z_POINTS[0])
            else:
                _forget()
            with pytest.raises(PoleError) as info:
                ff.form_factor(kind, left, right, z)
            got.append(str(info.value))
        assert got[0] == got[1] and what in got[0], got


def test_overflow_raises_at_every_probe_point():
    # the a + b = 32 pairs of test_overflow_raises_nonfinite_result, each at
    # two probe points in a row; then every kind of a group after each
    # other kind at one probe point, with the message of a cold call
    warnings.simplefilter("error", RuntimeWarning)
    rng = np.random.default_rng(48)

    def pts(n):
        return tuple(complex(p) for p in 3 * np.sqrt(rng.uniform(0, 1, n))
                     * np.exp(2j * np.pi * rng.uniform(0, 1, n)))

    model = xxx_chain(80, pts(80), 1.0)
    right = make_state(model, pts(16), pts(16))
    groups = [_group((2, 2), right, right)]
    for kind in ((1, 2), (2, 2), (1, 3), (3, 1)):
        a, b = ff.sector_shift(kind, right.a, right.b)
        left = make_state(model, pts(a), pts(b))
        for z in (0.4 + 0.3j, -0.5 + 0.6j):
            with pytest.raises(NonFiniteResult):
                ff.form_factor(kind, left, right, z)
        groups.append(_group(kind, left, right))
    for z in (0.4 + 0.3j, -0.5 + 0.6j):
        with pytest.raises(NonFiniteResult):
            ff.ff_diag(2, right, right, z)
    z = 0.4 + 0.3j
    for group in groups:
        for first in group:
            with pytest.raises(NonFiniteResult):
                ff.form_factor(*first, z)
            warm = []
            for call in group:
                with pytest.raises(NonFiniteResult) as info:
                    ff.form_factor(*call, z)
                warm.append(str(info.value))
            for call, msg in zip(group, warm):
                _forget()
                with pytest.raises(NonFiniteResult) as info:
                    ff.form_factor(*call, z)
                assert msg == str(info.value), call[0]


def test_repeat_calls_build_only_the_z_column(monkeypatch, state_lib):
    # the parent built all n columns for each z: 16 here
    left, right = state_lib[5]["m31"][0], state_lib[5]["m21"][0]
    calls = [0]
    build = ff.n_column

    def counted(*args):
        calls[0] += 1
        return build(*args)

    monkeypatch.setattr(ff, "n_column", counted)
    _forget()
    for z in Z_POINTS:
        _, mat, _ = ff.determinant_element((1, 2), left, right, z)
    assert mat.shape == (4, 4)
    assert calls[0] == (4 - 1) + len(Z_POINTS)


def test_kept_part_is_read_only_and_keeps_no_model(state_lib):
    spec = state_lib[3]["spec"]
    model = spec.model()
    # a model that only the collector frees would otherwise be dropped
    # inside the test and take the counts below their start
    gc.collect()
    solved, extracted = len(solver._SOLVED), len(orc._EXTRACTED)
    states = solver.distinct_states(model, 1, 0, rng_seed=7)
    orc.eigenvector_for_state(states[0], "left", spec)
    assert len(solver._SOLVED) == solved + 1
    assert len(orc._EXTRACTED) == extracted + 1
    z1, z2 = Z_POINTS[:2]
    _, first, _ = ff.determinant_element((1, 1), states[0], states[1], z1)
    _, second, _ = ff.determinant_element((1, 1), states[0], states[1], z2)
    kept = [rows for rows, _ in ff._last.kept.values()]
    assert len(kept) == 2  # the N rows and the closing row of colour 1
    for rows in kept:
        with pytest.raises(ValueError):
            rows[0, 0] = 0.0
    _, third, _ = ff.determinant_element((1, 1), states[0], states[1], z2)
    assert not any(np.shares_memory(p, q) for p, q in
                   ((first, second), (second, third),
                    *((mat, rows) for mat in (first, second, third)
                      for rows in kept)))
    third[:] = 0.0  # the caller's matrix is its own
    again = ff.determinant_element((1, 1), states[0], states[1], z2)[1]
    assert np.array_equal(again, second)
    ref = weakref.ref(model)
    del model, states
    gc.collect()
    assert ref() is None
    assert len(solver._SOLVED) == solved
    assert len(orc._EXTRACTED) == extracted
    # a grid-sized element is kept too, for the calls at its probe point
    rng = np.random.default_rng(3)
    model = _polynomial_model(rng)
    n = ff.GRID_MIN_COLS - 1
    left, right, z = _pair(rng, model, (1, 1), n - n // 2, n // 2)
    _, first, _ = ff.determinant_element((1, 1), left, right, z)
    kept, _ = ff._last.kept[None]
    assert kept.shape[1] >= ff.GRID_MIN_COLS
    with pytest.raises(ValueError):
        kept[0, 0] = 0.0
    _, second, _ = ff.determinant_element((2, 2), left, right, z)
    assert ff._last.kept[None][0] is kept
    assert not any(np.shares_memory(p, q) for p, q in
                   ((first, second), (first, kept), (second, kept)))
    ref = weakref.ref(model)
    del model, left, right
    gc.collect()
    assert ref() is None


# ---------------------------------------------------------------------------
# one kept element for every kind on its assembly

def _group(kind, left, right):
    """The calls that share the assembly of ``kind`` on (left, right): the
    three diagonal kinds, or the kind and its transposition image on the
    exchanged states."""
    i, j = kind
    if i == j:
        return [((s, s), left, right) for s in (1, 2, 3)]
    return [(kind, left, right), ((j, i), right, left)]


def _reuse_groups(state_lib):
    """Every group on L=5 (else L=4) library pairs, the same-state diagonal
    triple, and each again on generalized pairs of GRID_MIN_COLS columns
    and more."""
    lib = {kind: (left, right)
           for kind, left, right in _library_pairs(state_lib)[:9]}
    st = state_lib[5]["m21"][0]
    roots = ((1, 1), (1, 2), (2, 3), (1, 3))
    groups = [_group(kind, *lib[kind]) for kind in roots]
    groups.append(_group((1, 1), st, st))
    rng = np.random.default_rng(5)
    model = _polynomial_model(rng)
    n = ff.GRID_MIN_COLS - 1
    for kind in roots:
        left, right, _ = _pair(rng, model, kind, n - n // 2, n // 2)
        groups.append(_group(kind, left, right))
    groups.append(_group((1, 1), right, right))
    return groups


def test_kept_part_serves_every_kind_of_its_assembly_bit_for_bit(state_lib):
    z1, z2 = Z_POINTS[:2]
    groups = _reuse_groups(state_lib)
    cols = set()
    for group in groups:
        same_state = group[0][1] is group[0][2]
        for first in group:
            for z in (z1, z2):  # the kept probe point, then a new one
                ff.determinant_element(*first, z1)
                warm = [ff.determinant_element(*call, z) for call in group]
                for call, got in zip(group, warm):
                    _forget()
                    cold = ff.determinant_element(*call, z)
                    assert got[0] == cold[0] and got[2] == cold[2], call[0]
                    assert np.array_equal(got[1], cold[1]), call[0]
                    cols.add(got[1].shape[1])
                if group[0][0][0] != group[0][0][1]:
                    # a transposition pair is one element
                    assert warm[0][0] == warm[1][0]
                    assert np.array_equal(warm[0][1], warm[1][1])
                assert all(got[2] == same_state for got in warm)
    assert min(cols) < ff.GRID_MIN_COLS <= max(cols)


def test_values_do_not_depend_on_the_call_order(state_lib):
    # each group's z list in two orders: z-major, then kind-major with the
    # group and the z list reversed, so that the parts are built at other
    # probe points and by other kinds; every value and matrix has the same
    # bytes.  The groups: the library pairs of every kind and the same-state
    # triple, polynomial-model pairs with up to three left v-roots below
    # GRID_MIN_COLS columns, and one grid-size pair at one z
    lib = _library_pairs(state_lib)
    groups = [(_group(kind, left, right), Z_POINTS)
              for kind, left, right in lib[:9]]
    st = lib[-1][1]
    groups.append((_group((1, 1), st, st), Z_POINTS))
    rng = np.random.default_rng(29)
    model = _polynomial_model(rng)
    for kind, a, b in (((1, 3), 2, 1), ((1, 3), 1, 2), ((1, 1), 2, 2),
                       ((1, 2), 1, 2), ((2, 3), 1, 2), ((3, 3), 1, 3)):
        for _ in range(3):
            left, right, _ = _pair(rng, model, kind, a, b)
            groups.append((_group(kind, left, right), Z_POINTS))
    left, right, z = _pair(rng, model, (1, 1), 3, 3)
    groups.append((_group((1, 1), left, right), (z,)))
    cols, v_left = set(), set()
    for group, zs in groups:
        orders = ([(call, z) for z in zs for call in group],
                  [(call, z) for call in group[::-1] for z in zs[::-1]])
        got = []
        for order in orders:
            _forget()
            out = {}
            for call, z in order:
                value, mat, same = ff.determinant_element(*call, z)
                out[call[0], z] = (np.complex128(value).tobytes(),
                                   mat.tobytes(), same)
                cols.add(mat.shape[1])
            got.append(out)
            v_left.add(len(ff._last.roots[1]))
        assert got[0] == got[1], group[0][0]
    assert min(cols) < ff.GRID_MIN_COLS <= max(cols)
    assert max(v_left) >= 2


def test_kept_part_raises_what_a_cold_call_raises(state_lib):
    z1 = Z_POINTS[0]
    for group in _reuse_groups(state_lib):
        kind, left, right = group[0]
        # the assembly's states: (1,1), (1,2), (1,3) keep them, (2,3) not
        rows, cols = (right, left) if kind == (2, 3) else (left, right)
        c = rows.model.c
        bad = [cols.u[1], (rows.u + rows.v)[0]]
        if rows.u:
            bad.append(rows.u[0] + c)
        for z in bad:
            for k, call in enumerate(group):
                got = []
                for warm in (True, False):
                    if warm:
                        ff.form_factor(*group[k - 1], z1)
                    else:
                        _forget()
                    with pytest.raises(PoleError) as info:
                        ff.form_factor(*call, z)
                    got.append(str(info.value))
                assert got[0] == got[1], (call[0], got)


def test_kept_part_builds_rows_and_prefactor_once(monkeypatch, state_lib):
    l5 = state_lib[5]
    left, right = l5["m31"][0], l5["m31"][1]
    lib = dict((kind, (l, r)) for kind, l, r in _library_pairs(state_lib))
    z1, z2 = Z_POINTS[:2]
    calls = dict.fromkeys(("n_matrix", "prefactor_H", "n_column"), 0)
    for name in calls:
        def counted(*args, _build=getattr(ff, name), _name=name):
            calls[_name] += 1
            return _build(*args)
        monkeypatch.setattr(ff, name, counted)

    def grid_prefactor(grid, _build=ff._Grid.prefactor):
        calls["grid_prefactor"] += 1
        return _build(grid)

    monkeypatch.setattr(ff._Grid, "prefactor", grid_prefactor)
    for threshold in (PER_COLUMN, GRID):
        monkeypatch.setattr(ff, "GRID_MIN_COLS", threshold)
        for group in (_group((1, 1), left, right), _group((1, 2), *lib[1, 2])):
            monkeypatch.setattr(ff, "_last", None)
            calls.update(n_matrix=0, prefactor_H=0, grid_prefactor=0)
            for call in group:  # one assembly, one z
                ff.form_factor(*call, z1)
            # one prefactor, from the per-column builder or from the grid
            assert calls["n_matrix"] == 1, threshold
            assert calls["prefactor_H"] == (threshold == PER_COLUMN)
            assert calls["grid_prefactor"] == (threshold == GRID)
    # a kind switch at a new probe point builds the z column alone, and of
    # the prefactor only its factors in z: neither the prefactor whole nor
    # its z-free products Delta'(u_left), Delta'(v_right), 1/h(v_left,
    # u_right)
    monkeypatch.setattr(ff, "GRID_MIN_COLS", PER_COLUMN)
    calls.update(delta_prime=0, inv_h_vu=0)
    for name, key, counts in (
            ("delta_prime", "delta_prime", lambda *args: True),
            ("inv_h_prod", "inv_h_vu",
             lambda lhs, rhs, c: (lhs, rhs) == (left.v, right.u))):
        def counted(*args, _build=getattr(ff, name), _key=key,
                    _counts=counts):
            calls[_key] += _counts(*args)
            return _build(*args)
        monkeypatch.setattr(ff, name, counted)
    ff.form_factor((1, 1), left, right, z1)
    assert calls["prefactor_H"] and calls["delta_prime"] == 2
    assert calls["inv_h_vu"] == 1
    calls.update(dict.fromkeys(calls, 0))
    ff.form_factor((3, 3), left, right, z2)
    assert calls == {"n_matrix": 0, "prefactor_H": 0, "n_column": 1,
                     "grid_prefactor": 0, "delta_prime": 0, "inv_h_vu": 0}


def test_kept_part_keeps_the_per_call_checks(state_lib, monkeypatch):
    z = Z_POINTS[0]
    l5 = state_lib[5]
    left, right = l5["m31"][0], l5["m31"][1]
    ff.form_factor((1, 1), left, right, z)
    for kind, l, r in (((1, 2), left, right), ((2, 1), right, left),
                       ((2, 1), left, right)):
        with pytest.raises(SectorMismatch):
            ff.form_factor(kind, l, r, z)
    lib = dict((kind, (l, r)) for kind, l, r in _library_pairs(state_lib))
    l12, r12 = lib[1, 2]
    ff.form_factor((1, 2), l12, r12, z)
    with pytest.raises(SectorMismatch):
        ff.form_factor((2, 1), l12, r12, z)
    # a near pair warns on each diagonal kind, also where it is served
    st = state_lib[3]["m10"][0]
    shifted = make_state(state_lib[3]["model"], (st.u[0] + 1e-7,), ())
    for s in (1, 2, 3):
        with pytest.warns(DegeneracyWarning):
            ff.ff_diag(s, shifted, st, z)
    # the twist and sector checks run once for each kind a part serves: a
    # repeat call of a checked kind, at its z or another, runs neither, a
    # new kind on the part runs both once, and a failing kind fails again,
    # whether it comes before the part is built or after
    runs = dict.fromkeys(("_require_untwisted", "_check_sector"), 0)
    for name in runs:
        def counted(*args, _name=name, _check=getattr(ff, name)):
            runs[_name] += 1
            return _check(*args)
        monkeypatch.setattr(ff, name, counted)

    def checks_run(*calls):
        runs.update(dict.fromkeys(runs, 0))
        for kind, l, r, zk in calls:
            ff.form_factor(kind, l, r, zk)
        return tuple(runs.values())

    def mismatches():
        for kind, l, r in (((1, 2), left, right), ((2, 1), right, left)):
            with pytest.raises(SectorMismatch):
                checks_run((kind, l, r, z))
            assert tuple(runs.values()) == (1, 1)

    for mismatch_first in (True, False):
        monkeypatch.setattr(ff, "_last", None)
        if mismatch_first:
            mismatches()
        assert checks_run(((1, 1), left, right, z)) == (1, 1)
        assert checks_run(((1, 1), left, right, z),
                          ((1, 1), left, right, Z_POINTS[1])) == (0, 0)
        assert checks_run(((3, 3), left, right, Z_POINTS[2])) == (1, 1)
        assert checks_run(((3, 3), left, right, z),
                          ((1, 1), left, right, Z_POINTS[3])) == (0, 0)
        mismatches()
        mismatches()
    # an exchanged kind is a kind of the part of its exchanged states
    assert checks_run(((1, 2), l12, r12, z)) == (1, 1)
    assert checks_run(((2, 1), r12, l12, Z_POINTS[1])) == (1, 1)
    assert checks_run(((1, 2), l12, r12, Z_POINTS[2]),
                      ((2, 1), r12, l12, z)) == (0, 0)
