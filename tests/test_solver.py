import collections
import dataclasses
import gc
import itertools
import sys
import weakref

import numpy as np
import pytest

import gl3ff.cli as cli
import gl3ff.kernel as kernel
import gl3ff.solver as solver
from gl3ff.checks import prepare_states, seeded_inhomogeneities
from gl3ff.errors import (NoConvergence, PathCollision, PoleError,
                          ZeroArgError)
from gl3ff.model import (BetheState, RootConfig, RootStack, Twist, bethe_defect,
                         gaudin_matrix, mirror_model, phi_log, tau, xxx_chain)
from gl3ff.oracle import SpinChainSpec
from gl3ff.solver import (SolveRequest, continue_in_twist, distinct_states,
                          solve_bethe, states_equal)

SQ3 = np.sqrt(3.0)


def test_single_root_homogeneous_l2():
    # (u+1)^2 = u^2  =>  u = -1/2
    model = xxx_chain(2, (0.0, 0.0), 1.0)
    st = solve_bethe(SolveRequest(model=model, a=1, b=0))
    assert abs(st.u[0] - (-0.5)) < 1e-12
    assert st.residual <= 1e-12


def test_single_root_homogeneous_l3_pair():
    # (u+1)^3 = u^3  =>  u = -1/2 +- i/(2 sqrt 3)
    model = xxx_chain(3, (0.0, 0.0, 0.0), 1.0)
    states = distinct_states(model, 1, 0, n_seeds=24)
    assert len(states) == 2
    expect = sorted([-0.5 - 1j / (2 * SQ3), -0.5 + 1j / (2 * SQ3)],
                    key=lambda z: z.imag)
    got = sorted((st.u[0] for st in states), key=lambda z: z.imag)
    for g, e in zip(got, expect):
        assert abs(g - e) < 1e-12


def test_returned_states_pass_defect_recheck(state_lib):
    for L in (2, 3, 4, 5):
        for key in ("m10", "m21", "m20", "m31"):
            for st in state_lib[L].get(key, ()):
                d = bethe_defect(st.roots, st.twist, st.model)
                assert np.max(np.abs(d)) <= 10 * 1e-12


def test_solved_tau_is_oracle_eigenvalue(state_lib):
    import gl3ff.oracle as orc
    spec, model = state_lib[3]["spec"], state_lib[3]["model"]
    st = state_lib[3]["m21"][0]
    # the basis states with occupation counts (L - 2, 1, 1): one site of
    # colour 2 and one of colour 3 among the base-3 digits of the index
    digits = np.arange(spec.dim)[:, None] // 3 ** np.arange(spec.L) % 3
    idx = np.flatnonzero(((digits == 1).sum(1) == 1)
                         & ((digits == 2).sum(1) == 1))
    for w in (0.83 + 0.62j, -1.1 - 0.4j):
        eigs = np.linalg.eigvals(orc.transfer_matrix(w, spec)[np.ix_(idx, idx)])
        tv = tau(w, st.roots, model)
        assert np.min(np.abs(eigs - tv)) <= 1e-8 * abs(tv)


def test_no_untwisted_states_with_single_pair(monkeypatch):
    # f(v, u) = 1 has no finite solution, so the (1,1) sector is empty: the
    # chain knows it without a Newton run (no highest-weight vector at L=2),
    # and its copy without a site count seeds the whole pool to find none
    newton = _count_calls(monkeypatch, solver, "_newton")
    model = xxx_chain(2, (0.05 + 0.02j, -0.04 - 0.01j), 1.0)
    assert distinct_states(model, 1, 1, n_seeds=24) == []
    assert newton[0] == 0
    assert distinct_states(dataclasses.replace(model, sites=None), 1, 1,
                           n_seeds=24) == []
    assert newton[0] > 0


def test_twisted_pair_sector_solvable():
    model = xxx_chain(2, (0.05 + 0.02j, -0.04 - 0.01j), 1.0)
    tw = Twist(1.0, 1.0, 0.6 + 0.1j)
    states = distinct_states(model, 1, 1, twist=tw, n_seeds=32)
    assert states
    for st in states:
        assert np.max(np.abs(bethe_defect(st.roots, tw, st.model))) < 1e-10


@pytest.mark.parametrize("seed", [12, 28])
def test_twisted_l3_pair_sector_complete(seed):
    # verify's twisted L=3 (1,1) sector holds its L states at every seed; at
    # these two, one state has its v-root just beyond r_max, where a twisted
    # run may converge
    model = xxx_chain(3, seeded_inhomogeneities(3, seed), 1.0)
    tw = Twist(0.9 + 0.1j, 1.0, 1.2 - 0.2j)
    states = distinct_states(model, 1, 1, twist=tw, rng_seed=seed)
    assert len(states) == solver._sector_size(model, 1, 1, tw) == 3
    for st in states:
        assert np.max(np.abs(bethe_defect(st.roots, tw, st.model))) < 1e-10


@pytest.mark.parametrize("L", range(2, 7))
def test_a1_sectors_complete_at_a_twist(L):
    # at a generic twist the (1,0) and (1,1) sectors hold L states each
    # (Mukhin-Tarasov-Varchenko), and the solver finds all of them
    tw = Twist(0.9 + 0.1j, 1.0, 1.2 - 0.2j)
    for seed in range(40):
        model = xxx_chain(L, seeded_inhomogeneities(L, seed), 1.0)
        for a, b in ((1, 0), (1, 1)):
            states = distinct_states(model, a, b, twist=tw, rng_seed=seed)
            assert len(states) == solver._sector_size(model, a, b, tw) == L, \
                (seed, a, b)


@pytest.mark.parametrize("L", range(1, 7))
def test_exact_seeds_are_states(L):
    # one seed per state of the sector, each on shell before any Newton
    # step; untwisted (1,1) can hold no state and gets no seed
    model = _chain(L).model()
    for twist in (Twist(), Twist(0.9 + 0.1j, 1.0, 1.2 - 0.2j)):
        for a, b in ((1, 0), (1, 1)):
            seeds = solver._exact_seeds(model, a, b, twist)
            assert len(seeds) == solver._sector_size(model, a, b, twist)
            for x in seeds:
                defect = bethe_defect(RootConfig(x[:1], x[1:]), twist, model)
                assert np.max(np.abs(defect)) < 1e-10


def test_exact_seeds_fill_twisted_pair_sectors_without_newton_steps(
        monkeypatch):
    # verify's twisted L=2 and L=3 (1,1) sectors: the exact seeds converge
    # at their first evaluation, so the stack stops before any Jacobian
    rows = _count_rows(monkeypatch, solver, "_jacobian")
    tw = Twist(0.9 + 0.1j, 1.0, 1.2 - 0.2j)
    for L in (2, 3):
        for seed in range(40):
            states = distinct_states(_chain(L, seed).model(), 1, 1, twist=tw,
                                     rng_seed=seed)
            assert len(states) == L
    assert rows[0] == 0


def test_exact_seeds_edge_twists():
    model = _chain(4).model()
    k1, k3 = 0.9 + 0.1j, 1.2 - 0.2j
    # k3 = k2: f(v, u) = 1 has no finite v
    assert solver._exact_seeds(model, 1, 1, Twist(k1, k3, k3)) == []
    # k3 = k1: r1(u) = 1 loses its leading term, and one state its roots
    tw = Twist(k1, 1.0, k1)
    seeds = solver._exact_seeds(model, 1, 1, tw)
    assert len(seeds) == 3
    for x in seeds:
        defect = bethe_defect(RootConfig(x[:1], x[1:]), tw, model)
        assert np.max(np.abs(defect)) < 1e-10
    for a, b in ((2, 0), (2, 1), (0, 1)):
        assert solver._exact_seeds(model, a, b, tw) == []
    model = dataclasses.replace(model, inhomogeneities=None)
    assert solver._exact_seeds(model, 1, 0, tw) == []


@pytest.mark.parametrize("xi", [
    (0.0, 0.0, 0.0), (0.1, 0.2, 0.3, 0.4), seeded_inhomogeneities(5, 7),
    seeded_inhomogeneities(6, 0)])
@pytest.mark.parametrize("c", [1.0, 0.7 + 0.3j])
def test_exact_seeds_untwisted_magnons_unchanged(xi, c):
    # at the identity twist the (1,0) seeds are the bytes of the polynomial
    # r1(u) = 1 as the solver has always written it
    model = xxx_chain(len(xi), xi, c)
    xi, c = model.inhomogeneities, model.c
    diff = np.asarray(np.poly([x - c for x in xi])
                      - np.poly(np.array(xi, dtype=complex)), dtype=complex)
    lead = np.nonzero(np.abs(diff) > 1e-13 * max(1.0, np.abs(diff).max()))[0]
    expect = [np.array([r], dtype=complex) for r in np.roots(diff[lead[0]:])]
    got = solver._exact_seeds(model, 1, 0, Twist())
    assert np.array(got).tobytes() == np.array(expect).tobytes()


def test_solve_with_explicit_seed_roots(state_lib):
    model = state_lib[3]["model"]
    ref = state_lib[3]["m21"][0]
    jitter = RootConfig(tuple(u + 0.01 for u in ref.u),
                        tuple(v - 0.01j for v in ref.v))
    st = solve_bethe(SolveRequest(model=model, a=2, b=1, seed_roots=jitter))
    assert states_equal(st.roots, ref.roots)


def test_seed_roots_must_match_the_sector(state_lib):
    # the seed's own split into u and v is kept: a (3, 0) seed is no seed
    # of sector (2, 1), though it holds three roots
    model = state_lib[3]["model"]
    ref = state_lib[3]["m21"][0]
    seed = RootConfig(ref.u + ref.v, ())
    with pytest.raises(ValueError, match="sector"):
        SolveRequest(model=model, a=2, b=1, seed_roots=seed)
    with pytest.raises(ValueError, match="sector"):
        SolveRequest(model=model, a=3, b=0, seed_roots=ref.roots)


def test_solve_with_mode_numbers(state_lib):
    model = state_lib[3]["model"]
    ref = state_lib[3]["m10"][0]
    st = solve_bethe(SolveRequest(model=model, a=1, b=0,
                                  mode_numbers=ref.mode_numbers))
    assert st.mode_numbers == ref.mode_numbers
    assert st.residual <= 1e-12


def test_distinct_states_deduplicates_permutations(state_lib):
    model = state_lib[4]["model"]
    ref = state_lib[4]["m21"][0]
    swapped = RootConfig((ref.u[1], ref.u[0]), ref.v)
    assert states_equal(swapped, ref.roots)


def test_solve_request_validation():
    model = xxx_chain(2, (0.0, 0.0), 1.0)
    with pytest.raises(ValueError):
        SolveRequest(model=model, a=0, b=0)
    with pytest.raises(ValueError):
        SolveRequest(model=model, a=1, b=0, tol=-1.0)
    with pytest.raises(ValueError):
        SolveRequest(model=model, a=2, b=0, mode_numbers=(0,))


@pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
def test_distinct_states_rejects_nonpositive_tol(tol):
    # as SolveRequest does: no residual is ever <= a non-positive or nan
    # tolerance, so such a call would run every seed to find nothing (a nan
    # one reported an L=3 sector that holds 2 states as empty), and an
    # infinite one accepts any residual
    model = xxx_chain(3, (0.0, 0.0, 0.0), 1.0)
    with pytest.raises(ValueError, match="tolerance must be positive"):
        distinct_states(model, 1, 0, tol=tol)
    with pytest.raises(ValueError, match="tolerance must be positive"):
        SolveRequest(model=model, a=1, b=0, tol=tol)


@pytest.mark.parametrize("a, b, match", [
    (0, 0, "at least one root"), (-1, 0, "non-negative"),
    (0, -1, "non-negative"), (-1, 2, "non-negative")])
def test_sector_validation(a, b, match):
    model = xxx_chain(2, (0.0, 0.0), 1.0)
    with pytest.raises(ValueError, match=match):
        distinct_states(model, a, b)
    with pytest.raises(ValueError, match=match):
        SolveRequest(model=model, a=a, b=b)


def test_continue_in_twist_identity_is_noop(state_lib):
    st = state_lib[3]["m10"][0]
    assert continue_in_twist(st, st.twist, steps=4) is st


def test_continue_in_twist_small_step_moves_roots(state_lib):
    st = state_lib[3]["m10"][0]
    delta = 1e-3
    moved = continue_in_twist(st, Twist(1.0 + delta, 1.0, 1.0), steps=2)
    shift = abs(moved.u[0] - st.u[0])
    assert 1e-5 * delta < shift < 100 * delta


def test_continue_in_twist_round_trip(state_lib):
    st = state_lib[3]["m21"][0]
    target = Twist(1.2 - 0.1j, 1.0, 0.8 + 0.15j)
    there = continue_in_twist(st, target, steps=6)
    assert np.max(np.abs(bethe_defect(there.roots, target, st.model))) < 1e-10
    back = continue_in_twist(there, Twist.identity(), steps=6)
    assert np.max(np.abs(back.roots.as_array() - st.roots.as_array())) < 1e-8
    assert back.mode_numbers == st.mode_numbers


@pytest.mark.parametrize("shift", [0.0, -1.0], ids=["equal", "minus_c"])
def test_continue_in_twist_rejects_a_colliding_start(shift):
    # a start state with u_0 = u_1 or u_1 = u_0 - c fails phi_log's guard at
    # the first step's seed, which ends the path there
    model = _chain(3).model()
    u0 = 0.3 - 0.1j
    st = BetheState(RootConfig((u0, u0 + shift * model.c), ()), Twist(),
                    (0, 0), 0.0, model)
    with pytest.raises(PathCollision, match="twist step 1/3"):
        continue_in_twist(st, Twist(1.1, 1.0, 1.0), steps=3)


def test_no_convergence_reported():
    model = xxx_chain(2, (0.0, 0.0), 1.0)
    with pytest.raises(NoConvergence):
        solve_bethe(SolveRequest(model=model, a=1, b=1))


def test_states_equal_across_rounding_boundary():
    # real parts on both sides of a 9-digit rounding boundary, 2e-13 apart
    x = 0.1234567885
    s1 = RootConfig((x - 1e-13 + 1j, x + 3e-11 - 1j), ())
    s2 = RootConfig((x + 1e-13 + 1j, x + 3e-11 - 1j), ())
    assert states_equal(s1, s2)
    assert states_equal(s1, s2, 1e-9)
    assert not states_equal(s1, s2, 1e-13)


def test_states_equal_matches_permuted_large_sector():
    rng = np.random.default_rng(3)
    u = rng.normal(size=32) + 1j * rng.normal(size=32)
    perm = rng.permutation(32)
    assert states_equal(RootConfig(tuple(u), ()),
                        RootConfig(tuple(u[perm] + 1e-9), ()))
    moved = u[perm].copy()
    moved[5] += 1e-3
    assert not states_equal(RootConfig(tuple(u), ()),
                            RootConfig(tuple(moved), ()))


def _chain(L=3, seed=7):
    xi = cli.seeded_inhomogeneities(L, seed)
    return SpinChainSpec(L=L, xi=xi, c=1.0)


@pytest.mark.parametrize("c", [1.0, 0.6 + 0.5j])
def test_newton_collision_guard(c):
    # phi_log's guard is the Newton's only root guard: it rejects two equal
    # roots and every pair at +-c whose f enters the log system, and passes
    # v = u + c, whose f(u, v) it never takes
    model = xxx_chain(1, (5.0 + 5.0j,), c)

    def errors(x, a):
        x = np.array(x, dtype=complex, ndmin=2)
        b = x.shape[1] - a
        with np.errstate(all="ignore"):     # as in the Newton
            return solver._evaluate(x, a, b, model,
                                    solver._twist_offsets(a, b, Twist()),
                                    None)[3]

    u0, v0 = 0.3 - 0.1j, -0.4 + 0.2j
    assert errors([u0, u0 + 0.5, v0], 2) == [None]
    # v = u + c is fine
    assert errors([u0, u0 + c], 1) == [None]
    bad = [([u0, u0 + c, v0], 2, ZeroArgError, "f(u_0, u_1)"),  # u_0 - u_1 = -c
           ([u0 + c, u0, v0], 2, ZeroArgError, "f(u_1, u_0)"),  # u_0 - u_1 = +c
           ([u0, v0, v0 - c], 1, ZeroArgError, "f(v_1, v_0)"),  # v_0 - v_1 = +c
           ([u0, u0], 1, PoleError, "entries 0 and 1 collide"),  # u = v
           ([u0, u0 - c], 1, ZeroArgError, "f(v_0, u_0)")]       # v = u - c
    for x, a, kind, name in bad:
        # each row of a stack is guarded on its own: a clean row beside a
        # colliding one passes
        clean = np.arange(len(x)) * (2.0 + 3.0j)
        found = errors([clean, x, clean], a)
        assert found[0] is None and found[2] is None
        assert isinstance(found[1], kind)
        assert name in str(found[1])


def _count_calls(monkeypatch, module, name):
    """Wrap module.name and rebind every gl3ff module-level name that refers
    to the original, the way the benchmark tracer does."""
    original = getattr(module, name)
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "gl3ff" or mod_name.startswith("gl3ff."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


def _count_rows(monkeypatch, module, name):
    """Wrap module.name, whose first argument is a stack of iterates, and
    count the rows it is called on."""
    original = getattr(module, name)
    rows = [0]

    def counted(x, *args):
        rows[0] += len(x)
        return original(x, *args)

    monkeypatch.setattr(module, name, counted)
    return rows


def test_distinct_states_memoized_per_model(monkeypatch):
    spec = _chain()
    model = spec.model()
    newton = _count_calls(monkeypatch, solver, "_newton")
    first = distinct_states(model, 2, 1, n_seeds=48)
    solved = newton[0]
    assert solved > 0 and first
    second = distinct_states(model, 2, 1, n_seeds=48)
    assert newton[0] == solved
    assert second is not first
    assert [st.roots for st in second] == [st.roots for st in first]
    assert [st.mode_numbers for st in second] == [st.mode_numbers
                                                  for st in first]
    assert all(st.model is model for st in second)
    # other arguments are another entry
    distinct_states(model, 2, 1, n_seeds=40)
    assert newton[0] > solved
    # a fresh model built from the same spec solves again
    solved = newton[0]
    again = distinct_states(spec.model(), 2, 1, n_seeds=48)
    assert newton[0] > solved
    assert [st.roots for st in again] == [st.roots for st in first]


def test_distinct_states_accepts_list_inhomogeneities():
    model = _chain().model()
    listed = dataclasses.replace(model,
                                 inhomogeneities=list(model.inhomogeneities))
    assert [st.roots for st in distinct_states(listed, 1, 0, n_seeds=24)] == \
        [st.roots for st in distinct_states(model, 1, 0, n_seeds=24)]


def test_distinct_states_returns_fresh_list():
    model = _chain().model()
    first = distinct_states(model, 1, 0, n_seeds=24)
    n = len(first)
    first.clear()
    assert len(distinct_states(model, 1, 0, n_seeds=24)) == n > 0


def test_distinct_states_memo_dies_with_model():
    gc.collect()
    entries = len(solver._SOLVED)
    model = _chain().model()
    states = distinct_states(model, 2, 1, n_seeds=48)
    assert model in solver._SOLVED
    assert len(solver._SOLVED) == entries + 1
    ref = weakref.ref(model)
    del model, states
    gc.collect()
    assert ref() is None
    assert len(solver._SOLVED) == entries


def test_no_memo_reuse_across_report_builds(monkeypatch):
    newton = _count_calls(monkeypatch, solver, "_newton")
    cli.build_identities_report(7)
    first = newton[0]
    cli.build_identities_report(7)
    assert newton[0] == 2 * first > 0


def test_line_search_never_evaluates_outside_escape_disk(monkeypatch):
    # the (1,0) seed pool of this chain runs Newton out to the disk's edge;
    # without a site count the pool is drawn to its end, not stopped once
    # the sector is complete
    model = dataclasses.replace(_chain().model(), sites=None)
    centroid = sum(model.inhomogeneities) / len(model.inhomogeneities)
    limit = 3.0 * (3.0 * solver._seed_scale(model))
    reach = []
    residual = solver._residual

    def checked(x, *args):
        reach.append(float(np.max(np.abs(x - centroid))))
        return residual(x, *args)

    monkeypatch.setattr(solver, "_residual", checked)
    assert distinct_states(model, 1, 0, n_seeds=24)
    assert max(reach) <= limit
    assert max(reach) > 0.99 * limit


def test_tracer_visible_solver_hot_path(monkeypatch):
    # the benchmark tracer counts one Gaudin matrix call per Newton round and
    # one phi_log call per residual round of the stack, through the
    # module-level names; L=4 (2,0) stays incomplete, so its whole pool runs
    import gl3ff.model as model_mod
    gaudin = _count_calls(monkeypatch, model_mod, "gaudin_matrix")
    phi = _count_calls(monkeypatch, model_mod, "phi_log")
    steps = _count_calls(monkeypatch, solver, "_jacobian")
    residuals = _count_calls(monkeypatch, solver, "_residual")
    assert distinct_states(_chain(4).model(), 2, 0, n_seeds=48)
    assert gaudin[0] == steps[0] > 0
    assert phi[0] == residuals[0] > 0


def _pool_seed(model, a, b, twist, n_random, rng_seed, index):
    rng = np.random.default_rng(rng_seed)
    return solver._seed_pool(model, a, b, twist, n_random, rng)[index]


def test_newton_stops_creeping_at_escape_disk(monkeypatch):
    # this seed runs out to the escape disk and creeps along it with the
    # residual near 0.085 for a dozen steps before no halving helps; a
    # model without a site count searches the whole disk, as a chain at a
    # twist does
    model = dataclasses.replace(_chain().model(), sites=None)
    x0 = _pool_seed(model, 1, 0, Twist(), 24, 0, 30)
    steps = _count_calls(monkeypatch, solver, "_jacobian")
    with pytest.raises(NoConvergence, match="Newton creeping"):
        solver._newton_one(model, 1, 0, Twist(), x0, 1e-12)
    assert steps[0] <= 10


def test_newton_ends_escaping_chain_run(monkeypatch):
    # the same seed on the chain at the identity twist: its first iterate
    # beyond r_max ends the run, where the search of the whole disk takes
    # ten Jacobians to creep
    model = _chain().model()
    x0 = _pool_seed(model, 1, 0, Twist(), 24, 0, 30)
    steps = _count_calls(monkeypatch, solver, "_jacobian")
    with pytest.raises(NoConvergence, match="roots escaped"):
        solver._newton_one(model, 1, 0, Twist(), x0, 1e-12)
    assert steps[0] <= 4


def test_newton_stops_creeping_inside_escape_disk(monkeypatch):
    # a fixed pattern seed of the twisted L=4 (3,0) pool: it stays within
    # 0.27 r_max and creeps with the residual near 0.21, above the range
    # where the linear-convergence exit applies
    model = _chain(4).model()
    twist = Twist(0.9 + 0.1j, 1.0, 1.2 - 0.2j)
    x0 = _pool_seed(model, 3, 0, twist, 0, 0, 5)
    centroid = sum(model.inhomogeneities) / len(model.inhomogeneities)
    r_max = 3.0 * solver._seed_scale(model)
    reach = []
    jacobian = solver._jacobian

    def recorded(x, *args):
        reach.append(float(np.max(np.abs(x - centroid))) / r_max)
        return jacobian(x, *args)

    monkeypatch.setattr(solver, "_jacobian", recorded)
    with pytest.raises(NoConvergence, match="Newton creeping"):
        solver._newton_one(model, 3, 0, twist, x0, 1e-12)
    assert len(reach) <= 20
    assert max(reach) < 0.5


def test_newton_ends_linear_convergence(monkeypatch):
    # a seed of the library's L=5 (3,1) pool: two u-roots merge well inside
    # the disk, and each step only halves the residual below 1e-4, where a
    # regular root would square it
    model = _chain(5).model()
    magnons = [st.u[0] for st in distinct_states(model, 1, 0, n_seeds=24,
                                                 rng_seed=8)]
    rng = np.random.default_rng(7)
    x0 = solver._seed_pool(model, 3, 1, Twist(), 48, rng, magnons)[0]
    steps = _count_calls(monkeypatch, solver, "_jacobian")
    with pytest.raises(NoConvergence, match="Newton converging linearly"):
        solver._newton_one(model, 3, 1, Twist(), x0, 1e-12)
    assert steps[0] <= 5


def test_library_newton_exits_cut_no_state(monkeypatch):
    # the escape and linear-convergence exits end the seed-7 library's
    # doomed runs early; with both off (Newton sees no site count, and no
    # residual is small enough for the linear test) it takes 1,939 Jacobians,
    # counted over the rows of each stacked round, and finds the same states
    steps = _count_rows(monkeypatch, solver, "_jacobian")
    lib = prepare_states(7)
    assert steps[0] <= 700
    cut = steps[0]
    newton = solver._newton
    monkeypatch.setattr(solver, "_LINEAR_BELOW", 0.0)
    monkeypatch.setattr(solver, "_newton", lambda model, *args: newton(
        dataclasses.replace(model, sites=None), *args))
    full = prepare_states(7)
    assert steps[0] - cut > 2 * cut
    for L in lib:
        for key in ("m10", "m21", "m20", "m31"):
            got, expect = lib[L].get(key, []), full[L].get(key, [])
            assert len(got) == len(expect)
            assert all(states_equal(s1.roots, s2.roots)
                       for s1, s2 in zip(got, expect))


def test_newton_returns_from_creep_zone(monkeypatch):
    # a random seed of the verify suite's twisted L=3 (1,1) pool, after its
    # three exact seeds: three iterates lie beyond 2.9 r_max, each step
    # cutting the residual by 3 % or more, and the run comes back to converge
    model = _chain().model()
    twist = Twist(0.9 + 0.1j, 1.0, 1.2 - 0.2j)
    x0 = _pool_seed(model, 1, 1, twist, 48, 7, 53)
    centroid = sum(model.inhomogeneities) / len(model.inhomogeneities)
    r_max = 3.0 * solver._seed_scale(model)
    reach = []
    jacobian = solver._jacobian

    def recorded(x, *args):
        reach.append(float(np.max(np.abs(x - centroid))) / r_max)
        return jacobian(x, *args)

    monkeypatch.setattr(solver, "_jacobian", recorded)
    x, modes, err = solver._newton_one(model, 1, 1, twist, x0, 1e-12)
    assert sum(r > 2.9 for r in reach) == 3
    expect = [4.799331359210748 + 4.979255055986534j,
              7.299331359210748 + 7.479255055986535j]
    assert np.max(np.abs(x - expect)) < 1e-12
    assert modes == (0, 0) and err <= 1e-12


def _ending(run):
    """A Newton outcome in comparable form: roots, modes and residual, or the
    error's type and message."""
    if isinstance(run, Exception):
        return type(run), str(run)
    x, modes, err = run
    return tuple(x.tolist()), modes, err


@pytest.mark.parametrize("L, a, b, twist, n_random", [
    (5, 3, 1, Twist(), 48), (3, 1, 1, Twist(0.9 + 0.1j, 1.0, 1.2 - 0.2j), 47)],
    ids=["5-3-1-twist0", "3-1-1-twist1"])
def test_seed_ends_the_same_alone_and_stacked(L, a, b, twist, n_random):
    # an untwisted L=5 (3,1) pool of 78 seeds, which converge, escape or
    # converge linearly, and a twisted L=3 (1,1) pool of 56 (its three exact
    # seeds, then 53 more), which converge or creep; each gets three more
    # seeds that fail a guard at once: two equal roots, a root on a pole of
    # r1 and a root on a zero of r1.  The pools of 81 and 59 and the stacks
    # of 13 and 7 that cut them are no multiples of the 4 or 8 lanes of a
    # vector loop
    model = _chain(L).model()
    magnons = []
    if a >= 2:
        magnons = [st.u[0] for st in distinct_states(model, 1, 0, n_seeds=24,
                                                     rng_seed=8)]
    pool = np.array(solver._seed_pool(model, a, b, twist, n_random,
                                      np.random.default_rng(7), magnons))
    xi = model.inhomogeneities[0]
    for row, root, value in ((5, 1, pool[5, 0]), (11, 0, xi),
                             (17, 0, xi - model.c)):
        bad = pool[row].copy()
        bad[root] = value
        pool = np.insert(pool, row, bad, axis=0)
    alone = [_ending(next(solver._newton(model, a, b, twist, x0, 1e-12)))
             for x0 in pool]
    kinds = {ending[0] if isinstance(ending[0], type) else "converged"
             for ending in alone}
    assert kinds >= {"converged", NoConvergence, PoleError, ZeroArgError}
    for size in (len(pool), 13, 7):
        stacked = [_ending(run) for start in range(0, len(pool), size)
                   for run in solver._newton(model, a, b, twist,
                                             pool[start:start + size], 1e-12)]
        assert stacked == alone, size


def test_pole_tol_per_call_not_per_term(monkeypatch):
    # phi_log and gaudin_matrix compute the tolerance once per call for the
    # regularity guard and all of their terms, however many roots or rows
    # there are; the chain's r1 and dlog_r1 took theirs when it was built
    model = _chain().model()
    small = RootConfig((0.31 + 0.2j,), ())
    large = RootConfig((0.31 + 0.2j, -0.4 + 0.1j), (0.05 - 0.3j, 0.6 + 0.5j))
    stack = RootStack(np.array([large.as_array() + k for k in range(3)]), 2)
    calls = _count_calls(monkeypatch, kernel, "pole_tol")
    for roots in (small, large, stack):
        for fn in (phi_log, gaudin_matrix):
            before = calls[0]
            fn(roots, model)
            assert calls[0] - before == 1


def _content_counts(L, ballot):
    """Words over {1, 2, 3} of length L counted by content (#1, #2, #3);
    with ``ballot`` only those where every prefix has #1 >= #2 >= #3."""
    counts = collections.Counter()
    for word in itertools.product(range(3), repeat=L):
        n = [0, 0, 0]
        for letter in word:
            n[letter] += 1
            if ballot and not n[0] >= n[1] >= n[2]:
                break
        else:
            counts[tuple(n)] += 1
    return counts


@pytest.mark.parametrize("L", range(1, 7))
def test_sector_size_counts_words(L):
    # ballot words of a content are the standard Young tableaux of that shape
    model = xxx_chain(L, tuple(0.1 * k for k in range(L)), 1.0)
    twist = Twist(1.2 - 0.1j, 1.0, 0.8 + 0.15j)
    ballot, words = _content_counts(L, True), _content_counts(L, False)
    for a in range(-1, L + 2):
        for b in range(-1, L + 2):
            content = (L - a, a - b, b)
            assert solver._sector_size(model, a, b, Twist()) == ballot[content]
            assert solver._sector_size(model, a, b, twist) == words[content]
    assert model.sites == L
    assert mirror_model(model).sites is None
    assert solver._sector_size(mirror_model(model), 1, 0, Twist()) is None


def _seed_pool_per_seed_draws(model, a, b, twist, n_random, rng,
                              magnon_roots):
    """The reference for _seed_pool's random seeds: one draw of a + b radii
    and one of a + b angles per seed."""
    seeds = solver._seed_pool(model, a, b, twist, 0, rng, magnon_roots)
    centroid, radius = solver._centroid(model), solver._seed_scale(model)
    for _ in range(n_random):
        pts = centroid + radius * np.sqrt(rng.uniform(0, 1, a + b)) * np.exp(
            2j * np.pi * rng.uniform(0, 1, a + b))
        seeds.append(pts.astype(complex))
    return seeds


@pytest.mark.parametrize("twisted", [False, True])
@pytest.mark.parametrize("a, b", [(1, 0), (2, 1), (3, 1)])
def test_seed_pool_draws_its_random_seeds_at_once(a, b, twisted):
    # one draw of (n_random, 2, a + b) uniforms gives the same seeds, bit
    # for bit, and leaves the generator where per-seed draws leave it
    model = _chain(5).model()
    twist = Twist(0.9 + 0.1j, 1.0, 1.2 - 0.2j) if twisted else Twist()
    magnons = tuple(st.u[0] for st in
                    distinct_states(model, 1, 0, twist=twist, n_seeds=24))
    assert len(magnons) >= 3
    for roots in ((), magnons):
        for n_random in (0, 48):
            rng, ref_rng = (np.random.default_rng(11) for _ in range(2))
            got = solver._seed_pool(model, a, b, twist, n_random, rng, roots)
            expect = _seed_pool_per_seed_draws(model, a, b, twist, n_random,
                                               ref_rng, roots)
            assert len(got) == len(expect) > n_random
            assert np.array(got).tobytes() == np.array(expect).tobytes()
            assert rng.uniform() == ref_rng.uniform()


def test_library_solves_each_chain_sector_once(monkeypatch):
    # the composite seeds' magnon pool shares the library's rng seed, so
    # each chain's (1, 0) sector is solved once, by the library's own call
    solved = []
    solve = solver._solve_sector
    monkeypatch.setattr(solver, "_solve_sector", lambda model, a, b, *args: (
        solved.append((model.sites, a, b)), solve(model, a, b, *args))[1])
    prepare_states(7)
    assert [key for key in solved if key[1:] == (1, 0)] == \
        [(L, 1, 0) for L in (2, 3, 4, 5)]
    assert len(solved) == len(set(solved)) == len(_LIBRARY_SECTORS)


# the sectors prepare_states solves, as (L, a, b, n_seeds)
_LIBRARY_SECTORS = ([(L, 1, 0, 24) for L in (2, 3, 4, 5)]
                    + [(L, 2, 1, 48) for L in (3, 4, 5)]
                    + [(L, 2, 0, 48) for L in (4, 5)] + [(5, 3, 1, 48)])


def test_complete_sector_stops_its_seed_pool(monkeypatch):
    # a chain finds the same states as its copy without a site count, and
    # takes fewer Newton steps (Jacobian rows of the stacked rounds) wherever
    # it finds as many states as the sector can hold: it stops the stack
    newton = _count_rows(monkeypatch, solver, "_jacobian")
    complete = 0
    for L, a, b, n_seeds in _LIBRARY_SECTORS:
        chain = _chain(L).model()
        runs = []
        for model in (chain, dataclasses.replace(chain, sites=None)):
            before = newton[0]
            states = distinct_states(model, a, b, n_seeds=n_seeds,
                                     rng_seed=7)
            runs.append(([(st.roots, st.mode_numbers, st.residual)
                          for st in states], newton[0] - before))
        (stopped, n_stopped), (full, n_full) = runs
        assert stopped == full
        assert n_stopped <= n_full
        if len(stopped) == solver._sector_size(chain, a, b, Twist()):
            complete += 1
            assert n_stopped < n_full
    assert complete > 0


def test_library_sectors_within_size(state_lib):
    for L in (2, 3, 4, 5):
        entry = state_lib[L]
        for key in ("m10", "m21", "m20", "m31"):
            if key in entry:
                a, b = int(key[1]), int(key[2])
                size = solver._sector_size(entry["model"], a, b, Twist())
                assert len(entry[key]) <= size
