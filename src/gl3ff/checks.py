"""The verify and identities suites as one registry of check functions.

Every check takes ``(report, lib, rng)``.  It appends named records to the
report, reads solved states from the library that ``prepare_states`` builds
and draws its probe points from ``rng`` in a fixed order.  Each check gets a
generator of its own, seeded from the report seed and the check's name, so
one seed fixes the records of each check byte for byte, whichever checks run
before it.  ``VERIFY`` and ``IDENTITIES`` list the checks of each suite in
run order; the CLI builds its reports from them and the acceptance tests run
the same functions.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
from typing import Sequence

import numpy as np

from .errors import Gl3Error, NoConvergence, PoleError
from .model import (BetheState, ModelFunctions, RootConfig, Twist,
                    dtau_dkappa_onshell, gaudin_jacobian, gaudin_matrix,
                    mirror_model, phi_log)
from .solver import continue_in_twist, distinct_states
from . import formfactor as ff
from . import oracle as orc

DEFAULT_SEED = 7
DEFAULT_XI_RADIUS = 0.3


def pair(z: complex) -> list:
    return [float(z.real), float(z.imag)]


def state_to_json(state: BetheState) -> dict:
    return {
        "u": [pair(z) for z in state.u],
        "v": [pair(z) for z in state.v],
        "twist": [pair(k) for k in state.twist.as_tuple()],
        "mode_numbers": list(state.mode_numbers),
        "residual": float(state.residual),
    }


def seeded_inhomogeneities(L: int, rng_seed: int,
                           radius: float = DEFAULT_XI_RADIUS) -> tuple:
    """Generic pairwise-distinct site shifts drawn from a seeded disk."""
    rng = np.random.default_rng(rng_seed + 1000 * L)
    pts = radius * np.sqrt(rng.uniform(0.1, 1, L)) * np.exp(
        2j * np.pi * rng.uniform(0, 1, L))
    return tuple(complex(p) for p in pts)


# ---------------------------------------------------------------------------
# report plumbing

def _digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


class Report:
    """Ordered collection of named check records."""

    def __init__(self, title: str, rng_seed: int):
        self.title = title
        self.rng_seed = rng_seed
        self.records: list = []

    def add(self, name: str, residual: float, tolerance: float,
            inputs=None) -> None:
        self.records.append({
            "name": name,
            "inputs_digest": _digest(inputs if inputs is not None else name),
            "residual": float(residual),
            "tolerance": float(tolerance),
            "pass": bool(residual <= tolerance),
        })

    def add_error(self, name: str, exc: Exception) -> None:
        self.records.append({
            "name": name,
            "inputs_digest": _digest(name),
            "error": f"{type(exc).__name__}: {exc}",
            "pass": False,
        })

    def to_json(self) -> dict:
        return {
            "title": self.title,
            "rng_seed": self.rng_seed,
            "n_checks": len(self.records),
            "n_failures": sum(not r["pass"] for r in self.records),
            "records": self.records,
        }


@contextlib.contextmanager
def _errors_recorded_as(report: Report, name: str):
    """A ``Gl3Error`` raised in the block ends it and becomes one error
    record ``name``; the records added before it stay."""
    try:
        yield
    except Gl3Error as exc:
        report.add_error(name, exc)


# ---------------------------------------------------------------------------
# probe-point helpers

def _avoid_set(model: ModelFunctions, *states: BetheState) -> list:
    out = list(model.inhomogeneities or ())
    for st in states:
        out.extend(st.u)
        out.extend(st.v)
    return out


# ---------------------------------------------------------------------------
# state library

def vacuum(model: ModelFunctions) -> BetheState:
    return BetheState(RootConfig((), ()), Twist.identity(), (), 0.0, model)


def _pick_disjoint(states, others):
    """The state whose roots stay farthest from every root of ``others``;
    None when even that one comes closer than 0.05."""
    best, best_d = None, -1.0
    for st in states:
        pts = st.u + st.v
        d = min((abs(x - y) for x in pts
                 for o in others for y in o.u + o.v), default=1.0)
        if d > best_d:
            best, best_d = st, d
    return best if best_d >= 0.05 else None


def _partner(entry: dict, key: str) -> BetheState:
    """A partner of the first (2,0) state picked by ``prepare_states``."""
    if entry[key] is None:
        raise NoConvergence("no usable state with disjoint roots found")
    return entry[key]


# seeds of the library's (1,0) sectors; check_onshell_pipeline asks for the
# same, so that its identity-twist (1,0) solves are the library's, memoized
M10_SEEDS = 24


def prepare_states(rng_seed: int) -> dict:
    """Solve the desk-scale state library used by the verification suite.

    Beside the solved sectors ("m10", "m21", ...), the L=4 entry holds the
    (1,0) and (2,1) states ("b10", "c21") and the L=5 entry the (3,1) state
    ("c31") whose roots stay farthest from those of the first (2,0) state,
    or None where none stays clear of them.
    """
    lib: dict = {}
    for L in (2, 3, 4, 5):
        xi = seeded_inhomogeneities(L, rng_seed)
        spec = orc.SpinChainSpec(L=L, xi=xi, c=1.0)
        model = spec.model()
        entry = {"spec": spec, "model": model, "vac": vacuum(model)}
        entry["m10"] = distinct_states(model, 1, 0, n_seeds=M10_SEEDS,
                                       rng_seed=rng_seed)
        if L >= 3:
            entry["m21"] = distinct_states(model, 2, 1, rng_seed=rng_seed)
        if L >= 4:
            entry["m20"] = distinct_states(model, 2, 0, rng_seed=rng_seed)
        if L == 5:
            entry["m31"] = distinct_states(model, 3, 1, rng_seed=rng_seed)
        lib[L] = entry
    l4, l5 = lib[4], lib[5]
    l4["b10"] = _pick_disjoint(l4["m10"], l4["m20"][:1])
    l4["c21"] = _pick_disjoint(l4["m21"], l4["m20"][:1])
    l5["c31"] = _pick_disjoint(l5["m31"], l5["m20"][:1])
    return lib


def _ratio_cases(lib: dict) -> list:
    l3, l4, l5 = lib[3], lib[4], lib[5]
    vac3 = l3["vac"]
    cases = [
        ("12_L3", (1, 2), 3, l3["m10"][0], vac3),
        ("21_L3", (2, 1), 3, vac3, l3["m10"][0]),
    ]
    if l4.get("m20") and l4.get("m10"):
        b10 = _partner(l4, "b10")
        cases += [
            ("12_L4", (1, 2), 4, l4["m20"][0], b10),
            ("21_L4", (2, 1), 4, b10, l4["m20"][0]),
        ]
    if l4.get("m21") and l4.get("m20"):
        c21 = _partner(l4, "c21")
        cases += [
            ("23_L4", (2, 3), 4, c21, l4["m20"][0]),
            ("32_L4", (3, 2), 4, l4["m20"][0], c21),
        ]
    if l5.get("m31") and l5.get("m20"):
        c31 = _partner(l5, "c31")
        cases += [
            ("13_L5", (1, 3), 5, c31, l5["m20"][0]),
            ("31_L5", (3, 1), 5, l5["m20"][0], c31),
        ]
    if len(l3["m10"]) >= 2:
        cases.append(("11_L3", (1, 1), 3, l3["m10"][0], l3["m10"][1]))
    if len(l5.get("m31", ())) >= 2:
        cases += [
            ("22_L5", (2, 2), 5, l5["m31"][0], l5["m31"][1]),
            ("33_L5", (3, 3), 5, l5["m31"][1], l5["m31"][0]),
        ]
    return cases


# ---------------------------------------------------------------------------
# verification suite

def check_structural(report: Report, lib: dict,
                     rng: np.random.Generator) -> None:
    c = 1.0
    x, y, z = (complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(3))
    eye3 = np.eye(3)
    r4 = lambda a_, b_: orc.r_matrix(a_, b_, c).reshape(3, 3, 3, 3)
    r12 = np.einsum("abcd,mn->abmcdn", r4(x, y), eye3).reshape(27, 27)
    r13 = np.einsum("abcd,mn->ambcnd", r4(x, z), eye3).reshape(27, 27)
    r23 = np.einsum("abcd,mn->mabncd", r4(y, z), eye3).reshape(27, 27)
    resid = np.linalg.norm(r12 @ r13 @ r23 - r23 @ r13 @ r12)
    report.add("yang_baxter_27x27", resid, 1e-12, inputs=[pair(x), pair(y), pair(z)])

    xi = seeded_inhomogeneities(2, report.rng_seed)
    spec = orc.SpinChainSpec(L=2, xi=xi, c=c)
    w1, w2 = 0.83 + 0.41j, -0.67 + 0.29j
    blocks1 = orc.monodromy(w1, spec)
    blocks2 = orc.monodromy(w2, spec)
    dim = spec.dim
    t1 = np.zeros((3, 3, 3, 3, dim, dim), dtype=complex)
    t2 = np.zeros_like(t1)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                t1[i, k, j, k] = blocks1[i, j]
                t2[k, i, k, j] = blocks2[i, j]
    t1m = t1.transpose(0, 1, 4, 2, 3, 5).reshape(9 * dim, 9 * dim)
    t2m = t2.transpose(0, 1, 4, 2, 3, 5).reshape(9 * dim, 9 * dim)
    r12m = np.kron(orc.r_matrix(w1, w2, c), np.eye(dim))
    resid = np.linalg.norm(r12m @ t1m @ t2m - t2m @ t1m @ r12m)
    report.add("rtt_exchange_L2", resid, 1e-10, inputs=[pair(w1), pair(w2)])

    model = spec.model()
    vac = np.zeros(dim, dtype=complex)
    vac[0] = 1.0
    w = 0.37 - 0.21j
    resid = 0.0
    lam = [model.r1(w), 1.0, 1.0]
    blocks = orc.monodromy(w, spec)
    for i in range(3):
        col = blocks[i, i] @ vac
        resid = max(resid, float(np.max(np.abs(col - lam[i] * vac))) / abs(lam[i]))
    for i in range(3):
        for j in range(i):
            col = blocks[i, j] @ vac
            resid = max(resid, float(np.max(np.abs(col))))
    report.add("vacuum_eigenvalue_pattern", resid, 1e-12, inputs=pair(w))


def _twisted_tau_residual(st: BetheState, spec, rng: np.random.Generator) -> float:
    """The eigen-residual of the state's Bethe vector with its twisted
    eigenvalue (``oracle.eigen_residual``), worst over five probe points."""
    pts = orc.probe_points(rng, 5, _avoid_set(st.model, st), st.model.c)
    return max(orc.eigen_residual(st, spec, w) for w in pts)


def check_onshell_pipeline(report: Report, lib: dict,
                           rng: np.random.Generator) -> None:
    tw_gen = Twist(0.9 + 0.1j, 1.0, 1.2 - 0.2j)
    # (L, a, b, twist, seeds): the identity-twist sectors with the seeds of
    # the library's solves (48 is the default of distinct_states)
    cases = []
    for L in (2, 3):
        cases.append((L, 1, 0, Twist.identity(), M10_SEEDS))
        # untwisted (1,1) has no finite roots
        cases.append((L, 1, 1, tw_gen, 48))
    cases.append((3, 2, 1, Twist.identity(), 48))
    for (L, a, b, twist, n_seeds) in cases:
        spec, model = lib[L]["spec"], lib[L]["model"]
        name = f"solve_L{L}_a{a}b{b}" + ("_twisted" if not twist.is_identity() else "")
        with _errors_recorded_as(report, name):
            states = distinct_states(model, a, b, twist=twist,
                                     n_seeds=n_seeds,
                                     rng_seed=report.rng_seed)
            if not states:
                raise NoConvergence(f"no states found in sector ({a},{b})")
            st = states[0]
            report.add(name + "_residual", st.residual, 1e-12,
                       inputs=state_to_json(st))
            report.add(name + "_tau_eigenvalue", _twisted_tau_residual(st, spec, rng),
                       1e-8, inputs=state_to_json(st))


def _oracle_residual(kind: tuple, left: BetheState, right: BetheState,
                     z: complex, vl: np.ndarray, vr: np.ndarray, spec) -> float:
    """|form_factor - C @ T(i,j)(z) @ B| / (|C| |T(i,j)(z) @ B|) for the
    left state's dual Bethe vector C = ``vl`` and the right state's Bethe
    vector B = ``vr``; where T(i,j)(z) @ B is exactly zero, the element's
    own modulus."""
    i, j = kind
    col = orc.apply_monodromy(z, spec, vr)[i - 1, j - 1]
    resid = abs(ff.form_factor(kind, left, right, z) - complex(vl @ col))
    scale = np.linalg.norm(vl) * np.linalg.norm(col)
    return float(resid / scale) if scale else float(resid)


def check_offdiagonal(report: Report, lib: dict,
                      rng: np.random.Generator) -> None:
    for (tag, kind, L, left, right) in _ratio_cases(lib):
        spec, model = lib[L]["spec"], lib[L]["model"]
        name = f"oracle_element_{tag}"
        with _errors_recorded_as(report, name):
            pts = orc.probe_points(rng, 5, _avoid_set(model, left, right),
                                   model.c)
            vl = orc.eigenvector_for_state(left, "left", spec)
            vr = orc.eigenvector_for_state(right, "right", spec)
            worst = max(_oracle_residual(kind, left, right, z, vl, vr, spec)
                        for z in pts)
            report.add(name, worst, 1e-10,
                       inputs=[state_to_json(left), state_to_json(right)])


def check_norms(report: Report, lib: dict, rng: np.random.Generator) -> None:
    """``norm_squared`` against C @ B, relative, worst over the states
    with roots among the oracle-element cases."""
    with _errors_recorded_as(report, "oracle_norms"):
        states = {id(st): (st, lib[L]["spec"])
                  for (_, _, L, left, right) in _ratio_cases(lib)
                  for st in (left, right) if st.a}
        worst = 0.0
        for st, spec in states.values():
            ns = ff.norm_squared(st)
            cb = complex(orc.eigenvector_for_state(st, "left", spec)
                         @ orc.eigenvector_for_state(st, "right", spec))
            worst = max(worst, abs(ns - cb) / abs(ns))
        report.add("oracle_norms", worst, 1e-10,
                   inputs=[state_to_json(st) for st, _ in states.values()])


def _diag_identity_block(report: Report, tag: str, left: BetheState,
                         right: BetheState, model: ModelFunctions,
                         z: complex, s_values: Sequence[int]) -> None:
    """Sum rule and cofactor identity for one distinct pair, on the values
    and matrices of the elements themselves."""
    elements = [ff.determinant_element((s, s), left, right, z)
                for s in (1, 2, 3)]
    vals = [value for value, _, _ in elements]
    scale = max(abs(v) for v in vals)
    report.add(f"diag_sum_rule_{tag}", abs(sum(vals)) / scale, 1e-10,
               inputs=[state_to_json(left), state_to_json(right), pair(z)])
    asm = ff.assemble(left, right, z)
    nrows = asm.n_rows
    omega = ff.omega_vector(left.u, left.v, right.u, right.v, model.c)
    s_z = ff.s_function(z, omega, asm)
    worst = 0.0
    for s in s_values:
        mat = elements[s - 1][1]
        full = ff.det_lu(mat)
        minor = np.delete(np.delete(mat, nrows - 1, axis=0), nrows, axis=1)
        rhs = s_z / omega[nrows - 1] * (-ff.det_lu(minor))
        worst = max(worst, abs(full - rhs) / max(abs(full), 1e-300))
    report.add(f"diag_cofactor_{tag}", worst, 1e-10,
               inputs=[state_to_json(left), state_to_json(right), pair(z)])


def check_diagonal(report: Report, lib: dict, rng: np.random.Generator) -> None:
    l3, l5 = lib[3], lib[5]
    model3 = l3["model"]
    with _errors_recorded_as(report, "diag_distinct_L3"):
        a, b = l3["m10"][0], l3["m10"][1]
        z = orc.probe_points(rng, 1, _avoid_set(model3, a, b), model3.c)[0]
        # third colour decouples at b=0: that entry is zero between distinct
        # states, so the cofactor check uses s = 1, 2 there
        _diag_identity_block(report, "L3_b0", a, b, model3, z, (1, 2))
    with _errors_recorded_as(report, "diag_distinct_L5"):
        if len(l5.get("m31", ())) < 2:
            raise NoConvergence("need two (3,1) states for the b=1 pair")
        a, b = l5["m31"][0], l5["m31"][1]
        model5 = l5["model"]
        z = orc.probe_points(rng, 1, _avoid_set(model5, a, b), model5.c)[0]
        _diag_identity_block(report, "L5_b1", a, b, model5, z, (1, 2, 3))
    # same state: normalized diagonal elements = twist derivative of the
    # eigenvalue (root motion included), and the oracle face of it
    with _errors_recorded_as(report, "diag_same_state"):
        st = l3["m21"][0]
        spec, model = l3["spec"], l3["model"]
        z = orc.probe_points(rng, 1, _avoid_set(model, st), model.c)[0]
        ns = ff.norm_squared(st)
        lhs = [ff.ff_diag(s, st, st, z) / ns for s in (1, 2, 3)]
        worst = 0.0
        for s in (1, 2, 3):
            rhs = dtau_dkappa_onshell(s, z, st.roots, model)
            worst = max(worst, abs(lhs[s - 1] - rhs) / abs(rhs))
        report.add("diag_same_state_twist_derivative", worst, 1e-10,
                   inputs=[state_to_json(st), pair(z)])
        vl = orc.eigenvector_for_state(st, "left", spec)
        vr = orc.eigenvector_for_state(st, "right", spec)
        worst = max(_oracle_residual((s, s), st, st, z, vl, vr, spec)
                    for s in (1, 2, 3))
        report.add("diag_same_state_oracle", worst, 1e-10,
                   inputs=[state_to_json(st), pair(z)])


def check_sfunction_and_forms(report: Report, lib: dict,
                              rng: np.random.Generator) -> None:
    with _errors_recorded_as(report, "s_function_suite"):
        l5 = lib[5]
        model = l5["model"]
        a, b = l5["m31"][0], l5["m31"][1]
        z = orc.probe_points(rng, 1, _avoid_set(model, a, b), model.c)[0]
        asm = ff.assemble(a, b, z)
        omega = ff.omega_vector(a.u, a.v, b.u, b.v, model.c)
        worst = max(abs(ff.s_function(pt, omega, asm)) for pt in b.u + a.v)
        report.add("s_function_vanishing", worst, 1e-10,
                   inputs=[state_to_json(a), state_to_json(b)])
        pts = orc.probe_points(rng, 20, _avoid_set(model, a, b), model.c)
        worst = 0.0
        for x in pts:
            lhs = ff.s_function(x, omega, asm)
            rhs = ff.s_function_reference(x, a, b)
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
        report.add("s_function_closed_form", worst, 1e-10, inputs=pair(pts[0]))
        # explicit entries against the eigenvalue-derivative form; left
        # v-columns excluded (structurally 0 * inf in the derivative form)
        probes = list(b.u) + [z] + pts[:3]
        worst = 0.0
        for x in probes:
            at_right_u = any(abs(x - ub) < 1e-6 for ub in b.u)
            for r, e1 in enumerate(ff.n_column(asm, x)):
                if r >= len(asm.u_left) and at_right_u:
                    continue
                e2 = ff.n_entry_tau_form(asm, r, x)
                worst = max(worst, abs(e1 - e2) / max(abs(e1), 1e-30))
        report.add("n_matrix_two_forms", worst, 1e-10, inputs=pair(z))


def gaudin_records(report: Report, st: BetheState) -> None:
    """Symmetry of the Gaudin matrix of ``st`` and its agreement with central
    finite differences of the logarithmic Bethe system."""
    model = st.model
    m = gaudin_matrix(st.roots, model)
    sym = float(np.max(np.abs(m - m.T))) / max(1.0, float(np.max(np.abs(m))))
    report.add("gaudin_symmetric", sym, 1e-14, inputs=state_to_json(st))
    a, b = st.a, st.b
    eps = 1e-7
    x0 = st.roots.as_array()
    jac_fd = np.zeros((a + b, a + b), dtype=complex)
    for k in range(a + b):
        xp = x0.copy()
        xm = x0.copy()
        xp[k] += eps
        xm[k] -= eps
        fp = phi_log(RootConfig(tuple(xp[:a]), tuple(xp[a:])), model)
        fm = phi_log(RootConfig(tuple(xm[:a]), tuple(xm[a:])), model)
        jac_fd[:, k] = (fp - fm) / (2 * eps)
    jac = gaudin_jacobian(st.roots, model)
    resid = float(np.max(np.abs(jac_fd - jac))) / float(np.max(np.abs(jac)))
    report.add("gaudin_vs_fd_jacobian", resid, 1e-6, inputs=state_to_json(st))


def check_gaudin(report: Report, lib: dict, rng: np.random.Generator) -> None:
    gaudin_records(report, lib[3]["m21"][0])


def check_twist_machinery(report: Report, lib: dict,
                          rng: np.random.Generator) -> None:
    spec, model = lib[2]["spec"], lib[2]["model"]
    tw = Twist(0.9 + 0.1j, 1.0, 1.2 - 0.2j)
    name = "twisted_tau_eigenvalue"
    with _errors_recorded_as(report, name):
        states = distinct_states(model, 1, 1, twist=tw,
                                 rng_seed=report.rng_seed)
        if not states:
            raise NoConvergence("no twisted (1,1) state found")
        st = states[0]
        report.add(name, _twisted_tau_residual(st, spec, rng), 1e-8,
                   inputs=state_to_json(st))
    name = "twist_continuation_roundtrip"
    with _errors_recorded_as(report, name):
        st = lib[3]["m10"][0]
        target = Twist(1.15 - 0.05j, 1.0, 0.85 + 0.1j)
        there = continue_in_twist(st, target, steps=6)
        back = continue_in_twist(there, Twist.identity(), steps=6)
        resid = float(np.max(np.abs(back.roots.as_array() - st.roots.as_array())))
        report.add(name, resid, 1e-8, inputs=state_to_json(st))


def check_orthogonality(report: Report, lib: dict,
                        rng: np.random.Generator) -> None:
    with _errors_recorded_as(report, "eigenstate_orthogonality"):
        spec = lib[3]["spec"]
        a, b = lib[3]["m10"][0], lib[3]["m10"][1]
        vl = orc.eigenvector_for_state(a, "left", spec)
        vr = orc.eigenvector_for_state(b, "right", spec)
        overlap = (abs(complex(vl @ vr))
                   / (np.linalg.norm(vl) * np.linalg.norm(vr)))
        report.add("eigenstate_orthogonality", overlap, 1e-9,
                   inputs=[state_to_json(a), state_to_json(b)])


# ---------------------------------------------------------------------------
# identities suite

def _random_sets(rng: np.random.Generator, sizes):
    out = []
    for n in sizes:
        out.append(tuple(complex(rng.uniform(-1.8, 1.8), rng.uniform(-1.8, 1.8))
                         for _ in range(n)))
    return out


def check_appendix(report: Report, lib: dict, rng: np.random.Generator) -> None:
    worst = 0.0
    c = 1.0
    for _ in range(50):
        a = int(rng.integers(1, 4))
        b = int(rng.integers(1, 4))
        ul, ur, vl, vr = _random_sets(rng, (a, a, b, b))
        z = complex(rng.uniform(-1.8, 1.8), rng.uniform(-1.8, 1.8))
        try:
            res = ff.appendix_identities(ul, ur, vl, vr, z, c)
        except PoleError:
            continue
        worst = max(worst, max(v[2] for v in res.values()))
    report.add("appendix_sum_identities_50_draws", worst, 1e-12)


def _mirrored(st: BetheState, mm: ModelFunctions) -> BetheState:
    """``st`` under the reflection map, as a state of the mirror model."""
    roots = RootConfig(tuple(-x for x in st.v), tuple(-x for x in st.u))
    return BetheState(roots, Twist.identity(), st.mode_numbers, st.residual, mm)


def _scaled_element(kind: tuple, left: BetheState, right: BetheState,
                    z: complex) -> tuple:
    """The element ``kind`` and its scale |prefactor| times Hadamard's bound
    prod_k |column k| on its matrix, on the assembly the element uses (the
    states exchanged for the (2,3), (2,1) and (3,1) entries); unlike the
    value, the scale does not vanish at an exact zero of the element."""
    value, mat, _ = ff.determinant_element(kind, left, right, z)
    if kind in ((2, 3), (2, 1), (3, 1)):
        left, right = right, left
    pref = ff.prefactor_H(left.u, left.v, right.u, right.v,
                          right.u + left.v + (complex(z),), left.model.c)
    return value, abs(pref) * float(np.prod(np.linalg.norm(mat, axis=0)))


def check_morphisms(report: Report, lib: dict, rng: np.random.Generator) -> None:
    with _errors_recorded_as(report, "morphisms"):
        cases = _ratio_cases(lib)
        worst_psi = 0.0
        for (tag, kind, L, left, right) in cases:
            model = lib[L]["model"]
            i, j = kind
            z = orc.probe_points(rng, 1, _avoid_set(model, left, right), model.c)[0]
            v1 = ff.form_factor(kind, left, right, z)
            v2 = ff.form_factor((j, i), right, left, z)
            worst_psi = max(worst_psi, abs(v1 - v2) / max(abs(v1), 1e-30))
        report.add("transposition_consistency", worst_psi, 1e-10)

        worst_phi = 0.0
        for (tag, kind, L, left, right) in cases:
            model = lib[L]["model"]
            mm = mirror_model(model)
            i, j = kind
            z = orc.probe_points(rng, 1, _avoid_set(model, left, right), model.c)[0]
            lhs, scale = _scaled_element(kind, left, right, z)
            rhs = ff.form_factor((4 - j, 4 - i), _mirrored(left, mm),
                                 _mirrored(right, mm), -z)
            worst_phi = max(worst_phi, abs(lhs - rhs) / scale)
        # diagonal entries under the reflection map
        st = lib[3]["m21"][0]
        model = lib[3]["model"]
        st_m = _mirrored(st, mirror_model(model))
        z = orc.probe_points(rng, 1, _avoid_set(model, st), model.c)[0]
        for s in (1, 2, 3):
            lhs, scale = _scaled_element((s, s), st, st, z)
            rhs = ff.ff_diag(4 - s, st_m, st_m, -z)
            worst_phi = max(worst_phi, abs(lhs - rhs) / scale)
        report.add("reflection_consistency", worst_phi, 1e-10)


def _shuffled(st: BetheState, perm_u, perm_v) -> BetheState:
    roots = RootConfig(tuple(st.u[i] for i in perm_u),
                       tuple(st.v[i] for i in perm_v))
    return BetheState(roots, st.twist, st.mode_numbers, st.residual, st.model)


def shuffle_residual(kinds, a: BetheState, b: BetheState, z: complex) -> float:
    """Worst change of the entries ``kinds`` between the (3,1) states ``a``
    and ``b`` when their u-roots are listed in other orders, on the scale
    of ``_scaled_element``."""
    worst = 0.0
    base = {kind: _scaled_element(kind, a, b, z) for kind in kinds}
    for perm_u in ((1, 0, 2), (2, 1, 0), (1, 2, 0)):
        ap = _shuffled(a, perm_u, (0,))
        bp = _shuffled(b, (2, 0, 1), (0,))
        for kind, (ref, scale) in base.items():
            val = ff.form_factor(kind, ap, bp, z)
            worst = max(worst, abs(val - ref) / scale)
    return worst


def check_permutation(report: Report, lib: dict, rng: np.random.Generator) -> None:
    with _errors_recorded_as(report, "permutation_invariance"):
        l5 = lib[5]
        a, b = l5["m31"][0], l5["m31"][1]
        model = l5["model"]
        z = orc.probe_points(rng, 1, _avoid_set(model, a, b), model.c)[0]
        worst = shuffle_residual(((2, 2), (1, 1)), a, b, z)
        c31 = _partner(l5, "c31")
        ref13, scale = _scaled_element((1, 3), c31, l5["m20"][0], z)
        cp = _shuffled(c31, (2, 0, 1), (0,))
        bp = _shuffled(l5["m20"][0], (1, 0), ())
        got = ff.form_factor((1, 3), cp, bp, z)
        worst = max(worst, abs(got - ref13) / scale)
        report.add("permutation_invariance", worst, 1e-10)


def check_gl2_reduction(report: Report, lib: dict,
                        rng: np.random.Generator) -> None:
    with _errors_recorded_as(report, "rank1_reduction"):
        l4 = lib[4]
        model = l4["model"]
        c20 = l4["m20"][0]
        b10 = _partner(l4, "b10")
        z = orc.probe_points(rng, 1, _avoid_set(model, c20, b10), model.c)[0]
        worst = 0.0
        for kind, left, right in (((1, 2), c20, b10), ((2, 1), b10, c20)):
            v = ff.form_factor(kind, left, right, z)
            ref = ff.gl2_ff(kind, left.u, right.u, z, model)
            worst = max(worst, abs(ref - v) / abs(v))
        s_a, s_b = lib[3]["m10"][0], lib[3]["m10"][1]
        model3 = lib[3]["model"]
        z3 = orc.probe_points(rng, 1, _avoid_set(model3, s_a, s_b), model3.c)[0]
        for s in (1, 2):
            v = ff.ff_diag(s, s_a, s_b, z3)
            ref = ff.gl2_ff((s, s), s_a.u, s_b.u, z3, model3)
            worst = max(worst, abs(ref - v) / abs(v))
        report.add("rank1_reduction", worst, 1e-12)


# ---------------------------------------------------------------------------
# the registry

VERIFY = (check_structural, check_onshell_pipeline, check_offdiagonal,
          check_norms, check_diagonal, check_sfunction_and_forms,
          check_gaudin, check_twist_machinery, check_orthogonality)
IDENTITIES = (check_appendix, check_morphisms, check_permutation,
              check_gl2_reduction)


def _run_check(check, report: Report, lib: dict) -> None:
    """Run ``check`` on a generator seeded from the report seed and the
    check's name: the checks that run before it, or their order, leave its
    draws unchanged."""
    check(report, lib,
          np.random.default_rng([report.rng_seed, *check.__name__.encode()]))


def build_report(title: str, checks, rng_seed: int) -> Report:
    """Run ``checks`` in order on one state library, each on its own rng
    stream."""
    report = Report(title, rng_seed)
    lib = prepare_states(rng_seed)
    for check in checks:
        _run_check(check, report, lib)
    return report


def build_verify_report(rng_seed: int = DEFAULT_SEED) -> Report:
    """Run every oracle-vs-determinant check; deterministic in the seed."""
    return build_report("verification", VERIFY, rng_seed)


def build_identities_report(rng_seed: int = DEFAULT_SEED) -> Report:
    """Random-input and state-pair identity checks; deterministic in the seed."""
    return build_report("identities", IDENTITIES, rng_seed)
