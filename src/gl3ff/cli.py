"""Command-line surface: solve Bethe systems, tabulate matrix elements over a
probe grid, run the verification and identity suites, and evaluate the
local-operator ratio formula.

Configs and reports are JSON; tables are CSV or JSON.  Complex numbers are
serialized as [re, im] pairs.  A fixed rng seed makes every output
byte-reproducible.

Exit codes: 0 pass, 1 check failure, 2 numerical failure, 3 config error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import sys
from typing import Optional, Sequence

import numpy as np

from .errors import (ConfigError, Gl3Error, NoConvergence, NonFiniteResult,
                     PoleError, SectorMismatch, ZeroTau)
from .kernel import pole_tol
from .model import (BetheState, ModelFunctions, RootConfig, Twist,
                    bethe_defect, dtau_dkappa_onshell, gaudin_matrix,
                    mirror_model, phi_log, tau, tau_twisted, xxx_chain)
from .solver import (SolveRequest, continue_in_twist, distinct_states,
                     solve_bethe, states_equal)
from . import formfactor as ff
from . import oracle as orc

DEFAULT_SEED = 7
DEFAULT_XI_RADIUS = 0.3


# ---------------------------------------------------------------------------
# config handling

def _as_complex(node, what: str) -> complex:
    if isinstance(node, (int, float)):
        return complex(node)
    if (isinstance(node, (list, tuple)) and len(node) == 2
            and all(isinstance(x, (int, float)) for x in node)):
        return complex(node[0], node[1])
    raise ConfigError(f"{what}: expected a number or [re, im] pair, got {node!r}")


def _as_complex_list(node, what: str) -> tuple:
    if not isinstance(node, list):
        raise ConfigError(f"{what}: expected a list")
    return tuple(_as_complex(x, what) for x in node)


def pair(z: complex) -> list:
    return [float(z.real), float(z.imag)]


def seeded_inhomogeneities(L: int, rng_seed: int,
                           radius: float = DEFAULT_XI_RADIUS) -> tuple:
    """Generic pairwise-distinct site shifts drawn from a seeded disk."""
    rng = np.random.default_rng(rng_seed + 1000 * L)
    pts = radius * np.sqrt(rng.uniform(0.1, 1, L)) * np.exp(
        2j * np.pi * rng.uniform(0, 1, L))
    return tuple(complex(p) for p in pts)


def model_from_config(cfg: dict, rng_seed: int) -> tuple:
    """Returns (ModelFunctions, SpinChainSpec-or-None)."""
    node = cfg.get("model")
    if not isinstance(node, dict):
        raise ConfigError("config needs a 'model' object")
    if "L" not in node:
        raise ConfigError("model.L is required")
    try:
        L = int(node["L"])
    except (TypeError, ValueError):
        raise ConfigError(f"model.L must be an integer, got {node['L']!r}")
    c = _as_complex(node.get("c", 1.0), "model.c")
    xi_node = node.get("xi", "seeded")
    if xi_node == "homogeneous":
        xi = (0j,) * L
    elif xi_node == "seeded":
        xi = seeded_inhomogeneities(L, rng_seed,
                                    float(node.get("xi_radius", DEFAULT_XI_RADIUS)))
    else:
        xi = _as_complex_list(xi_node, "model.xi")
        if len(xi) != L:
            raise ConfigError(f"model.xi must have L={L} entries, got {len(xi)}")
    model = xxx_chain(L, xi, c)
    spec = None
    if 1 <= L <= orc.MAX_SITES:
        spec = orc.SpinChainSpec(L=L, xi=xi, c=c)
    return model, spec


def twist_from_config(node) -> Twist:
    if node is None:
        return Twist.identity()
    if not (isinstance(node, list) and len(node) == 3):
        raise ConfigError("sector.twist must be a list of three complex pairs")
    k1, k2, k3 = (_as_complex(x, "sector.twist") for x in node)
    return Twist(k1, k2, k3)


def roots_from_node(node, what: str) -> RootConfig:
    if not isinstance(node, dict) or "u" not in node or "v" not in node:
        raise ConfigError(f"{what}: expected an object with 'u' and 'v' lists")
    return RootConfig(u=_as_complex_list(node["u"], what),
                      v=_as_complex_list(node["v"], what))


def load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def state_to_json(state: BetheState) -> dict:
    return {
        "u": [pair(z) for z in state.u],
        "v": [pair(z) for z in state.v],
        "twist": [pair(k) for k in state.twist.as_tuple()],
        "mode_numbers": list(state.mode_numbers),
        "residual": float(state.residual),
    }


def state_from_json(node: dict, model: ModelFunctions, tol: float) -> BetheState:
    roots = roots_from_node(node, "state")
    twist = twist_from_config(node.get("twist"))
    defect = bethe_defect(roots, twist, model)
    residual = float(np.max(np.abs(defect))) if defect.size else 0.0
    if residual > tol:
        raise ConfigError(
            f"roots are not on shell for this model (defect {residual:.3e})")
    modes = tuple(int(n) for n in node.get("mode_numbers", [0] * (roots.a + roots.b)))
    return BetheState(roots, twist, modes, residual, model)


def _digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


# ---------------------------------------------------------------------------
# report plumbing

class Report:
    """Ordered collection of named check records."""

    def __init__(self, title: str, rng_seed: int):
        self.title = title
        self.rng_seed = rng_seed
        self.records: list = []

    def add(self, name: str, residual: float, tolerance: float,
            inputs=None, values=None) -> bool:
        ok = bool(residual <= tolerance)
        rec = {
            "name": name,
            "inputs_digest": _digest(inputs if inputs is not None else name),
            "residual": float(residual),
            "tolerance": float(tolerance),
            "pass": ok,
        }
        if values is not None:
            rec["values"] = values
        self.records.append(rec)
        return ok

    def add_error(self, name: str, exc: Exception) -> None:
        self.records.append({
            "name": name,
            "inputs_digest": _digest(name),
            "error": f"{type(exc).__name__}: {exc}",
            "pass": False,
        })

    @property
    def all_pass(self) -> bool:
        return all(r["pass"] for r in self.records)

    def to_json(self) -> dict:
        return {
            "title": self.title,
            "rng_seed": self.rng_seed,
            "n_checks": len(self.records),
            "n_failures": sum(not r["pass"] for r in self.records),
            "records": self.records,
        }


def _write_output(payload, path: Optional[str], fmt: str) -> None:
    if fmt == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        text = payload  # callers pass pre-rendered CSV text
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# probe-point helpers

def _probe_points(rng: np.random.Generator, n: int, avoid: Sequence[complex],
                  c: complex, radius: float = 1.6) -> list:
    pts = []
    guard = 0
    while len(pts) < n and guard < 500:
        guard += 1
        w = complex(rng.uniform(-radius, radius), rng.uniform(-radius, radius))
        clear = all(min(abs(w - p), abs(w - p + c), abs(w - p - c)) > 0.15
                    for p in avoid)
        if clear:
            pts.append(w)
    if len(pts) < n:
        raise NoConvergence("could not draw enough probe points")
    return pts


def _avoid_set(model: ModelFunctions, *states: BetheState) -> list:
    out = list(model.inhomogeneities or ())
    for st in states:
        out.extend(st.u)
        out.extend(st.v)
    return out


# ---------------------------------------------------------------------------
# state preparation for the suites

def _vacuum(model: ModelFunctions) -> BetheState:
    return BetheState(RootConfig((), ()), Twist.identity(), (), 0.0, model)


def _pick_disjoint(states, others, c, min_dist=0.05):
    """First state whose roots stay clear of every root of ``others``."""
    best, best_d = None, -1.0
    for st in states:
        pts = st.u + st.v
        d = min((abs(x - y) for x in pts
                 for o in others for y in o.u + o.v), default=1.0)
        if d > best_d:
            best, best_d = st, d
    if best is None or best_d < min_dist:
        raise NoConvergence("no usable state with disjoint roots found")
    return best


def prepare_states(rng_seed: int, tol: float = 1e-12) -> dict:
    """Solve the desk-scale state library used by the verification suite."""
    lib: dict = {}
    for L in (2, 3, 4, 5):
        xi = seeded_inhomogeneities(L, rng_seed)
        spec = orc.SpinChainSpec(L=L, xi=xi, c=1.0)
        model = spec.model()
        entry = {"spec": spec, "model": model, "vac": _vacuum(model)}
        entry["m10"] = distinct_states(model, 1, 0, n_seeds=24, tol=tol,
                                       rng_seed=rng_seed)
        if L >= 3:
            entry["m21"] = distinct_states(model, 2, 1, n_seeds=48, tol=tol,
                                           rng_seed=rng_seed)
        if L >= 4:
            entry["m20"] = distinct_states(model, 2, 0, n_seeds=48, tol=tol,
                                           rng_seed=rng_seed)
        if L == 5:
            entry["m31"] = distinct_states(model, 3, 1, n_seeds=48, tol=tol,
                                           rng_seed=rng_seed)
        lib[L] = entry
    return lib


# ---------------------------------------------------------------------------
# verification suite

def _check_structural(report: Report, rng: np.random.Generator) -> None:
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
    for i in range(3):
        col = orc.monodromy_entry(i + 1, i + 1, w, spec) @ vac
        resid = max(resid, float(np.max(np.abs(col - lam[i] * vac))) / abs(lam[i]))
    for i in range(1, 4):
        for j in range(1, 4):
            if i > j:
                col = orc.monodromy_entry(i, j, w, spec) @ vac
                resid = max(resid, float(np.max(np.abs(col))))
    report.add("vacuum_eigenvalue_pattern", resid, 1e-12, inputs=pair(w))


def _check_onshell_pipeline(report: Report, lib: dict,
                            rng: np.random.Generator) -> None:
    tw_gen = Twist(0.9 + 0.1j, 1.0, 1.2 - 0.2j)
    cases = []
    for L in (2, 3):
        cases.append((L, 1, 0, Twist.identity()))
        cases.append((L, 1, 1, tw_gen))  # untwisted (1,1) has no finite roots
    cases.append((3, 2, 1, Twist.identity()))
    for (L, a, b, twist) in cases:
        spec, model = lib[L]["spec"], lib[L]["model"]
        name = f"solve_L{L}_a{a}b{b}" + ("_twisted" if not twist.is_identity() else "")
        try:
            states = distinct_states(model, a, b, twist=twist, n_seeds=48,
                                     rng_seed=report.rng_seed)
            if not states:
                raise NoConvergence(f"no states found in sector ({a},{b})")
            st = states[0]
            report.add(name + "_residual", st.residual, 1e-12,
                       inputs=state_to_json(st))
            idx = orc.state_sector(spec, a, b)
            worst = 0.0
            for w in _probe_points(rng, 5, _avoid_set(model, st), model.c):
                mat = orc.transfer_matrix(w, spec, twist, idx)
                eigs = np.linalg.eigvals(mat)
                tv = tau_twisted(w, st.roots, twist, model)
                worst = max(worst, float(np.min(np.abs(eigs - tv)) /
                                         max(1.0, abs(tv))))
            report.add(name + "_tau_eigenvalue", worst, 1e-8,
                       inputs=state_to_json(st))
        except Gl3Error as exc:
            report.add_error(name, exc)


def _ratio_cases(lib: dict) -> list:
    c = 1.0
    l3, l4, l5 = lib[3], lib[4], lib[5]
    vac3 = l3["vac"]
    cases = [
        ("12_L3", (1, 2), 3, l3["m10"][0], vac3),
        ("21_L3", (2, 1), 3, vac3, l3["m10"][0]),
    ]
    if l4.get("m20") and l4.get("m10"):
        b10 = _pick_disjoint(l4["m10"], [l4["m20"][0]], c)
        cases += [
            ("12_L4", (1, 2), 4, l4["m20"][0], b10),
            ("21_L4", (2, 1), 4, b10, l4["m20"][0]),
        ]
    if l4.get("m21") and l4.get("m20"):
        c21 = _pick_disjoint(l4["m21"], [l4["m20"][0]], c)
        cases += [
            ("23_L4", (2, 3), 4, c21, l4["m20"][0]),
            ("32_L4", (3, 2), 4, l4["m20"][0], c21),
        ]
    if l5.get("m31") and l5.get("m20"):
        c31 = _pick_disjoint(l5["m31"], [l5["m20"][0]], c)
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


def _check_offdiagonal(report: Report, lib: dict,
                       rng: np.random.Generator) -> None:
    for (tag, kind, L, left, right) in _ratio_cases(lib):
        spec, model = lib[L]["spec"], lib[L]["model"]
        name = f"invariant_ratio_{tag}"
        try:
            avoid = _avoid_set(model, left, right)
            pts = _probe_points(rng, 10, avoid, model.c)
            worst = 0.0
            for (z1, z2) in zip(pts[:5], pts[5:]):
                det_r = (ff.form_factor(kind, left, right, z1)
                         / ff.form_factor(kind, left, right, z2))
                orc_r = orc.invariant_ratio(kind, z1, z2, left, right, spec, rng)
                worst = max(worst, abs(det_r - orc_r) / abs(orc_r))
            report.add(name, worst, 1e-8,
                       inputs=[state_to_json(left), state_to_json(right)])
        except Gl3Error as exc:
            report.add_error(name, exc)


def _check_products(report: Report, lib: dict, rng: np.random.Generator) -> None:
    c = 1.0
    l4, l5 = lib[4], lib[5]
    cases = []
    if l4.get("m20") and l4.get("m10"):
        b10 = _pick_disjoint(l4["m10"], [l4["m20"][0]], c)
        cases.append(("12_L4", (1, 2), 4, l4["m20"][0], b10))
    if l4.get("m21") and l4.get("m20"):
        c21 = _pick_disjoint(l4["m21"], [l4["m20"][0]], c)
        cases.append(("23_L4", (2, 3), 4, c21, l4["m20"][0]))
    if l5.get("m31") and l5.get("m20"):
        c31 = _pick_disjoint(l5["m31"], [l5["m20"][0]], c)
        cases.append(("13_L5", (1, 3), 5, c31, l5["m20"][0]))
    for (tag, kind, L, left, right) in cases:
        spec, model = lib[L]["spec"], lib[L]["model"]
        name = f"invariant_product_{tag}"
        i, j = kind
        try:
            avoid = _avoid_set(model, left, right)
            z1, z2 = _probe_points(rng, 2, avoid, model.c)
            det_p = (ff.form_factor(kind, left, right, z1)
                     * ff.form_factor((j, i), right, left, z2)
                     / (ff.norm_squared(left) * ff.norm_squared(right)))
            orc_p = orc.invariant_product(kind, z1, z2, left, right, spec, rng)
            resid = abs(det_p - orc_p) / abs(orc_p)
            report.add(name, resid, 1e-8,
                       inputs=[state_to_json(left), state_to_json(right)])
        except Gl3Error as exc:
            report.add_error(name, exc)


def _diag_identity_block(report: Report, tag: str, left: BetheState,
                         right: BetheState, model: ModelFunctions,
                         z: complex, s_values: Sequence[int]) -> None:
    """Sum rule and cofactor identity for one distinct pair."""
    vals = [ff.ff_diag(s, left, right, z) for s in (1, 2, 3)]
    scale = max(abs(v) for v in vals)
    report.add(f"diag_sum_rule_{tag}", abs(sum(vals)) / scale, 1e-10,
               inputs=[state_to_json(left), state_to_json(right), pair(z)])
    asm = ff.assemble(left, right, z)
    nrows = asm.n_rows
    omega = ff.omega_vector(left.u, left.v, right.u, right.v, model.c)
    s_z = ff.s_function(z, omega, asm)
    worst = 0.0
    for s in s_values:
        mat = np.vstack([ff.n_matrix(asm),
                         ff.y_row_diag(asm, s, same_state=False)])
        full = ff.det_lu(mat)
        minor = np.delete(np.delete(mat, nrows - 1, axis=0), nrows, axis=1)
        rhs = s_z / omega[nrows - 1] * (-ff.det_lu(minor))
        worst = max(worst, abs(full - rhs) / max(abs(full), 1e-300))
    report.add(f"diag_cofactor_{tag}", worst, 1e-10,
               inputs=[state_to_json(left), state_to_json(right), pair(z)])


def _check_diagonal(report: Report, lib: dict, rng: np.random.Generator) -> None:
    l3, l5 = lib[3], lib[5]
    model3 = l3["model"]
    try:
        a, b = l3["m10"][0], l3["m10"][1]
        z = _probe_points(rng, 1, _avoid_set(model3, a, b), model3.c)[0]
        # third colour decouples at b=0: that entry is zero between distinct
        # states, so the cofactor check uses s = 1, 2 there
        _diag_identity_block(report, "L3_b0", a, b, model3, z, (1, 2))
    except Gl3Error as exc:
        report.add_error("diag_distinct_L3", exc)
    try:
        if len(l5.get("m31", ())) >= 2:
            a, b = l5["m31"][0], l5["m31"][1]
            model5 = l5["model"]
            z = _probe_points(rng, 1, _avoid_set(model5, a, b), model5.c)[0]
            _diag_identity_block(report, "L5_b1", a, b, model5, z, (1, 2, 3))
        else:
            raise NoConvergence("need two (3,1) states for the b=1 pair")
    except Gl3Error as exc:
        report.add_error("diag_distinct_L5", exc)
    # same state: normalized diagonal elements = twist derivative of the
    # eigenvalue (root motion included), and the oracle face of it
    try:
        st = l3["m21"][0]
        spec, model = l3["spec"], l3["model"]
        z = _probe_points(rng, 1, _avoid_set(model, st), model.c)[0]
        ns = ff.norm_squared(st)
        worst = 0.0
        for s in (1, 2, 3):
            lhs = ff.ff_diag(s, st, st, z) / ns
            rhs = dtau_dkappa_onshell(s, z, st.roots, model)
            worst = max(worst, abs(lhs - rhs) / abs(rhs))
        report.add("diag_same_state_twist_derivative", worst, 1e-10,
                   inputs=[state_to_json(st), pair(z)])
        vl = orc.eigenvector_for_state(st, "left", spec, rng)
        vr = orc.eigenvector_for_state(st, "right", spec, rng)
        t_vr = orc.apply_monodromy(z, spec, vr)
        worst = 0.0
        for s in (1, 2, 3):
            expect = complex(vl @ t_vr[s - 1, s - 1]) / complex(vl @ vr)
            lhs = ff.ff_diag(s, st, st, z) / ff.norm_squared(st)
            worst = max(worst, abs(lhs - expect) / abs(expect))
        report.add("diag_same_state_oracle", worst, 1e-8,
                   inputs=[state_to_json(st), pair(z)])
    except Gl3Error as exc:
        report.add_error("diag_same_state", exc)


def _check_sfunction_and_forms(report: Report, lib: dict,
                               rng: np.random.Generator) -> None:
    l5 = lib[5]
    model = l5["model"]
    try:
        a, b = l5["m31"][0], l5["m31"][1]
        z = _probe_points(rng, 1, _avoid_set(model, a, b), model.c)[0]
        asm = ff.assemble(a, b, z)
        omega = ff.omega_vector(a.u, a.v, b.u, b.v, model.c)
        worst = max(abs(ff.s_function(pt, omega, asm)) for pt in b.u + a.v)
        report.add("s_function_vanishing", worst, 1e-10,
                   inputs=[state_to_json(a), state_to_json(b)])
        pts = _probe_points(rng, 20, _avoid_set(model, a, b), model.c)
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
        for r in range(asm.n_rows):
            for x in probes:
                if r >= len(asm.u_left) and any(abs(x - ub) < 1e-6 for ub in b.u):
                    continue
                e1 = ff.n_entry(asm, r, x)
                e2 = ff.n_entry_tau_form(asm, r, x)
                worst = max(worst, abs(e1 - e2) / max(abs(e1), 1e-30))
        report.add("n_matrix_two_forms", worst, 1e-10, inputs=pair(z))
    except Gl3Error as exc:
        report.add_error("s_function_suite", exc)


def _check_gaudin(report: Report, lib: dict, rng: np.random.Generator) -> None:
    st = lib[3]["m21"][0]
    model = lib[3]["model"]
    m = gaudin_matrix(st.roots, model)
    sym = float(np.max(np.abs(m - m.T))) / max(1.0, float(np.max(np.abs(m))))
    report.add("gaudin_symmetric", sym, 1e-14, inputs=state_to_json(st))
    a, b = st.a, st.b
    eps = 1e-7
    x0 = st.roots.as_array()
    jac_fd = np.zeros((a + b, a + b), dtype=complex)
    for k in range(a + b):
        for delta_dir in (1.0,):
            xp = x0.copy()
            xm = x0.copy()
            xp[k] += eps * delta_dir
            xm[k] -= eps * delta_dir
            fp = phi_log(RootConfig(tuple(xp[:a]), tuple(xp[a:])), model)
            fm = phi_log(RootConfig(tuple(xm[:a]), tuple(xm[a:])), model)
            jac_fd[:, k] = (fp - fm) / (2 * eps * delta_dir)
    scaled = np.empty_like(jac_fd)
    scaled[:, :a] = -model.c * jac_fd[:, :a]
    scaled[:, a:] = model.c * jac_fd[:, a:]
    resid = float(np.max(np.abs(scaled - m))) / float(np.max(np.abs(m)))
    report.add("gaudin_vs_fd_jacobian", resid, 1e-6, inputs=state_to_json(st))


def _check_twist_machinery(report: Report, lib: dict,
                           rng: np.random.Generator) -> None:
    spec, model = lib[2]["spec"], lib[2]["model"]
    tw = Twist(0.9 + 0.1j, 1.0, 1.2 - 0.2j)
    name = "twisted_tau_eigenvalue"
    try:
        states = distinct_states(model, 1, 1, twist=tw, n_seeds=48,
                                 rng_seed=report.rng_seed)
        if not states:
            raise NoConvergence("no twisted (1,1) state found")
        st = states[0]
        idx = orc.state_sector(spec, 1, 1)
        worst = 0.0
        for w in _probe_points(rng, 5, _avoid_set(model, st), model.c):
            mat = orc.transfer_matrix(w, spec, tw, idx)
            tv = tau_twisted(w, st.roots, tw, model)
            worst = max(worst, float(np.min(np.abs(np.linalg.eigvals(mat) - tv))
                                     / max(1.0, abs(tv))))
        report.add(name, worst, 1e-8, inputs=state_to_json(st))
    except Gl3Error as exc:
        report.add_error(name, exc)
    name = "twist_continuation_roundtrip"
    try:
        st = lib[3]["m10"][0]
        target = Twist(1.15 - 0.05j, 1.0, 0.85 + 0.1j)
        there = continue_in_twist(st, target, steps=6)
        back = continue_in_twist(there, Twist.identity(), steps=6)
        resid = float(np.max(np.abs(back.roots.as_array() - st.roots.as_array())))
        report.add(name, resid, 1e-8, inputs=state_to_json(st))
    except Gl3Error as exc:
        report.add_error(name, exc)


def _check_orthogonality(report: Report, lib: dict,
                         rng: np.random.Generator) -> None:
    spec, model = lib[3]["spec"], lib[3]["model"]
    try:
        a, b = lib[3]["m10"][0], lib[3]["m10"][1]
        vl = orc.eigenvector_for_state(a, "left", spec, rng)
        vr = orc.eigenvector_for_state(b, "right", spec, rng)
        report.add("eigenstate_orthogonality", abs(complex(vl @ vr)), 1e-9,
                   inputs=[state_to_json(a), state_to_json(b)])
    except Gl3Error as exc:
        report.add_error("eigenstate_orthogonality", exc)


def build_verify_report(rng_seed: int = DEFAULT_SEED) -> Report:
    """Run every oracle-vs-determinant check; deterministic in the seed."""
    report = Report("verification", rng_seed)
    rng = np.random.default_rng(rng_seed)
    lib = prepare_states(rng_seed)
    _check_structural(report, rng)
    _check_onshell_pipeline(report, lib, rng)
    _check_offdiagonal(report, lib, rng)
    _check_products(report, lib, rng)
    _check_diagonal(report, lib, rng)
    _check_sfunction_and_forms(report, lib, rng)
    _check_gaudin(report, lib, rng)
    _check_twist_machinery(report, lib, rng)
    _check_orthogonality(report, lib, rng)
    return report


# ---------------------------------------------------------------------------
# identities suite

def _random_sets(rng: np.random.Generator, sizes, span=1.8):
    out = []
    for n in sizes:
        out.append(tuple(complex(rng.uniform(-span, span), rng.uniform(-span, span))
                         for _ in range(n)))
    return out


def _check_appendix(report: Report, rng: np.random.Generator) -> None:
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


def _check_morphisms(report: Report, lib: dict, rng: np.random.Generator) -> None:
    worst_psi = 0.0
    psi_pairs = []
    for (tag, kind, L, left, right) in _ratio_cases(lib):
        i, j = kind
        psi_pairs.append((kind, (j, i), L, left, right))
    for (kind, kind_t, L, left, right) in psi_pairs:
        model = lib[L]["model"]
        z = _probe_points(rng, 1, _avoid_set(model, left, right), model.c)[0]
        v1 = ff.form_factor(kind, left, right, z)
        v2 = ff.form_factor(kind_t, right, left, z)
        worst_psi = max(worst_psi, abs(v1 - v2) / max(abs(v1), 1e-30))
    report.add("transposition_consistency", worst_psi, 1e-10)

    worst_phi = 0.0
    for (tag, kind, L, left, right) in _ratio_cases(lib):
        model = lib[L]["model"]
        mm = mirror_model(model)
        i, j = kind

        def mirrored(st):
            roots = RootConfig(tuple(-x for x in st.v), tuple(-x for x in st.u))
            return BetheState(roots, Twist.identity(), st.mode_numbers,
                              st.residual, mm)

        z = _probe_points(rng, 1, _avoid_set(model, left, right), model.c)[0]
        lhs = ff.form_factor(kind, left, right, z)
        rhs = ff.form_factor((4 - j, 4 - i), mirrored(left), mirrored(right), -z)
        worst_phi = max(worst_phi, abs(lhs - rhs) / max(abs(lhs), 1e-30))
    # diagonal entries under the reflection map
    st = lib[3]["m21"][0]
    model = lib[3]["model"]
    mm = mirror_model(model)
    roots_m = RootConfig(tuple(-x for x in st.v), tuple(-x for x in st.u))
    st_m = BetheState(roots_m, Twist.identity(), st.mode_numbers, st.residual, mm)
    z = _probe_points(rng, 1, _avoid_set(model, st), model.c)[0]
    for s in (1, 2, 3):
        lhs = ff.ff_diag(s, st, st, z)
        rhs = ff.ff_diag(4 - s, st_m, st_m, -z)
        worst_phi = max(worst_phi, abs(lhs - rhs) / abs(lhs))
    report.add("reflection_consistency", worst_phi, 1e-10)


def _check_permutation(report: Report, lib: dict, rng: np.random.Generator) -> None:
    l5 = lib[5]
    a, b = l5["m31"][0], l5["m31"][1]
    model = l5["model"]
    z = _probe_points(rng, 1, _avoid_set(model, a, b), model.c)[0]
    worst = 0.0

    def shuffled(st, perm_u, perm_v):
        roots = RootConfig(tuple(st.u[i] for i in perm_u),
                           tuple(st.v[i] for i in perm_v))
        return BetheState(roots, st.twist, st.mode_numbers, st.residual, st.model)

    base = {kind: ff.form_factor(kind, a, b, z)
            for kind in ((2, 2), (1, 1))}
    for perm_u in ((1, 0, 2), (2, 1, 0), (1, 2, 0)):
        ap = shuffled(a, perm_u, (0,))
        bp = shuffled(b, (2, 0, 1), (0,))
        for kind, ref in base.items():
            val = ff.form_factor(kind, ap, bp, z)
            worst = max(worst, abs(val - ref) / abs(ref))
    c31 = _pick_disjoint(l5["m31"], [l5["m20"][0]], model.c)
    ref13 = ff.ff_13(c31, l5["m20"][0], z)
    cp = shuffled(c31, (2, 0, 1), (0,))
    bp = shuffled(l5["m20"][0], (1, 0), ())
    worst = max(worst, abs(ff.ff_13(cp, bp, z) - ref13) / abs(ref13))
    report.add("permutation_invariance", worst, 1e-10)


def _check_gl2_reduction(report: Report, lib: dict, rng: np.random.Generator) -> None:
    l4 = lib[4]
    model = l4["model"]
    c20 = l4["m20"][0]
    b10 = _pick_disjoint(l4["m10"], [c20], model.c)
    z = _probe_points(rng, 1, _avoid_set(model, c20, b10), model.c)[0]
    worst = 0.0
    v = ff.ff_offdiag((1, 2), c20, b10, z)
    worst = max(worst, abs(ff.gl2_ff_12(c20.u, b10.u, z, model) - v) / abs(v))
    v = ff.ff_offdiag((2, 1), b10, c20, z)
    worst = max(worst, abs(ff.gl2_ff_21(b10.u, c20.u, z, model) - v) / abs(v))
    s_a, s_b = lib[3]["m10"][0], lib[3]["m10"][1]
    model3 = lib[3]["model"]
    z3 = _probe_points(rng, 1, _avoid_set(model3, s_a, s_b), model3.c)[0]
    for s in (1, 2):
        v = ff.ff_diag(s, s_a, s_b, z3)
        worst = max(worst,
                    abs(ff.gl2_ff_diag(s, s_a.u, s_b.u, z3, model3) - v) / abs(v))
    report.add("rank1_reduction", worst, 1e-12)


def build_identities_report(rng_seed: int = DEFAULT_SEED) -> Report:
    """Random-input and state-pair identity checks; deterministic in the seed."""
    report = Report("identities", rng_seed)
    rng = np.random.default_rng(rng_seed)
    lib = prepare_states(rng_seed)
    _check_appendix(report, rng)
    try:
        _check_morphisms(report, lib, rng)
    except Gl3Error as exc:
        report.add_error("morphisms", exc)
    try:
        _check_permutation(report, lib, rng)
    except Gl3Error as exc:
        report.add_error("permutation_invariance", exc)
    try:
        _check_gl2_reduction(report, lib, rng)
    except Gl3Error as exc:
        report.add_error("rank1_reduction", exc)
    return report


# ---------------------------------------------------------------------------
# commands

def cmd_solve(args) -> int:
    cfg = load_config(args.config)
    rng_seed = args.seed if args.seed is not None else cfg.get("rng_seed", DEFAULT_SEED)
    model, _ = model_from_config(cfg, rng_seed)
    sector = cfg.get("sector")
    if not isinstance(sector, dict):
        raise ConfigError("config needs a 'sector' object")
    try:
        a = int(sector["a"])
        b = int(sector["b"])
    except (KeyError, TypeError, ValueError):
        raise ConfigError("sector.a and sector.b must be integers")
    if b > a:
        raise ConfigError(f"sector (a={a}, b={b}) violates b <= a")
    twist = twist_from_config(sector.get("twist"))
    tol = args.tol if args.tol is not None else float(
        cfg.get("task", {}).get("tol", 1e-12))
    if a == b == 0:
        states = [_vacuum(model)]
    elif sector.get("seed_roots") is not None:
        seed = roots_from_node(sector["seed_roots"], "sector.seed_roots")
        mode_numbers = sector.get("mode_numbers")
        states = [solve_bethe(SolveRequest(
            model=model, a=a, b=b, twist=twist, seed_roots=seed,
            mode_numbers=mode_numbers, tol=tol, rng_seed=rng_seed))]
    elif sector.get("mode_numbers") is not None:
        states = [solve_bethe(SolveRequest(
            model=model, a=a, b=b, twist=twist,
            mode_numbers=sector["mode_numbers"], tol=tol, rng_seed=rng_seed))]
    else:
        states = distinct_states(model, a, b, twist=twist,
                                 n_seeds=int(sector.get("n_seeds", 48)),
                                 tol=tol, rng_seed=rng_seed)
        if not states:
            raise NoConvergence(f"no states found in sector ({a}, {b})")
    payload = {
        "model": {
            "L": len(model.inhomogeneities or ()),
            "c": pair(model.c),
            "xi": [pair(x) for x in (model.inhomogeneities or ())],
        },
        "sector": {"a": a, "b": b},
        "rng_seed": rng_seed,
        "states": [state_to_json(st) for st in states],
    }
    _write_output(payload, args.out, "json")
    return 0


def _load_state_file(path: str, model: ModelFunctions, tol: float,
                     index: int) -> BetheState:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            blob = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read roots file {path}: {exc}")
    states = blob.get("states")
    if not isinstance(states, list) or not states:
        raise ConfigError(f"roots file {path} has no states")
    if not 0 <= index < len(states):
        raise ConfigError(f"state index {index} out of range for {path}")
    return state_from_json(states[index], model, max(1e-8, 100 * tol))


def cmd_ff(args) -> int:
    cfg = load_config(args.config)
    rng_seed = args.seed if args.seed is not None else cfg.get("rng_seed", DEFAULT_SEED)
    model, _ = model_from_config(cfg, rng_seed)
    task = cfg.get("task", {})
    tol = args.tol if args.tol is not None else float(task.get("tol", 1e-12))
    left = _load_state_file(args.left, model, tol, args.left_index)
    right = _load_state_file(args.right, model, tol, args.right_index)
    kinds = task.get("kinds")
    if kinds is None:
        raise ConfigError("task.kinds is required for the ff command")
    kinds = [tuple(int(x) for x in k) for k in kinds]
    z_grid = task.get("z_points")
    if z_grid is None:
        raise ConfigError("task.z_points is required for the ff command")
    z_grid = _as_complex_list(z_grid, "task.z_points")
    rows = []
    for kind in kinds:
        for z in z_grid:
            row = {"kind_i": kind[0], "kind_j": kind[1],
                   "z_re": z.real, "z_im": z.imag}
            try:
                value = ff.form_factor(kind, left, right, z)
                same = (kind[0] == kind[1]
                        and states_equal(left.roots, right.roots, 1e-9))
                if same:
                    cond = ff.lu_condition(gaudin_matrix(left.roots, model))
                else:
                    asm = (ff.assemble(right, left, z)
                           if kind in ((2, 3), (2, 1))
                           else ff.assemble(left, right, z))
                    cond = ff.lu_condition(ff.n_matrix(asm))
                row.update({"f_re": value.real, "f_im": value.imag,
                            "branch": "same" if same else "different",
                            "lu_cond": cond, "error": ""})
            except (SectorMismatch, PoleError, NonFiniteResult) as exc:
                row.update({"f_re": "", "f_im": "", "branch": "",
                            "lu_cond": "", "error": f"{type(exc).__name__}: {exc}"})
            rows.append(row)
    fmt = args.format or cfg.get("output", {}).get("format", "csv")
    if fmt == "json":
        _write_output({"rows": rows}, args.out, "json")
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
        _write_output(buf.getvalue(), args.out, "csv")
    return 0


def _finish_report(report: Report, args) -> int:
    payload = report.to_json()
    if args.tol is not None:
        # uniform tolerance override: re-evaluate pass flags
        for rec in payload["records"]:
            if "residual" in rec:
                rec["tolerance"] = args.tol
                rec["pass"] = rec["residual"] <= args.tol
        payload["n_failures"] = sum(not r["pass"] for r in payload["records"])
    _write_output(payload, args.out, "json")
    for rec in payload["records"]:
        status = "PASS" if rec["pass"] else "FAIL"
        extra = (f"residual={rec['residual']:.3e} tol={rec['tolerance']:.1e}"
                 if "residual" in rec else rec.get("error", ""))
        print(f"[{status}] {rec['name']}: {extra}", file=sys.stderr)
    return 0 if payload["n_failures"] == 0 else 1


def cmd_verify(args) -> int:
    cfg = load_config(args.config)
    rng_seed = args.seed if args.seed is not None else cfg.get("rng_seed", DEFAULT_SEED)
    return _finish_report(build_verify_report(rng_seed), args)


def cmd_identities(args) -> int:
    cfg = load_config(args.config)
    rng_seed = args.seed if args.seed is not None else cfg.get("rng_seed", DEFAULT_SEED)
    return _finish_report(build_identities_report(rng_seed), args)


def cmd_local_op(args) -> int:
    cfg = load_config(args.config)
    rng_seed = args.seed if args.seed is not None else cfg.get("rng_seed", DEFAULT_SEED)
    model, _ = model_from_config(cfg, rng_seed)
    tol = args.tol if args.tol is not None else 1e-12
    left = _load_state_file(args.left, model, tol, args.left_index)
    right = _load_state_file(args.right, model, tol, args.right_index)
    z = _as_complex([args.z_re, args.z_im], "z-eval")
    m_site = args.site
    alpha, beta = args.alpha, args.beta
    if not (1 <= alpha <= 3 and 1 <= beta <= 3):
        raise ConfigError("alpha and beta must be in {1, 2, 3}")
    if m_site < 1:
        raise ConfigError("site index must be >= 1")
    guard = pole_tol(model.c)
    for p in list(model.inhomogeneities or ()) + list(left.u + left.v
                                                      + right.u + right.v):
        if abs(z - p) <= guard:
            raise PoleError(f"evaluation point {z} collides with {p}")
    tau_left = tau(z, left.roots, model)
    tau_right = tau(z, right.roots, model)
    if abs(tau_right) <= 1e-12 or abs(tau_left) <= 1e-12:
        raise ZeroTau("transfer-matrix eigenvalue vanishes at the evaluation point")
    entry = ff.form_factor((beta, alpha), left, right, z)
    value = tau_left ** (m_site - 1) / tau_right ** m_site * entry
    payload = {
        "site": m_site,
        "alpha": alpha,
        "beta": beta,
        "z_eval": pair(z),
        "tau_left": pair(tau_left),
        "tau_right": pair(tau_right),
        "entry_value": pair(entry),
        "local_operator_element": pair(value),
        "caveat": ("ratio formula evaluated verbatim; for inhomogeneous chains "
                   "no claim is made that this reproduces lattice operators away "
                   "from the homogeneous evaluation point"),
    }
    _write_output(payload, args.out, "json")
    return 0


# ---------------------------------------------------------------------------
# entry point

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gl3ff",
        description="Determinant matrix elements for three-colour integrable "
                    "chains, validated against explicit Hilbert-space arithmetic.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="JSON config path")
        p.add_argument("--seed", type=int, default=None, help="rng seed override")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("json", "csv"), default=None)
        p.add_argument("--tol", type=float, default=None, help="tolerance override")

    p = sub.add_parser("solve", help="find on-shell root configurations")
    common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("ff", help="tabulate matrix elements over a z-grid")
    common(p)
    p.add_argument("--left", required=True, help="left-state roots file")
    p.add_argument("--right", required=True, help="right-state roots file")
    p.add_argument("--left-index", type=int, default=0)
    p.add_argument("--right-index", type=int, default=0)
    p.set_defaults(func=cmd_ff)

    p = sub.add_parser("verify", help="run the oracle verification suite")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("identities", help="run the algebraic identity suite")
    common(p)
    p.set_defaults(func=cmd_identities)

    p = sub.add_parser("local-op", help="evaluate the local-operator ratio formula")
    common(p)
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--left-index", type=int, default=0)
    p.add_argument("--right-index", type=int, default=0)
    p.add_argument("--site", type=int, required=True)
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--beta", type=int, required=True)
    p.add_argument("--z-re", type=float, required=True)
    p.add_argument("--z-im", type=float, default=0.0)
    p.set_defaults(func=cmd_local_op)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except Gl3Error as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
