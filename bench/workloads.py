"""The four benchmark workloads.

Each workload builds its inputs from the benchmark seed in ``setup``, runs one
timed pass in ``run_pass`` and checks the outputs of the first pass in
``gate``, outside the timed window.  A pass returns its outputs and one
latency per element, timed with the ``clock`` it is given (see
``worker.Sampler``).  ``gate`` returns
``(attempted, failed, correct, notes)`` for one pass, where ``failed``
counts operations that raised, returned a non-finite value or failed a
check.  ``correct`` is false when any operation failed, except on
``ff-large``, whose sizes a + b >= 30 return non-finite values at the
baseline: there it is false when a finite output failed a check.
"""

from __future__ import annotations

import numpy as np

from gl3ff import cli, errors, formfactor, model, oracle, solver

import synth

C = 1.0 + 0.0j
IDENTITY = model.Twist()

# The suites take a seed of their own: benchmark seed n runs suite seed
# n % SUITE_SEEDS.  Every suite seed below SUITE_SEEDS passes every check at
# the baseline; suite seed 27 of the identities suite does not (see
# README.md).  The work of a pass hardly depends on the suite seed: 661
# oracle builds at every verify seed, Newton work within +-2 %.
SUITE_SEEDS = 16


def _finite(value: complex) -> bool:
    return bool(np.isfinite(value))


def _rel(x: complex, ref: complex) -> float:
    return abs(x - ref) / abs(ref)


class Suite:
    """A CLI report suite; one pass builds the whole report."""

    def __init__(self, build):
        self.build = build

    def setup(self, seed: int) -> None:
        self.suite_seed = seed % SUITE_SEEDS

    def describe(self) -> dict:
        return {"suite_seed": self.suite_seed}

    def run_pass(self, clock):
        t0 = clock()
        payload = self.build(self.suite_seed).to_json()
        dt = clock() - t0
        n = max(1, payload["n_checks"])
        return payload, [dt / n] * n

    def gate(self, payload) -> tuple:
        failed = [r["name"] for r in payload["records"] if not r["pass"]]
        notes = {"failed_records": failed}
        return len(payload["records"]), len(failed), not failed, notes


# ---------------------------------------------------------------------------
# ff-table: the `gl3ff ff` use case on a solved chain

TABLE_L = 5
TABLE_SECTORS = ((0, 0), (1, 0), (2, 0), (2, 1), (3, 1))
TABLE_Z_POINTS = 4
# at most this many state pairs per (kind, sector pair); the solver finds a
# few more pairs at some seeds than at others, and the cap keeps the work of
# one pass the same
TABLE_MAX_PAIRS = 10
ORACLE_SAMPLES = 6
TABLE_TOL = 1e-10   # the tolerance of the verify suite's diagonal checks
ORACLE_TOL = 1e-8   # the tolerance of the verify suite's oracle ratios


def _disk_points(rng, n: int, radius: float) -> np.ndarray:
    return radius * np.sqrt(rng.uniform(0, 1, n)) * np.exp(
        2j * np.pi * rng.uniform(0, 1, n))


def _clear(w: complex, avoid, gap: float) -> bool:
    return all(min(abs(w - p), abs(w - p + C), abs(w - p - C)) > gap
               for p in avoid)


def _roots(state) -> tuple:
    return tuple(state.u) + tuple(state.v)


def _separated(left, right, gap: float = 0.05) -> bool:
    """Generic position: no root of one state close to a root of the other."""
    return all(abs(x - y) > gap for x in _roots(left) for y in _roots(right))


class FFTable:
    """All nine entries and the norm between the solved states of one chain,
    over a seeded grid of probe points."""

    def setup(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        xi = tuple(complex(p) for p in _disk_points(rng, TABLE_L, 0.3))
        self.spec = oracle.SpinChainSpec(L=TABLE_L, xi=xi, c=C)
        mdl = self.spec.model()
        self.states = []
        by_sector = {}
        for a, b in TABLE_SECTORS:
            if a + b == 0:
                found = [model.BetheState(model.RootConfig(), IDENTITY, (),
                                          0.0, mdl)]
            else:
                found = solver.distinct_states(mdl, a, b, n_seeds=48,
                                               rng_seed=seed)
            by_sector[(a, b)] = list(range(len(self.states),
                                           len(self.states) + len(found)))
            self.states.extend(found)
        avoid = list(xi) + [x for st in self.states for x in _roots(st)]
        self.z = []
        while len(self.z) < TABLE_Z_POINTS:
            w = complex(rng.uniform(-1.6, 1.6), rng.uniform(-1.6, 1.6))
            if _clear(w, avoid, 0.15):
                self.z.append(w)
        # elements: (kind, left index, right index, z index); kind "norm"
        self.elements = [("norm", i, i, None) for i in range(len(self.states))]
        for kind in formfactor.KINDS:
            for rs in TABLE_SECTORS:
                ls = formfactor.sector_shift(kind, *rs)
                if ls not in by_sector:
                    continue
                pairs = [(l, r) for l in by_sector[ls] for r in by_sector[rs]
                         if l != r and _separated(self.states[l],
                                                  self.states[r])]
                if kind[0] == kind[1]:
                    pairs += [(r, r) for r in by_sector[rs]]
                for l, r in pairs[:TABLE_MAX_PAIRS]:
                    self.elements += [(kind, l, r, k)
                                      for k in range(TABLE_Z_POINTS)]

    def describe(self) -> dict:
        sectors = {}
        for st in self.states:
            key = f"{st.a}{st.b}"
            sectors[key] = sectors.get(key, 0) + 1
        return {"L": TABLE_L, "states": sectors,
                "elements": len(self.elements)}

    def run_pass(self, clock):
        states, zs = self.states, self.z
        values, lat = [], []
        for kind, l, r, k in self.elements:
            t0 = clock()
            try:
                if kind == "norm":
                    v = formfactor.norm_squared(states[l])
                else:
                    v = formfactor.form_factor(kind, states[l], states[r],
                                               zs[k])
            except errors.Gl3Error:
                v = None
            lat.append(clock() - t0)
            values.append(v)
        return values, lat

    def gate(self, values) -> tuple:
        bad = [v is None or not _finite(v) for v in values]
        wrong = [False] * len(values)
        at = {e: n for n, e in enumerate(self.elements)}
        checks = {"sum_rule": 0, "same_state": 0, "oracle_ratio": 0}
        worst = {k: 0.0 for k in checks}

        def record(name, resid, tol, idx):
            checks[name] += 1
            worst[name] = max(worst[name], resid)
            if not resid <= tol:
                for i in idx:
                    wrong[i] = True

        def norm(i):
            return values[at[("norm", i, i, None)]]

        def unit(l, r):
            """Size of an element between the two states if both had norm 1."""
            return abs(norm(l) * norm(r)) ** 0.5

        for kind, l, r, k in self.elements:
            if kind != (1, 1):
                continue
            idx = [at[((s, s), l, r, k)] for s in (1, 2, 3)]
            if any(bad[i] for i in idx + [at[("norm", l, l, None)],
                                          at[("norm", r, r, None)]]):
                continue
            vals = [values[i] for i in idx]
            st, z = self.states[l], self.z[k]
            if l != r:
                # <left| t(z) |right> = 0 between distinct eigenstates,
                # measured on the scale of the eigenvalue's three terms; the
                # elements themselves vanish for some pairs
                scale = unit(l, r) * max(
                    abs(model.dtau_dkappa(s, z, st.roots, st.model))
                    for s in (1, 2, 3))
                record("sum_rule", abs(sum(vals)) / scale, TABLE_TOL, idx)
                continue
            ns = norm(l)
            for s in (1, 2, 3):
                ref = model.dtau_dkappa_onshell(s, z, st.roots, st.model)
                record("same_state", _rel(vals[s - 1] / ns, ref), TABLE_TOL,
                       [idx[s - 1]])
        # a seeded sample of z-ratios against the dense oracle
        # ratios are only defined where the elements do not vanish
        pairs = [(kind, l, r) for kind, l, r, k in self.elements
                 if k == 0 and kind != "norm" and l != r
                 and all(not bad[at[(kind, l, r, j)]] and
                         abs(values[at[(kind, l, r, j)]]) > 1e-6 * unit(l, r)
                         for j in (0, 1))]
        rng = np.random.default_rng(len(self.elements))
        for p in sorted(rng.choice(len(pairs), ORACLE_SAMPLES, replace=False)):
            kind, l, r = pairs[p]
            i1, i2 = at[(kind, l, r, 0)], at[(kind, l, r, 1)]
            try:
                ref = oracle.invariant_ratio(kind, self.z[0], self.z[1],
                                             self.states[l], self.states[r],
                                             self.spec, np.random.default_rng(0))
            except errors.Gl3Error:
                # the oracle could not decide: count the pair as failed
                checks["oracle_error"] = checks.get("oracle_error", 0) + 1
                bad[i1] = bad[i2] = True
                continue
            record("oracle_ratio", _rel(values[i1] / values[i2], ref),
                   ORACLE_TOL, [i1, i2])
        failed = sum(b or w for b, w in zip(bad, wrong))
        notes = {"checks": checks, "worst_residual": worst}
        return len(values), failed, failed == 0, notes


# ---------------------------------------------------------------------------
# ff-large: generalized-model pairs at large a + b

LARGE_SIZES = (12, 18, 24, 30, 36, 42, 48)
LARGE_RADIUS = 3.0
LARGE_GAP = 0.05
DEFECT_TOL = 1e-10
EPS = float(np.finfo(float).eps)


def _diag_condition(left, right, z) -> float:
    """Largest condition number of the three diagonal-entry determinants.

    The sum rule cancels three determinants whose rounding error grows with
    their condition number, so it is checked to eps times that number.
    """
    asm = formfactor.assemble(left, right, z)
    rows = formfactor.n_matrix(asm)
    return max(formfactor.lu_condition(
        np.vstack([rows, formfactor.y_row_diag(asm, s, same_state=False)]))
        for s in (1, 2, 3))


def _generic_points(rng, n: int, radius: float, gap: float) -> list:
    """n seeded points spread evenly over a disk, in order of distance from
    its centre, pairwise clear of coincidence and of +-c shifts: a sunflower
    pattern, randomly rotated and jittered."""
    k = np.arange(n)
    angle = k * np.pi * (3.0 - np.sqrt(5.0)) + rng.uniform(0, 2 * np.pi)
    base = radius * np.sqrt((k + 0.5) / n) * np.exp(1j * angle)
    jitter = 0.25 * radius * np.sqrt(np.pi / n)
    pts: list = []
    for b in base:
        for _ in range(1000):
            w = complex(b + _disk_points(rng, 1, jitter)[0])
            if _clear(w, pts, gap):
                pts.append(w)
                break
        else:
            raise errors.CollisionError(f"no clear point near {b}")
    return pts


def _deal(pts: list, sizes) -> list:
    """Split ``pts``, ordered from the centre out, into sets of ``sizes``.

    Set i takes the middle point of each of sizes[i] equal strata of that
    order, so every set covers the whole disk.  The products over pairs of
    two sets, and with them the size at which they overflow, then hardly
    depend on the seed, which only rotates and jitters the pattern: with the
    points dealt at random, some a + b = 30 elements came out finite at one
    seed in twenty.
    """
    keys = sorted(((j + 0.5) / size, i)
                  for i, size in enumerate(sizes) for j in range(size))
    out = [[] for _ in sizes]
    for w, (_, i) in zip(pts, keys):
        out[i].append(w)
    return out


class FFLarge:
    """Diagonal, first off-diagonal and (1,3) elements at a + b = 12..48."""

    def setup(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.elements = []  # (kind, left, right, z, size)
        self.pairs = []     # (left, right, size) on shared models
        for n in LARGE_SIZES:
            a, b = n // 2, n - n // 2
            # u and v of the right state, then of the left states diag, 12,
            # 23 and 13, then the probe point
            sizes = (a, b, a, b, a + 1, b, a, b + 1, a + 1, b + 1, 1)
            sets = iter(_deal(_generic_points(rng, sum(sizes), LARGE_RADIUS,
                                              LARGE_GAP), sizes))

            def roots():
                return model.RootConfig(tuple(next(sets)), tuple(next(sets)))

            right = roots()
            lefts = {"diag": roots(), "12": roots(), "23": roots(),
                     "13": roots()}
            (z,) = next(sets)
            built = {}
            for tag, left in lefts.items():
                mdl = synth.pair_model(left, right, C)
                built[tag] = (self._state(left, mdl), self._state(right, mdl))
                self.pairs.append(built[tag] + (n,))
            dl, dr = built["diag"]
            self.elements += [((s, s), dl, dr, z, n) for s in (1, 2, 3)]
            l12, r12 = built["12"]
            self.elements += [((1, 2), l12, r12, z, n), ((2, 1), r12, l12, z, n)]
            l23, r23 = built["23"]
            self.elements += [((2, 3), l23, r23, z, n), ((3, 2), r23, l23, z, n)]
            l13, r13 = built["13"]
            self.elements.append(((1, 3), l13, r13, z, n))

    @staticmethod
    def _state(roots, mdl):
        return model.BetheState(roots, IDENTITY, (0,) * (roots.a + roots.b),
                                0.0, mdl)

    def describe(self) -> dict:
        return {"sizes": list(LARGE_SIZES), "elements": len(self.elements)}

    def run_pass(self, clock):
        values, lat = [], []
        for kind, left, right, z, _ in self.elements:
            t0 = clock()
            try:
                v = formfactor.form_factor(kind, left, right, z)
            except errors.Gl3Error:
                v = None
            lat.append(clock() - t0)
            values.append(v)
        return values, lat

    def gate(self, values) -> tuple:
        bad = [v is None or not _finite(v) for v in values]
        wrong = [False] * len(values)
        defect = 0.0
        for left, right, _ in self.pairs:
            for st in (left, right):
                d = float(np.max(np.abs(model.bethe_defect(
                    st.roots, IDENTITY, st.model))))
                defect = max(defect, d)
        worst_sum = 0.0
        for i, (kind, left, right, z, n) in enumerate(self.elements):
            if kind != (1, 1):
                continue
            idx = (i, i + 1, i + 2)
            if any(bad[j] for j in idx):
                continue
            vals = [values[j] for j in idx]
            resid = abs(sum(vals)) / max(abs(v) for v in vals)
            scaled = resid / (EPS * _diag_condition(left, right, z))
            worst_sum = max(worst_sum, scaled)
            if not scaled <= 1.0:
                for j in idx:
                    wrong[j] = True
        nonfinite = sorted({e[4] for e, b in zip(self.elements, bad) if b})
        correct = defect <= DEFECT_TOL and not any(wrong)
        failed = sum(b or w for b, w in zip(bad, wrong))
        notes = {"max_bethe_defect": defect,
                 "worst_sum_rule_over_eps_cond": worst_sum,
                 "nonfinite_sizes": nonfinite}
        return len(values), failed, correct, notes


def make(name: str):
    if name == "verify":
        return Suite(cli.build_verify_report)
    if name == "identities":
        return Suite(cli.build_identities_report)
    if name == "ff-table":
        return FFTable()
    if name == "ff-large":
        return FFLarge()
    raise ValueError(f"unknown workload {name!r}")

