"""On-shell root finding: damped Newton iteration on the logarithmic Bethe
system, best-effort state enumeration, and continuation in the twist.

There is one Newton, ``_newton``, and it advances a stack of seeds in
lockstep: a sector's whole seed pool for ``distinct_states``, a stack of one
for ``solve_bethe`` and ``continue_in_twist``.  Every guard and exit rule
holds for each seed on its own, so each seed keeps its own exit reason."""

from __future__ import annotations

import cmath
import math
import weakref
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (Gl3Error, JacobianSingular, NoConvergence, PathCollision,
                     PoleError, ZeroArgError)
from .kernel import f
from .model import (BetheState, ModelFunctions, RootConfig, RootStack, Twist,
                    gaudin_jacobian, phi_log)

TWO_PI = 2.0 * math.pi

# step factors of the Newton line search, tried from the full step down
_HALVINGS = 0.5 ** np.arange(31)

# A Newton run ends in one of five ways (see _newton): converged, stalled
# (no step halving lowers the residual), creeping, escaped or singular.
# Escaped needs no constant: its radius is r_max, and over every run of the
# verify and identities suites at seeds 0-39 no converged identity-twist
# chain run goes beyond 0.11 r_max.  The constants below set the other two.
#
# Creeping: accepted steps barely lower the residual, wherever they land:
# along the escape disk, or inside it on a plateau.  _CREEP_STEPS such steps
# in a row end the run.  Over the verify and identities suites at seeds
# 0-15, no accepted step of a converged run lowers the residual by a ratio
# above 0.99.
_CREEP_RATIO = 0.999    # err_new > _CREEP_RATIO * err counts as no progress
_CREEP_STEPS = 2

# Singular: near a regular root Newton converges quadratically; a step that
# does not cut a residual already below _LINEAR_BELOW to a quarter marks
# linear convergence to a singular limit (merging roots), which is never a
# state.  Towards a double root the ratio is exactly 1/2 per step, so a
# threshold at 1/2 would leave the exit step to rounding; over every run of
# the verify and identities suites at seeds 0-39, the largest such ratio of
# a converged run is 0.036.
_LINEAR_BELOW = 1e-2
_LINEAR_RATIO = 0.25    # err_new > _LINEAR_RATIO * err counts as linear

# most composite seeds one sector's pool takes (see _composite_seeds)
_COMPOSITE_CAP = 120

# Newton iterations before a run that has not ended otherwise gives up
_MAX_ITER = 60


@dataclass
class SolveRequest:
    model: ModelFunctions
    a: int
    b: int
    twist: Twist = Twist.identity()
    mode_numbers: Optional[Sequence[int]] = None
    seed_roots: Optional[RootConfig] = None
    tol: float = 1e-12
    rng_seed: int = 0

    def __post_init__(self):
        _check_request(self.a, self.b, self.tol)
        if self.mode_numbers is not None:
            self.mode_numbers = tuple(int(n) for n in self.mode_numbers)
            if len(self.mode_numbers) != self.a + self.b:
                raise ValueError("mode_numbers must have length a + b")
        seed = self.seed_roots
        if seed is not None and (seed.a, seed.b) != (self.a, self.b):
            raise ValueError(f"seed roots of sector ({seed.a}, {seed.b}) do "
                             f"not match the requested sector "
                             f"({self.a}, {self.b})")


def _check_request(a: int, b: int, tol: float) -> None:
    if a < 0 or b < 0:
        raise ValueError(f"root counts must be non-negative, got ({a}, {b})")
    if a + b < 1:
        raise ValueError("need at least one root to solve for")
    if not 0 < tol < math.inf:  # a nan tolerance admits no residual
        raise ValueError(f"tolerance must be positive and finite, got {tol}")


def _sector_size(model: ModelFunctions, a: int, b: int,
                 twist: Twist) -> Optional[int]:
    """Most Bethe states with finite, distinct roots that sector (a, b) of an
    L-site fundamental chain can hold, or None when the model is no such
    chain (``model.sites`` is None).

    By the completeness results of Mukhin, Tarasov and Varchenko, at the
    identity twist these are at most the gl(3) highest-weight vectors of
    weight (L-a, a-b, b): the standard Young tableaux of that shape, counted
    by the hook-length formula (0 when the shape is no partition).  At any
    other twist they are at most the dimension of the weight space, the
    multinomial L! / ((L-a)! (a-b)! b!) (0 when a part is negative).
    """
    L = model.sites
    if L is None:
        return None
    parts = (L - a, a - b, b)
    if min(parts) < 0:
        return 0
    if not twist.is_identity():
        return math.factorial(L) // math.prod(map(math.factorial, parts))
    if not parts[0] >= parts[1] >= parts[2]:
        return 0
    hooks = 1
    for i, row in enumerate(parts):
        for j in range(row):
            # arm + leg + 1 of cell (i, j)
            hooks *= row - j + sum(below > j for below in parts[i + 1:])
    return math.factorial(L) // hooks


def _twist_offsets(a: int, b: int, twist: Twist) -> np.ndarray:
    off_u = cmath.log(twist.k2) - cmath.log(twist.k1)
    off_v = cmath.log(twist.k2) - cmath.log(twist.k3)
    return np.array([off_u] * a + [off_v] * b, dtype=complex)


def _residual(x: np.ndarray, a: int, b: int, model: ModelFunctions,
              offsets: np.ndarray, modes: Optional[np.ndarray]) -> tuple:
    """Residuals of the log system at each row of the stack ``x``; snaps to
    the nearest integer branch when modes are not pinned.  Returns
    (residuals, mode numbers used, each row's error or None)."""
    phi, errors = phi_log(RootStack(x, a), model)
    delta = phi - offsets
    if modes is None:
        used = np.rint(delta.imag / TWO_PI).astype(int)
    else:
        used = np.broadcast_to(modes, delta.shape)
    return delta - 2j * math.pi * used, used, errors


def _jacobian(x: np.ndarray, a: int, model: ModelFunctions) -> tuple:
    return gaudin_jacobian(RootStack(x, a), model)


def _evaluate(x: np.ndarray, a: int, b: int, model: ModelFunctions,
              offsets: np.ndarray, modes: Optional[np.ndarray]) -> tuple:
    """The residuals at each row of the stack ``x``: (residuals, mode
    numbers, largest residual, each row's error or None, as ``phi_log``'s
    guard names it)."""
    res, used, errors = _residual(x, a, b, model, offsets, modes)
    return res, used, np.max(np.abs(res), axis=1), errors


def _steps(jac: np.ndarray, res: np.ndarray) -> tuple:
    """The Newton step of each row and its error or None: one batched solve,
    or one solve per row when some Jacobian is singular."""
    try:
        return (np.linalg.solve(jac, res[:, :, None])[:, :, 0],
                [None] * len(jac))
    except np.linalg.LinAlgError:
        pass
    steps = np.zeros_like(res)
    errors: list = [None] * len(jac)
    for i in range(len(jac)):
        try:
            steps[i] = np.linalg.solve(jac[i:i + 1],
                                       res[i:i + 1, :, None])[0, :, 0]
        except np.linalg.LinAlgError as exc:
            errors[i] = JacobianSingular(str(exc))
    return steps, errors


class _Runs:
    """The running rows of a lockstep Newton stack: each row's iterate,
    residuals, mode numbers, largest residual, count of creeping steps in a
    row, and the row of the seed stack it started from."""

    def __init__(self, x, res, used, err):
        self.x, self.res, self.used, self.err = x, res, used, err
        self.creeping = np.zeros(len(x), dtype=int)
        self.seed = np.arange(len(x))

    def end(self, outcome: list, results: list):
        """Record each row's result that is not None as the outcome of its
        seed, and drop that row; returns the index of the rows kept."""
        ending = [row for row, result in enumerate(results)
                  if result is not None]
        if not ending:
            return slice(None)
        going = np.ones(len(results), dtype=bool)
        going[ending] = False
        for row in ending:
            outcome[self.seed[row]] = results[row]
        for name, value in vars(self).items():
            setattr(self, name, value[going])
        return going


def _line_search(trials: np.ndarray, inside: np.ndarray, err: np.ndarray,
                 evaluate) -> tuple:
    """The first step halving of each row, from the full step down, that
    lies inside the escape disk, meets no collision, pole or log of ~0, and
    lowers the residual below ``err``.  Each round evaluates every row at
    its next halving inside the disk.  Returns the halving index,
    residuals, mode numbers and largest residual of each row, and its error
    or None: ``Newton stalled`` when no halving serves, or an error that is
    none of those three."""
    h = inside.shape[1]
    k = np.where(inside.any(axis=1), inside.argmax(axis=1), h)
    res = np.zeros(trials[:, 0].shape, dtype=complex)
    used = np.zeros(res.shape, dtype=int)
    best = np.zeros(len(k))
    errors: list = [None] * len(k)
    search = k < h
    while search.any():
        rows = np.flatnonzero(search)
        res_t, used_t, err_t, failed = evaluate(trials[rows, k[rows]])
        lower = err_t < err[rows]
        for j in np.flatnonzero(lower).tolist():
            lower[j] = failed[j] is None
        took = rows[lower]
        res[took], used[took], best[took] = (res_t[lower], used_t[lower],
                                             err_t[lower])
        search[took] = False
        for j, row in zip(np.flatnonzero(~lower).tolist(),
                          rows[~lower].tolist()):
            fail = failed[j]
            if fail is not None and not isinstance(
                    fail, (PoleError, ZeroArgError)):
                errors[row] = fail
                search[row] = False
                continue
            later = np.flatnonzero(inside[row, k[row] + 1:])
            k[row] = k[row] + 1 + later[0] if len(later) else h
            search[row] = k[row] < h
    for row in np.flatnonzero(k == h).tolist():
        errors[row] = NoConvergence(f"Newton stalled at residual "
                                    f"{err[row]:.3e}")
    return k, res, used, best, errors


def _newton(model: ModelFunctions, a: int, b: int, twist: Twist,
            x0: np.ndarray, tol: float,
            modes: Optional[Sequence[int]] = None):
    """Damped Newton on the log system for a stack of seeds in lockstep.

    ``x0`` holds one seed per row.  Yields one outcome per seed, in row
    order, once that seed and every one before it have ended: the (roots,
    modes, residual) of a converged run, or the Gl3Error that ended it.  A
    consumer that stops iterating stops the runs still going.  Each round
    evaluates the running rows together, one Gaudin matrix call per Newton
    round and one ``phi_log`` call per round of the line search, and every
    rule below holds for each row on its own, so a seed ends the same alone
    as in any stack.

    A run ends in one of five ways:

    - converged: the residual is at most ``tol``;
    - stalled: no step halving inside the disk of radius ``3 r_max`` around
      the centroid of the inhomogeneities lowers the residual (see
      ``_line_search``), so every iterate stays in that disk;
    - creeping: ``_CREEP_STEPS`` accepted steps in a row each lower the
      residual by less than 0.1 % (``_CREEP_RATIO``);
    - escaped: on a chain (``model.sites`` set) at the identity twist, an
      accepted iterate lies beyond the escape radius ``r_max``.  The
      residual also vanishes as roots run off to infinity (descendant
      towers), which is not a finite-root solution, and such runs never
      come back.  Twisted runs and models without ``sites`` may, so they
      search the whole ``3 r_max`` disk and converge anywhere in it;
    - singular: below residual ``_LINEAR_BELOW`` an accepted step that does
      not cut the residual to a quarter (``_LINEAR_RATIO``) shows linear
      convergence to a singular limit.

    Every way but the first is a ``NoConvergence``, as is the iteration
    cap.  A seed also ends with the error of a collision, pole or log of ~0
    at its seed or iterate, or with ``JacobianSingular``.
    """
    offsets = _twist_offsets(a, b, twist)
    pinned = None if modes is None else np.asarray(modes, dtype=int)
    centroid = _centroid(model)
    r_max = 3.0 * _seed_scale(model)
    # radius beyond which an accepted iterate ends the run as escaped
    r_escape = (r_max if model.sites is not None and twist.is_identity()
                else math.inf)

    def evaluate(x):
        return _evaluate(x, a, b, model, offsets, pinned)

    x = np.array(x0, dtype=complex, ndmin=2)
    outcome: list = [None] * len(x)
    with np.errstate(all="ignore"):
        res, used, err, errors = evaluate(x)
    run = _Runs(x, res, used, err)
    run.end(outcome, errors)
    done = 0
    for it in range(_MAX_ITER + 1):
        ending: list = [None] * len(run.seed)
        for i in np.flatnonzero(run.err <= tol).tolist():
            ending[i] = (run.x[i], tuple(run.used[i].tolist()),
                         float(run.err[i]))
        if it == _MAX_ITER:
            for i, result in enumerate(ending):
                if result is None:
                    ending[i] = NoConvergence(f"residual {run.err[i]:.3e} "
                                              f"after {_MAX_ITER} iterations")
        run.end(outcome, ending)
        while done < len(outcome) and outcome[done] is not None:
            yield outcome[done]
            done += 1
        if not len(run.seed):
            return
        with np.errstate(all="ignore"):
            jac, errors = _jacobian(run.x, a, model)
            going = run.end(outcome, errors)
            step, errors = _steps(jac[going], run.res)
            step = step[run.end(outcome, errors)]
            # every halving at once against the escape disk; a non-finite
            # trial passes this filter and is rejected by its residual
            trials = run.x[:, None, :] - step[:, None, :] * _HALVINGS[:, None]
            reach = np.max(np.abs(trials - centroid), axis=2)
            k, res, used, err, errors = _line_search(
                trials, ~(reach > 3.0 * r_max), run.err, evaluate)
            going = run.end(outcome, errors)
            rows = np.arange(len(run.seed))
            k, res, used, err = (v[going] for v in (k, res, used, err))
            reach, trials = reach[going][rows, k], trials[going][rows, k]
            escaped = reach > r_escape
            linear = (run.err < _LINEAR_BELOW) & (
                err > np.maximum(tol, _LINEAR_RATIO * run.err))
            creeping = np.where(err > _CREEP_RATIO * run.err,
                                run.creeping + 1, 0)
            ending = [None] * len(rows)
            for i in np.flatnonzero(escaped | linear
                                    | (creeping == _CREEP_STEPS)).tolist():
                ending[i] = NoConvergence(
                    "roots escaped towards infinity" if escaped[i] else
                    f"Newton converging linearly, residual {err[i]:.3e} "
                    f"after {run.err[i]:.3e}" if linear[i] else
                    f"Newton creeping, residual {err[i]:.3e}")
            run.x, run.res, run.used, run.err = trials, res, used, err
            run.creeping = creeping
            run.end(outcome, ending)


def _centroid(model: ModelFunctions) -> complex:
    """Centre of the seeding and escape disks: the mean inhomogeneity."""
    if not model.inhomogeneities:
        return 0.0 + 0.0j
    return sum(model.inhomogeneities) / len(model.inhomogeneities)


def _seed_scale(model: ModelFunctions) -> float:
    xi_max = 0.0
    if model.inhomogeneities:
        xi_max = max(abs(x) for x in model.inhomogeneities)
    return 3.0 * max(1.0, abs(model.c)) * (1.0 + xi_max)


def _binding_seed(u1: complex, u2: complex, c: complex):
    """Companion v-root that balances the scattering of a u-pair when the
    third vacuum ratio is trivial: solves f(v, u1) = f(u2, u1) / f(u1, u2)."""
    try:
        k = f(u2, u1, c) / f(u1, u2, c)
    except PoleError:
        return None
    if abs(k - 1.0) < 1e-12:
        return None
    return u1 + c / (k - 1.0)


def _composite_seeds(model: ModelFunctions, a: int, b: int,
                     magnon_roots: Sequence[complex]) -> list:
    """At most _COMPOSITE_CAP seeds built on single-excitation roots:
    u-tuples drawn from the pool, v-roots at pair-binding positions.
    Captures the composite states that chains with trivial third vacuum
    ratio carry in higher sectors."""
    from itertools import combinations, permutations
    c = model.c
    seeds: list = []
    pool = list(magnon_roots)
    if len(pool) < a or a < 2:
        return seeds
    for combo in combinations(range(len(pool)), a):
        u = [pool[i] for i in combo]
        if b == 0:
            seeds.append(np.array(u, dtype=complex))
            continue
        binds = [vb for (p, q) in permutations(range(a), 2)
                 if (vb := _binding_seed(u[p], u[q], c)) is not None]
        for lead in range(len(binds)):
            v = [binds[lead]]
            for cand in binds[lead + 1:] + binds[:lead]:
                if len(v) == b:
                    break
                if all(abs(cand - x) > 1e-8 for x in v):
                    v.append(cand)
            if len(v) == b:
                seeds.append(np.array(u + v, dtype=complex))
        if len(seeds) >= _COMPOSITE_CAP:
            break
    return seeds[:_COMPOSITE_CAP]


def _exact_seeds(model: ModelFunctions, a: int, b: int, twist: Twist) -> list:
    """Every state of a chain sector with a = 1 and b <= 1, in closed form.

    With r3 = 1 the v-equation of ``bethe_defect`` reads f(v, u) = k3/k2, so
    v = u + c / (k3/k2 - 1), and the u-equation then reads r1(u) = k3/k1; in
    (1, 0) it reads r1(u) = k2/k1.  Either is the polynomial equation
    prod(u - xi_k + c) - t prod(u - xi_k) = 0, whose roots are the seeds, one
    per state; at t = 1 it loses its leading term.  Untwisted (1, 1), where
    k3/k2 = 1, has no finite roots and gets no seed."""
    xi = model.inhomogeneities
    if not xi or a != 1 or b > 1:
        return []
    c, t, shift = model.c, twist.k2 / twist.k1, []
    if b:
        if twist.k3 / twist.k2 == 1:
            return []
        t, shift = twist.k3 / twist.k1, [c / (twist.k3 / twist.k2 - 1.0)]
    shifted = np.poly([x - c for x in xi])
    plain = np.poly(np.array(xi, dtype=complex))
    diff = np.asarray(shifted - t * plain, dtype=complex)
    lead = np.nonzero(np.abs(diff) > 1e-13 * max(1.0, np.abs(diff).max()))[0]
    if lead.size == 0:
        return []
    return [np.array([r] + [r + s for s in shift], dtype=complex)
            for r in np.roots(diff[lead[0]:])]


def _seed_pool(model: ModelFunctions, a: int, b: int, twist: Twist,
               n_random: int, rng: np.random.Generator,
               magnon_roots: Sequence[complex] = ()) -> list:
    """The exact seeds of a chain's a = 1, b <= 1 sector at ``twist`` (see
    ``_exact_seeds``), composite patterns (when a pool of single-excitation
    roots is supplied), deterministic string-like patterns, then
    ``n_random`` random disk seeds.

    The random seeds come from one draw of (n_random, 2, a + b) uniforms: in
    C order the same doubles as a draw per seed, a + b radii and then a + b
    angles, seed by seed.  They are built as one array expression, with the
    bits of a loop seed by seed."""
    c = model.c
    centroid = _centroid(model)
    seeds = _exact_seeds(model, a, b, twist)
    if magnon_roots:
        seeds.extend(_composite_seeds(model, a, b, magnon_roots))
    base = centroid - 0.5 * c
    for spread in (0.5, 1.0):
        for shift in (-0.5, 0.0, 0.5):
            u = [base + 1j * c * (spread * (j - 0.5 * (a - 1)) + shift)
                 + 0.07 * c * (j + 1) for j in range(a)]
            v = [base + 0.23 * c + 1j * c * (spread * (j - 0.5 * (b - 1)) - shift)
                 - 0.05 * c * (j + 1) for j in range(b)]
            seeds.append(np.array(u + v, dtype=complex))
    draw = rng.uniform(0, 1, (n_random, 2, a + b))
    pts = centroid + _seed_scale(model) * np.sqrt(draw[:, 0]) * np.exp(
        2j * math.pi * draw[:, 1])
    seeds.extend(pts)
    return seeds


def _converged_runs(model: ModelFunctions, a: int, b: int, twist: Twist,
                    n_random: int, rng_seed: int, tol: float,
                    modes: Optional[Sequence[int]] = None,
                    magnon_roots: Sequence[complex] = ()):
    """Newton from the whole seed pool as one stack: yields the (roots,
    modes, residual) of every run that converges, in pool order.  Raises
    NoConvergence, naming the last seed's error, when no run converged."""
    rng = np.random.default_rng(rng_seed)
    pool = np.array(_seed_pool(model, a, b, twist, n_random, rng,
                               magnon_roots))
    last: Exception = NoConvergence("no seeds tried")
    converged = False
    for run in _newton(model, a, b, twist, pool, tol, modes):
        if isinstance(run, Gl3Error):
            last = run
            continue
        converged = True
        yield run
    if not converged:
        raise NoConvergence(f"all seeds failed; last error: {last}")


def _newton_one(model: ModelFunctions, a: int, b: int, twist: Twist,
                x0: np.ndarray, tol: float,
                modes: Optional[Sequence[int]] = None) -> tuple:
    """Newton from one seed, a stack of one: its (roots, modes, residual),
    or its error raised."""
    run = next(_newton(model, a, b, twist, x0, tol, modes))
    if isinstance(run, Gl3Error):
        raise run
    return run


def solve_bethe(req: SolveRequest) -> BetheState:
    """Solve the (twisted) Bethe system for one state.

    Seeded either by explicit roots or by trying a deterministic seed pool;
    when mode numbers are given the Newton target is pinned to them,
    otherwise the branch is snapped to the nearest integers each step.
    """
    model, a, b = req.model, req.a, req.b
    if req.seed_roots is not None:
        x, modes, err = _newton_one(model, a, b, req.twist,
                                    req.seed_roots.as_array(), req.tol,
                                    req.mode_numbers)
    else:
        x, modes, err = next(_converged_runs(
            model, a, b, req.twist, 40, req.rng_seed, req.tol,
            req.mode_numbers))
    return BetheState(RootConfig(tuple(x[:a]), tuple(x[a:])), req.twist,
                      modes, err, model)


def _sorted_roots(values: Sequence[complex]) -> np.ndarray:
    arr = np.asarray(values, dtype=complex)
    order = np.lexsort((arr.imag.round(9), arr.real.round(9)))
    return arr[order]


def _match_distance(xs: Sequence[complex], ys: Sequence[complex],
                    cap: float) -> float:
    """Greedy nearest-partner matching: each x takes the closest y not yet
    taken.  The largest distance of a matched pair, or inf as soon as a
    pair is not closer than ``cap`` (a NaN distance included) and for sets
    of unequal length; -inf for two empty sets."""
    if len(xs) != len(ys):
        return math.inf
    dist = np.abs(np.subtract.outer(np.asarray(xs, dtype=complex),
                                    np.asarray(ys, dtype=complex)))
    worst = -math.inf
    for row in dist:
        j = int(np.argmin(row))
        if not row[j] < cap:
            return math.inf
        worst = max(worst, float(row[j]))
        dist[:, j] = np.inf
    return worst


def states_distance(s1: RootConfig, s2: RootConfig, cap: float) -> float:
    """Largest distance of the unordered-multiset matching of two root
    configurations (u with u, v with v) if every pair is closer than
    ``cap``, else inf.  The matching does not depend on ``cap``, so for
    every ``tol <= cap`` the configurations are equal within ``tol``
    exactly when this distance is below ``tol``."""
    d = _match_distance(s1.u, s2.u, cap)
    return d if d == math.inf else max(d, _match_distance(s1.v, s2.v, cap))


def states_equal(s1: RootConfig, s2: RootConfig, tol: float = 1e-6) -> bool:
    """Unordered-multiset comparison of two root configurations."""
    return states_distance(s1, s2, tol) < tol


# model -> {(a, b, twist, n_seeds, tol, rng_seed): ((roots, modes, residual),
# ...)}; the entries hold no reference to their model, so they die with it
_SOLVED = weakref.WeakKeyDictionary()


def distinct_states(model: ModelFunctions, a: int, b: int,
                    twist: Twist = Twist.identity(), n_seeds: int = 48,
                    tol: float = 1e-12, rng_seed: int = 0) -> list:
    """Best-effort enumeration of distinct on-shell states in sector (a, b).

    Converged states are deduplicated as unordered root multisets; no claim
    of completeness is made.  An empty list means no seed converged, which is
    the honest outcome for sectors without finite-root solutions.  The seed
    pool runs through Newton as one stack.  On a chain (``model.sites`` set)
    the stack stops once the seeds that have ended, in pool order, hold as
    many states as the sector can, and a sector that can hold none returns
    an empty list without a Newton run (see ``_sector_size``).

    Results are memoized while the model object lives: a repeated call with
    the same model and arguments solves nothing and returns a new list.
    """
    _check_request(a, b, tol)
    if n_seeds < 1:
        raise ValueError("n_seeds must be >= 1")
    per_model = _SOLVED.setdefault(model, {})
    key = (a, b, twist, n_seeds, tol, rng_seed)
    if key not in per_model:
        per_model[key] = _solve_sector(model, a, b, twist, n_seeds, tol,
                                       rng_seed)
    return [BetheState(roots, twist, modes, err, model)
            for roots, modes, err in per_model[key]]


def _solve_sector(model: ModelFunctions, a: int, b: int, twist: Twist,
                  n_seeds: int, tol: float, rng_seed: int) -> tuple:
    """The seed pool through Newton as one stack, its converged runs taken
    in pool order until the sector holds as many states as it can; the
    distinct converged states as sorted (roots, mode numbers, residual)
    triples."""
    size = _sector_size(model, a, b, twist)
    if size == 0:
        return ()
    magnons: tuple = ()
    if a >= 2:
        # single-excitation roots feed the composite seed patterns that
        # higher sectors of trivial-r3 chains are built from.  The pool
        # shares this sector's rng seed, so the memo can serve it from a
        # library's own (1, 0) call; on a chain at the identity or at a twist
        # with k1 != k2 that sector fills from its exact seeds before any
        # random seed is read, so the seed moves none of its states
        pool = distinct_states(model, 1, 0, twist=twist,
                               n_seeds=max(24, n_seeds // 2), tol=tol,
                               rng_seed=rng_seed)
        magnons = tuple(st.u[0] for st in pool)
    found: list = []
    try:
        for x, modes, err in _converged_runs(model, a, b, twist, n_seeds,
                                             rng_seed, tol,
                                             magnon_roots=magnons):
            cfg = RootConfig(tuple(x[:a]), tuple(x[a:]))
            if not any(states_equal(cfg, seen) for seen, _, _ in found):
                found.append((cfg, modes, err))
                if len(found) == size:
                    break   # no later seed can add a state
    except NoConvergence:
        pass    # no seed converged: the sector holds no state
    found.sort(key=lambda item: tuple(
        (round(z.real, 8), round(z.imag, 8)) for z in
        tuple(_sorted_roots(item[0].u)) + tuple(_sorted_roots(item[0].v))))
    return tuple(found)


def continue_in_twist(state: BetheState, target: Twist,
                      steps: int) -> BetheState:
    """Follow a state along a straight twist segment in ``steps`` equal
    steps, each polished by Newton to residual 1e-12.

    Mode numbers are preserved by continuity (small steps keep the branch).
    Each step starts from the roots the step before converged to, which
    passed ``phi_log``'s twist-free guard, so a root coincidence met along
    the path only rejects line-search trials and ends as NoConvergence.
    Only a start state that the guard rejects, or a pole of the Jacobian,
    raises PathCollision.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    src = state.twist
    if max(abs(src.k1 - target.k1), abs(src.k2 - target.k2),
           abs(src.k3 - target.k3)) < 1e-15:
        return state
    model, a, b = state.model, state.a, state.b
    x = state.roots.as_array()
    modes, err = state.mode_numbers, state.residual
    for step in range(1, steps + 1):
        lam = step / steps
        tw = Twist(k1=src.k1 + lam * (target.k1 - src.k1),
                   k2=src.k2 + lam * (target.k2 - src.k2),
                   k3=src.k3 + lam * (target.k3 - src.k3))
        try:
            x, modes, err = _newton_one(model, a, b, tw, x, 1e-12)
        except (PoleError, ZeroArgError) as exc:
            raise PathCollision(f"collision at twist step {step}/{steps}: {exc}")
    return BetheState(RootConfig(tuple(x[:a]), tuple(x[a:])), target, modes,
                      err, model)
