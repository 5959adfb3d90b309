"""Command-line surface: solve Bethe systems, tabulate matrix elements over a
probe grid, and run the verification and identity suites.

This module parses configs, serializes results and runs the four commands.
The checks behind ``verify`` and ``identities`` live in ``gl3ff.checks``,
which the acceptance tests run as well.

Configs and reports are JSON; tables are CSV or JSON.  Complex numbers are
serialized as [re, im] pairs.  A fixed rng seed makes every output
byte-reproducible.

Exit codes: 0 pass, 1 check failure, 2 numerical failure, 3 config error
(a malformed command line included).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import sys
from typing import Optional, Sequence

import numpy as np

from .checks import (DEFAULT_SEED, DEFAULT_XI_RADIUS,
                     build_identities_report, build_verify_report, pair,
                     seeded_inhomogeneities, state_to_json, vacuum)
from .errors import (ConfigError, Gl3Error, NoConvergence, NonFiniteResult,
                     PoleError, SectorMismatch)
from .model import (BetheState, ModelFunctions, RootConfig, Twist,
                    bethe_defect, xxx_chain)
from .solver import SolveRequest, distinct_states, solve_bethe
from . import formfactor as ff
# unused here, but bound for the benchmark, which looks them up in this module
from .checks import prepare_states  # noqa: F401
from .model import phi_log, tau_twisted  # noqa: F401
from .solver import states_equal  # noqa: F401


# ---------------------------------------------------------------------------
# config handling

@contextlib.contextmanager
def _config_values(what: str):
    """A ``ValueError`` or ``TypeError`` that a constructor raises on config
    values in the block becomes a ``ConfigError`` about ``what``."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def _as_int(node, what: str) -> int:
    """``node`` if it is a JSON integer; ``int()`` would truncate a float and
    take a boolean, so both, like strings, are config errors."""
    if type(node) is not int:
        raise ConfigError(f"{what} must be an integer, got {node!r}")
    return node


def _is_number(node) -> bool:
    """Whether ``node`` is a JSON number that a float holds; a boolean is an
    ``int`` to ``isinstance``, but no number here, and neither is an integer
    beyond the float range."""
    return (isinstance(node, (int, float)) and not isinstance(node, bool)
            and abs(node) <= sys.float_info.max)


def _as_complex(node, what: str) -> complex:
    if _is_number(node):
        return complex(node)
    if (isinstance(node, (list, tuple)) and len(node) == 2
            and all(_is_number(x) for x in node)):
        return complex(node[0], node[1])
    raise ConfigError(f"{what}: expected a number or [re, im] pair, got {node!r}")


def _as_complex_list(node, what: str) -> tuple:
    if not isinstance(node, list):
        raise ConfigError(f"{what}: expected a list")
    return tuple(_as_complex(x, what) for x in node)


def model_from_config(cfg: dict, rng_seed: int) -> ModelFunctions:
    node = cfg.get("model")
    if not isinstance(node, dict):
        raise ConfigError("config needs a 'model' object")
    if "L" not in node:
        raise ConfigError("model.L is required")
    L = _as_int(node["L"], "model.L")
    c = _as_complex(node.get("c", 1.0), "model.c")
    xi_node = node.get("xi", "seeded")
    with _config_values("model"):
        if xi_node == "homogeneous":
            xi = (0j,) * L
        elif xi_node == "seeded":
            radius = node.get("xi_radius", DEFAULT_XI_RADIUS)
            if not _is_number(radius):
                raise ConfigError(
                    f"model.xi_radius must be a number, got {radius!r}")
            xi = seeded_inhomogeneities(L, rng_seed, radius)
        else:
            xi = _as_complex_list(xi_node, "model.xi")
            if len(xi) != L:
                raise ConfigError(f"model.xi must have L={L} entries, got {len(xi)}")
        return xxx_chain(L, xi, c)


def twist_from_config(node) -> Twist:
    if node is None:
        return Twist.identity()
    if not (isinstance(node, list) and len(node) == 3):
        raise ConfigError("sector.twist must be a list of three complex pairs")
    k1, k2, k3 = (_as_complex(x, "sector.twist") for x in node)
    with _config_values("sector.twist"):
        return Twist(k1, k2, k3)


def roots_from_node(node, what: str) -> RootConfig:
    if not isinstance(node, dict) or "u" not in node or "v" not in node:
        raise ConfigError(f"{what}: expected an object with 'u' and 'v' lists")
    return RootConfig(u=_as_complex_list(node["u"], what),
                      v=_as_complex_list(node["v"], what))


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is no finite JSON number")
    return value


def _read_json(path: str, what: str):
    """The JSON document at ``path``.  Python's json reads the literals
    NaN, Infinity and -Infinity, which are no JSON numbers, and a number
    such as 1e400 as an infinite float; both are config errors, as is a file
    that cannot be read or parsed."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_float=_finite_float,
                             parse_constant=_finite_float)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}")


def load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    cfg = _read_json(path, "config")
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def state_from_json(node: dict, model: ModelFunctions, tol: float) -> BetheState:
    roots = roots_from_node(node, "state")
    twist = twist_from_config(node.get("twist"))
    defect = bethe_defect(roots, twist, model)
    residual = float(np.max(np.abs(defect))) if defect.size else 0.0
    if not residual <= tol:  # a nan defect is not on shell either
        raise ConfigError(
            f"roots are not on shell for this model (defect {residual:.3e})")
    n = roots.a + roots.b
    with _config_values("state.mode_numbers"):
        modes = tuple(_as_int(k, "state.mode_numbers") for k in
                      node.get("mode_numbers", [0] * n))
    if len(modes) != n:
        raise ConfigError(f"state.mode_numbers must have length a + b = {n}, "
                          f"got {len(modes)}")
    return BetheState(roots, twist, modes, residual, model)


def _write_output(payload, path: Optional[str], fmt: str) -> None:
    if fmt == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        text = payload  # callers pass pre-rendered CSV text
    if path:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output {path}: {exc}")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# commands: each takes the parsed arguments, the config and the rng seed

def _section(cfg: dict, key: str) -> dict:
    """The optional ``key`` object of the config, empty when absent."""
    node = cfg.get(key, {})
    if not isinstance(node, dict):
        raise ConfigError(f"config '{key}' must be an object")
    return node


def _task_tol(args, cfg: dict) -> float:
    """``--tol``, else the config's ``task.tol``, else 1e-12; a tolerance
    that is no positive finite number is a config error."""
    if args.tol is not None:
        tol = args.tol
    else:
        tol = _section(cfg, "task").get("tol", 1e-12)
        if not _is_number(tol):
            raise ConfigError(f"task.tol must be a number, got {tol!r}")
    if not (tol > 0 and math.isfinite(tol)):
        raise ConfigError("tolerance (--tol or task.tol) must be a positive "
                          f"finite number, got {tol!r}")
    return float(tol)


def cmd_solve(args, cfg: dict, rng_seed: int) -> int:
    model = model_from_config(cfg, rng_seed)
    sector = cfg.get("sector")
    if not isinstance(sector, dict):
        raise ConfigError("config needs a 'sector' object")
    a = _as_int(sector.get("a"), "sector.a")
    b = _as_int(sector.get("b"), "sector.b")
    if not 0 <= b <= a:
        raise ConfigError(f"sector (a={a}, b={b}) violates 0 <= b <= a")
    twist = twist_from_config(sector.get("twist"))
    tol = _task_tol(args, cfg)
    seed = sector.get("seed_roots")
    mode_numbers = sector.get("mode_numbers")
    # the solver checks its arguments before it solves
    with _config_values("sector"):
        if a == b == 0:
            states = [vacuum(model)]
        elif seed is not None or mode_numbers is not None:
            if seed is not None:
                seed = roots_from_node(seed, "sector.seed_roots")
            if mode_numbers is not None:
                mode_numbers = [_as_int(n, "sector.mode_numbers")
                                for n in mode_numbers]
            states = [solve_bethe(SolveRequest(
                model=model, a=a, b=b, twist=twist, seed_roots=seed,
                mode_numbers=mode_numbers, tol=tol, rng_seed=rng_seed))]
        else:
            states = distinct_states(model, a, b, twist=twist,
                                     n_seeds=_as_int(sector.get("n_seeds", 48),
                                                     "sector.n_seeds"),
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
    blob = _read_json(path, "roots file")
    states = blob.get("states") if isinstance(blob, dict) else None
    if not isinstance(states, list) or not states:
        raise ConfigError(f"roots file {path} has no states")
    if not 0 <= index < len(states):
        raise ConfigError(f"state index {index} out of range for {path}")
    return state_from_json(states[index], model, max(1e-8, 100 * tol))


def cmd_ff(args, cfg: dict, rng_seed: int) -> int:
    model = model_from_config(cfg, rng_seed)
    task = _section(cfg, "task")
    fmt = args.format or _section(cfg, "output").get("format", "csv")
    if fmt not in ("json", "csv"):
        raise ConfigError(f"output.format must be 'json' or 'csv', got {fmt!r}")
    tol = _task_tol(args, cfg)
    left = _load_state_file(args.left, model, tol, args.left_index)
    right = _load_state_file(args.right, model, tol, args.right_index)
    for path, index, st in ((args.left, args.left_index, left),
                            (args.right, args.right_index, right)):
        if not st.twist.is_identity():
            raise ConfigError(
                f"state {index} of {path} is twisted ({st.twist}); the "
                "determinant representations need untwisted states")
    try:
        kinds = [(_as_int(i, "task.kinds"), _as_int(j, "task.kinds"))
                 for i, j in task.get("kinds")]
    except (TypeError, ValueError):
        kinds = None
    if not kinds or any(k not in ff.KINDS for k in kinds):
        raise ConfigError("task.kinds must be a non-empty list of entries "
                          f"[i, j] with i, j in 1, 2, 3, got {task.get('kinds')!r}")
    z_grid = _as_complex_list(task.get("z_points"), "task.z_points")
    if not z_grid:
        raise ConfigError("task.z_points must not be empty")
    rows = []
    for kind in kinds:
        for z in z_grid:
            row = {"kind_i": kind[0], "kind_j": kind[1],
                   "z_re": z.real, "z_im": z.imag}
            try:
                value, mat, same = ff.determinant_element(kind, left, right, z)
                row.update({"f_re": value.real, "f_im": value.imag,
                            "branch": "same" if same else "different",
                            "lu_cond": ff.lu_condition(mat), "error": ""})
            except (SectorMismatch, PoleError, NonFiniteResult) as exc:
                row.update({"f_re": "", "f_im": "", "branch": "",
                            "lu_cond": "", "error": f"{type(exc).__name__}: {exc}"})
            rows.append(row)
    if fmt == "json":
        _write_output({"rows": rows}, args.out, "json")
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
        _write_output(buf.getvalue(), args.out, "csv")
    return 0


def cmd_report(args, cfg: dict, rng_seed: int) -> int:
    """Write the report that ``args.build`` makes; exit 1 if a record fails.
    The config may hold ``rng_seed`` and nothing else; only ``--tol``
    overrides the checks' tolerances."""
    unread = sorted(set(cfg) - {"rng_seed"})
    if unread:
        raise ConfigError(f"{args.command} reads only rng_seed from its "
                          f"config, got {', '.join(map(repr, unread))}")
    tol = None if args.tol is None else _task_tol(args, cfg)
    payload = args.build(rng_seed).to_json()
    if tol is not None:
        # uniform tolerance override: re-evaluate pass flags
        for rec in payload["records"]:
            if "residual" in rec:
                rec["tolerance"] = tol
                rec["pass"] = rec["residual"] <= tol
        payload["n_failures"] = sum(not r["pass"] for r in payload["records"])
    _write_output(payload, args.out, "json")
    for rec in payload["records"]:
        status = "PASS" if rec["pass"] else "FAIL"
        extra = (f"residual={rec['residual']:.3e} tol={rec['tolerance']:.1e}"
                 if "residual" in rec else rec.get("error", ""))
        print(f"[{status}] {rec['name']}: {extra}", file=sys.stderr)
    return 0 if payload["n_failures"] == 0 else 1


# ---------------------------------------------------------------------------
# entry point

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gl3ff",
        description="Determinant matrix elements for three-colour integrable "
                    "chains, validated against explicit Hilbert-space arithmetic.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help_text, func, **defaults):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="JSON config path")
        p.add_argument("--seed", type=int, default=None, help="rng seed override")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--tol", type=float, default=None, help="tolerance override")
        p.set_defaults(func=func, **defaults)
        return p

    command("solve", "find on-shell root configurations", cmd_solve)

    p = command("ff", "tabulate matrix elements over a z-grid", cmd_ff)
    p.add_argument("--format", choices=("json", "csv"), default=None,
                   help="table format (default: config output.format, else csv)")
    p.add_argument("--left", required=True, help="left-state roots file")
    p.add_argument("--right", required=True, help="right-state roots file")
    p.add_argument("--left-index", type=int, default=0)
    p.add_argument("--right-index", type=int, default=0)

    command("verify", "run the oracle verification suite", cmd_report,
            build=build_verify_report)
    command("identities", "run the algebraic identity suite", cmd_report,
            build=build_identities_report)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a malformed command line, which here is a
        # config error (2 is a numerical failure); --help exits 0
        if exc.code == 2:
            return 3
        raise
    try:
        cfg = load_config(args.config)
        rng_seed = (args.seed if args.seed is not None
                    else cfg.get("rng_seed", DEFAULT_SEED))
        # numpy seeds only non-negative integers, and a JSON true is no seed
        if type(rng_seed) is not int or rng_seed < 0:
            raise ConfigError("rng seed (--seed or rng_seed) must be a "
                              f"non-negative integer, got {rng_seed!r}")
        return args.func(args, cfg, rng_seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except Gl3Error as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
