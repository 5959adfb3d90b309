import argparse
import csv
import hashlib
import json
import pathlib
import re

import numpy as np
import pytest

import gl3ff.checks as checks
import gl3ff.cli as cli
import gl3ff.formfactor as ff
from gl3ff.model import xxx_chain
from conftest import require_pinned_build


def run(args):
    return cli.main([str(a) for a in args])


def write_cfg(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture()
def homog_cfg(tmp_path):
    return write_cfg(tmp_path, "cfg.json", {
        "model": {"L": 2, "c": [1.0, 0.0], "xi": "homogeneous"},
        "sector": {"a": 1, "b": 0},
        "rng_seed": 7,
    })


def test_solve_homogeneous_l2(homog_cfg, tmp_path, capsys):
    out = tmp_path / "roots.json"
    assert run(["solve", "--config", homog_cfg, "--out", out]) == 0
    blob = json.loads(out.read_text())
    assert len(blob["states"]) == 1
    u = blob["states"][0]["u"]
    assert abs(u[0][0] - (-0.5)) < 1e-10 and abs(u[0][1]) < 1e-10


def test_solve_vacuum_record(tmp_path):
    cfg = write_cfg(tmp_path, "cfg.json", {
        "model": {"L": 2, "xi": "homogeneous"},
        "sector": {"a": 0, "b": 0},
    })
    out = tmp_path / "vac.json"
    assert run(["solve", "--config", cfg, "--out", out]) == 0
    blob = json.loads(out.read_text())
    assert blob["states"][0]["u"] == [] and blob["states"][0]["v"] == []


def test_solve_invalid_sector_exits_3(tmp_path):
    cfg = write_cfg(tmp_path, "cfg.json", {
        "model": {"L": 2, "xi": "homogeneous"},
        "sector": {"a": 0, "b": 1},
    })
    assert run(["solve", "--config", cfg]) == 3


def test_solve_negative_sector_exits_3(tmp_path):
    cfg = write_cfg(tmp_path, "cfg.json", {
        "model": {"L": 2, "xi": "homogeneous"},
        "sector": {"a": -1, "b": -1},
    })
    assert run(["solve", "--config", cfg]) == 3


@pytest.mark.parametrize("model, sector, task", [
    ({"L": 0}, {}, {}),
    ({}, {"twist": [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0]]}, {}),
    ({}, {"n_seeds": "x"}, {}),
    ({}, {"n_seeds": 0}, {}),
    ({"xi": "seeded", "xi_radius": "big"}, {}, {}),
    ({}, {"mode_numbers": [0, 1]}, {}),
    ({}, {}, {"tol": -1}),
    ({"c": 0}, {}, {}),
    ({"L": 2.7}, {}, {}),
    ({}, {"a": 1.9}, {}),
    ({}, {"b": False}, {}),
    ({}, {"n_seeds": 12.5}, {}),
    ({}, {"mode_numbers": [0.5]}, {}),
    ({"c": True}, {}, {}),
    ({"c": [True, 0]}, {}, {}),
    ({"xi": "seeded", "xi_radius": True}, {}, {}),
    ({}, {}, {"tol": True}),
    ({}, {}, {"tol": "1e-3"}),
    ({"c": float("nan")}, {}, {}),
    ({"xi": [float("inf"), 0.0]}, {}, {}),
    ({"c": 10 ** 400}, {}, {}),
], ids=["L0", "zero_twist", "n_seeds_x", "n_seeds_0", "xi_radius_big",
        "mode_numbers_length", "negative_tol", "c0", "L_float", "a_float",
        "b_false", "n_seeds_float", "mode_numbers_float", "c_true",
        "c_true_pair", "xi_radius_true", "tol_true", "tol_string", "c_nan",
        "xi_infinity", "c_beyond_float"])
def test_solve_malformed_config_exits_3(tmp_path, model, sector, task):
    # values that the library's constructors and argument checks reject are
    # config errors, not tracebacks, "no states" or a spurious solution; so
    # are integers given as floats or booleans, which int() would truncate,
    # booleans or strings given as numbers, which complex() and float()
    # would take, and numbers that are not finite: the NaN and Infinity
    # literals (json.dumps writes them, Python's json reads them) and an
    # integer beyond the float range
    cfg = write_cfg(tmp_path, "cfg.json", {
        "model": {"L": 2, "xi": "homogeneous", **model},
        "sector": {"a": 1, "b": 0, **sector},
        "task": task,
    })
    assert run(["solve", "--config", cfg]) == 3


@pytest.mark.parametrize("command, flags, rng_seed", [
    ("verify", ["--seed", -1], 7),
    ("identities", ["--seed", -1], 7),
    ("solve", ["--seed", -1], 7),
    ("solve", [], "abc"),
    ("solve", [], True),
    ("solve", [], 1.5),
], ids=["verify_minus_1", "identities_minus_1", "solve_minus_1", "abc",
        "true", "float"])
def test_bad_rng_seed_exits_3(tmp_path, capsys, command, flags, rng_seed):
    # numpy seeds only non-negative integers; any other seed is a config
    # error that names it, before a command blames its own section or fails
    cfg = write_cfg(tmp_path, "cfg.json", {
        "model": {"L": 2, "xi": "seeded"},
        "sector": {"a": 1, "b": 0},
        "rng_seed": rng_seed,
    })
    assert run([command, "--config", cfg, *flags]) == 3
    assert "rng seed" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "identities"])
def test_report_config_reads_only_rng_seed(tmp_path, capsys, command):
    # a report command reads rng_seed from its config and nothing else; a
    # key it would ignore is a config error that names it
    cfg = write_cfg(tmp_path, "cfg.json", {
        "model": {"L": 99, "c": 0}, "task": {"tol": -1}, "rng_seed": 7})
    assert run([command, "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "'model'" in err and "'task'" in err
    out = tmp_path / "report.json"
    seeded = write_cfg(tmp_path, "seed.json", {"rng_seed": 3})
    assert run([command, "--config", seeded, "--out", out]) == 0
    assert json.loads(out.read_text())["rng_seed"] == 3


def test_solve_unsolvable_sector_exits_2(tmp_path):
    # untwisted (1,1) has no finite roots
    cfg = write_cfg(tmp_path, "cfg.json", {
        "model": {"L": 2, "xi": "seeded"},
        "sector": {"a": 1, "b": 1, "n_seeds": 12},
    })
    assert run(["solve", "--config", cfg]) == 2


def test_solve_missing_config_exits_3(tmp_path):
    assert run(["solve", "--config", str(tmp_path / "nope.json")]) == 3
    cfg = write_cfg(tmp_path, "bad.json", {"model": {"L": "two"}})
    assert run(["solve", "--config", cfg]) == 3


def test_ff_table_vacuum_diagonals(tmp_path):
    cfg = write_cfg(tmp_path, "cfg.json", {
        "model": {"L": 2, "c": [1.0, 0.0], "xi": [[0.05, 0.0], [-0.03, 0.0]]},
        "sector": {"a": 0, "b": 0},
        "task": {"kinds": [[2, 2], [1, 1], [2, 1]],
                 "z_points": [[0.6, 0.4]]},
    })
    roots = tmp_path / "vac.json"
    assert run(["solve", "--config", cfg, "--out", roots]) == 0
    table = tmp_path / "table.csv"
    assert run(["ff", "--config", cfg, "--left", roots, "--right", roots,
                "--out", table]) == 0
    rows = list(csv.DictReader(table.open()))
    model = xxx_chain(2, (0.05, -0.03), 1.0)
    by_kind = {(int(r["kind_i"]), int(r["kind_j"])): r for r in rows}
    assert abs(float(by_kind[(2, 2)]["f_re"]) - 1.0) < 1e-12
    r1 = model.r1(0.6 + 0.4j)
    assert abs(complex(float(by_kind[(1, 1)]["f_re"]),
                       float(by_kind[(1, 1)]["f_im"])) - r1) < 1e-12 * abs(r1)
    # sector-incompatible kind shows up as a row-level error, exit stays 0
    assert by_kind[(2, 1)]["error"].startswith("SectorMismatch")


def test_ff_nonfinite_element_is_row_error(tmp_path):
    # r1(z) = f(z, 0)^80 overflows next to the homogeneous inhomogeneity
    cfg = write_cfg(tmp_path, "cfg.json", {
        "model": {"L": 80, "c": [1.0, 0.0], "xi": "homogeneous"},
        "sector": {"a": 0, "b": 0},
        "task": {"kinds": [[1, 1], [2, 2]], "z_points": [[1e-4, 0.0]]},
    })
    roots = tmp_path / "vac.json"
    assert run(["solve", "--config", cfg, "--out", roots]) == 0
    table = tmp_path / "table.csv"
    assert run(["ff", "--config", cfg, "--left", roots, "--right", roots,
                "--out", table]) == 0
    rows = {(int(r["kind_i"]), int(r["kind_j"])): r
            for r in csv.DictReader(table.open())}
    assert rows[(1, 1)]["error"].startswith("NonFiniteResult")
    assert rows[(1, 1)]["f_re"] == ""
    assert float(rows[(2, 2)]["f_re"]) == 1.0 and rows[(2, 2)]["error"] == ""


def _ff_vacuum_setup(tmp_path):
    """A config of the L=2 chain with one (2,2) probe point and a roots
    file of its vacuum, the state that the other roots files replace."""
    cfg = write_cfg(tmp_path, "cfg.json", {
        "model": {"L": 2, "xi": [[0.05, 0.0], [-0.03, 0.0]]},
        "sector": {"a": 0, "b": 0},
        "task": {"kinds": [[2, 2]], "z_points": [[0.6, 0.4]]},
    })
    roots = tmp_path / "vac.json"
    assert run(["solve", "--config", cfg, "--out", roots]) == 0
    return cfg, roots


def test_ff_non_finite_root_exits_3(tmp_path, capsys):
    # a NaN root gives a nan defect, which "defect > tol" let through as on
    # shell; the literal is no JSON number, and a nan defect is off shell
    # (finite roots 2e308 apart overflow to one), so both are config errors
    # and no table is written
    cfg, roots = _ff_vacuum_setup(tmp_path)
    nan = write_cfg(tmp_path, "nan.json", {
        "states": [{"u": [[float("nan"), 0.0]], "v": []}]})
    big = tmp_path / "big.json"  # json.dumps would write it as Infinity
    big.write_text('{"states": [{"u": [[1e400, 0.0]], "v": []}]}')
    table = tmp_path / "table.csv"
    for bad, text in ((nan, "NaN"), (big, "1e400")):
        capsys.readouterr()
        assert run(["ff", "--config", cfg, "--left", bad, "--right", roots,
                    "--out", table]) == 3
        assert f"{text} is no finite JSON number" in capsys.readouterr().err
        assert not table.exists()
    model = xxx_chain(2, (0.05, -0.03), 1.0)
    with pytest.raises(cli.ConfigError, match=r"not on shell.*defect nan"), \
            np.errstate(over="ignore", invalid="ignore"):
        cli.state_from_json({"u": [1e308, -1e308], "v": []}, model, 1e-8)


def test_ff_roots_c_apart_exit_2(tmp_path, capsys):
    # two roots c apart put f(u_0, u_1) = 0 into a denominator of the
    # on-shell test: a numerical failure, as colliding roots are
    cfg, roots = _ff_vacuum_setup(tmp_path)
    for u, named in (([[0.0, 0.0], [1.0, 0.0]], "f(u_0, u_1)"),
                     ([[0.3, 0.0], [0.3, 0.0]], "collide")):
        pair = write_cfg(tmp_path, "pair.json",
                         {"states": [{"u": u, "v": []}]})
        capsys.readouterr()
        assert run(["ff", "--config", cfg, "--left", pair,
                    "--right", roots]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(
            "numerical failure: PoleError:"), err
        assert named in err[0]


def test_ff_lu_cond_of_determinant_matrix(tmp_path, state_lib):
    # L=5 chain of the session library: seeded xi at rng seed 7, c = 1
    cfg = write_cfg(tmp_path, "cfg.json", {
        "model": {"L": 5, "xi": "seeded", "c": [1.0, 0.0]},
        "task": {"kinds": [[1, 1], [3, 1]], "z_points": [[0.9, 0.8]]},
        "rng_seed": 7,
    })
    lib = state_lib[5]
    files = {}
    for name, states in (("m31", lib["m31"]), ("m20", lib["m20"])):
        files[name] = write_cfg(tmp_path, f"{name}.json", {
            "states": [checks.state_to_json(st) for st in states]})
    right = lib["m31"][1]
    z = 0.9 + 0.8j

    def table(left_file, left_index):
        out = tmp_path / "table.json"
        assert run(["ff", "--config", cfg, "--left", files[left_file],
                    "--left-index", left_index, "--right", files["m31"],
                    "--right-index", 1, "--format", "json", "--out", out]) == 0
        rows = json.loads(out.read_text())["rows"]
        return {(r["kind_i"], r["kind_j"]): r for r in rows}

    rows = table("m31", 0)
    asm = ff.assemble(lib["m31"][0], right, z)
    square = np.vstack([ff.n_matrix(asm), ff.y_row_diag(asm, 1, False)])
    assert rows[(1, 1)]["branch"] == "different"
    assert rows[(1, 1)]["lu_cond"] == ff.lu_condition(square)
    rows = table("m31", 1)
    assert rows[(1, 1)]["branch"] == "same"
    asm = ff.assemble(right, right, z, True)
    same = np.vstack([ff._same_state_rows(asm), ff.y_row_diag(asm, 1, True)])
    assert rows[(1, 1)]["lu_cond"] == ff.lu_condition(same)
    rows = table("m20", 0)
    asm = ff.assemble(right, lib["m20"][0], z)  # T(3,1) through T(1,3)
    square = np.vstack([ff.n_matrix(asm), ff.y_row_13(asm)])
    assert rows[(3, 1)]["lu_cond"] == ff.lu_condition(square)


@pytest.mark.parametrize("task", [
    {"kinds": [[4, 4]], "z_points": [[0.6, 0.4]]},
    {"kinds": [[1, 2, 3]], "z_points": [[0.6, 0.4]]},
    {"kinds": [], "z_points": [[0.6, 0.4]]},
    {"kinds": [[2, 2]], "z_points": []},
    {"kinds": [[2, 2.5]], "z_points": [[0.6, 0.4]]},
    {"kinds": [[True, 1]], "z_points": [[0.6, 0.4]]},
])
def test_ff_bad_task_exits_3(tmp_path, task):
    cfg = write_cfg(tmp_path, "cfg.json", {
        "model": {"L": 2, "xi": [[0.05, 0.0], [-0.03, 0.0]]},
        "sector": {"a": 0, "b": 0},
        "task": task,
    })
    roots = tmp_path / "vac.json"
    assert run(["solve", "--config", cfg, "--out", roots]) == 0
    assert run(["ff", "--config", cfg, "--left", roots, "--right", roots]) == 3


def test_ff_malformed_inputs_exit_3(tmp_path):
    # a roots file or a task whose JSON is no object, or a mode number that
    # is no integer, is a config error
    model = {"L": 2, "xi": [[0.05, 0.0], [-0.03, 0.0]]}
    cfg = write_cfg(tmp_path, "cfg.json", {
        "model": model, "sector": {"a": 0, "b": 0},
        "task": {"kinds": [[2, 2]], "z_points": [[0.6, 0.4]]},
    })
    roots = tmp_path / "vac.json"
    assert run(["solve", "--config", cfg, "--out", roots]) == 0
    assert run(["ff", "--config", cfg, "--left", roots, "--right", roots]) == 0
    listed = write_cfg(tmp_path, "list.json", [])
    assert run(["ff", "--config", cfg, "--left", listed, "--right", roots]) == 3
    blob = json.loads(roots.read_text())
    blob["states"][0]["mode_numbers"] = [1.5]
    modes = write_cfg(tmp_path, "modes.json", blob)
    assert run(["ff", "--config", cfg, "--left", modes, "--right", roots]) == 3
    bad_task = write_cfg(tmp_path, "bad.json", {"model": model, "task": [1]})
    assert run(["ff", "--config", bad_task, "--left", roots,
                "--right", roots]) == 3


def test_ff_twisted_state_exits_3(tmp_path, capsys):
    # solve writes twisted states; the determinant representations need
    # untwisted ones, so ff rejects them as a config error that names the
    # file and the index, and writes no table
    model = {"L": 3, "xi": "seeded"}
    task = {"kinds": [[1, 1]], "z_points": [[0.6, 0.4]]}
    files = {}
    for name, twist in (("plain", [[1.0, 0.0]] * 3),
                        ("twisted", [[0.9, 0.1], [1.0, 0.0], [1.2, -0.2]])):
        cfg = write_cfg(tmp_path, f"{name}.cfg.json", {
            "model": model, "sector": {"a": 1, "b": 0, "twist": twist},
            "task": task, "rng_seed": 7})
        files[name] = tmp_path / f"{name}.json"
        assert run(["solve", "--config", cfg, "--out", files[name]]) == 0
    assert len(json.loads(files["twisted"].read_text())["states"]) == 3
    table = tmp_path / "table.csv"
    for left, index, named in (("twisted", 0, "twisted"),
                               ("plain", 1, "twisted")):
        capsys.readouterr()
        assert run(["ff", "--config", cfg, "--left", files[left],
                    "--right", files["twisted"], "--right-index", 1,
                    "--left-index", index, "--out", table]) == 3
        err = capsys.readouterr().err
        assert f"state {index} of {files[named]} is twisted" in err, err
        assert not table.exists()
    assert run(["ff", "--config", cfg, "--left", files["plain"],
                "--right", files["plain"], "--right-index", 1,
                "--out", table]) == 0


def test_ff_unknown_output_format_exits_3(tmp_path):
    cfg = write_cfg(tmp_path, "cfg.json", {
        "model": {"L": 2, "xi": [[0.05, 0.0], [-0.03, 0.0]]},
        "sector": {"a": 0, "b": 0},
        "task": {"kinds": [[2, 2]], "z_points": [[0.6, 0.4]]},
        "output": {"format": "xml"},
    })
    roots = tmp_path / "vac.json"
    assert run(["solve", "--config", cfg, "--out", roots]) == 0
    table = tmp_path / "table.xml"
    assert run(["ff", "--config", cfg, "--left", roots, "--right", roots,
                "--out", table]) == 3
    assert not table.exists()


def test_format_is_a_flag_of_ff_only(capsys):
    # only ff writes a table; the other commands write JSON and take no --format
    for command in ("solve", "verify", "identities"):
        assert run([command, "--format", "csv"]) == 3
    assert "unrecognized arguments: --format" in capsys.readouterr().err


def test_ff_deterministic_reruns(tmp_path):
    cfg = write_cfg(tmp_path, "cfg.json", {
        "model": {"L": 3, "xi": "seeded", "c": [1.0, 0.0]},
        "sector": {"a": 1, "b": 0},
        "task": {"kinds": [[2, 2]], "z_points": [[0.8, 0.3], [-0.4, 0.9]]},
        "rng_seed": 7,
    })
    roots = tmp_path / "roots.json"
    assert run(["solve", "--config", cfg, "--out", roots]) == 0
    t1, t2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
    assert run(["ff", "--config", cfg, "--left", roots, "--right", roots,
                "--out", t1]) == 0
    assert run(["ff", "--config", cfg, "--left", roots, "--right", roots,
                "--out", t2]) == 0
    assert t1.read_bytes() == t2.read_bytes()


@pytest.fixture()
def lib_seed7(monkeypatch, state_lib):
    """Report builds at seed 7 take the session's state library instead of
    solving the same states again."""
    def prepared(rng_seed):
        assert rng_seed == 7
        return state_lib

    monkeypatch.setattr(checks, "prepare_states", prepared)


@pytest.mark.parametrize("suite", [checks.VERIFY, checks.IDENTITIES],
                         ids=["verify", "identities"])
def test_check_records_do_not_depend_on_other_checks(lib_seed7, suite):
    # each check draws from its own stream: run alone, in suite order, in
    # reverse or with the first check dropped, it writes the same bytes
    def records(order):
        report = checks.build_report("order", order, 7)
        return [json.dumps(rec, sort_keys=True) for rec in report.records]

    alone = {check: records((check,)) for check in suite}
    for order in (suite, suite[::-1], suite[1:]):
        assert records(order) == [rec for check in order
                                  for rec in alone[check]]


# sha256 of json.dumps(report.to_json(), sort_keys=True) for the seed-7
# reports.  The digests pin the Python and numpy of conftest.PINNED_BUILD:
# another build may round a residual differently, so there the comparison is
# skipped.  They may change only in a change whose CHANGES.md entry says why
# the report bytes moved.
REPORT_SHA256 = {
    "verification":
        "6481a212405949c984b9bec1e3f070ae5e44889a634d0743af9bb1335c2a0203",
    "identities":
        "ebb516e8afc7aac8f822b4c9069fa94e77f7b65f1ea84a618cf84ab1b3c697e6",
}


def assert_report_bytes_pinned(out):
    """The --out file holds report.to_json(); a JSON round trip restores the
    pinned text exactly.  Call it last: off the pinned build it skips."""
    require_pinned_build()
    blob = json.loads(out.read_text())
    text = json.dumps(blob, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        REPORT_SHA256[blob["title"]]


def test_verify_default_config_passes(tmp_path, lib_seed7):
    out = tmp_path / "verify.json"
    assert run(["verify", "--seed", 7, "--out", out]) == 0
    blob = json.loads(out.read_text())
    assert blob["n_failures"] == 0
    assert blob["n_checks"] >= 30
    for rec in blob["records"]:
        assert "inputs_digest" in rec
    assert_report_bytes_pinned(out)


def test_verify_reruns_are_byte_identical(tmp_path):
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert run(["verify", "--seed", 7, "--out", r1]) == 0
    assert run(["verify", "--seed", 7, "--out", r2]) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_identities_report_and_determinism(tmp_path):
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert run(["identities", "--seed", 7, "--out", r1]) == 0
    assert run(["identities", "--seed", 7, "--out", r2]) == 0
    assert r1.read_bytes() == r2.read_bytes()
    blob = json.loads(r1.read_text())
    assert blob["n_failures"] == 0
    names = {rec["name"] for rec in blob["records"]}
    assert {"appendix_sum_identities_50_draws", "transposition_consistency",
            "reflection_consistency", "permutation_invariance",
            "rank1_reduction"} <= names
    assert_report_bytes_pinned(r1)


def test_identities_tightened_tolerance_fails(tmp_path, lib_seed7):
    out = tmp_path / "strict.json"
    assert run(["identities", "--seed", 7, "--out", out, "--tol", "1e-18"]) == 1
    blob = json.loads(out.read_text())
    assert blob["n_failures"] > 0


@pytest.mark.parametrize("tol", [-1, 0, float("inf"), float("nan")])
@pytest.mark.parametrize("command, source", [
    ("ff", "flag"), ("ff", "config"), ("verify", "flag"),
    ("identities", "flag")])
def test_nonpositive_tolerance_exits_3(tmp_path, capsys, command, source,
                                       tol):
    if command != "ff":
        # a report's --tol would re-evaluate every record against it
        assert run([command, "--tol", tol]) == 3
        assert "tolerance" in capsys.readouterr().err
        return
    cfg = {
        "model": {"L": 2, "xi": [[0.05, 0.0], [-0.03, 0.0]]},
        "sector": {"a": 0, "b": 0},
        "task": {"kinds": [[2, 2]], "z_points": [[0.6, 0.4]]},
    }
    roots = tmp_path / "vac.json"
    assert run(["solve", "--config", write_cfg(tmp_path, "cfg.json", cfg),
                "--out", roots]) == 0
    if source == "flag":
        flags = ["--tol", tol]
    else:
        flags = []
        cfg["task"]["tol"] = tol
    assert run(["ff", "--config", write_cfg(tmp_path, "tol.json", cfg),
                "--left", roots, "--right", roots, *flags]) == 3


@pytest.mark.parametrize("args, message", [
    (["verify", "--seed", "abc"], "invalid int value: 'abc'"),
    (["verify", "--tol", "abc"], "invalid float value: 'abc'"),
    (["ff", "--right", "roots.json"], "the following arguments are required: "
                                      "--left"),
    (["bogus"], "invalid choice: 'bogus'"),
    (["verify", "--bogus"], "unrecognized arguments: --bogus"),
    # the deleted, never verified local-operator ratio formula
    (["local-op", "--left", "roots.json", "--right", "roots.json", "--site",
      "1", "--alpha", "1", "--beta", "1", "--z-re", "0.4"],
     "invalid choice: 'local-op'"),
], ids=["seed", "tol", "ff_without_left", "subcommand", "flag", "local_op"])
def test_malformed_command_line_exits_3(capsys, args, message):
    # argparse would exit 2, the code of a numerical failure
    assert run(args) == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("args", [["--help"], ["ff", "--help"]],
                         ids=["gl3ff", "ff"])
def test_help_exits_0(capsys, args):
    with pytest.raises(SystemExit) as exc:
        run(args)
    assert exc.value.code == 0
    assert "usage: gl3ff" in capsys.readouterr().out


def test_readme_names_the_subcommands():
    # the README's "Subcommands:" line lists exactly the parser's commands
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    line = next(ln for ln in readme.splitlines()
                if ln.startswith("Subcommands:"))
    named = re.search(r"`([^`]*)`", line).group(1).split(" | ")
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert named == list(sub.choices)
