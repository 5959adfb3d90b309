import csv
import json

import numpy as np
import pytest

import gl3ff.cli as cli
from gl3ff.model import tau, xxx_chain


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


def test_verify_default_config_passes(tmp_path):
    out = tmp_path / "verify.json"
    assert run(["verify", "--seed", 7, "--out", out]) == 0
    blob = json.loads(out.read_text())
    assert blob["n_failures"] == 0
    assert blob["n_checks"] >= 30
    for rec in blob["records"]:
        assert "inputs_digest" in rec


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


def test_identities_tightened_tolerance_fails(tmp_path):
    out = tmp_path / "strict.json"
    assert run(["identities", "--seed", 7, "--out", out, "--tol", "1e-18"]) == 1
    blob = json.loads(out.read_text())
    assert blob["n_failures"] > 0


def test_local_op_structure(tmp_path):
    xi = [[0.08, 0.01], [-0.05, 0.03]]
    cfg = write_cfg(tmp_path, "cfg.json", {
        "model": {"L": 2, "c": [1.0, 0.0], "xi": xi},
        "sector": {"a": 0, "b": 0},
    })
    roots = tmp_path / "vac.json"
    assert run(["solve", "--config", cfg, "--out", roots]) == 0
    out = tmp_path / "op.json"
    assert run(["local-op", "--config", cfg, "--left", roots, "--right", roots,
                "--site", 1, "--alpha", 2, "--beta", 2,
                "--z-re", 0.4, "--z-im", 0.2, "--out", out]) == 0
    blob = json.loads(out.read_text())
    model = xxx_chain(2, tuple(complex(*p) for p in xi), 1.0)
    from gl3ff.model import RootConfig
    z = 0.4 + 0.2j
    tz = tau(z, RootConfig((), ()), model)
    got = complex(*blob["local_operator_element"])
    expect = 1.0 / tz  # F(2,2) = 1 on the vacuum, site 1
    assert abs(got - expect) < 1e-12 * abs(expect)
    assert "caveat" in blob


def test_local_op_pole_homogeneous(tmp_path):
    cfg = write_cfg(tmp_path, "cfg.json", {
        "model": {"L": 2, "xi": "homogeneous"},
        "sector": {"a": 0, "b": 0},
    })
    roots = tmp_path / "vac.json"
    assert run(["solve", "--config", cfg, "--out", roots]) == 0
    code = run(["local-op", "--config", cfg, "--left", roots, "--right", roots,
                "--site", 1, "--alpha", 1, "--beta", 1,
                "--z-re", 0.0, "--z-im", 0.0])
    assert code == 2  # evaluation point sits on the homogeneous pole


def test_local_op_finite_inhomogeneous(tmp_path):
    cfg = write_cfg(tmp_path, "cfg.json", {
        "model": {"L": 2, "c": [1.0, 0.0], "xi": [[0.08, 0.01], [-0.05, 0.03]]},
        "sector": {"a": 0, "b": 0},
    })
    roots = tmp_path / "vac.json"
    assert run(["solve", "--config", cfg, "--out", roots]) == 0
    out = tmp_path / "op.json"
    assert run(["local-op", "--config", cfg, "--left", roots, "--right", roots,
                "--site", 2, "--alpha", 1, "--beta", 1,
                "--z-re", 0.0, "--z-im", 0.0, "--out", out]) == 0
    got = complex(*json.loads(out.read_text())["local_operator_element"])
    assert np.isfinite(got.real) and np.isfinite(got.imag)
