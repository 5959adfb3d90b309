"""Self-test of the benchmark's tracer and per-layer metrics.

    python3 bench/selftest.py            # about a minute

1. Wrapping a function rebinds every module that imported it by name, and
   calls made through those modules are counted.
2. The interpolated vacuum ratios of ``ff-large`` take their values exactly
   at the nodes and have the right derivative there and elsewhere.
3. On each workload, every per-layer metric is nonzero where README.md says
   the layer does the work, and the oracle stays idle where it says the
   workload bypasses it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracer as tr  # noqa: E402

ORACLE = ("oracle.monodromy.calls", "oracle.monodromy.s",
          "oracle.monodromy.bytes_computed", "oracle.transfer_matrix.calls",
          "oracle.transfer_matrix.s", "oracle.eigenvector_for_state.calls",
          "oracle.eigenvector_for_state.s",
          "oracle.eigenvector_for_state.self_s")
SOLVER = ("cli.prepare_states.calls", "cli.prepare_states.s",
          "solver.distinct_states.calls", "solver.distinct_states.s",
          "solver.distinct_states.self_s", "solver.states_found",
          "solver.newton_steps", "solver.newton_steps_per_state",
          "model.phi_log.calls", "model.phi_log.s")
GAUDIN = ("model.gaudin_matrix.calls", "model.gaudin_matrix.s")
FORMFACTOR = ("formfactor.form_factor.calls", "formfactor.form_factor.s",
              "formfactor.assemble.s", "formfactor.n_matrix.s",
              "formfactor.prefactor_H.s", "formfactor.det_lu.calls",
              "formfactor.det_lu.s", "formfactor.det_lu.flops_computed",
              "kernel.prod.calls", "kernel.prod.s")

# workload -> (metrics that must be nonzero, metrics that must be zero)
EXPECT = {
    "verify": (ORACLE + SOLVER + GAUDIN + FORMFACTOR, ()),
    "identities": (SOLVER + GAUDIN + FORMFACTOR, ORACLE),
    "ff-table": (GAUDIN + FORMFACTOR, ORACLE + SOLVER),
    "ff-large": (FORMFACTOR + ("formfactor.nonfinite",),
                 ORACLE + SOLVER + GAUDIN),
}


def check(cond: bool, message: str) -> None:
    if not cond:
        raise AssertionError(message)


def test_rebinding() -> None:
    from gl3ff import cli, formfactor, model, oracle, solver
    import gl3ff

    tracer = tr.Tracer()
    extra = [(model, "tau_twisted", "model.tau_twisted", None),
             (solver, "states_equal", "solver.states_equal", None)]
    originals = {name: getattr(mod, name)
                 for mod, name, _, _ in tr.gl3ff_targets(tracer) + extra}
    tracer.install(tr.gl3ff_targets(tracer) + extra)
    try:
        for mod, name in ((solver, "phi_log"), (solver, "gaudin_matrix"),
                          (formfactor, "gaudin_matrix"), (cli, "phi_log"),
                          (formfactor, "states_equal"), (cli, "states_equal"),
                          (oracle, "tau_twisted"), (cli, "tau_twisted"),
                          (cli, "distinct_states"), (gl3ff, "distinct_states"),
                          (formfactor, "h_prod"), (formfactor, "delta"),
                          (model, "f_prod"), (cli, "prepare_states")):
            check(getattr(mod, name) is not originals[name],
                  f"{mod.__name__}.{name} was not rebound")
        check(not tracer.stale_bindings(), "stale bindings left")

        # a call that reaches the copies imported by name is counted
        st = model.BetheState(model.RootConfig((0.2 + 0.1j,), ()),
                              model.Twist(), (0,), 0.0,
                              model.xxx_chain(2, (0.1, -0.2), 1.0))
        formfactor.ff_diag(1, st, st, 0.3 + 0.4j)
        for name in ("solver.states_equal", "model.gaudin_matrix",
                     "formfactor.prefactor_H", "formfactor.det_lu",
                     "kernel.prod"):
            check(tracer.spans[name].calls > 0, f"{name} counted no call")
    finally:
        tracer.uninstall()
    for mod, name in ((solver, "phi_log"), (formfactor, "states_equal"),
                      (oracle, "tau_twisted")):
        check(getattr(mod, name) is originals[name],
              f"{mod.__name__}.{name} not restored")
    print("rebinding: ok")


def test_interpolant() -> None:
    import numpy as np
    import synth

    rng = np.random.default_rng(0)
    x = rng.normal(size=7) + 1j * rng.normal(size=7)
    y = rng.normal(size=7) + 1j * rng.normal(size=7)
    p = synth.Interpolant(x, y)
    check(all(p(a) == b for a, b in zip(x, y)), "interpolant misses a node")
    h = 1e-5
    for z in (x[3], 0.3 + 0.2j):
        # central difference through points next to, not on, the nodes
        w = z + 1e-7j
        fd = (p(w + h) - p(w - h)) / (2 * h)
        check(abs(p.derivative(z) - fd) <= 1e-6 * abs(fd),
              f"derivative at {z}: {p.derivative(z)} vs {fd}")
    print("interpolant: ok")


def test_workload(name: str) -> None:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
         "--seed", "7", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    check(proc.returncode == 0, f"{name}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    check(result["correct"], f"{name}: traced outputs failed the gate")
    nonzero, zero = EXPECT[name]
    for metric in nonzero:
        check(metrics[metric] > 0, f"{name}: {metric} is zero")
    for metric in zero:
        check(metrics[metric] == 0, f"{name}: {metric} is {metrics[metric]}")
    check(metrics["trace.overhead_ratio"] > 0, f"{name}: no overhead ratio")
    print(f"{name}: ok (overhead x{metrics['trace.overhead_ratio']:.2f})")


def main() -> int:
    test_rebinding()
    test_interpolant()
    for name in EXPECT:
        test_workload(name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
