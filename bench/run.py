"""gl3ff benchmark: one workload per invocation, run from the repository root.

    python3 bench/run.py --workload verify --seed 7 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``bench/README.md`` for the workloads and what every metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("verify", "identities", "ff-table", "ff-large")
PROCESSES = 6       # timed processes per run, each measuring a sixth
SETUPS = 9          # set-up times per run, from the timed processes first
BLAS_THREADS = 1    # fixed BLAS thread count of every workload process
TIMEOUT_S = 170.0   # whole run, all child processes included
# time of one reference slice (worker.py) on the reference machine; pass and
# element times are scaled by REFERENCE_S / (their process's median slice
# time), set-up times by the same ratio for the slices right after set-up
REFERENCE_S = 0.008
DIGEST_DIR = os.path.join(".bench_build", "digests")

END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("elem_p50_ms", "ms"),
              ("elem_p99_ms", "ms"), ("ok_ratio", "1"), ("peak_rss_mb", "MB"))


class BenchError(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(args: list, deadline: float) -> tuple:
    """Run the worker; returns (its JSON result, monotonic start time)."""
    start = time.monotonic()
    remaining = deadline - start
    if remaining <= 0:
        raise BenchError("time budget exhausted")
    proc = subprocess.Popen([sys.executable, WORKER] + args, env=_child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        out, err = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError("workload process timed out")
    finally:
        # also on SIGTERM (see main): never leave the worker running
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise BenchError(f"workload process exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]), start


def source_hash() -> str:
    """SHA-256 over the Python sources of the package and the benchmark."""
    h = hashlib.sha256()
    for top in ("src", HERE):
        for root, dirs, files in os.walk(top):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            for name in sorted(f for f in files if f.endswith(".py")):
                path = os.path.join(root, name)
                h.update(os.path.relpath(path, top).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read() + b"\0")
    return h.hexdigest()


def stored_digest(name: str, digest: str) -> str:
    """The digest an earlier run of the same sources recorded under ``name``
    in this checkout; records ``digest`` if there is none."""
    path = os.path.join(DIGEST_DIR, f"{source_hash()[:16]}-{name}.sha256")
    if os.path.exists(path):
        with open(path, encoding="ascii") as fh:
            return fh.read().strip()
    os.makedirs(DIGEST_DIR, exist_ok=True)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(digest + "\n")
    return digest


def environment() -> dict:
    import numpy as np
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": os.cpu_count(), "blas_threads": BLAS_THREADS}


def _setup_time(res: dict, start: float) -> float:
    """Set-up time of one process, scaled by the slices right after it."""
    f = statistics.median(res["setup_reference_s"]) / REFERENCE_S
    return (res["ready"] - start) / f


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Spread the timed passes over up to PROCESSES fresh processes: the
    speed of a process depends on its memory layout, by up to 8 % between
    processes on the reference machine, so one process is not enough.

    The machine's speed drifts by tens of percent within seconds on a shared
    host, and reference slices taken while the passes run drift with it, so
    every time is scaled by its process's factor: the time the work would
    take at the reference machine's speed."""
    import tracer
    seconds_metrics = {name for name, unit, _ in tracer.PER_LAYER
                       if unit == "s"}
    deadline = time.monotonic() + TIMEOUT_S
    common = ["--workload", workload, "--seed", str(seed)]
    mode = ["--mode", "trace" if trace else "run",
            "--seconds", str(seconds / PROCESSES)]
    runs, setups, factors, measured = [], [], [], 0.0
    while not runs or (measured < seconds and len(runs) < PROCESSES):
        # the first process runs the gate; the later ones must reproduce its
        # outputs bit for bit
        gate = ["--gate", "0" if runs else "1"]
        res, start = _spawn(common + mode + gate, deadline)
        measured += sum(res["pass_s"]) + sum(res.get("plain_pass_s", ()))
        setups.append(_setup_time(res, start))
        f = statistics.median(res["reference_s"]) / REFERENCE_S
        factors.append(f)
        for key in ("pass_s", "plain_pass_s"):
            res[key] = [t / f for t in res.get(key, ())]
        res["elem_s"] = [t / f for t in res["elem_s"]]
        if trace:
            res["per_layer"] = {k: v / f if k in seconds_metrics else v
                                for k, v in res["per_layer"].items()}
        runs.append(res)
    while len(setups) < SETUPS:
        res, start = _spawn(common + ["--mode", "setup"], deadline)
        setups.append(_setup_time(res, start))
    first = runs[0]
    # every pass of the run, and every earlier run of the same sources at
    # this seed, must give the same outputs
    digests = {d for r in runs for d in r["digests"]}
    first_digest = runs[0]["digests"][0]
    identical = digests == {stored_digest(f"{workload}-{seed}", first_digest)}
    merged = {"setup_s": setups, "inputs": first["inputs"],
              "processes": len(runs), "notes": first["notes"],
              "factors": factors,
              "correct": first["gate_correct"] and identical,
              "peak_rss_kb": max(r["peak_rss_kb"] for r in runs)}
    merged["notes"]["reruns_identical"] = identical
    for key in ("pass_s", "plain_pass_s"):
        merged[key] = [x for r in runs for x in r.get(key, ())]
    # each element's latency is its median over the processes of its median
    # over a process's passes, so that a percentile over the elements ranks
    # elements, not moments of the machine
    merged["elem_s"] = [statistics.median(e)
                        for e in zip(*(r["elem_s"] for r in runs))]
    outputs = len(merged["pass_s"]) + len(merged["plain_pass_s"])
    merged["elements"] = first["attempted_per_pass"]
    merged["attempted"] = first["attempted_per_pass"] * outputs
    merged["failed"] = first["failed_per_pass"] * outputs
    merged["traced_passes"] = sum(r.get("traced_passes", 0) for r in runs)
    if trace:
        merged["per_layer"] = {k: sum(r["per_layer"][k] for r in runs)
                               / merged["traced_passes"]
                               for k in first["per_layer"]}
    return merged


def end_to_end(res: dict) -> dict:
    import numpy as np
    elem = res["elem_s"]
    return {
        "setup_s": statistics.median(res["setup_s"]),
        "run_s": statistics.median(res["pass_s"]),
        "elem_p50_ms": 1e3 * float(np.percentile(elem, 50)),
        "elem_p99_ms": 1e3 * float(np.percentile(elem, 99)),
        "ok_ratio": (res["attempted"] - res["failed"]) / res["attempted"],
        "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
    }


def per_layer(res: dict) -> dict:
    import tracer
    out = {name: (res["per_layer"][name], unit)
           for name, unit, _ in tracer.PER_LAYER}
    found = res["per_layer"]["solver.states_found"]
    steps = res["per_layer"]["solver.newton_steps"]
    out["solver.newton_steps_per_state"] = (steps / found if found else 0.0,
                                            "1")
    out["trace.overhead_ratio"] = (statistics.median(res["pass_s"])
                                   / statistics.median(res["plain_pass_s"]),
                                   "1")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "gl3ff", "__init__.py")):
        sys.stderr.write("run from the repository root: src/gl3ff not found\n")
        return 2
    sys.path.insert(0, HERE)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        res = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1

    pass_s = sorted(res["pass_s"])
    q1, _, q3 = (statistics.quantiles(pass_s, n=4, method="inclusive")
                 if len(pass_s) > 1 else pass_s * 3)
    print("environment " + json.dumps(environment(), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} inputs "
          + json.dumps(res["inputs"], sort_keys=True))
    print("gate " + json.dumps(res["notes"], sort_keys=True))
    print(f"run_s median {statistics.median(pass_s):.6f} q1 {q1:.6f} "
          f"q3 {q3:.6f} n {len(pass_s)} in {res['processes']} processes; "
          f"elements per pass {res['elements']}; "
          f"setup_s samples {' '.join(f'{s:.4f}' for s in res['setup_s'])}; "
          f"reference factors "
          f"{' '.join(f'{f:.3f}' for f in res['factors'])}; "
          f"fail_ratio {res['failed'] / res['attempted']:.6g} "
          f"({res['failed']}/{res['attempted']})")
    if args.trace:
        metrics = per_layer(res)
    else:
        units = dict(END_TO_END)
        metrics = {k: (v, units[k]) for k, v in end_to_end(res).items()}
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(json.dumps({
        "correct": bool(res["correct"]),
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
