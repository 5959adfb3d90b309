"""One workload process: set up, run timed passes, check, report.

Started by ``run.py``, never by hand.  Prints one JSON object on its last
line of standard output.  Modes:

* ``setup``: build the inputs and report the monotonic time they were ready,
  followed by SETUP_SLICES reference slices;
* ``run``: also run untraced timed passes for ``--seconds`` and check them;
* ``trace``: half the time untraced, then the same passes with every layer
  wrapped by the tracer; reports per-layer totals over the traced passes.

While a process runs passes, a timer interrupts it every SAMPLE_EVERY_S to
time a slice of fixed reference work in the main thread, between two
bytecodes of whatever runs, so also inside a suite's one long call.  Pass,
element and span times are read from ``Sampler.clock``, which stops while a
slice runs, so they never include one.  ``run.py`` scales them by the
slices, and the set-up time by the slices taken right after set-up.

The process reports the SHA-256 digest of every pass's outputs, so that
``run.py`` can check that all passes of a run, traced or not and in every
process, and earlier runs of the same sources give the same outputs.  With
``--gate 0`` the outputs are not checked otherwise, for the later processes
of a run whose first process ran the full gate.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import signal
import sys
import time
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

SAMPLE_EVERY_S = 0.2  # reference slices while passes run, this often
SETUP_SLICES = 5      # reference slices right after set-up


def _reference_slice() -> float:
    """Time one slice of fixed reference work, a mix of interpreter-bound
    Python and small numpy calls like the workloads' (about 8 ms on the
    reference machine).  Its time tracks how fast the machine runs this
    process right now."""
    import numpy as np
    t0 = time.perf_counter()
    acc = 0
    for i in range(60000):
        acc += i * i % 7
    a = np.arange(64, dtype=complex)
    for _ in range(200):
        a = np.linalg.det(np.eye(4) + 0.01 * a[:16].reshape(4, 4)) + a
    return time.perf_counter() - t0


class Sampler:
    """Reference slices taken from a one-shot SIGALRM timer, re-armed after
    each slice so that slices never nest; one more on entry, so that every
    process has at least one."""

    def __init__(self):
        self.samples: list = []
        self._paused = 0.0

    def clock(self) -> float:
        """``perf_counter`` without the time spent in slices."""
        return time.perf_counter() - self._paused

    def _sample(self, *_) -> None:
        t0 = time.perf_counter()
        self.samples.append(_reference_slice())
        self._paused += time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def _digest(output) -> str:
    def encode(value):
        if isinstance(value, complex):
            return [value.real, value.imag]
        raise TypeError(f"cannot digest {type(value).__name__}")

    blob = json.dumps(output, sort_keys=True, default=encode).encode()
    return hashlib.sha256(blob).hexdigest()


def _passes(wl, seconds: float, sampler: Sampler) -> tuple:
    """Passes until ``seconds`` of them are timed (at least one).  Returns
    the outputs, the pass times (the sum of their element times) and the
    latency of every element, its median over the passes."""
    import numpy as np
    outputs, times, lats = [], [], []
    with sampler:
        while not times or sum(times) < seconds:
            out, lat = wl.run_pass(sampler.clock)
            times.append(sum(lat))
            outputs.append(out)
            lats.append(lat)
    return outputs, times, np.median(lats, axis=0).tolist()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--gate", type=int, choices=(0, 1), default=1,
                    help="0: report the output digests without the checks")
    args = ap.parse_args(argv)

    import numpy as np
    import workloads
    warnings.simplefilter("ignore")
    np.seterr(all="ignore")

    wl = workloads.make(args.workload)
    wl.setup(args.seed)
    ready = time.monotonic()
    result = {"ready": ready, "inputs": wl.describe(),
              "setup_reference_s": [_reference_slice()
                                    for _ in range(SETUP_SLICES)]}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    sampler = Sampler()

    if args.mode == "run":
        outputs, times, elem = _passes(wl, args.seconds, sampler)
    else:
        import tracer as tr
        plain_out, plain_times, _ = _passes(wl, args.seconds / 2, sampler)
        tracer = tr.Tracer(sampler.clock)
        tracer.install(tr.gl3ff_targets(tracer))
        try:
            traced_out, times, elem = _passes(wl, args.seconds / 2, sampler)
        finally:
            tracer.uninstall()
        outputs = plain_out + traced_out
        result["per_layer"] = tr.snapshot(tracer)
        result["traced_passes"] = len(times)
        result["plain_pass_s"] = plain_times

    result["reference_s"] = sampler.samples
    digests = [_digest(out) for out in outputs]
    result.update({
        "pass_s": times,
        "elem_s": elem,
        "digests": digests,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    })
    if args.gate:
        attempted, failed, correct, notes = wl.gate(outputs[0])
        notes["output_digest"] = digests[0][:16]
        result.update({"attempted_per_pass": attempted,
                       "failed_per_pass": failed, "gate_correct": correct,
                       "notes": notes})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
