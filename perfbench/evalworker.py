"""Timed closed loop over a fixed evaluator call list, run in a fresh process.

Reads ``{"calls": [[name, args], ...], "seconds": s, "trace": 0|1,
"trace_out": path, "registry_ids": [...]}`` as JSON on stdin and writes one
JSON object to stdout.
The caller puts the checkout's ``src`` on ``PYTHONPATH``.  This process
never sees reference values; it only receives the generated inputs.

Untraced, it repeats passes over the call list until ``seconds`` have
passed and reports each pass's wall time, with the time of the calibration
kernel (hostspeed.py) run right after it.  Traced, it times untraced
passes for half the time, then traced passes until the other half has
passed or ``MAX_SPANS`` spans are held, and reports per-pass layer figures.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time

import hostspeed

MAX_SPANS = 100_000


def _run_pass(bound, out):
    for i, (fn, args) in enumerate(bound):
        try:
            out[i] = fn(*args)
        except Exception as exc:  # a raised error is a result the caller checks
            out[i] = f"raised {type(exc).__name__}"


def _timed_passes(bound, keys, seconds, stop=lambda: False):
    """Run passes until ``seconds`` elapse (at least one).

    Returns (pass_s, kernel_s, diverged): each pass's wall time, the
    calibration kernel's time right after it, and the number of results
    that differ from the warm-up pass.
    """
    out = [None] * len(bound)
    pass_s, kernel_s = [], []
    diverged = 0
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        _run_pass(bound, out)
        pass_s.append(time.perf_counter() - t0)
        kernel_s.append(hostspeed.kernel_s())
        diverged += sum(repr(v) != key for v, key in zip(out, keys))
        if time.perf_counter() >= deadline or stop():
            return pass_s, kernel_s, diverged


def main():
    job = json.load(sys.stdin)
    t0 = time.perf_counter()
    import kspecfun
    import_s = time.perf_counter() - t0

    def bind():
        return [(getattr(kspecfun, name), tuple(args)) for name, args in job["calls"]]

    bound = bind()
    first = [None] * len(bound)
    _run_pass(bound, first)  # warm-up; its results are the ones checked
    keys = [repr(v) for v in first]
    result = {"results": [v if isinstance(v, (float, str)) else repr(v) for v in first]}
    if not job["trace"]:
        pass_s, kernel_s, diverged = _timed_passes(bound, keys, job["seconds"])
        result.update(pass_s=pass_s, kernel_s=kernel_s, diverged=diverged,
                      passes=1 + len(pass_s))  # the warm-up pass is checked too
    else:
        from tracer import Recorder, layer_metrics

        plain_s, _, plain_div = _timed_passes(bound, keys, job["seconds"] / 2)
        rec = Recorder()
        rec.install()
        try:
            traced_s, _, traced_div = _timed_passes(
                bind(), keys, job["seconds"] / 2, lambda: len(rec.fid) >= MAX_SPANS)
        finally:
            rec.uninstall()
        rec.dump(job["trace_out"])
        metrics = layer_metrics(rec, job["registry_ids"], per=len(traced_s))
        metrics["cli.import_s"] = import_s
        metrics["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(plain_s)
        metrics["trace.spans"] = len(rec.fid) / len(traced_s)
        result.update(metrics=metrics, diverged=plain_div + traced_div,
                      passes=1 + len(plain_s) + len(traced_s))
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
