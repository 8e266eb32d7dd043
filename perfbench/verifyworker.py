"""One ``ksf verify --id ALL --format json`` run in a fresh process, timed in-process.

Usage: ``python verifyworker.py REPORT_PATH TRACE_PATH|-``.  With ``-`` the run
is untraced.  Otherwise every public kspecfun function is wrapped
(see tracer.py) and the spans are written to TRACE_PATH.  Prints one JSON
object: the CLI exit code, the in-process import and run times and, when
traced, the per-layer figures.  The caller puts the checkout's ``src`` on
``PYTHONPATH`` and passes the registry ids to report as JSON on stdin.
"""

from __future__ import annotations

import json
import sys
import time


def main():
    report_path, trace_path = sys.argv[1], sys.argv[2]
    registry_ids = json.load(sys.stdin)
    t0 = time.perf_counter()
    import kspecfun.cli
    import_s = time.perf_counter() - t0
    rec = None
    if trace_path != "-":
        from tracer import Recorder

        rec = Recorder()
        rec.install()
    t1 = time.perf_counter()
    code = kspecfun.cli.run_cli(
        ["verify", "--id", "ALL", "--format", "json", "--out", report_path])
    run_s = time.perf_counter() - t1
    result = {"exit_code": code, "import_s": import_s, "run_s": run_s}
    if rec is not None:
        from tracer import layer_metrics

        rec.uninstall()
        rec.dump(trace_path)
        result["metrics"] = layer_metrics(rec, registry_ids)
        result["metrics"]["trace.spans"] = len(rec.fid)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
