"""kspecfun benchmark: point evaluation near and far, and cold ``ksf verify --id ALL``.

Run from the root of a checkout:

    python3 perfbench/run.py --workload eval-near --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones (``setup_s``, ``ops_per_s``,
``peak_rss_mb``); with ``--trace 1`` they are the per-layer figures of a
separate traced run.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import hostspeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"  # reports and span dumps; removed or ignored by git

WORKLOADS = ("eval-near", "eval-far", "verify-all")
SETUP_SAMPLES = 9
KSF_TIMEOUT_S = 60  # one verify process takes well under a second
# the untraced verify-all run is the CLI exactly as the ``ksf`` entry point runs it
KSF = "import sys; from kspecfun.cli import main; sys.argv[0] = 'ksf'; main()"


def _die(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _env():
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def _python(args, stdin=None, timeout=60.0) -> str:
    proc = subprocess.run([sys.executable, *args], input=stdin, capture_output=True,
                          text=True, env=_env(), cwd=ROOT, timeout=timeout)
    if proc.returncode != 0:
        _die(f"child {args[0]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def _reference_s() -> float:
    """Wall time of one reference process (see hostspeed.py)."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, str(BENCH / "hostspeed.py")], check=True, cwd=ROOT,
                   timeout=60)
    return time.perf_counter() - t0


def _between_references(fn, keep_going) -> list:
    """Call ``fn(i)`` while ``keep_going(i)``, with reference processes around each call.

    Returns [(result, host factor)], the factor from the mean of the
    reference processes just before and just after the call.
    """
    out = []
    before = _reference_s()
    while keep_going(len(out)):
        result = fn(len(out))
        after = _reference_s()
        out.append((result, hostspeed.process_factor(0.5 * (before + after))))
        before = after
    return out


def measure_setup(first_op: str) -> tuple[float, float]:
    """Medians over fresh interpreters of ``import kspecfun`` plus ``first_op``.

    Interpreter start-up is not included.  Returns (raw seconds,
    host-adjusted seconds).
    """
    code = ("import time\nt0 = time.perf_counter()\nimport kspecfun\n"
            f"{first_op}\nprint(time.perf_counter() - t0)")
    _python(["-c", code])  # untimed: writes the bytecode cache of a fresh checkout
    samples = _between_references(lambda i: float(_python(["-c", code])),
                                  lambda n: n < SETUP_SAMPLES)
    return (statistics.median(s for s, _ in samples),
            statistics.median(s * f for s, f in samples))


def _result(attempted: int, failed: int, metrics: dict) -> dict:
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def _unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    return "ratio" if "per_" in name.rsplit(".", 1)[-1] else "count"


def _per_layer(values: dict) -> dict:
    return {name: (value, _unit(name)) for name, value in values.items()}


def run_eval(workload: str, seed: int, seconds: float, trace: bool):
    import inputs

    calls = inputs.generate(workload, seed)
    first_name, first_args = calls[0][0], calls[0][1]
    if not trace:
        setup_raw, setup_s = measure_setup(f"kspecfun.{first_name}(*{first_args!r})")
    job = {"calls": [[name, list(args)] for name, args, _, _ in calls],
           "seconds": seconds, "trace": int(trace),
           "trace_out": str(OUT / f"trace-{workload}.json"),
           "registry_ids": list(_expected()["verdicts"])}
    out = json.loads(_python([str(BENCH / "evalworker.py")], json.dumps(job),
                             timeout=seconds + 60))

    bad = [(c, got) for c, got in zip(calls, out["results"])
           if inputs.mismatch(got, c[2], c[3])]
    for (name, args, ref, _), got in bad[:20]:
        print(f"perfbench: {name}{tuple(args)} = {got!r}, reference {ref!r}", file=sys.stderr)
    attempted = len(calls) * out["passes"]
    failed = len(bad) * out["passes"] + out["diverged"]
    if trace:
        out["metrics"]["registry.reports"] = 0
        return _result(attempted, failed, _per_layer(out["metrics"]))
    raw = [len(calls) / s for s in out["pass_s"]]
    ops_per_s = statistics.median(
        r / hostspeed.kernel_factor(k) for r, k in zip(raw, out["kernel_s"]))
    print(f"{workload} seed={seed}: {len(calls)} calls x {len(raw)} timed passes; "
          f"host-adjusted: evals_per_s={ops_per_s:.1f} setup_s={setup_s:.4f}; "
          f"raw: evals_per_s={statistics.median(raw):.1f} setup_s={setup_raw:.4f}; "
          f"peak_rss_mb={out['peak_rss_kb'] / 1024:.1f} fail_frac={failed / attempted:g}")
    return _result(attempted, failed, {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (ops_per_s, "1/s"),
        "peak_rss_mb": (out["peak_rss_kb"] / 1024, "MB"),
    })


def _expected() -> dict:
    with open(BENCH / "expected_verdicts.json") as handle:
        return json.load(handle)


def _report_failures(path: Path, expected: dict) -> tuple[int, list]:
    """(number of reports whose verdict differs from the table, verdict list)."""
    got: dict[str, str] = {}
    try:
        with open(path) as handle:
            reports = json.load(handle)
        for r in reports:
            got[r["identity_id"]] = got.get(r["identity_id"], "") + r["verdict"][0]
    except (OSError, ValueError, LookupError, TypeError):
        return -1, []
    wrong = 0
    for rid, want in expected.items():
        have = got.pop(rid, "")
        wrong += sum(a != b for a, b in zip(have, want)) + abs(len(have) - len(want))
    wrong += sum(len(v) for v in got.values())  # reports under unknown ids
    return wrong, [(r["identity_id"], r["verdict"]) for r in reports]


def _check_run(report: Path, code: int, table: dict, n_reports: int) -> tuple[int, list]:
    """Failed reports of one verify process, and its verdict list.

    A process that exits with another code than the table's, or writes a
    report that does not parse, fails all of its reports.
    """
    wrong, verdicts = _report_failures(report, table["verdicts"])
    if code != table["exit_code"] or wrong < 0:
        print(f"perfbench: ksf verify exited {code}; report parsed: {wrong >= 0}",
              file=sys.stderr)
        return n_reports, verdicts
    if wrong:
        print(f"perfbench: {wrong} verdicts differ from the table", file=sys.stderr)
    return min(wrong, n_reports), verdicts


def _ksf_once(report: Path) -> tuple[float, int, int]:
    """Wall time, exit code and peak RSS (kB) of one fresh ``ksf verify --id ALL``."""
    cmd = [sys.executable, "-c", KSF, "verify", "--id", "ALL", "--format", "json",
           "--out", str(report)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=_env(), cwd=ROOT, stdout=subprocess.DEVNULL)
    timer = threading.Timer(KSF_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss


def run_verify(seed: int, seconds: float, trace: bool):
    # The grid is fixed; the seed only names the working directory.
    table = _expected()
    n_reports = sum(len(v) for v in table["verdicts"].values())
    work = OUT / f"verify-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            return _trace_verify(table, n_reports, work, seconds)
        setup_raw, setup_s = measure_setup("import kspecfun.cli\nkspecfun.registry_ids()")
        deadline = time.perf_counter() + seconds

        def one(i):
            report = work / f"report-{i}.json"
            wall, code, maxrss = _ksf_once(report)
            failed = _check_run(report, code, table, n_reports)[0]
            report.unlink(missing_ok=True)
            return wall, maxrss, failed

        runs = _between_references(one, lambda n: n < 3 or time.perf_counter() < deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    adjusted = [wall * f for (wall, _, _), f in runs]
    wall = statistics.median(adjusted)
    p80 = statistics.quantiles(adjusted, n=5)[-1]
    rss = statistics.median(maxrss for (_, maxrss, _), _ in runs) / 1024
    failed = sum(n for (_, _, n), _ in runs)
    attempted = n_reports * len(runs)
    print(f"verify-all: {len(runs)} processes; host-adjusted: verify_wall_s median={wall:.4f} "
          f"p80={p80:.4f} setup_s={setup_s:.4f}; raw: verify_wall_s "
          f"median={statistics.median(w for (w, _, _), _ in runs):.4f} "
          f"setup_s={setup_raw:.4f}; peak_rss_mb={rss:.1f} fail_frac={failed / attempted:g}")
    return _result(attempted, failed, {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (n_reports / wall, "1/s"),
        "peak_rss_mb": (rss, "MB"),
    })


def _trace_verify(table: dict, n_reports: int, work: Path, seconds: float):
    ids = json.dumps(list(table["verdicts"]))

    def worker(report: Path, trace_path: str) -> dict:
        stdout = _python([str(BENCH / "verifyworker.py"), str(report), trace_path], ids)
        return json.loads(stdout.strip().splitlines()[-1])

    plain_runs, plain_verdicts, failed = [], None, 0
    deadline = time.perf_counter() + seconds / 2
    while time.perf_counter() < deadline or len(plain_runs) < 3:
        report = work / f"plain-{len(plain_runs)}.json"
        res = worker(report, "-")
        wrong, plain_verdicts = _check_run(report, res["exit_code"], table, n_reports)
        failed += wrong
        plain_runs.append(res)
    report = work / "traced.json"
    traced = worker(report, str(OUT / "trace-verify-all.json"))
    wrong, traced_verdicts = _check_run(report, traced["exit_code"], table, n_reports)
    failed += wrong
    if traced_verdicts != plain_verdicts:
        print("perfbench: traced verdicts differ from the untraced run", file=sys.stderr)
        failed += max(1, sum(a != b for a, b in zip(traced_verdicts, plain_verdicts)))
    metrics = traced["metrics"]
    metrics["cli.import_s"] = traced["import_s"]
    metrics["registry.reports"] = len(traced_verdicts)
    metrics["trace.overhead_s"] = traced["run_s"] - statistics.median(
        r["run_s"] for r in plain_runs)
    return _result(n_reports * (len(plain_runs) + 1), failed, _per_layer(metrics))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "kspecfun" / "__init__.py").is_file():
        _die(f"no kspecfun source under {SRC}; run from the root of a kspecfun checkout")
    if args.seconds <= 0:
        _die("--seconds must be positive")
    OUT.mkdir(exist_ok=True)
    if args.workload == "verify-all":
        result = run_verify(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_eval(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
