"""The package's immutable record types: fields, defaults, validation, equality."""

import importlib.util
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kspecfun
from kspecfun.errors import DomainError
from kspecfun.oracles import DiscrepancyFit, Estimate
from kspecfun.registry import (
    EntrySummary,
    FitPlan,
    FitRecord,
    GridSpec,
    IdentityEntry,
    IdentityReport,
    RunSummary,
)
from kspecfun.scalar import Constants
from kspecfun.studies import RootResult, ScanTable

_FIT = DiscrepancyFit("ratio", 2.0, 0.0, 3)

# class -> ((field, value), ...) in declared order, then {field: default}
RECORDS = {
    Constants: (
        (("euler_gamma", 0.5), ("ln2", 0.6), ("pi", 3.0), ("glaisher_A", 1.2)),
        {"euler_gamma": 0.5772156649015329, "ln2": 0.6931471805599453,
         "pi": 3.141592653589793, "glaisher_A": 1.2824271291006226},
    ),
    Estimate: (
        (("value", 1.5), ("error_estimate", 1e-12), ("terms_used", 7)),
        {},
    ),
    DiscrepancyFit: (
        (("mode", "offset"), ("constant", 0.5), ("residual_rms", 1e-9), ("n_points", 12)),
        {},
    ),
    IdentityReport: (
        (("identity_id", "EQ1.1"), ("params", {"k": 1.0}), ("lhs", 1.0), ("rhs", 1.0),
         ("abs_diff", 0.0), ("rel_diff", 0.0), ("verdict", "PASS"), ("note", "n")),
        {"note": ""},
    ),
    RootResult: (
        (("root", 1.25), ("residual", 1e-14), ("bracket_lo", 1.0), ("bracket_hi", 1.5),
         ("iterations", 30), ("sign_changes", 2)),
        {"sign_changes": 1},
    ),
    GridSpec: (
        (("k_values", (1.0, 2.0)), ("x_values", (0.5,))),
        {"k_values": (0.5, 1.0, 2.0, 3.141592653589793),
         "x_values": (0.1, 0.35, 0.7, 1.0, 1.5, 2.5, 5.0)},
    ),
    FitPlan: (
        (("mode", "ratio"), ("group_by", "k"), ("transform", abs), ("expected", float)),
        {},
    ),
    FitRecord: (
        (("label", "k=1"), ("fit", _FIT), ("expected", 2.0)),
        {},
    ),
    IdentityEntry: (
        (("id", "X"), ("anchor", "(1.1)"), ("comparison", "rel"), ("tol", 1e-12),
         ("expectation", "PASS"), ("points", list), ("lhs", abs), ("rhs", float),
         ("fit", None)),
        {"fit": None},
    ),
    EntrySummary: (
        (("identity_id", "X"), ("expectation", "FAIL"), ("n_pass", 1), ("n_fail", 2),
         ("n_skip", 0), ("worst_abs_diff", 0.5), ("worst_rel_diff", 0.25), ("fits", ()),
         ("satisfied", True)),
        {},
    ),
    RunSummary: (
        (("entries", ()), ("reports", ()), ("overall_ok", True)),
        {},
    ),
    ScanTable: (
        (("n", 1), ("rows", ((1.0, 2.0),)), ("verdict", "neither"), ("first_violation", None)),
        {},
    ),
}

CLASSES = list(RECORDS)
IDS = [cls.__name__ for cls in CLASSES]


def _other(value):
    # a different value that still passes the records' validators
    if isinstance(value, tuple):
        return value + (9.0,)
    if isinstance(value, (int, float)):
        return value + 1
    return object()


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_record_fields_defaults_and_construction(cls):
    items, defaults = RECORDS[cls]
    names = tuple(name for name, _ in items)
    values = [value for _, value in items]
    assert tuple(cls.__annotations__) == names
    by_position = cls(*values)
    by_keyword = cls(**dict(reversed(items)))
    for name, value in items:
        assert getattr(by_position, name) == value
        assert getattr(by_keyword, name) == value
    required = [value for name, value in items if name not in defaults]
    with_defaults = cls(*required)
    for name, value in items:
        assert getattr(with_defaults, name) == defaults.get(name, value)
    with pytest.raises(TypeError):
        cls(*values, None)


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_record_is_immutable(cls):
    items, _ = RECORDS[cls]
    record = cls(*(value for _, value in items))
    for name, value in items:
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_record_equality_is_fieldwise(cls):
    items, _ = RECORDS[cls]
    values = [value for _, value in items]
    record = cls(*values)
    assert record == cls(*values)
    for name, value in items:
        assert record != cls(**{**dict(items), name: _other(value)})


@pytest.mark.parametrize("build,error,match", [
    (lambda: Estimate(1.0, -1e-3, 1), ValueError, "error_estimate must be >= 0"),
    (lambda: Estimate(1.0, 0.0, -1), ValueError, "terms_used must be >= 0"),
    (lambda: Estimate(value=1.0, error_estimate=0.0, terms_used=-1),
     ValueError, "terms_used must be >= 0"),
    (lambda: Estimate(value=1.0, error_estimate=-1.0, terms_used=1),
     ValueError, "error_estimate must be >= 0"),
    # both fields invalid: error_estimate is checked first
    (lambda: Estimate(1.0, -1.0, -1), ValueError, "error_estimate must be >= 0"),
    (lambda: GridSpec(k_values=(1.0, 0.0)), DomainError, "all grid k values must be > 0"),
    (lambda: GridSpec((-1.0,)), DomainError, "all grid k values must be > 0"),
])
def test_record_validators(build, error, match):
    with pytest.raises(error, match=match):
        build()


def test_identity_report_is_unhashable():
    items, _ = RECORDS[IdentityReport]
    report = IdentityReport(*(value for _, value in items))
    with pytest.raises(TypeError):
        hash(report)
    with pytest.raises(TypeError):
        hash(IdentityReport(**{**dict(items), "params": ()}))


def test_cli_import_leaves_out_dataclasses_inspect_and_typing():
    # -S: no site-packages .pth file can pull these modules in on its own
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(kspecfun.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    code = ("import sys, kspecfun.cli; print(sorted("
            "{'dataclasses', 'inspect', 'typing', 'tempfile', 'csv'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         env=env, timeout=60, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("name,call", [
    ("adaptive_quad", lambda: kspecfun.adaptive_quad(math.sin, 0.0, 1.0, 1e-10)),
    ("gauss_2f1", lambda: kspecfun.gauss_2f1(1.0, 1.0, 2.0, -0.5)),
    ("furdui_oracle", lambda: kspecfun.furdui_oracle(1.0, 2)),
    ("thm31_series", lambda: kspecfun.thm31_series(1.0, 2)),
    ("beta_k_cosh_form", lambda: kspecfun.beta_k_cosh_form(1.0, 1.0)),
])
def test_series_and_quadrature_routes_return_an_estimate(name, call):
    assert type(call()) is Estimate, name


def test_estimate_is_the_only_record_with_an_error_estimate():
    records = {obj for obj in (getattr(kspecfun, name) for name in dir(kspecfun))
               if isinstance(obj, type) and issubclass(obj, tuple) and hasattr(obj, "_fields")}
    assert {cls for cls in records if "error_estimate" in cls._fields} == {Estimate}


def test_frozen_tracer_still_reads_its_counts():
    # the benchmark's span recorder, loaded read-only from its file; it
    # reads terms_used off gauss_2f1 and subdivisions off adaptive_quad.
    # Its layers name no module "routes", so install() leaves gauss_2f1
    # unwrapped; its wrapper still reads the count off the Estimate
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    recorder = tracer.Recorder()
    recorder.install()
    try:
        kspecfun.registry.run_identity("LEM2.3")
    finally:
        recorder.uninstall()
    assert recorder.counts["oracles.adaptive_quad"] > 0
    # gauss_2f1 now lives in routes, which the frozen LAYERS do not list, so
    # scalar.gauss_2f1 reads 0 (a FOUND line in CHANGES.md); the next change
    # to the benchmark adds routes to LAYERS and has to flip this assertion
    assert recorder.counts["scalar.gauss_2f1"] == 0
    recorder._wrap("scalar.gauss_2f1", kspecfun.routes.gauss_2f1)(1.0, 1.0, 2.0, -0.5)
    assert recorder.counts["scalar.gauss_2f1"] > 0
