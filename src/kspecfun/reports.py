"""Report record shared by the verification registry and the inequality checks."""

from __future__ import annotations

from collections import namedtuple


class IdentityReport(
    namedtuple(
        "IdentityReport",
        "identity_id params lhs rhs abs_diff rel_diff verdict note",
        defaults=("",),
    )
):
    """Verdict for one identity at one grid point.

    ``lhs``/``rhs`` and the diffs are None for SKIP verdicts (pole or
    domain exclusions).  Instances are not hashable (params is a dict).
    """

    __slots__ = ()
    identity_id: str
    params: dict
    lhs: float | None
    rhs: float | None
    abs_diff: float | None
    rel_diff: float | None
    verdict: str  # PASS | FAIL | SKIP
    note: str

    __hash__ = None
