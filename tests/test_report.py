import json

import pytest
from hypothesis import given, strategies as st

from kgconformal.report import CaseResult, PROBE_PREFIX, ResidualReport

res = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
names = st.text(alphabet="abcdefgh-", min_size=1, max_size=8)

case_st = st.builds(
    CaseResult,
    name=names,
    max_residual=res,
    error_estimate=res,
    tolerance=st.floats(min_value=1e-12, max_value=1.0),
)


def test_case_pass_semantics():
    ok = CaseResult("x", 1e-12, 0.0, 1e-10)
    bad = CaseResult("x", 1e-8, 0.0, 1e-10)
    assert ok.passed and ok.behaved
    assert not bad.passed and not bad.behaved


def test_probe_semantics():
    """A probe behaves only by failing its tolerance."""
    misbehaving = CaseResult(PROBE_PREFIX + "x", 1e-12, 0.0, 1e-10)
    behaving = CaseResult(PROBE_PREFIX + "x", 1e-2, 0.0, 1e-10)
    assert misbehaving.is_probe and not misbehaving.behaved
    assert behaving.is_probe and behaving.behaved


def test_report_passed_requires_probes_to_fail():
    good = CaseResult("a", 0.0, 0.0, 1e-10)
    vacuous_probe = CaseResult(PROBE_PREFIX + "b", 0.0, 0.0, 1e-10)
    rep = ResidualReport("s", "exact-forward", (good, vacuous_probe))
    assert not rep.passed  # a passing probe poisons the suite


def test_report_passed_requires_a_regular_case():
    failing_probe = CaseResult(PROBE_PREFIX + "b", 1.0, 0.0, 1e-10)
    assert not ResidualReport("s", "exact-forward", ()).passed
    assert not ResidualReport("s", "exact-forward", (failing_probe,)).passed
    assert ResidualReport("s", "exact-forward", (CaseResult("a", 0.0, 0.0, 1e-10), failing_probe)).passed


def test_json_schema():
    rep = ResidualReport("demo", "stencil", (CaseResult("only", 1e-9, 2e-10, 1e-8),))
    doc = json.loads(rep.to_json())
    assert set(doc) == {"suite", "mode", "cases", "summary"}
    assert doc["suite"] == "demo" and doc["mode"] == "stencil"
    (case,) = doc["cases"]
    assert set(case) == {"name", "max_residual", "error_estimate", "tolerance", "pass"}
    assert case["pass"] is True
    assert set(doc["summary"]) == {"pass", "wall_ms"}
    assert doc["summary"]["pass"] is True


def test_json_rejects_nan():
    rep = ResidualReport("demo", "exact-forward", (CaseResult("c", float("nan"), 0.0, 1.0),))
    with pytest.raises(ValueError):
        rep.to_json()


@given(
    st.lists(case_st, max_size=8, unique_by=lambda c: c.name),
    st.integers(min_value=0, max_value=8),
)
def test_merge_is_order_independent(cases, split):
    # duplicate names would tie under the sort, so draw unique ones
    split = min(split, len(cases))
    a = ResidualReport("s", "exact-forward", tuple(cases[:split]))
    b = ResidualReport("s", "exact-forward", tuple(cases[split:]))
    assert a.merge(b).cases == b.merge(a).cases
    assert a.merge(b).passed == b.merge(a).passed


@given(st.lists(case_st, max_size=4), st.lists(case_st, max_size=4), st.lists(case_st, max_size=4))
def test_merge_is_associative(xs, ys, zs):
    a = ResidualReport("s", "m", tuple(xs))
    b = ResidualReport("s", "m", tuple(ys))
    c = ResidualReport("s", "m", tuple(zs))
    assert a.merge(b).merge(c) == a.merge(b.merge(c))


def test_merge_sums_wall_time():
    a = ResidualReport("s", "m", (), wall_ms=12.0)
    b = ResidualReport("s", "m", (), wall_ms=5.0)
    assert a.merge(b).wall_ms == 17.0


def test_with_wall_ms():
    rep = ResidualReport("s", "m", ()).with_wall_ms(3.5)
    assert rep.wall_ms == 3.5
