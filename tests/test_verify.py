"""The verify report's margins, and the traced benchmark's hold on the
package's entry points."""

import re
from pathlib import Path

import numpy as np
import pytest

from trkalian import biotsavart, fields, radon, verify

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# A record whose tolerance exceeds its residual by more than this cannot
# fail on a regression of a few orders of magnitude.
MAX_MARGIN = 1e4


@pytest.fixture(scope="module")
def records():
    return verify.run_verify()["records"]


def test_margin_is_tolerance_over_residual(records):
    for r in records:
        expected = r["tolerance"] / r["residual"] if r["residual"] else None
        assert r["margin"] == expected, r["name"]
    assert {r["name"] for r in records if r["margin"] is None} == {
        "rbs_gauge_kernel", "duality_antipodal"}


def test_no_tolerance_is_left_loose(records):
    loose = {r["name"]: r["margin"] for r in records
             if r["margin"] is not None and r["margin"] > MAX_MARGIN}
    assert loose == {}


def test_only_the_fd_record_is_above_rounding(records):
    # every record but bs_divergence_free checks its identity on an exact oracle;
    # that one keeps a finite-difference divergence, gated within 30x of its residual
    by_name = {r["name"]: r for r in records}
    fd = by_name.pop("bs_divergence_free")
    assert {name: r["residual"] for name, r in by_name.items() if r["residual"] > 1e-12} == {}
    assert fd["margin"] <= 30


def test_record_count_matches_the_benchmark_pin():
    # the verify workload expects a fixed record count and fails every op on
    # another; read as text, so the benchmark package is neither run nor imported
    text = (PERFBENCH / "workloads.py").read_text()
    pinned = re.findall(r"^\s*N_RECORDS = (\d+)$", text, re.MULTILINE)
    assert len(pinned) == 1
    assert len(verify._CHECKS) == int(pinned[0])


def test_benchmark_tracer_installs_and_uninstalls(monkeypatch):
    # install() wraps entry points by attribute name, so it raises when one
    # of them is deleted or renamed
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    forward, checks = radon.radon_forward_numeric, list(verify._CHECKS)
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        assert radon.radon_forward_numeric is not forward
        # the Biot-Savart span is named after the rule's kind
        tracer.active = True
        f = fields.gaussian_test_field((0.0, 0.0, 0.0), 0.5, (1.0, 0.0, 0.0))
        for quad in (biotsavart.ball_quadrature(3.0, 8, 4, 8),
                     biotsavart.box_quadrature(3.0, 20)):
            biotsavart.bs_integral(f, np.array([[0.2, 0.1, 0.0], [0.0, -0.3, 0.1]]), quad)
    finally:
        tracer.active = False
        tracer.uninstall()
    assert [s[0] for s in tracer.spans if s[0].startswith("biotsavart.")] == [
        "biotsavart.bs.ball", "biotsavart.bs.box"]
    assert {k: n for k, n in tracer.counts.items() if k.startswith("biotsavart.")} == {
        "biotsavart.bs.ball.points": 2, "biotsavart.bs.box.points": 2}
    assert radon.radon_forward_numeric is forward
    assert verify._CHECKS == checks
