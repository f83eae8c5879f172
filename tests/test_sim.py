"""Monte Carlo designs, reports, and the two structural studies."""

import csv
import io
import json
import math

import pytest

from ranksets.sim import (
    AES_COUNTS,
    AES_N,
    SimCell,
    SimDesign,
    SimReport,
    aes_design,
    aes_theta,
    erratic_coverage_curves,
    erratic_design,
    erratic_theta,
    large_p_study,
    run_design,
    uniform_design,
    uniform_theta,
)

# ---------------------------------------------------------------------------
# truth builders


def test_aes_theta_endpoints_and_midpoint():
    flat = aes_theta(0.0)
    assert flat == pytest.approx((1 / 7,) * 7)
    observed = aes_theta(1.0)
    assert observed == pytest.approx(tuple(c / AES_N for c in AES_COUNTS))
    mid = aes_theta(0.5)
    for m, f, o in zip(mid, flat, observed):
        assert m == pytest.approx((f + o) / 2)
    assert sum(mid) == pytest.approx(1.0)


def test_aes_theta_rejects_kappa_outside_unit_interval():
    with pytest.raises(ValueError):
        aes_theta(-0.1)
    with pytest.raises(ValueError):
        aes_theta(1.1)


def test_erratic_theta_builds_small_tied_pair():
    assert erratic_theta(0.01) == pytest.approx((0.01, 0.01, 0.98))
    with pytest.raises(ValueError):
        erratic_theta(0.0)
    with pytest.raises(ValueError):
        erratic_theta(0.34)


def test_uniform_theta_is_exchangeable():
    assert uniform_theta(4) == (0.25,) * 4
    with pytest.raises(ValueError):
        uniform_theta(1)


# ---------------------------------------------------------------------------
# designs


def test_design_validates_inputs():
    with pytest.raises(ValueError):
        SimDesign(name="bad", theta=(0.5, 0.6), n=10, methods=("cp",))
    with pytest.raises(ValueError):
        SimDesign(name="bad", theta=(0.5, 0.5), n=0, methods=("cp",))
    with pytest.raises(ValueError):
        SimDesign(name="bad", theta=(0.5, 0.5), n=10, methods=("cp",), reps=0)
    with pytest.raises(ValueError):
        SimDesign(name="bad", theta=(0.5, 0.5), n=10, methods=("cp",), scope="global")
    with pytest.raises(ValueError):
        SimDesign(name="bad", theta=(0.5, 0.5), n=10, methods=("median",))
    with pytest.raises(ValueError):
        SimDesign(
            name="bad", theta=(0.5, 0.5), n=10, methods=("cp",), categories=(2,)
        )


@pytest.mark.parametrize("field", [
    dict(B=0), dict(B=-3), dict(B=2.5), dict(B=True), dict(B=1.0),
    dict(n=2.5), dict(n=True), dict(reps=True), dict(reps=2.5),
    dict(master_seed=True), dict(master_seed=-1), dict(master_seed=None),
    dict(alpha=1.5), dict(alpha=0.0),
], ids=repr)
def test_design_refuses_fields_a_run_would_fail_on_or_misread(field):
    # Each of these used to construct, then fail inside run_design or
    # run with a truncated value.
    with pytest.raises(ValueError):
        SimDesign(name="bad", theta=(0.5, 0.5), methods=("boot",),
                  **(dict(n=10) | field))


def test_design_reads_whole_numbers_as_ints():
    d = SimDesign(name="x", theta=(0.5, 0.5), n=10.0, methods=("cp",), reps=3.0,
                  master_seed=2.0)
    assert (d.n, d.reps, d.master_seed) == (10, 3, 2)
    assert all(type(v) is int for v in (d.n, d.reps, d.master_seed))


def test_design_canonicalizes_method_names():
    d = SimDesign(
        name="alias", theta=(0.5, 0.5), n=10, methods=("exact_holm", "BOOTSTUD")
    )
    assert d.methods == ("exactHolm", "bootStud")


def test_aes_design_rounds_n_and_records_a_note():
    half = aes_design(0.5, 0.5)
    assert half.n == 117 and half.notes == ()
    odd = aes_design(0.5, 0.7)
    assert odd.n == 164
    assert any("rounded" in note for note in odd.notes)
    with pytest.raises(ValueError):
        aes_design(0.5, 0.0)


def test_named_designs_track_expected_categories():
    assert aes_design(1.0, 1.0).categories == (0, 3, 6)
    assert erratic_design(0.01, 50).categories == (0,)
    assert uniform_design(5, 100).categories == (0,)


# ---------------------------------------------------------------------------
# run_design


FAST = dict(reps=40, B=150, master_seed=11)


def test_run_design_is_deterministic():
    design = erratic_design(0.05, 60, **FAST)
    a, b = run_design(design), run_design(design)
    assert a == b


def test_run_design_pairs_data_across_method_subsets():
    # The replication data streams do not depend on which methods run,
    # so a method's cells are identical whether it runs alone or not.
    both = run_design(
        SimDesign(name="x", theta=(0.4, 0.35, 0.25), n=80,
                  methods=("exactBonf", "exactHolm"), **FAST)
    )
    alone = run_design(
        SimDesign(name="x", theta=(0.4, 0.35, 0.25), n=80,
                  methods=("exactBonf",), **FAST)
    )
    for j in range(3):
        assert both.cell("exactBonf", j) == alone.cell("exactBonf", j)


def test_run_design_tiny_alpha_forces_full_intervals():
    design = SimDesign(
        name="tiny-alpha", theta=(1 / 3,) * 3, n=30,
        methods=("exactHolm",), alpha=1e-4, **FAST,
    )
    report = run_design(design)
    for j in range(3):
        cell = report.cell("exactHolm", j)
        assert cell.coverage == 1.0
        assert cell.avg_length == pytest.approx(2.0)  # always [1, p]


def test_run_design_simultaneous_scope_adds_a_joint_cell():
    design = SimDesign(
        name="joint", theta=(0.5, 0.3, 0.2), n=100,
        methods=("exactHolm", "cp"), scope="simultaneous", **FAST,
    )
    report = run_design(design)
    for m in ("exactHolm", "cp"):
        joint = report.cell(m, -1)
        assert joint.label == "ALL"
        assert math.isnan(joint.avg_length)
        for j in range(3):
            assert joint.coverage <= report.cell(m, j).coverage
    marginal = run_design(
        SimDesign(name="m", theta=(0.5, 0.3, 0.2), n=100,
                  methods=("exactHolm",), **FAST)
    )
    with pytest.raises(KeyError):
        marginal.cell("exactHolm", -1)


def test_run_design_coverage_se_is_binomial():
    report = run_design(erratic_design(0.05, 60, **FAST))
    for cell in report.cells:
        expected = math.sqrt(cell.coverage * (1 - cell.coverage) / report.reps)
        assert cell.coverage_se == pytest.approx(expected, abs=1e-12)


def test_cell_label_is_one_based():
    cell = SimCell(method="cp", category=0, coverage=1.0,
                   coverage_se=0.0, avg_length=1.0)
    assert cell.label == "cat1"


# ---------------------------------------------------------------------------
# report serialization


def test_report_csv_layout():
    report = run_design(erratic_design(0.05, 60, **FAST))
    text = report.to_csv()
    lines = text.strip().splitlines()
    assert lines[0] == "design,method,category,coverage,coverage_se,avg_length"
    assert len(lines) == 1 + len(report.cells)
    rows = list(csv.reader(io.StringIO(text)))
    first = rows[1]
    assert first[0] == report.design  # comma in the name survives quoting
    assert first[2] == "cat1"
    float(first[3]), float(first[4]), float(first[5])  # parseable


def test_report_json_round_trips():
    report = run_design(erratic_design(0.05, 60, **FAST))
    payload = json.loads(report.to_json())
    assert payload["design"] == report.design
    assert payload["reps"] == report.reps
    assert payload["alpha"] == report.alpha
    assert len(payload["cells"]) == len(report.cells)
    assert payload["cells"][0]["method"] == report.cells[0].method


# ---------------------------------------------------------------------------
# structural studies (smoke-sized grids)


def test_erratic_curves_report_the_expected_columns():
    rows = erratic_coverage_curves(
        pi_grid=(0.05,), n_grid=(15, 30), reps=60, B=150, master_seed=4
    )
    assert len(rows) == 2
    keys = {
        "pi", "n", "diff_cov_stud", "diff_cov_nonstud",
        "rank_cov_bootStud", "rank_cov_boot", "rank_cov_exactBonf",
    }
    for row in rows:
        assert set(row) == keys
        for key in keys - {"pi", "n"}:
            assert 0.0 <= row[key] <= 1.0
        assert row["rank_cov_exactBonf"] >= 0.90


@pytest.mark.parametrize("field", [
    dict(B=0), dict(B=1.0), dict(reps=0), dict(reps=True), dict(alpha=1.5),
], ids=repr)
def test_erratic_curves_refuse_bad_runs(field):
    with pytest.raises(ValueError):
        erratic_coverage_curves(pi_grid=(0.05,), n_grid=(15,),
                                **(dict(reps=5, B=20) | field))


def test_large_p_study_reports_one_row_per_combination():
    rows = large_p_study(
        p_grid=(3, 5), n_grid=(40,), reps=40, B=150,
        master_seed=4, methods=("exactHolm", "naive"),
    )
    assert len(rows) == 2 * 1 * 2
    for row in rows:
        assert set(row) == {"p", "n", "method", "coverage",
                            "coverage_se", "avg_length"}
        assert 0.0 <= row["coverage"] <= 1.0
        assert 0.0 <= row["avg_length"] <= row["p"] - 1
    holm = [r for r in rows if r["method"] == "exactHolm"]
    assert all(r["coverage"] >= 0.90 for r in holm)
