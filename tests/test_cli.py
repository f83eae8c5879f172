"""Dataset ingestion, the analysis workflow, and the command-line front end."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ranksets.cli as cli
from ranksets._dispatch import METHOD_NAMES
from ranksets.boot import BootstrapConfig, _theta_star_cached
from ranksets.cli import (
    AnalysisReport,
    DataError,
    Dataset,
    analyze,
    compare_methods,
    emit_plotdata,
    group_small,
    ingest,
    main,
)
from ranksets.core import InvalidTestFamilyError, MultinomialSample
from ranksets.exact import _pvalue_table

# ---------------------------------------------------------------------------
# ingest


def test_ingest_melbourne_counts_labels_and_shares(melbourne_csv):
    ds = ingest(melbourne_csv)
    assert ds.groups == ("Greater Melbourne",)
    sample = ds.samples["Greater Melbourne"]
    assert sample.counts == (87, 75, 42, 21, 6, 2, 1)
    assert sample.labels == (
        "Labor", "Liberal", "No party", "Greens",
        "No answer", "One Nation", "National",
    )
    rounded = tuple(round(float(t), 3) for t in sample.theta_hat)
    assert rounded == (0.372, 0.321, 0.179, 0.09, 0.026, 0.009, 0.004)
    assert ds.source == str(melbourne_csv)


def test_ingest_territories_has_eight_groups(territories_csv):
    ds = ingest(territories_csv)
    assert len(ds.groups) == 8
    assert sum(s.n for s in ds.samples.values()) == 1108


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_ingest_rejects_missing_file(tmp_path):
    with pytest.raises(DataError, match="cannot read"):
        ingest(tmp_path / "absent.csv")


def test_ingest_rejects_empty_file(tmp_path):
    path = _write(tmp_path, "empty.csv", "")
    with pytest.raises(DataError, match="empty file"):
        ingest(path)


def test_ingest_rejects_wrong_header(tmp_path):
    path = _write(tmp_path, "bad.csv", "city,party,votes\nA,x,1\n")
    with pytest.raises(DataError, match="line 1"):
        ingest(path)


def test_ingest_reports_offending_line_numbers(tmp_path):
    head = "group,category,count\n"
    for body, pattern in [
        ("A,x,1,9\n", r"line 2: expected 3 fields"),
        ("A,x,one\n", r"line 2: count 'one'"),
        ("A,x,-3\n", r"line 2: negative count"),
        ("A,,5\n", r"line 2: empty group or category"),
        ("A,x,1\nA,x,2\n", r"line 3: duplicate category 'x' in group 'A'"),
    ]:
        path = _write(tmp_path, "case.csv", head + body)
        with pytest.raises(DataError, match=pattern):
            ingest(path)


def test_ingest_skips_blank_lines(tmp_path):
    path = _write(tmp_path, "blank.csv", "group,category,count\n\nA,x,1\n,,\nA,y,2\n")
    ds = ingest(path)
    assert ds.samples["A"].counts == (1, 2)


def test_ingest_rejects_single_category_group(tmp_path):
    path = _write(tmp_path, "one.csv", "group,category,count\nA,x,5\n")
    with pytest.raises(DataError, match="group 'A'"):
        ingest(path)


def test_ingest_json_mirror(tmp_path):
    payload = [
        {"group": "A", "category": "x", "count": 3},
        {"group": "A", "category": "y", "count": 7},
    ]
    path = _write(tmp_path, "data.json", json.dumps(payload))
    ds = ingest(path)
    assert ds.samples["A"].counts == (3, 7)
    assert ds.samples["A"].labels == ("x", "y")


def test_ingest_json_error_reports_entry_index(tmp_path):
    bad = [{"group": "A", "category": "x", "count": 3}, {"group": "A", "count": 1}]
    path = _write(tmp_path, "data.json", json.dumps(bad))
    with pytest.raises(DataError, match="entry 2"):
        ingest(path)
    path = _write(tmp_path, "notlist.json", json.dumps({"group": "A"}))
    with pytest.raises(DataError, match="must be a list"):
        ingest(path)
    boolcount = [{"group": "A", "category": "x", "count": True}]
    path = _write(tmp_path, "bool.json", json.dumps(boolcount))
    with pytest.raises(DataError, match="not an integer"):
        ingest(path)
    path = _write(tmp_path, "broken.json", "{not json")
    with pytest.raises(DataError, match="invalid JSON"):
        ingest(path)


def test_ingest_accepts_a_utf8_byte_order_mark_in_csv(tmp_path):
    # Spreadsheet "CSV UTF-8" exports start with a byte-order mark.
    path = tmp_path / "bom.csv"
    path.write_text("group,category,count\nA,x,3\nA,y,7\n", encoding="utf-8-sig")
    assert path.read_bytes().startswith(b"\xef\xbb\xbf")
    ds = ingest(path)
    assert ds.samples["A"].counts == (3, 7)
    assert ds.samples["A"].labels == ("x", "y")


def test_ingest_accepts_a_utf8_byte_order_mark_in_json(tmp_path):
    payload = [
        {"group": "A", "category": "x", "count": 3},
        {"group": "A", "category": "y", "count": 7},
    ]
    path = tmp_path / "bom.json"
    path.write_text(json.dumps(payload), encoding="utf-8-sig")
    ds = ingest(path)
    assert ds.samples["A"].counts == (3, 7)
    assert ds.samples["A"].labels == ("x", "y")


def test_ingest_format_override_beats_extension(tmp_path):
    payload = [
        {"group": "A", "category": "x", "count": 3},
        {"group": "A", "category": "y", "count": 7},
    ]
    path = _write(tmp_path, "data.txt", json.dumps(payload))
    ds = ingest(path, format="json")
    assert ds.samples["A"].counts == (3, 7)
    with pytest.raises(DataError, match="unknown format"):
        ingest(path, format="xml")


def test_ingest_drop_zero(tmp_path):
    text = "group,category,count\nA,x,3\nA,y,0\nA,z,7\n"
    path = _write(tmp_path, "zero.csv", text)
    full = ingest(path)
    assert full.samples["A"].counts == (3, 0, 7)
    dropped = ingest(path, drop_zero=True)
    assert dropped.samples["A"].counts == (3, 7)
    assert dropped.samples["A"].labels == ("x", "z")
    # Dropping must not leave a group with fewer than two categories.
    text2 = "group,category,count\nA,x,3\nA,y,0\n"
    path2 = _write(tmp_path, "zero2.csv", text2)
    with pytest.raises(DataError, match="group 'A'"):
        ingest(path2, drop_zero=True)


def test_dataset_requires_at_least_one_group():
    with pytest.raises(DataError, match="no groups"):
        Dataset(samples={})


# ---------------------------------------------------------------------------
# group_small


def test_group_small_threshold_on_melbourne(melbourne):
    merged = group_small(melbourne, 0.05)
    assert merged.p == 5
    assert merged.labels == ("Labor", "Liberal", "No party", "Greens", "Other")
    assert merged.counts == (87, 75, 42, 21, 9)
    assert merged.n == melbourne.n


def test_group_small_explicit_labels(melbourne):
    merged = group_small(melbourne, ["One Nation", "National"], other_label="Minor")
    assert merged.labels[-1] == "Minor"
    assert merged.counts[-1] == 3
    with pytest.raises(DataError, match="unknown category"):
        group_small(melbourne, ["Pirates"])


def test_group_small_empty_list_is_identity(melbourne):
    assert group_small(melbourne, []) is melbourne


def test_group_small_merges_into_existing_other_label(melbourne):
    merged = group_small(melbourne, ["One Nation"], other_label="National")
    assert merged.p == 6
    assert merged.counts[merged.labels.index("National")] == 3


def test_group_small_rejects_degenerate_requests(melbourne):
    with pytest.raises(DataError, match="threshold"):
        group_small(melbourne, 1.0)
    with pytest.raises(DataError, match="every category"):
        group_small(melbourne, list(melbourne.labels))


def test_group_small_rejects_merging_into_the_last_category():
    # The merge adds into the existing "Other", which would be all that is left.
    sample = MultinomialSample(counts=(1, 1, 8), labels=("A", "B", "Other"))
    for spec in (["A", "B"], 0.5):
        with pytest.raises(DataError, match="every category"):
            group_small(sample, spec)


# ---------------------------------------------------------------------------
# analyze


def test_analyze_melbourne_holm_rows(melbourne_csv):
    ds = ingest(melbourne_csv)
    rep = analyze(ds, "exactHolm")
    got = {r.category: (r.rank, r.lo, r.hi) for r in rep.rows}
    assert got == {
        "Labor": (1, 1, 2),
        "Liberal": (2, 1, 2),
        "No party": (3, 3, 3),
        "Greens": (4, 4, 4),
        "No answer": (5, 5, 7),
        "One Nation": (6, 5, 7),
        "National": (7, 5, 7),
    }
    for r in rep.rows:
        assert r.se == pytest.approx(
            (r.theta_hat * (1 - r.theta_hat) / 234) ** 0.5, rel=1e-12
        )


@pytest.mark.parametrize("method", ["exactBonf", "exactHolm", "cp", "boot", "bootStud", "naive"])
def test_analyze_simultaneous_contains_marginal(melbourne_csv, method, fast_cfg):
    ds = ingest(melbourne_csv)
    marg = analyze(ds, method, scope="marginal", config=fast_cfg)
    simu = analyze(ds, method, scope="simultaneous", config=fast_cfg)
    assert [(r.group, r.category) for r in marg.rows] == [
        (r.group, r.category) for r in simu.rows
    ]
    for g, s in zip(marg.rows, simu.rows):
        assert s.lo <= g.lo and g.hi <= s.hi


def test_analyze_alpha_monotone(melbourne_csv, fast_cfg):
    ds = ingest(melbourne_csv)
    reports = [
        analyze(ds, "exactHolm", alpha=a, config=fast_cfg)
        for a in (0.001, 0.05, 0.999)
    ]
    for strict, loose in zip(reports, reports[1:]):
        for s, l in zip(strict.rows, loose.rows):
            assert s.lo <= l.lo and l.hi <= s.hi


def test_analyze_j0_single_restricts_rows(melbourne_csv):
    ds = ingest(melbourne_csv)
    rep = analyze(ds, "exactHolm", j0="single:Greens")
    assert [r.category for r in rep.rows] == ["Greens"]
    with pytest.raises(DataError, match="unknown category"):
        analyze(ds, "exactHolm", j0="single:Pirates")
    with pytest.raises(DataError, match="J0 spec"):
        analyze(ds, "exactHolm", j0="top:3")


def test_analyze_validates_scope_and_kind(melbourne_csv):
    ds = ingest(melbourne_csv)
    with pytest.raises(DataError, match="scope"):
        analyze(ds, "exactHolm", scope="global")
    with pytest.raises(DataError, match="kind"):
        analyze(ds, "exactHolm", kind="middle")


def test_analyze_is_deterministic_across_runs(territories_csv):
    ds = ingest(territories_csv)
    cfg = BootstrapConfig(B=500, seed=42)
    a = analyze(ds, "bootStud", config=cfg)
    b = analyze(ds, "bootStud", config=cfg)
    assert a == b


def test_analyze_row_order_follows_the_dataset(territories_csv):
    ds = ingest(territories_csv)
    rep = analyze(ds, "cp")
    groups_in_order = [g for g in ds.groups for _ in ds.samples[g].labels]
    assert [r.group for r in rep.rows] == groups_in_order


def test_analysis_report_csv(melbourne_csv):
    ds = ingest(melbourne_csv)
    rep = analyze(ds, "exactHolm")
    rows = list(csv.reader(io.StringIO(rep.to_csv())))
    assert rows[0] == ["group", "category", "theta_hat", "se",
                       "rank", "method", "lo", "hi"]
    assert len(rows) == 1 + len(rep.rows)


# ---------------------------------------------------------------------------
# compare_methods


def test_compare_identical_methods_scores_zero(melbourne_csv):
    ds = ingest(melbourne_csv)
    rep1 = analyze(ds, "exactHolm")
    rep2 = analyze(ds, "exactHolm")
    matrix = compare_methods([rep1, rep2])
    assert matrix.wider_percent(0, 1) == 0.0
    assert matrix.wider_percent(1, 0) == 0.0
    assert matrix.cells == 7
    with pytest.raises(ValueError, match="diagonal"):
        matrix.wider_percent(0, 0)


def test_compare_full_interval_report_is_wider_wherever_holm_is_not_full(
    melbourne_csv,
):
    ds = ingest(melbourne_csv)
    holm = analyze(ds, "exactHolm")
    p = ds.samples["Greater Melbourne"].p
    fake_rows = tuple(
        cli.AnalysisRow(group=r.group, category=r.category, theta_hat=r.theta_hat,
                        se=r.se, rank=r.rank, lo=1, hi=p)
        for r in holm.rows
    )
    fake = AnalysisReport(
        method="cp", kind=holm.kind, alpha=holm.alpha, scope=holm.scope,
        j0=holm.j0, rows=fake_rows, dataset_id=holm.dataset_id,
    )
    matrix = compare_methods([fake, holm])
    non_full = sum(1 for r in holm.rows if (r.hi - r.lo) < p - 1)
    assert matrix.wider_percent("cp", "exactHolm") == pytest.approx(
        100.0 * non_full / len(holm.rows)
    )
    assert matrix.wider_percent("exactHolm", "cp") == 0.0


def test_compare_rejects_mismatched_reports(melbourne_csv, territories_csv):
    mel = analyze(ingest(melbourne_csv), "exactHolm")
    ter = analyze(ingest(territories_csv), "cp")
    with pytest.raises(DataError, match="different datasets"):
        compare_methods([mel, ter])
    with pytest.raises(DataError, match="at least two"):
        compare_methods([mel])


def test_compare_territories_bootstrap_wider_on_about_half_the_cells(
    territories_csv,
):
    ds = ingest(territories_csv)
    cfg = BootstrapConfig(B=2000, seed=0)
    holm = analyze(ds, "exactHolm", config=cfg)
    boot = analyze(ds, "bootStud", config=cfg)
    matrix = compare_methods([holm, boot])
    assert matrix.cells == 65
    assert matrix.wider_percent("bootStud", "exactHolm") == pytest.approx(
        100 * 31 / 65, abs=1e-9
    )
    assert matrix.wider_percent("exactHolm", "bootStud") == pytest.approx(
        100 * 2 / 65, abs=1e-9
    )


# ---------------------------------------------------------------------------
# emit_plotdata


def test_emit_plotdata_layout(melbourne_csv, fast_cfg, tmp_path):
    ds = ingest(melbourne_csv)
    reports = [analyze(ds, m, config=fast_cfg) for m in ("exactHolm", "bootStud")]
    out = tmp_path / "plot.csv"
    text = emit_plotdata(reports, path=out)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["group", "category", "theta_hat", "se", "method", "lo", "hi"]
    assert len(rows) == 1 + 2 * 7
    by_method: dict[str, float] = {}
    for row in rows[1:]:
        theta, se, lo, hi = float(row[2]), float(row[3]), int(row[5]), int(row[6])
        assert 1 <= lo <= hi <= 7
        assert 0.0 <= theta <= 1.0 and se > 0.0
        by_method[row[4]] = by_method.get(row[4], 0.0) + theta
    for method, total in by_method.items():
        assert total == pytest.approx(1.0, abs=1e-3), method
    assert out.read_text(encoding="utf-8").splitlines() == text.splitlines()


def test_emit_plotdata_accepts_a_single_report(melbourne_csv):
    ds = ingest(melbourne_csv)
    rep = analyze(ds, "cp")
    text = emit_plotdata(rep)
    assert len(text.strip().splitlines()) == 1 + 7


# ---------------------------------------------------------------------------
# main(): exit codes and subcommands


def test_main_analyze_success(melbourne_csv, capsys, tmp_path):
    out = tmp_path / "report.csv"
    code = main([
        "analyze", str(melbourne_csv), "--method", "exactHolm,cp",
        "--out", str(out),
    ])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "group=Greater Melbourne" in stdout
    assert "{5..7}" in stdout and "{3}" in stdout
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("group,category")
    assert len(lines) == 1 + 14  # one header, 7 rows per method


def test_main_analyze_out_is_the_report_csvs_under_one_header(
    territories_csv, capsys, tmp_path
):
    out = tmp_path / "report.csv"
    argv = ["analyze", str(territories_csv), "--method", "exactHolm,boot,naive",
            "--boot-samples", "200", "--out", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    ds = ingest(territories_csv)
    cfg = BootstrapConfig(B=200, seed=0)
    texts = [analyze(ds, m, config=cfg).to_csv() for m in ("exactHolm", "boot", "naive")]
    header = texts[0].splitlines(True)[0]
    assert all(t.startswith(header) for t in texts)
    expected = header + "".join(t[len(header):] for t in texts)
    assert out.read_bytes() == expected.encode("utf-8")


def test_main_analyze_scores_each_group_once_for_every_method(tmp_path, capsys):
    # Nine groups: more than the per-table caches hold.  Every group's
    # resamples are drawn once and its exact p-value table built once,
    # for all six methods.
    rng = np.random.default_rng(3)
    lines = ["group,category,count"]
    for g in range(9):
        counts = rng.multinomial(120, np.ones(5) / 5)
        lines += [f"g{g},c{j},{c}" for j, c in enumerate(counts)]
    data = tmp_path / "nine.csv"
    data.write_text("\n".join(lines) + "\n")
    _theta_star_cached.cache_clear()
    _pvalue_table.cache_clear()
    argv = ["analyze", str(data), "--method", ",".join(METHOD_NAMES),
            "--boot-samples", "50"]
    assert main(argv) == 0
    capsys.readouterr()
    assert _theta_star_cached.cache_info().misses == 9
    assert _pvalue_table.cache_info().misses == 9


def test_main_unreadable_data_exits_one(tmp_path, capsys):
    code = main(["analyze", str(tmp_path / "nope.csv")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["analyze", "--method", "cp"],
    ["tau-best", "--tau", "2", "--method", "cp"],
    ["compare", "--method", "exactHolm,cp"],
    ["plotdata", "--method", "cp"],
    ["simulate", "--method", "cp", "--reps", "5"],
])
def test_main_unwritable_out_exits_one(command, melbourne_csv, capsys, tmp_path):
    target = tmp_path / "missing" / "x.csv"
    # simulate draws its tables from a design; the others read a data file.
    source = "uniform:p=3,n=40" if command[0] == "simulate" else str(melbourne_csv)
    code = main([command[0], source, *command[1:], "--out", str(target)])
    assert code == 1
    assert "cannot write" in capsys.readouterr().err


def test_main_unknown_method_exits_one(melbourne_csv, capsys):
    code = main(["analyze", str(melbourne_csv), "--method", "median"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_main_bad_alpha_exits_one(melbourne_csv, capsys):
    code = main(["analyze", str(melbourne_csv), "--alpha", "1.5"])
    assert code == 1
    capsys.readouterr()


def test_main_internal_invariant_exits_two(melbourne_csv, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise InvalidTestFamilyError("claims collide")

    monkeypatch.setattr(cli, "_rank_bounds", boom)
    code = main(["analyze", str(melbourne_csv)])
    assert code == 2
    assert "internal error:" in capsys.readouterr().err


@pytest.mark.parametrize("error", [ValueError("bug"), KeyError("bug")])
def test_main_library_errors_exit_two(melbourne_csv, capsys, monkeypatch, error):
    # A bare ValueError or KeyError from the library is a bug, not bad input.
    def boom(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "_rank_bounds", boom)
    code = main(["analyze", str(melbourne_csv)])
    assert code == 2
    assert "internal error:" in capsys.readouterr().err


def test_main_bad_input_caught_by_the_library_exits_one(melbourne_csv, capsys):
    data = str(melbourne_csv)
    for argv in (
        ["analyze", data, "--method", "naive", "--kind", "lower"],
        ["analyze", data, "--method", "boot", "--seed", "-1"],
        ["tau-best", data, "--tau", "8"],
        ["tau-best", data, "--tau", "1", "--method", "median"],
        ["tau-best", data, "--tau", "1", "--method", "naive"],
        ["simulate", "uniform:p=3,n=40", "--reps", "2", "--seed", "-1"],
    ):
        assert main(argv) == 1, argv
        assert capsys.readouterr().err.startswith("error:"), argv


def test_main_seed_comes_from_the_flag_alone(melbourne_csv, capsys, monkeypatch):
    argv = ["analyze", str(melbourne_csv), "--method", "boot",
            "--boot-samples", "300", "--seed", "5"]
    monkeypatch.delenv("RANKSETS_SEED", raising=False)
    assert main(argv) == 0
    baseline = capsys.readouterr().out
    monkeypatch.setenv("RANKSETS_SEED", "ten")
    assert main(argv) == 0
    assert capsys.readouterr().out == baseline


def test_main_repeated_runs_are_identical(melbourne_csv, capsys):
    argv = ["analyze", str(melbourne_csv), "--method", "boot",
            "--boot-samples", "400", "--seed", "7"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_main_shares_one_parser_across_calls(territories_csv, capsys, tmp_path,
                                            monkeypatch):
    # analyze, a usage error, compare, tau-best and analyze again in one
    # process on the one parser of the process: each call prints and
    # writes what the same argv prints and writes through a parser of its
    # own.
    data = str(territories_csv)
    argvs = [
        ["analyze", data],
        ["analyze", data, "--alpha", "1.5"],
        ["compare", data, "--boot-samples", "200"],
        ["tau-best", data, "--tau", "2"],
        ["analyze", data],
    ]

    def run_all(tag):
        results = []
        for i, argv in enumerate(argvs):
            out = tmp_path / f"{tag}{i}.csv"
            code = main([*argv, "--out", str(out)])
            captured = capsys.readouterr()
            written = out.read_text(encoding="utf-8") if out.exists() else None
            results.append((code, captured.out, captured.err, written))
        return results

    cli._build_parser.cache_clear()
    shared = run_all("shared")
    assert cli._build_parser() is cli._build_parser()
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    fresh = run_all("fresh")
    assert [r[0] for r in shared] == [0, 1, 0, 0, 0]
    assert shared[1][2].startswith("error:")
    assert all(r[3] is not None for i, r in enumerate(shared) if i != 1)
    assert shared == fresh


def test_main_group_small_flag(melbourne_csv, capsys):
    code = main([
        "analyze", str(melbourne_csv), "--group-small", "0.05",
        "--method", "exactHolm",
    ])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "Other" in stdout
    assert "One Nation" not in stdout


def test_main_group_small_leaving_one_category_exits_one(tmp_path, capsys):
    data = tmp_path / "t.csv"
    data.write_text("group,category,count\ng,A,5\ng,B,3\ng,Other,2\n", encoding="utf-8")
    assert main(["analyze", str(data), "--group-small", "A,B"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "every category" in err


def test_readme_analyze_transcript_matches_main(melbourne_csv, capsys):
    readme = (melbourne_csv.parent.parent / "README.md").read_text(encoding="utf-8")
    command = "$ ranksets analyze data/melbourne.csv --method exactHolm\n"
    transcript = readme.split(command, 1)[1].split("```", 1)[0]
    assert main(["analyze", str(melbourne_csv), "--method", "exactHolm"]) == 0
    assert capsys.readouterr().out.rstrip("\n") == transcript.rstrip("\n")


def test_main_tau_best_subcommand(melbourne_csv, capsys):
    code = main(["tau-best", str(melbourne_csv), "--tau", "2"])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "selected (2): Labor, Liberal" in stdout
    code = main(["tau-best", str(melbourne_csv), "--tau", "1", "--worst"])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "direction=worst" in stdout
    assert "selected (3): No answer, One Nation, National" in stdout


def test_main_compare_subcommand(territories_csv, capsys, tmp_path):
    out = tmp_path / "matrix.csv"
    code = main([
        "compare", str(territories_csv), "--method", "exactHolm,bootStud",
        "--boot-samples", "2000", "--seed", "0", "--out", str(out),
    ])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "65 group x category cells" in stdout
    assert "47.7" in stdout
    rows = list(csv.reader(io.StringIO(out.read_text(encoding="utf-8"))))
    assert rows[0] == ["method", "exactHolm", "bootStud"]
    assert rows[2][1] == "47.692"
    code = main(["compare", str(territories_csv), "--method", "exactHolm"])
    assert code == 1
    capsys.readouterr()


def test_main_plotdata_subcommand(melbourne_csv, capsys):
    code = main(["plotdata", str(melbourne_csv), "--method", "exactHolm,cp"])
    assert code == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith("group,category,theta_hat,se,method,lo,hi")
    assert len(stdout.strip().splitlines()) == 1 + 14


def test_compare_and_plotdata_hand_the_analysis_flags_to_analyze(
    territories_csv, capsys
):
    ds = ingest(territories_csv)
    cfg = BootstrapConfig(B=200, seed=0)
    methods = ("exactHolm", "bootStud")
    argv = [str(territories_csv), "--method", ",".join(methods),
            "--boot-samples", "200", "--seed", "0"]

    def reports(**flags):
        return [analyze(ds, m, config=cfg, **flags) for m in methods]

    assert main(["compare", *argv, "--kind", "lower",
                 "--scope", "simultaneous"]) == 0
    stdout = capsys.readouterr().out
    text = compare_methods(reports(kind="lower", scope="simultaneous")).to_text()
    assert text in stdout and "scope=simultaneous" in stdout
    assert text != compare_methods(reports()).to_text()

    assert main(["plotdata", *argv, "--j0", "single:Greens",
                 "--scope", "simultaneous"]) == 0
    text = emit_plotdata(reports(scope="simultaneous", j0="single:Greens"))
    assert capsys.readouterr().out == text
    assert text != emit_plotdata(reports(scope="simultaneous"))


def test_main_simulate_subcommand(capsys, tmp_path):
    argv = ["simulate", "uniform:p=3,n=40", "--method", "exactHolm",
            "--reps", "20", "--boot-samples", "100"]
    out = tmp_path / "sim.csv"
    code = main(argv + ["--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith("design,method,category")
    assert "uniform(p=3, n=40)" in stdout
    assert out.read_bytes().decode("utf-8") == stdout
    # A .json --out writes the --format json payload whatever stdout shows.
    out_json = tmp_path / "sim.json"
    assert main(argv + ["--out", str(out_json)]) == 0
    capsys.readouterr()
    assert main(argv + ["--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert json.loads(out_json.read_text(encoding="utf-8")) == payload


def test_main_simulate_json_format(capsys):
    code = main([
        "simulate", "erratic:pi=0.05,n=30", "--reps", "10",
        "--boot-samples", "50", "--format", "json",
        "--method", "exactBonf",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["design"] == "erratic(pi=0.05, n=30)"
    assert payload["reps"] == 10


def test_main_simulate_bad_designs_exit_one(capsys):
    assert main(["simulate", "weibull:p=3"]) == 1
    assert main(["simulate", "uniform:p=3"]) == 1  # missing n
    assert main(["simulate", "uniform:p=3,n=40,extra=1"]) == 1
    assert main(["simulate", "uniform:p=x,n=40"]) == 1
    assert main(["simulate", "uniform:p=3,n=40", "--categories", "0"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("design, message", [
    ("weibull:p=3",
     "bad design argument: unknown design 'weibull'; expected aes, erratic, or uniform"),
    ("aes:kappa=0.5", "design 'aes' is missing argument 'tau_n'"),
    ("aes:kappa=x,tau_n=1",
     "bad design argument: could not convert string to float: 'x'"),
    ("uniform:p=1,n=40,extra=1", "bad design argument: p must be at least 2"),
    ("erratic:pi=0.1,n=40,m=1,extra=1", "unknown design arguments: extra, m"),
], ids=repr)
def test_main_simulate_design_messages(design, message, capsys):
    assert main(["simulate", design, "--reps", "2"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_main_simulate_categories_flag(capsys):
    code = main([
        "simulate", "uniform:p=4,n=40", "--method", "cp",
        "--reps", "10", "--categories", "1,4",
    ])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "cat1" in stdout and "cat4" in stdout and "cat2" not in stdout


def test_main_requires_a_subcommand(capsys):
    assert main([]) == 1
    capsys.readouterr()


def _run_module(*argv: str) -> subprocess.CompletedProcess:
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    return subprocess.run(
        [sys.executable, "-m", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_python_dash_m_runs_the_cli(melbourne_csv):
    package = _run_module("ranksets", "analyze", str(melbourne_csv))
    assert package.returncode == 0, package.stderr
    assert "Labor" in package.stdout
    module = _run_module("ranksets.cli", "analyze", str(melbourne_csv))
    assert module.returncode == 0, module.stderr
    assert "RuntimeWarning" not in module.stderr
    assert module.stdout == package.stdout
