"""Count-table workflow and command-line front end.

The data model is a :class:`Dataset`: named groups (cities,
territories, ...) each holding one vector of category counts.  On top
of it sit the steps of a typical ranking analysis — ingest a CSV/JSON
count table, optionally merge rare categories into an "Other" bucket,
build rank confidence sets with any registered method, compare methods
by interval width, select top-/bottom-tau categories, and emit
plot-ready CSVs.

Every step is importable and pure; the CLI subcommands (``analyze``,
``simulate``, ``tau-best``, ``compare``, ``plotdata``) are thin
argument-parsing wrappers.  Exit codes: 0 on success, 1 on bad input
(a :class:`DataError`: unreadable/malformed data, unknown names, invalid
flag values) or an ``OSError``, 2 on any other exception, which is an
internal error.  The bootstrap seed comes from ``--seed`` alone.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, replace
from functools import cache
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from ._dispatch import (
    METHOD_NAMES, SCOPES, _checked_request, _rank_bounds, normalize_method,
)
from .boot import BootstrapConfig
from .core import KINDS, MultinomialSample, compute_ranks
from .projections import tau_best, tau_worst
from .sim import aes_design, erratic_design, run_design, uniform_design

__all__ = [
    "DataError",
    "Dataset",
    "AnalysisRow",
    "AnalysisReport",
    "ComparisonMatrix",
    "ingest",
    "group_small",
    "analyze",
    "compare_methods",
    "emit_plotdata",
    "main",
]

class DataError(ValueError):
    """User-facing problem with input data or parameters (exit code 1)."""


def _write_text(path, text: str) -> None:
    """Write ``text`` to ``path``, reporting an ``OSError`` as a DataError."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from None


def _csv_text(header: Sequence[str], rows, path=None) -> str:
    """CSV of ``header`` and then ``rows``, also written to ``path`` if given."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    text = buf.getvalue()
    if path is not None:
        _write_text(path, text)
    return text


@dataclass(frozen=True)
class Dataset:
    """Named groups of category counts.

    ``samples`` preserves file order of both groups and categories;
    ``source`` records where the data came from.
    """

    samples: Mapping[str, MultinomialSample]
    source: str = ""

    def __post_init__(self) -> None:
        if not self.samples:
            raise DataError("dataset contains no groups")

    @property
    def groups(self) -> tuple[str, ...]:
        return tuple(self.samples)

    def identity(self) -> tuple:
        """Hashable fingerprint of groups, labels, and counts."""
        return tuple(
            (g, s.labels, s.counts) for g, s in self.samples.items()
        )


# ---------------------------------------------------------------------------
# ingestion


def _rows_from_csv(text: str) -> list[tuple[int, str, str, int]]:
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise DataError("empty file: expected header group,category,count") from None
    if [h.strip().lower() for h in header] != ["group", "category", "count"]:
        raise DataError(
            f"line 1: header must be group,category,count, got {','.join(header)!r}"
        )
    rows = []
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not field.strip() for field in row):
            continue
        if len(row) != 3:
            raise DataError(f"line {lineno}: expected 3 fields, got {len(row)}")
        group, category, raw = (field.strip() for field in row)
        if not group or not category:
            raise DataError(f"line {lineno}: empty group or category name")
        try:
            count = int(raw)
        except ValueError:
            raise DataError(
                f"line {lineno}: count {raw!r} is not an integer"
            ) from None
        if count < 0:
            raise DataError(f"line {lineno}: negative count {count}")
        rows.append((lineno, group, category, count))
    return rows


def _rows_from_json(text: str) -> list[tuple[int, str, str, int]]:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"invalid JSON: {exc}") from None
    if not isinstance(payload, list):
        raise DataError("JSON must be a list of {group, category, count} objects")
    rows = []
    for idx, item in enumerate(payload, start=1):
        where = f"entry {idx}"
        if not isinstance(item, dict) or set(item) != {"group", "category", "count"}:
            raise DataError(f"{where}: expected keys group, category, count")
        group, category, count = item["group"], item["category"], item["count"]
        if not isinstance(group, str) or not isinstance(category, str):
            raise DataError(f"{where}: group and category must be strings")
        if isinstance(count, bool) or not isinstance(count, int):
            raise DataError(f"{where}: count {count!r} is not an integer")
        if count < 0:
            raise DataError(f"{where}: negative count {count}")
        rows.append((idx, group, category, count))
    return rows


def ingest(path, format: str | None = None, drop_zero: bool = False) -> Dataset:
    """Read a count table into a :class:`Dataset`.

    Parameters
    ----------
    path : str or Path
        File to read.
    format : {'csv', 'json'}, optional
        Input format; inferred from the extension by default.  CSV
        needs the exact header ``group,category,count``; JSON is a
        list of objects with those keys.  Either is read as UTF-8,
        with or without a byte-order mark.
    drop_zero : bool
        Drop zero-count categories after validation, mirroring
        analyses restricted to categories with positive support.

    Raises
    ------
    DataError
        On unreadable files, malformed rows (reported with their line
        number or entry index), negative counts, duplicated
        (group, category) pairs, or groups left with fewer than two
        categories.
    """
    p = Path(path)
    if format is None:
        format = "json" if p.suffix.lower() == ".json" else "csv"
    if format not in ("csv", "json"):
        raise DataError(f"unknown format {format!r}")
    try:
        text = p.read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise DataError(f"cannot read {p}: {exc}") from None
    rows = _rows_from_json(text) if format == "json" else _rows_from_csv(text)

    labels: dict[str, list[str]] = {}
    counts: dict[str, list[int]] = {}
    seen: set[tuple[str, str]] = set()
    for lineno, group, category, count in rows:
        if (group, category) in seen:
            raise DataError(
                f"line {lineno}: duplicate category {category!r} in group {group!r}"
            )
        seen.add((group, category))
        if drop_zero and count == 0:
            continue
        labels.setdefault(group, []).append(category)
        counts.setdefault(group, []).append(count)

    samples: dict[str, MultinomialSample] = {}
    for group in labels:
        try:
            samples[group] = MultinomialSample(
                counts=tuple(counts[group]), labels=tuple(labels[group])
            )
        except ValueError as exc:
            raise DataError(f"group {group!r}: {exc}") from None
    if not samples:
        raise DataError("no data rows found")
    return Dataset(samples=samples, source=str(path))


# ---------------------------------------------------------------------------
# grouping


def group_small(
    sample: MultinomialSample,
    threshold_or_list,
    other_label: str = "Other",
) -> MultinomialSample:
    """Merge rare categories into a single bucket.

    Parameters
    ----------
    sample : MultinomialSample
        Input counts.
    threshold_or_list : float or sequence of str
        A share threshold in (0, 1) — categories with observed share
        strictly below it are merged — or an explicit list of category
        labels to merge.  An empty list is the identity.
    other_label : str
        Name of the merged category, appended after the survivors (or
        added into an existing category of that name).

    Raises
    ------
    DataError
        Unknown labels, a threshold outside (0, 1), or a merge that
        would leave fewer than two categories.
    """
    if isinstance(threshold_or_list, (int, float)) and not isinstance(
        threshold_or_list, bool
    ):
        threshold = float(threshold_or_list)
        if not (0.0 < threshold < 1.0):
            raise DataError(f"threshold must lie strictly in (0, 1), got {threshold}")
        shares = sample.theta_hat
        merge = {
            label
            for label, share in zip(sample.labels, shares)
            if share < threshold
        }
    else:
        merge = set()
        for label in threshold_or_list:
            if label not in sample.labels:
                raise DataError(f"unknown category {label!r}")
            merge.add(label)
    if not merge:
        return sample

    kept_labels: list[str] = []
    kept_counts: list[int] = []
    other = 0
    for label, count in zip(sample.labels, sample.counts):
        if label in merge:
            other += count
        else:
            kept_labels.append(label)
            kept_counts.append(count)
    if other_label in kept_labels:
        kept_counts[kept_labels.index(other_label)] += other
    else:
        kept_labels.append(other_label)
        kept_counts.append(other)
    if len(kept_labels) < 2:
        raise DataError(f"grouping would merge every category into {other_label!r}")
    return MultinomialSample(counts=tuple(kept_counts), labels=tuple(kept_labels))


# ---------------------------------------------------------------------------
# analysis reports


@dataclass(frozen=True)
class AnalysisRow:
    """One (group, category) line of an analysis report."""

    group: str
    category: str
    theta_hat: float
    se: float
    rank: int
    lo: int
    hi: int


@dataclass(frozen=True)
class AnalysisReport:
    """Rank confidence sets for every group of a dataset, one method."""

    method: str
    kind: str
    alpha: float
    scope: str
    j0: str
    rows: tuple[AnalysisRow, ...]
    dataset_id: tuple

    def to_csv(self) -> str:
        return _reports_csv([self])


def _reports_csv(reports: Sequence[AnalysisReport], path=None) -> str:
    """One CSV of the rows of ``reports`` in order, under one header."""
    return _csv_text(
        ["group", "category", "theta_hat", "se", "rank", "method", "lo", "hi"],
        ([r.group, r.category, f"{r.theta_hat:.6f}", f"{r.se:.6f}",
          r.rank, rep.method, r.lo, r.hi]
         for rep in reports for r in rep.rows),
        path,
    )


def _j0_indices(sample: MultinomialSample, j0: str) -> tuple[int, ...]:
    if j0 == "all":
        return tuple(range(sample.p))
    if j0.startswith("single:"):
        label = j0[len("single:"):]
        if label not in sample.labels:
            raise DataError(f"unknown category {label!r} in J0 spec")
        return (sample.labels.index(label),)
    raise DataError(f"J0 spec must be 'all' or 'single:<name>', got {j0!r}")


def analyze(
    dataset: Dataset,
    method: str,
    kind: str = "two_sided",
    alpha: float = 0.05,
    scope: str = "marginal",
    j0: str = "all",
    config: BootstrapConfig | None = None,
) -> AnalysisReport:
    """Build rank confidence sets for every group of a dataset.

    Parameters
    ----------
    dataset : Dataset
        Groups of counts.
    method : str
        One of the registered methods (see ``METHOD_NAMES``).
    kind : {'lower', 'upper', 'two_sided'}
        Sidedness of the rank bounds.
    alpha : float
        One minus the nominal coverage level.
    scope : {'marginal', 'simultaneous'}
        Marginal treats each target category as its own inference
        problem (the set ``J0 = {j}`` would give, from one library
        call per group); simultaneous builds a single joint set over
        all targets, giving weakly wider intervals.
    j0 : str
        ``'all'`` or ``'single:<category label>'``.
    config : BootstrapConfig, optional
        The resampling stream of the bootstrap methods; the same one is
        used for every group, so reports are deterministic given it.

    Returns
    -------
    AnalysisReport
        One row per (group, target category) with the point estimate,
        its standard error, the estimated (best) rank, and the rank
        interval.  Row order follows the dataset.
    """
    (report,) = _analyses(dataset, (method,), kind, alpha, scope, j0, config)
    return report


def _analyses(
    dataset: Dataset,
    methods: Sequence[str],
    kind: str,
    alpha: float,
    scope: str,
    j0: str,
    config: BootstrapConfig | None,
) -> list[AnalysisReport]:
    """One :func:`analyze` report per entry of ``methods``.

    Each group is scored once for every method: one
    :func:`~ranksets._dispatch._rank_bounds` call on the stack of its
    one table.
    """
    methods = _request(methods, kind, alpha, scope)
    if config is None:
        config = BootstrapConfig()
    rows = {m: [] for m in methods}
    for group, sample in dataset.samples.items():
        targets = _j0_indices(sample, j0)
        bounds = _rank_bounds(
            methods, np.array(sample.counts)[None], sample.n, targets, kind,
            alpha, config.B, (config.seed,), scope,
        )
        theta = sample.theta_hat.tolist()
        triples = compute_ranks(theta)
        shared = [
            (group, sample.labels[j], theta[j],
             math.sqrt(theta[j] * (1.0 - theta[j]) / sample.n), triples[j].r)
            for j in targets
        ]
        for m, (lo, hi) in bounds.items():
            rows[m] += (
                AnalysisRow(*row, lo_j, hi_j)
                for row, lo_j, hi_j in zip(shared, lo[0].tolist(), hi[0].tolist())
            )
    identity = dataset.identity()
    return [
        AnalysisReport(method=m, kind=kind, alpha=alpha, scope=scope, j0=j0,
                       rows=tuple(rows[m]), dataset_id=identity)
        for m in methods
    ]


def _request(
    methods: Sequence[str], kind: str, alpha: float, scope: str = "simultaneous"
) -> tuple[str, ...]:
    """The canonical names of ``methods`` once they accept the request, or
    a :class:`DataError` with the library's reason."""
    try:
        return _checked_request(methods, kind, alpha, scope)
    except ValueError as exc:
        raise DataError(str(exc)) from None


@dataclass(frozen=True)
class ComparisonMatrix:
    """Pairwise interval-width comparison across methods.

    ``percent[i][j]`` is the percentage of (group, category) cells in
    which method ``i``'s interval is strictly longer than method
    ``j``'s; the diagonal is ``None``.
    """

    methods: tuple[str, ...]
    percent: tuple[tuple[float | None, ...], ...]
    cells: int

    def wider_percent(self, row, col) -> float:
        i = self.methods.index(row) if isinstance(row, str) else int(row)
        j = self.methods.index(col) if isinstance(col, str) else int(col)
        if i == j:
            raise ValueError("diagonal cells are undefined")
        return self.percent[i][j]

    def to_text(self) -> str:
        header = ("",) + self.methods
        body = []
        for i, m in enumerate(self.methods):
            body.append(
                (m,)
                + tuple(
                    "-" if v is None else f"{v:.1f}" for v in self.percent[i]
                )
            )
        return _render_table(header, body)


def compare_methods(reports: Sequence[AnalysisReport]) -> ComparisonMatrix:
    """Percentage of cells in which one method's interval is wider.

    All reports must cover the identical dataset (same groups,
    categories, and counts).  Lengths compare as ``hi - lo``; only a
    strict inequality counts, so two methods returning identical
    intervals score 0 in both directions.
    """
    if len(reports) < 2:
        raise DataError("need at least two reports to compare")
    base = reports[0]
    for rep in reports[1:]:
        if rep.dataset_id != base.dataset_id:
            raise DataError("reports cover different datasets")
        if [(r.group, r.category) for r in rep.rows] != [
            (r.group, r.category) for r in base.rows
        ]:
            raise DataError("reports cover different cells")
    lengths = [[row.hi - row.lo for row in rep.rows] for rep in reports]
    m = len(reports)
    cells = len(base.rows)
    percent: list[tuple[float | None, ...]] = []
    for i in range(m):
        row: list[float | None] = []
        for j in range(m):
            if i == j:
                row.append(None)
            else:
                wider = sum(
                    li > lj for li, lj in zip(lengths[i], lengths[j])
                )
                row.append(100.0 * wider / cells)
        percent.append(tuple(row))
    return ComparisonMatrix(
        methods=tuple(rep.method for rep in reports),
        percent=tuple(percent),
        cells=cells,
    )


def emit_plotdata(reports, path=None) -> str:
    """Plot-ready CSV: group, category, theta_hat, se, method, lo, hi.

    Accepts a single report or a sequence; rows are concatenated in
    report order.
    """
    if isinstance(reports, AnalysisReport):
        reports = [reports]
    return _csv_text(
        ["group", "category", "theta_hat", "se", "method", "lo", "hi"],
        ([r.group, r.category, f"{r.theta_hat:.6f}", f"{r.se:.6f}",
          rep.method, r.lo, r.hi]
         for rep in reports for r in rep.rows),
        path,
    )


# ---------------------------------------------------------------------------
# rendering helpers


def _render_table(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    table = [tuple(str(c) for c in header)] + [
        tuple(str(c) for c in row) for row in rows
    ]
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    lines = []
    for idx, row in enumerate(table):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        if idx == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def _fmt_rank_set(lo: int, hi: int) -> str:
    return f"{{{lo}}}" if lo == hi else f"{{{lo}..{hi}}}"


def _print_report(report: AnalysisReport, dataset: Dataset, out) -> None:
    for group in dataset.groups:
        sample = dataset.samples[group]
        rows = [r for r in report.rows if r.group == group]
        print(
            f"group={group}  n={sample.n}  method={report.method}  "
            f"kind={report.kind}  alpha={report.alpha:g}  scope={report.scope}",
            file=out,
        )
        body = [
            (
                r.category,
                sample.counts[sample.labels.index(r.category)],
                f"{r.theta_hat:.3f}",
                f"{r.se:.4f}",
                r.rank,
                _fmt_rank_set(r.lo, r.hi),
            )
            for r in rows
        ]
        print(
            _render_table(
                ("category", "count", "theta_hat", "se", "rank", "ranks"), body
            ),
            file=out,
        )


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reports usage problems as DataError (exit 1)."""

    def error(self, message):  # noqa: A003 - argparse API
        raise DataError(message)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _alpha_value(text: str) -> float:
    value = float(text)
    if not (0.0 < value < 1.0):
        raise argparse.ArgumentTypeError("alpha must lie strictly in (0, 1)")
    return value


def _seed_value(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be a non-negative integer")
    return value


def _group_small_spec(text: str):
    try:
        return float(text)
    except ValueError:
        return [label.strip() for label in text.split(",") if label.strip()]


def _method_list(text: str) -> list[str]:
    return [normalize_method(m) for m in text.split(",") if m.strip()]


def _parse_design(text: str) -> tuple[str, dict[str, str]]:
    name, _, arg_text = text.partition(":")
    kwargs = {}
    if arg_text:
        for part in arg_text.split(","):
            key, eq, value = part.partition("=")
            if not eq:
                raise DataError(f"design argument {part!r} is not key=value")
            kwargs[key.strip()] = value.strip()
    return name.strip(), kwargs


@cache
def _build_parser() -> _Parser:
    """The one parser of the process; its defaults are immutable, so one
    call's arguments cannot carry into the next."""
    parser = _Parser(
        prog="ranksets",
        description="Confidence sets for ranks of multinomial categories.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True

    # The resampling flags of every subcommand.
    resampling = argparse.ArgumentParser(add_help=False)
    resampling.add_argument(
        "--alpha", type=_alpha_value, default=0.05,
        help="one minus the nominal coverage level (default 0.05)",
    )
    resampling.add_argument(
        "--boot-samples", type=_positive_int, default=2000, metavar="B",
        help="bootstrap resamples (default 2000)",
    )
    resampling.add_argument(
        "--seed", type=_seed_value, default=0,
        help="non-negative random seed (default 0)",
    )
    data_common = argparse.ArgumentParser(add_help=False, parents=[resampling])
    data_common.add_argument("data", help="count table (CSV or JSON)")
    data_common.add_argument(
        "--format", choices=("csv", "json"), default=None,
        help="input format (default: infer from extension)",
    )
    data_common.add_argument(
        "--drop-zero", action="store_true",
        help="drop zero-count categories after validation",
    )
    data_common.add_argument(
        "--group-small", metavar="SPEC", default=None,
        help="merge categories into 'Other': share threshold in (0,1) "
             "or comma-separated labels",
    )
    data_common.add_argument(
        "--out", default=None, help="also write machine-readable CSV here"
    )
    # Rank-set flags of the subcommands that run analyze; compare reads
    # every category, so it takes no --j0.
    analysis_common = argparse.ArgumentParser(add_help=False)
    analysis_common.add_argument(
        "--kind", choices=KINDS, default="two_sided",
        help="sidedness of the rank bounds",
    )
    analysis_common.add_argument(
        "--scope", choices=SCOPES, default="marginal",
        help="marginal: one set per category; simultaneous: one joint set",
    )
    targets_common = argparse.ArgumentParser(
        add_help=False, parents=[analysis_common]
    )
    targets_common.add_argument(
        "--j0", default="all", metavar="SPEC",
        help="'all' or 'single:<category>' (default all)",
    )

    p_analyze = sub.add_parser(
        "analyze", parents=[data_common, targets_common],
        help="rank confidence sets per group and category",
    )
    p_analyze.add_argument(
        "--method", type=_method_list, default=("exactHolm",), metavar="M[,M...]",
        help=f"methods, comma-separated from {', '.join(METHOD_NAMES)}",
    )

    p_tau = sub.add_parser(
        "tau-best", parents=[data_common],
        help="categories whose rank set reaches the top (or bottom) tau",
    )
    p_tau.add_argument("--tau", type=_positive_int, required=True)
    p_tau.add_argument(
        "--worst", action="store_true",
        help="select bottom-tau instead of top-tau",
    )
    p_tau.add_argument(
        "--method", type=normalize_method, default="exactHolm",
        help="any registered method except naive",
    )

    p_compare = sub.add_parser(
        "compare", parents=[data_common, analysis_common],
        help="percentage of cells where one method's interval is wider",
    )
    p_compare.add_argument(
        "--method", type=_method_list, default=("exactHolm", "bootStud"),
        metavar="M,M[,M...]", help="two or more methods, comma-separated",
    )

    p_plot = sub.add_parser(
        "plotdata", parents=[data_common, targets_common],
        help="plot-ready CSV (group, category, theta_hat, se, method, lo, hi)",
    )
    p_plot.add_argument(
        "--method", type=_method_list, default=("exactHolm",), metavar="M[,M...]",
    )

    p_sim = sub.add_parser(
        "simulate", parents=[resampling],
        help="Monte Carlo coverage/length study for one design",
    )
    p_sim.add_argument(
        "design",
        help="aes:kappa=K,tau_n=T | erratic:pi=P,n=N | uniform:p=P,n=N",
    )
    p_sim.add_argument("--method", type=_method_list, default=None,
                       metavar="M[,M...]", help="override the design's methods")
    p_sim.add_argument("--reps", type=_positive_int, default=1000)
    p_sim.add_argument("--scope", choices=SCOPES, default="marginal")
    p_sim.add_argument(
        "--categories", default=None, metavar="I[,I...]",
        help="1-based category indices to track (default: design-specific)",
    )
    p_sim.add_argument(
        "--format", choices=("csv", "json"), default="csv",
        help="report format on stdout (default csv)",
    )
    p_sim.add_argument("--out", default=None, help="also write the report here")
    return parser


# ---------------------------------------------------------------------------
# subcommand runners


def _load_dataset(args) -> Dataset:
    dataset = ingest(args.data, format=args.format, drop_zero=args.drop_zero)
    if args.group_small is not None:
        spec = _group_small_spec(args.group_small)
        samples = {
            group: group_small(sample, spec)
            for group, sample in dataset.samples.items()
        }
        dataset = Dataset(samples=samples, source=dataset.source)
    return dataset


def _boot_config(args) -> BootstrapConfig:
    """The one resampling stream of a request: ``--boot-samples`` and the seed."""
    return BootstrapConfig(B=args.boot_samples, seed=args.seed)


def _method_reports(args, dataset: Dataset, j0: str) -> list[AnalysisReport]:
    """One :func:`analyze` report per ``--method``, all on one resampling stream."""
    return _analyses(dataset, args.method, args.kind, args.alpha, args.scope, j0,
                     _boot_config(args))


def _run_analyze(args, out) -> int:
    dataset = _load_dataset(args)
    reports = _method_reports(args, dataset, args.j0)
    for report in reports:
        _print_report(report, dataset, out)
    if args.out:
        _reports_csv(reports, args.out)
    return 0


def _run_tau(args, out) -> int:
    _request((args.method,), "upper" if args.worst else "lower", args.alpha)
    dataset = _load_dataset(args)
    config = _boot_config(args)
    select = tau_worst if args.worst else tau_best
    csv_rows = []
    for group, sample in dataset.samples.items():
        if args.tau > sample.p:
            raise DataError(
                f"group {group!r}: --tau {args.tau} exceeds its {sample.p} categories"
            )
        result = select(sample, args.tau, alpha=args.alpha,
                        method=args.method, config=config)
        members = [sample.labels[j] for j in sorted(result.members)]
        direction = result.direction
        print(
            f"group={group}  direction={direction}  tau={args.tau}  "
            f"method={result.method}  alpha={args.alpha:g}",
            file=out,
        )
        print(
            f"selected ({len(members)}): " + (", ".join(members) or "(none)"),
            file=out,
        )
        rs = result.rank_set
        bound_name, side = ("lo", 0) if direction == "best" else ("hi", 1)
        body = []
        for j in range(sample.p):
            bound = rs.interval(j)[side]
            member = "yes" if j in result.members else "no"
            body.append((sample.labels[j], bound, member))
            csv_rows.append(
                [group, direction, args.tau, sample.labels[j], bound, member]
            )
        print(_render_table(("category", bound_name, "member"), body), file=out)
    if args.out:
        _csv_text(["group", "direction", "tau", "category", "bound", "member"],
                  csv_rows, args.out)
    return 0


def _run_compare(args, out) -> int:
    if len(args.method) < 2:
        raise DataError("compare needs at least two methods")
    matrix = compare_methods(_method_reports(args, _load_dataset(args), "all"))
    print(
        f"% of {matrix.cells} group x category cells where the row method's "
        f"interval is strictly wider (alpha={args.alpha:g}, scope={args.scope})",
        file=out,
    )
    print(matrix.to_text(), file=out)
    if args.out:
        _csv_text(
            ["method", *matrix.methods],
            ([m, *("" if v is None else f"{v:.3f}" for v in row)]
             for m, row in zip(matrix.methods, matrix.percent)),
            args.out,
        )
    return 0


def _run_plotdata(args, out) -> int:
    reports = _method_reports(args, _load_dataset(args), args.j0)
    text = emit_plotdata(reports, path=args.out)
    if not args.out:
        print(text, end="", file=out)
    return 0


#: The designs of ``simulate``: each one's constructor and the type of
#: each of its arguments, read in this order.
_DESIGNS = {
    "aes": (aes_design, {"kappa": float, "tau_n": float}),
    "erratic": (erratic_design, {"pi": float, "n": int}),
    "uniform": (uniform_design, {"p": int, "n": int}),
}


def _run_simulate(args, out) -> int:
    name, kw = _parse_design(args.design)
    if name not in _DESIGNS:
        raise DataError(f"bad design argument: unknown design {name!r}; "
                        "expected aes, erratic, or uniform")
    make, types = _DESIGNS[name]
    common = dict(
        alpha=args.alpha, reps=args.reps, B=args.boot_samples,
        master_seed=args.seed, scope=args.scope,
    )
    if args.method:
        common["methods"] = tuple(args.method)
    try:
        design = make(**{arg: cast(kw.pop(arg)) for arg, cast in types.items()},
                      **common)
    except KeyError as exc:
        raise DataError(f"design {name!r} is missing argument {exc}") from None
    except ValueError as exc:
        raise DataError(f"bad design argument: {exc}") from None
    if kw:
        raise DataError(f"unknown design arguments: {', '.join(sorted(kw))}")
    if args.categories is not None:
        try:
            cats = tuple(
                int(c) - 1 for c in args.categories.split(",") if c.strip()
            )
            design = replace(design, categories=cats)
        except ValueError:
            raise DataError(
                f"--categories must be integers in 1..{len(design.theta)}, "
                f"got {args.categories!r}"
            ) from None
    report = run_design(design)
    text = report.to_json() if args.format == "json" else report.to_csv()
    print(text, end="" if text.endswith("\n") else "\n", file=out)
    if args.out:
        as_json = args.out.endswith(".json") or args.format == "json"
        _write_text(args.out, report.to_json() if as_json else report.to_csv())
    return 0


_RUNNERS = {
    "analyze": _run_analyze,
    "tau-best": _run_tau,
    "compare": _run_compare,
    "plotdata": _run_plotdata,
    "simulate": _run_simulate,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _RUNNERS[args.command](args, sys.stdout)
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # a library bug, not bad input
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
