"""Seeded inputs, ops and output checks of the three benchmark workloads.

Each workload is a closed loop over a fixed rotation of op kinds.  Op
``i`` of a run with seed ``s`` draws its inputs from
``numpy.random.default_rng([s, i])``, so a seed fixes every input and
every op gets a fresh table.  ``make`` builds an op's inputs outside
the timed region, ``run`` is the timed call into ``ranksets`` (always
through module attributes, so a traced run sees the wrapped
functions), and ``check`` validates the outputs and returns a digest
of them.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
from pathlib import Path

import numpy as np

import ranksets
import ranksets.cli
import ranksets.sim

METHODS = ("exactBonf", "exactHolm", "cp", "boot", "bootStud", "naive")

#: Group sizes and shares of the eight-group survey table the `survey`
#: workload resamples (a snapshot of ``data/territories8.csv``).
SURVEY_GROUPS = {
    "Greater Sydney": {
        "Labor": 86, "Liberal": 72, "No party": 38, "Greens": 22,
        "No answer": 10, "One Nation": 5, "United Australia": 3, "National": 2,
    },
    "Greater Melbourne": {
        "Labor": 87, "Liberal": 75, "No party": 42, "Greens": 21,
        "No answer": 6, "One Nation": 2, "National": 1,
    },
    "Rest of New South Wales": {
        "Liberal": 46, "Labor": 42, "National": 22, "No party": 16,
        "Greens": 9, "No answer": 4, "One Nation": 3, "United Australia": 2,
    },
    "Rest of Queensland": {
        "Liberal": 35, "Labor": 31, "National": 18, "One Nation": 12,
        "No party": 10, "Greens": 6, "Katter": 4, "No answer": 2,
        "United Australia": 2, "Christian": 1,
    },
    "Greater Brisbane": {
        "Liberal": 40, "Labor": 34, "Greens": 14, "No party": 12,
        "One Nation": 5, "No answer": 4, "United Australia": 3, "National": 3,
    },
    "Greater Perth": {
        "Liberal": 32, "Labor": 28, "Greens": 11, "No party": 10,
        "One Nation": 5, "No answer": 4, "National": 3,
    },
    "Rest of Victoria": {
        "Labor": 26, "Liberal": 24, "National": 12, "Greens": 8,
        "No party": 7, "No answer": 2, "One Nation": 2, "United Australia": 1,
    },
    "Greater Adelaide": {
        "Labor": 28, "Liberal": 24, "Greens": 10, "No party": 8,
        "Centre Alliance": 5, "No answer": 2, "One Nation": 2,
        "United Australia": 1, "National": 1,
    },
}

#: `survey` request rotation: op kind -> subcommand and its arguments
#: after the table path.
SURVEY_REQUESTS = {
    "analyze": ("analyze", "--method", ",".join(METHODS)),
    "analyze-simultaneous": ("analyze", "--method", ",".join(METHODS),
                             "--scope", "simultaneous"),
    "tau-best": ("tau-best", "--tau", "2"),
    "compare": ("compare", "--method", "exactBonf,exactHolm,bootStud"),
}

#: `montecarlo` designs: ``(constructor, arguments)``; every call runs
#: MC_REPS replications with B = MC_B resamples.
MC_DESIGNS = (
    ("aes_design", {"kappa": 0.5, "tau_n": 1}),
    ("uniform_design", {"p": 20, "n": 50}),
)
MC_REPS = 4
MC_B = 1000

#: `scale` table shapes: ``(name, shares, n)``.  Every table runs all
#: six methods, joint two-sided, with B = SCALE_B resamples.
_SURVEY_SHARES = np.asarray((87, 75, 42, 21, 6, 2, 1), dtype=float) / 234
_ZIPF = 1.0 / np.arange(1, 101) ** 0.5
SCALE_SHAPES = (
    ("deep", _SURVEY_SHARES, 5000),
    ("wide", _ZIPF / _ZIPF.sum(), 5000),
)
SCALE_B = 1000


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _op_rng(seed: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, i])


def _check_interval(problems: list, where: str, lo: int, hi: int, p: int) -> None:
    if not (1 <= lo <= hi <= p):
        problems.append(f"{where}: interval [{lo}, {hi}] outside [1, {p}]")


def _check_nested(problems: list, where: str, holm, bonf) -> None:
    """exactHolm's interval must lie inside exactBonf's."""
    if not (bonf[0] <= holm[0] and holm[1] <= bonf[1]):
        problems.append(f"{where}: exactHolm {holm} not inside exactBonf {bonf}")


class Workload:
    """One workload; ``workdir`` holds the files its ops read and write."""

    name = ""
    kinds: tuple[str, ...] = ()

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir


class Survey(Workload):
    """`ranksets` CLI requests on generated eight-group survey tables."""

    name = "survey"
    kinds = tuple(SURVEY_REQUESTS)

    def __init__(self, workdir: Path) -> None:
        super().__init__(workdir)
        self.table = workdir / "survey-table.csv"
        self.out = workdir / "survey-out.csv"

    def make(self, seed: int, i: int):
        rng = _op_rng(seed, i)
        sizes = {}
        lines = ["group,category,count"]
        for group, shares in SURVEY_GROUPS.items():
            n = sum(shares.values())
            theta = np.asarray(list(shares.values()), dtype=float) / n
            counts = rng.multinomial(n, theta)
            lines += [f"{group},{label},{count}"
                      for label, count in zip(shares, counts.tolist())]
            sizes[group] = len(shares)
        self.table.write_text("\n".join(lines) + "\n", encoding="utf-8")
        self.out.unlink(missing_ok=True)
        request = SURVEY_REQUESTS[self.kinds[i % len(self.kinds)]]
        argv = [request[0], str(self.table), *request[1:], "--out", str(self.out)]
        return argv, sizes

    def run(self, inputs):
        argv, _ = inputs
        with contextlib.redirect_stdout(io.StringIO()):
            return ranksets.cli.main(argv)

    def check(self, inputs, code):
        argv, sizes = inputs
        if code != 0:
            return [f"{argv[0]} exited with code {code}"], f"exit {code}"
        text = self.out.read_text(encoding="utf-8")
        rows = list(csv.DictReader(io.StringIO(text)))
        problems: list[str] = []
        if argv[0] == "analyze":
            intervals = {}
            for row in rows:
                where = f"{row['group']}/{row['category']}/{row['method']}"
                lo, hi = int(row["lo"]), int(row["hi"])
                _check_interval(problems, where, lo, hi, sizes[row["group"]])
                intervals[(row["group"], row["category"], row["method"])] = (lo, hi)
            cells = sum(sizes.values())
            if len(intervals) != cells * len(METHODS):
                problems.append(f"{len(intervals)} intervals for {cells} cells")
            for (group, category, method), holm in intervals.items():
                if method == "exactHolm":
                    bonf = intervals.get((group, category, "exactBonf"), (1, 0))
                    _check_nested(problems, f"{group}/{category}", holm, bonf)
        elif argv[0] == "tau-best":
            tau = int(argv[argv.index("--tau") + 1])
            for row in rows:
                bound, p = int(row["bound"]), sizes[row["group"]]
                if not (1 <= bound <= p):
                    problems.append(f"{row['group']}/{row['category']}: bound {bound}")
                if (row["member"] == "yes") != (bound <= tau):
                    problems.append(f"{row['group']}/{row['category']}: membership")
            if len(rows) != sum(sizes.values()):
                problems.append(f"{len(rows)} tau-best rows")
        else:  # compare
            matrix = {row["method"]: row for row in rows}
            for method, row in matrix.items():
                for other, value in row.items():
                    if other in (method, "method"):
                        continue
                    if not (0.0 <= float(value) <= 100.0):
                        problems.append(f"{method} vs {other}: {value}%")
            if float(matrix["exactHolm"]["exactBonf"]) != 0.0:
                problems.append("exactHolm wider than exactBonf in some cell")
        return problems, _digest(text)


class MonteCarlo(Workload):
    """`sim.run_design` calls alternating between two coverage designs."""

    name = "montecarlo"
    kinds = tuple(constructor for constructor, _ in MC_DESIGNS)

    def make(self, seed: int, i: int):
        rng = _op_rng(seed, i)
        constructor, kwargs = MC_DESIGNS[i % len(MC_DESIGNS)]
        master_seed = int(rng.integers(2**32))
        return getattr(ranksets.sim, constructor)(
            **kwargs, B=MC_B, reps=MC_REPS, master_seed=master_seed
        )

    def run(self, design):
        return ranksets.sim.run_design(design)

    def check(self, design, report):
        problems: list[str] = []
        p = len(design.theta)
        cats = design.categories
        expected = {(m, j) for m in design.methods for j in cats}
        cells = {(c.method, c.category): c for c in report.cells}
        if set(cells) != expected or report.reps != design.reps:
            problems.append(f"cells {sorted(cells)} for design {design.name}")
        for (method, j), c in cells.items():
            hits = c.coverage * design.reps
            if not (0.0 <= c.coverage <= 1.0) or abs(hits - round(hits)) > 1e-9:
                problems.append(f"{method}/cat{j + 1}: coverage {c.coverage}")
            if not (0.0 <= c.avg_length <= p - 1):
                problems.append(f"{method}/cat{j + 1}: length {c.avg_length}")
        for j in cats:
            holm, bonf = cells.get(("exactHolm", j)), cells.get(("exactBonf", j))
            if holm and bonf and (holm.coverage > bonf.coverage
                                  or holm.avg_length > bonf.avg_length):
                problems.append(f"cat{j + 1}: exactHolm wider than exactBonf")
        text = repr([(c.method, c.category, c.coverage, c.coverage_se, c.avg_length)
                     for c in report.cells])
        return problems, _digest(f"{design.name}|{design.master_seed}|{text}")


class Scale(Workload):
    """All six methods on one large table, deep and wide in turn."""

    name = "scale"
    kinds = tuple(shape for shape, _, _ in SCALE_SHAPES)

    def make(self, seed: int, i: int):
        rng = _op_rng(seed, i)
        _, shares, n = SCALE_SHAPES[i % len(SCALE_SHAPES)]
        counts = tuple(rng.multinomial(n, shares).tolist())
        config = ranksets.BootstrapConfig(B=SCALE_B, seed=int(rng.integers(2**32)))
        return ranksets.MultinomialSample(counts=counts), config

    def run(self, inputs):
        sample, config = inputs
        return {m: ranksets.rank_cs(m, sample, config=config) for m in METHODS}

    def check(self, inputs, sets):
        sample, _ = inputs
        problems: list[str] = []
        for method, rs in sets.items():
            if rs.J0 != tuple(range(sample.p)):
                problems.append(f"{method}: J0 {rs.J0}")
            for j in rs.J0:
                _check_interval(problems, f"{method}/{j}", *rs.interval(j), sample.p)
        for j in range(sample.p):
            _check_nested(problems, f"cat{j + 1}", sets["exactHolm"].interval(j),
                          sets["exactBonf"].interval(j))
        text = repr([(m, [rs.interval(j) for j in rs.J0]) for m, rs in sets.items()])
        return problems, _digest(text)


WORKLOADS = {w.name: w for w in (Survey, MonteCarlo, Scale)}
