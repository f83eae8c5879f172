"""Ranking political parties from survey counts, with honest uncertainty.

A walkthrough on the packaged Greater Melbourne sample: point ranks are
easy to compute and easy to over-read, so this script builds confidence
sets for each party's rank under several procedures and shows where
they agree (the leaders), where they refuse to commit (the sparse
tail), and how projections answer "who is credibly top two?" directly.

Run from the repository root:

    python3 demos/survey_rankings.py
"""

from pathlib import Path

from ranksets import BootstrapConfig, rank_cs, tau_best, tau_worst
from ranksets.cli import analyze, compare_methods, ingest

DATA = Path(__file__).resolve().parent.parent / "data"
METHODS = ("exactBonf", "exactHolm", "cp", "boot", "bootStud", "naive")


def show(title: str) -> None:
    print()
    print(title)
    print("-" * len(title))


def fmt(iv: tuple[int, int]) -> str:
    lo, hi = iv
    return f"{{{lo}}}" if lo == hi else f"{{{lo}..{hi}}}"


def main() -> None:
    dataset = ingest(DATA / "melbourne.csv")
    sample = dataset.samples["Greater Melbourne"]
    labels = sample.labels

    show("Observed shares (n = %d respondents)" % sample.n)
    order = sorted(range(sample.p), key=lambda j: -sample.counts[j])
    for j in order:
        print(f"  {labels[j]:<10s} {sample.counts[j]:>3d}  "
              f"theta_hat = {sample.theta_hat[j]:.3f}")
    print("Sorting by share gives point ranks 1..7 -- but three parties")
    print("got 6, 2 and 1 answers, so those ranks are mostly noise.")

    show("Marginal 95% rank sets, six procedures (B = 10,000, seed 0)")
    cfg = BootstrapConfig(B=10_000, seed=0)
    table = {m: rank_cs(m, sample, config=cfg, scope="marginal") for m in METHODS}
    header = "  party      " + "".join(f"{m:>10s}" for m in METHODS)
    print(header)
    for j in order:
        cells = "".join(f"{fmt(table[m].interval(j)):>10s}" for m in METHODS)
        print(f"  {labels[j]:<10s}" + cells)
    print("Every procedure pins Labor and Liberal to the top two and is")
    print("agnostic about their order; the Holm-refined exact test even")
    print("gives singleton ranks to the third and fourth parties.  The")
    print("studentized bootstrap refuses to rank the two rarest parties")
    print("at all: with 2 and 1 answers, resamples that empty both")
    print("categories have probability just under 5%, so its calibrated")
    print("threshold explodes to infinity at this level.")

    show("The same bootstrap at 90% -- the explosion is level-sensitive")
    for j in (5, 6):
        at95 = rank_cs("bootStud", sample, J0=(j,), alpha=0.05, config=cfg)
        at90 = rank_cs("bootStud", sample, J0=(j,), alpha=0.10, config=cfg)
        print(f"  {labels[j]:<10s} 95% -> {fmt(at95.interval(j))},  "
              f"90% -> {fmt(at90.interval(j))}")
    print("Dropping the level below the empty-both-categories probability")
    print("brings the threshold back to a finite value.")

    show("Marginal vs simultaneous scope (exactHolm)")
    marg = analyze(dataset, method="exactHolm", scope="marginal")
    simu = analyze(dataset, method="exactHolm", scope="simultaneous")
    for rm, rs in zip(marg.rows, simu.rows):
        print(f"  {rm.category:<10s} marginal {fmt((rm.lo, rm.hi)):>8s}   "
              f"simultaneous {fmt((rs.lo, rs.hi)):>8s}")
    print("One joint guarantee over all seven claims costs a little width")
    print("on some categories; marginal sets answer one question each.")

    show("Projections: who is credibly in the top 2 / bottom 3?")
    best = tau_best(sample, 2)
    worst = tau_worst(sample, 3)
    print("  top-2 candidates   :",
          ", ".join(labels[j] for j in sorted(best.members)))
    print("  bottom-3 candidates:",
          ", ".join(labels[j] for j in sorted(worst.members)))
    print("These come from one-sided simultaneous rank bounds, so each")
    print("set contains the true top-2 (bottom-3) with 95% confidence.")

    show("Method disagreement across eight territories")
    territories = ingest(DATA / "territories8.csv")
    cfg2 = BootstrapConfig(B=2000, seed=0)
    reports = [
        analyze(territories, method=m, config=cfg2)
        for m in ("exactHolm", "bootStud")
    ]
    matrix = compare_methods(reports)
    print(f"  cells where bootStud is wider than exactHolm: "
          f"{matrix.wider_percent('bootStud', 'exactHolm'):.1f}%")
    print(f"  cells where exactHolm is wider than bootStud: "
          f"{matrix.wider_percent('exactHolm', 'bootStud'):.1f}%")
    print("The exact construction usually matches or beats the")
    print("studentized bootstrap on these survey-sized tables, and it")
    print("never needs a resampling budget or a seed.")


if __name__ == "__main__":
    main()
