#!/usr/bin/env bash
# Tour of the command-line interface on the packaged survey data.
# Every command is deterministic: its bootstrap seed comes from
# --seed alone.  Run from the repository root:
#
#     bash demos/cli_tour.sh

set -euo pipefail
cd "$(dirname "$0")/.."

banner() { printf '\n$ %s\n' "$*"; }

banner ranksets analyze data/melbourne.csv --method exactHolm
ranksets analyze data/melbourne.csv --method exactHolm

banner ranksets analyze data/melbourne.csv --method exactHolm,bootStud \
    --scope simultaneous --seed 0
ranksets analyze data/melbourne.csv --method exactHolm,bootStud \
    --scope simultaneous --seed 0

banner ranksets analyze data/melbourne.csv --method bootStud --alpha 0.10 \
    --boot-samples 10000 --seed 0
ranksets analyze data/melbourne.csv --method bootStud --alpha 0.10 \
    --boot-samples 10000 --seed 0

banner ranksets analyze data/melbourne.csv --method cp --group-small 0.05
ranksets analyze data/melbourne.csv --method cp --group-small 0.05

banner ranksets tau-best data/melbourne.csv --tau 2
ranksets tau-best data/melbourne.csv --tau 2

banner ranksets tau-best data/melbourne.csv --tau 3 --worst
ranksets tau-best data/melbourne.csv --tau 3 --worst

banner ranksets compare data/territories8.csv --method exactHolm,cp,bootStud \
    --seed 0
ranksets compare data/territories8.csv --method exactHolm,cp,bootStud --seed 0

banner ranksets plotdata data/melbourne.csv --method exactHolm,bootStud \
    --seed 0 --out /tmp/melbourne_plotdata.csv
ranksets plotdata data/melbourne.csv --method exactHolm,bootStud \
    --seed 0 --out /tmp/melbourne_plotdata.csv
head -5 /tmp/melbourne_plotdata.csv

banner ranksets simulate uniform:p=5,n=60 --method exactHolm,naive \
    --reps 200 --boot-samples 300 --seed 0
ranksets simulate uniform:p=5,n=60 --method exactHolm,naive \
    --reps 200 --boot-samples 300 --seed 0
