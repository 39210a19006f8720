#!/usr/bin/env bash
# Byte identity of the CLI's outputs between two fewshot source trees.
#
#   tools/byte_identity.sh BASE_TREE HEAD_TREE
#
# Makes the same short train, eval, shift, ablate, CSV and check runs with
# each tree's src/, then prints one line per output: "identical" when the
# two trees wrote the same bytes, "DIFFERS" when not, "missing or empty"
# when a run wrote nothing.  The last line says whether the base's 1-shot
# config.txt still drives the head's eval, since every older config.txt
# must load.  ROADMAP aim 2 keeps these bytes; a change that moves them on
# purpose says why in CHANGES.md.
#
# The runs write to a temporary directory, removed on exit, and their own
# output goes to stderr, so stdout holds only the summary.  A difference
# is reported, not failed: the exit status is 0 unless the arguments are
# wrong (2).

set -u

if [ $# -ne 2 ] || [ ! -d "${1-}/src/fewshot" ] || [ ! -d "${2-}/src/fewshot" ]; then
  echo "usage: $0 BASE_TREE HEAD_TREE (each a tree holding src/fewshot)" >&2
  exit 2
fi
base_src=$(cd "$1/src" && pwd)
head_src=$(cd "$2/src" && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

for side in base head; do
  if [ "$side" = base ]; then src=$base_src; else src=$head_src; fi
  mkdir -p "$work/$side/runs"
  (
    cd "$work/$side" || exit
    export PYTHONPATH=$src
    short="--episodes 300 --val-interval 100 --seed 0"
    python3 -m fewshot train --head regression $short --out runs/regression
    python3 -m fewshot train --head proto $short --out runs/proto
    python3 -m fewshot train --head cosine $short --out runs/cosine
    # 1-shot: auto lambda2 resolves to 1e-3; config.txt lists every default
    python3 -m fewshot train --head regression --k 1 $short --out runs/regression-k1
    # K = 20 > M = 16: the push-through regime, where each class spans the embedding space
    python3 -m fewshot train --head regression --k 20 --q 5 $short --out runs/regression-k20
    python3 -m fewshot eval --checkpoint runs/regression/encoder.txt --eval-episodes 200 --seed 0 --out runs/eval
    # K = 20 > M = 16 in a scoring chunk, and the proto head's scoring
    python3 -m fewshot eval --checkpoint runs/regression/encoder.txt --k 20 --eval-episodes 200 --seed 0 --out runs/eval-k20
    python3 -m fewshot eval --checkpoint runs/proto/encoder.txt --head proto --eval-episodes 200 --seed 0 --out runs/eval-proto
    # shift builds both domains with synth_gaussian
    python3 -m fewshot shift $short --out runs/shift
    python3 -m fewshot ablate --lambda2-values 0,0.01 $short --out runs/ablate
    # a CSV written by this side's save_csv, read back by its load_csv
    python3 -c "from fewshot.episodes import save_csv, synth_gaussian; save_csv(synth_gaussian(0, 30, 30, 16, name='csv'), 'runs/data.csv')"
    python3 -m fewshot train --head proto --dataset runs/data.csv $short --out runs/csv
    python3 -m fewshot check --seed 0 > runs/check.txt
  ) >&2
done

(
  cd "$work/head" || exit
  PYTHONPATH=$head_src python3 -m fewshot eval \
    --config "$work/base/runs/regression-k1/config.txt" \
    --checkpoint runs/regression-k1/encoder.txt --eval-episodes 50
) >&2
if [ $? -eq 0 ]; then loads=yes; else loads=no; fi

for f in regression/history.log regression/encoder.txt proto/history.log \
         proto/encoder.txt cosine/history.log cosine/encoder.txt \
         regression-k1/history.log regression-k1/encoder.txt \
         regression-k1/config.txt regression-k20/history.log \
         regression-k20/encoder.txt eval/report.log eval-k20/report.log \
         eval-proto/report.log shift/shift.log ablate/ablation.log \
         csv/history.log check.txt; do
  base="$work/base/runs/$f"
  head="$work/head/runs/$f"
  if [ ! -s "$base" ] || [ ! -s "$head" ]; then verdict="missing or empty"
  elif cmp -s "$base" "$head"; then verdict="identical"
  else verdict="DIFFERS"; fi
  echo "- $f: $verdict"
done
echo "base config.txt loads at head: $loads"
