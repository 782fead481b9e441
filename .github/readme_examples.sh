#!/usr/bin/env bash
# Runs the README's CLI examples 1 to 6 through `python -m fairedit.cli` and
# writes their seven reports (example 6 runs once per model) into OUTDIR.
# The package comes from the caller's PYTHONPATH and working directory, so
# the one list runs against any checkout:
#
#   (cd CHECKOUT && PYTHONPATH=src bash /path/to/readme_examples.sh OUTDIR)
set -euo pipefail
out=$(mkdir -p "${1:?usage: readme_examples.sh OUTDIR}" && cd "$1" && pwd)
cli() { python -m fairedit.cli "$@"; }
n400='n=400,homophily=0.9,edge_density=2,label_bias=0.8,seed=0'
n200='n=200,homophily=0.9,edge_density=2,label_bias=0.8,seed=0'
n60='n=60,homophily=0.9,edge_density=2,label_bias=0.8,seed=0'

cli --synthetic "$n400" --model gcn --method standard --lr 0.01 --hidden 16 --depth 2 \
    --k 200 --seed 0,1,2 --out "$out/example1.csv"
cli --synthetic "$n400" --model gcn --method fairedit --lr 0.01 --hidden 16 --depth 3 \
    --k 250 --alpha 190 --seed 0,1 --format structured --out "$out/example2.json"
cli --synthetic "$n60" --model sage --method bruteforce --lr 0.01 --hidden 8 --depth 2 \
    --k 20 --alpha 2 --seed 0,1 --format structured --out "$out/example3.json"
cli --synthetic "$n60" --model gcn --method bruteforce --lr 0.01 --hidden 8 --depth 2 \
    --k 20 --alpha 2 --seed 0,1 --format structured --out "$out/example4.json"
cli --synthetic "$n60" --model appnp --method bruteforce --lr 0.01 --hidden 8 --depth 2 \
    --k 20 --alpha 2 --seed 0,1 --format structured --out "$out/example5.json"
for model in sage appnp; do
  cli --synthetic "$n200" --model $model --method fairedit --lr 0.01 --hidden 16 --depth 2 \
      --k 100 --alpha 60 --seed 0,1 --format structured --out "$out/example6_$model.json"
done
