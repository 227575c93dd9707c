#!/bin/sh
# A/A: the full benchmark twice on the same commit, then `compare`.
# The two result files are committed as results/aa_1.json and aa_2.json;
# what `compare` prints for them is this machine's noise floor.
set -eu
cd "$(dirname "$0")"
seed="${1:-42}"
cargo build --release --offline
bin="${CARGO_TARGET_DIR:-target}/release/rtree-perf"
"$bin" run --seed "$seed" --out results/aa_1.json
"$bin" run --seed "$seed" --out results/aa_2.json
"$bin" compare results/aa_1.json results/aa_2.json
