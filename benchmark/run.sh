#!/usr/bin/env bash
# The repo's end-to-end + per-layer benchmark. Run from anywhere: file
# arguments are taken relative to the caller's directory.
#
#   benchmark/run.sh                          every workload, each run in its own process, one
#                                             after another: 7 rounds of untraced runs, then
#                                             1 traced run each; records appended to a result set
#     [--seed N] [--out FILE]                 (default 0xD57A, benchmark/out/results-<time>.jsonl)
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1 [--out FILE]
#                                             one run (what BENCHMARK.json's command invokes)
#   benchmark/run.sh --compare A B            judge two result sets of one seed (ISSUE 11's bounds)
#   benchmark/run.sh --smoke                  every code path at toy size, a few seconds
#   benchmark/run.sh --list                   workload names
set -euo pipefail

caller="$PWD"
abs() { case "$1" in /*) printf '%s\n' "$1" ;; *) printf '%s\n' "$caller/$1" ;; esac; }
cd "$(dirname "${BASH_SOURCE[0]}")/.."
manifest=benchmark/Cargo.toml

# The measured code must be compiled the way tier-1 compiles it: the
# benchmark's manifest repeats the root's release profile and lint table.
[ -f Cargo.toml ] || { echo "run.sh: no root Cargo.toml here — not a checkout of the repo" >&2; exit 3; }
stanza() { awk -v h="[$1]" '$0 == h { p = 1; print; next } /^\[/ { p = 0 } p && NF && !/^#/' "$2"; }
for table in profile.release workspace.lints.clippy; do
    if ! diff <(stanza "$table" Cargo.toml) <(stanza "$table" "$manifest") >&2; then
        echo "run.sh: [$table] in $manifest differs from the root Cargo.toml" >&2
        exit 3
    fi
done

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path "$manifest" >&2
bin="$CARGO_TARGET_DIR/release/dstm-e2e-bench"
BENCH_GIT_REV="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
export BENCH_GIT_REV

case "${1:-}" in
    --compare)
        [ $# -eq 3 ] || { echo "run.sh: --compare needs two result sets" >&2; exit 2; }
        exec "$bin" --compare "$(abs "$2")" "$(abs "$3")"
        ;;
    --smoke | --list) exec "$bin" "$@" ;;
esac

# One run (--workload …) or, without it, the whole set.
seed=0xD57A
out=
one=()
while [ $# -gt 0 ]; do
    [ $# -ge 2 ] || { echo "run.sh: $1 needs a value" >&2; exit 2; }
    case "$1" in
        --seed) seed="$2" ;;
        --out) out="$(abs "$2")" ;;
        --workload | --seconds | --trace) one+=("$1" "$2") ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
    shift 2
done
if [ ${#one[@]} -gt 0 ]; then
    exec "$bin" "${one[@]}" --seed "$seed" ${out:+--out "$out"}
fi

out="${out:-benchmark/out/results-$(date +%Y%m%dT%H%M%S).jsonl}"
seconds="$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' BENCHMARK.json)"
mkdir -p "$(dirname "$out")"
# Seven untraced rounds (Python's exclusive quartiles of 7 ignore one outlier
# a side), then a traced one. Rounds, not workload after workload: this
# host's speed drifts by a tenth or more over minutes, and a workload's runs
# should sample that, not one spell.
for trace in 0 0 0 0 0 0 0 1; do
    for w in $("$bin" --list); do
        "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" --out "$out" | sed '$d'
    done
done
echo "result set: $out   (compare two with: benchmark/run.sh --compare A B)"
