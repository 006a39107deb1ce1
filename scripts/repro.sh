#!/usr/bin/env bash
# Reproduce the paper's figure/table artifacts.
#
#   scripts/repro.sh [scale]     full-scale run of every fig*/table* binary
#                                (scale defaults to 1; passed through to each
#                                binary as its positional argument)
#   scripts/repro.sh --smoke     smoke mode: every binary runs the full code
#                                path at reduced population / synthetic sizes
#                                (sets SGF_SMOKE=1; finishes in minutes)
#
# Output of each binary is streamed to stdout and mirrored under artifacts/.
# Every binary also emits its machine-readable BENCH_<series>.json document
# (SGF_BENCH_DIR); the documents land in artifacts/ AND the repo root, and
# are gated against the checked-in BENCH_TRAJECTORY.jsonl baseline by
# `sgf-bench-track compare` — a counter regression fails this script.
#
# `set -e -o pipefail` makes every stage fail fast: a binary exiting nonzero
# (even through the `tee` pipe) aborts the whole run.
set -euo pipefail
cd "$(dirname "$0")/.."

SCALE=1
SMOKE=0
for arg in "$@"; do
    case "$arg" in
        --smoke) SMOKE=1 ;;
        ''|*[!0-9]*) echo "usage: $0 [scale|--smoke]" >&2; exit 2 ;;
        *) SCALE="$arg" ;;
    esac
done

BINARIES=(fig1 fig2 fig3 fig4 fig5 fig6 fig_index fig_folding fig_update table1 table2 table3 table4 table5)

echo "== building release binaries =="
cargo build --release -p bench -p sgf-serve

OUTDIR=artifacts
mkdir -p "$OUTDIR"

# Determinism & robustness invariants (R1-R5): the artifacts below are only
# trustworthy if the tree passes the mechanized lint pass.  Fails the script
# on any unallowed finding or stale exception entry; the JSON report lands
# next to the artifacts for auditing.
echo
echo "== sgf-lint invariants gate =="
cargo run --release -q -p sgf-lint -- --json-out "$OUTDIR/lint_report.json"

# End-to-end smoke of the release service: ephemeral-port server, two named
# sessions (budget-capped and uncapped), batch + stream + rejected requests,
# clean drain.  SGF_BENCH_DIR makes the smoke write its observability
# documents — the per-session labeled metrics snapshot, the deterministic
# trace span trees, and a release provenance block — into artifacts/ as
# SMOKE_METRICS.json / SMOKE_TRACE.json / SMOKE_PROVENANCE.json; the
# documents are canonical JSON, byte-identical across identically-seeded
# runs (tested in crates/sgf-serve/tests/smoke_determinism.rs).
echo
echo "== sgf-serve smoke =="
start=$SECONDS
SGF_BENCH_DIR="$OUTDIR" target/release/sgf-serve --smoke | tee "$OUTDIR/serve_smoke.txt"
for doc in SMOKE_METRICS.json SMOKE_TRACE.json SMOKE_PROVENANCE.json; do
    if [ ! -s "$OUTDIR/$doc" ]; then
        echo "ERROR: sgf-serve smoke did not write $doc" >&2
        exit 1
    fi
done
echo "== sgf-serve smoke finished in $((SECONDS - start))s =="

for bin in "${BINARIES[@]}"; do
    echo
    echo "== $bin (scale $SCALE, smoke $SMOKE) =="
    start=$SECONDS
    if [ "$SMOKE" = 1 ]; then
        SGF_SMOKE=1 SGF_BENCH_DIR="$OUTDIR" "target/release/$bin" "$SCALE" | tee "$OUTDIR/$bin.txt"
    else
        SGF_BENCH_DIR="$OUTDIR" "target/release/$bin" "$SCALE" | tee "$OUTDIR/$bin.txt"
    fi
    echo "== $bin finished in $((SECONDS - start))s =="
done

# Seed-store decision-equivalence gate: fig_index asserts that scan, inverted
# index, partition store, and prefix store release byte-identical records in
# every swept configuration, and prints the confirmation line below only after every
# assertion held.  A store regression therefore fails this script (and CI)
# even when the unit/property suites were skipped.
if ! grep -q "byte-identical records in every configuration" "$OUTDIR/fig_index.txt"; then
    echo "ERROR: fig_index did not confirm seed-store decision equivalence" >&2
    exit 1
fi
echo
echo "== seed-store decision-equivalence gate passed (fig_index) =="

# Class-cache equivalence gate: fig_folding asserts that the shared
# class-match cache never changes a release (byte-identical records, cache
# on vs off, every request seed) and that the cache actually hits, then
# prints the confirmation line below.  A cache-soundness regression fails
# this script even when the unit/property suites were skipped.
if ! grep -q "byte-identical releases with class cache on vs off" "$OUTDIR/fig_folding.txt"; then
    echo "ERROR: fig_folding did not confirm class-cache release equivalence" >&2
    exit 1
fi
echo
echo "== class-cache equivalence gate passed (fig_folding) =="

# Incremental-update equivalence gate: fig_update folds a mixed delta into a
# trained session and asserts every artifact — split subsets, structure,
# CPTs, marginals, sufficient statistics, the spliced prefix store, the
# per-epoch inverted index and partition store, and identically-seeded
# releases — is byte-identical to a from-scratch retrain on the post-delta
# dataset, printing the confirmation line below only after every assertion
# held.  (At full scale the binary additionally
# asserts the >= 100x update-vs-retrain speedup internally.)
if ! grep -q "matches a from-scratch retrain bit-for-bit" "$OUTDIR/fig_update.txt"; then
    echo "ERROR: fig_update did not confirm incremental-update equivalence" >&2
    exit 1
fi
echo
echo "== incremental-update equivalence gate passed (fig_update) =="

# Perf-trajectory gate: mirror the emitted benchmark documents to the repo
# root (handy for diffing / CI artifact upload) and compare the deterministic
# counters against the last BENCH_TRAJECTORY.jsonl entry recorded at the same
# (smoke, scale).  After an intentional perf change, refresh the baseline
# with: target/release/sgf-bench-track append --dir artifacts
echo
echo "== perf trajectory gate (sgf-bench-track compare) =="
cp "$OUTDIR"/BENCH_*.json .
target/release/sgf-bench-track compare --dir "$OUTDIR"

# Regenerate the human-readable tables from the same documents; the repo-root
# BENCH_NOTES.md is refreshed only by full-scale runs so smoke runs cannot
# overwrite the reference numbers.
target/release/sgf-bench-track notes --dir "$OUTDIR" --out "$OUTDIR/BENCH_NOTES.md"
if [ "$SMOKE" = 0 ]; then
    cp "$OUTDIR/BENCH_NOTES.md" BENCH_NOTES.md
    echo "regenerated BENCH_NOTES.md from $OUTDIR/BENCH_*.json"
fi

echo
echo "== done: artifacts written to $OUTDIR/ (reference wall clocks: BENCH_NOTES.md) =="
