#!/usr/bin/env bash
# Renders a table of BENCH_core.json for the documents that quote it:
#
#   bash .github/bench-table.sh [large]     # docs/GUIDE.md "Scaling: the
#       # sparse full model": one line per `sizes` row (the top-level
#       # `steps`, no state columns) and per `large` row
#   bash .github/bench-table.sh sparse_step # docs/GUIDE.md and DESIGN.md
#       # s11: the n = 2^20 `sparse_step` rows, sparse against `--dense`
#       # (the ladder rows, which carry `stall_ratio`, are left out)
#   bash .github/bench-table.sh faults_sweep # EXPERIMENTS.md: the loss
#       # sweep of results/faults_sweep.json, balance quality (max/mean
#       # load) to three places, as `dlb-exp faults_sweep` prints it
#
# A document holds the output verbatim between `<!-- bench:begin NAME -->`
# and `<!-- bench:end -->` (`<!-- faults_sweep:begin -->` and
# `<!-- faults_sweep:end -->` for the last), and doc-drift.sh fails when
# the two differ, so a refresh of BENCH_core.json or of the golden
# updates the documents by pasting what this prints there.
set -euo pipefail
cd "$(dirname "$0")/.."

table=${1:-large}
if [ "$table" = faults_sweep ]; then
    echo "loss,quality"
    jq -r '.loss_sweep[] | [.x, .quality] | @tsv' results/faults_sweep.json |
        awk -F'\t' '{ printf "%s,%.3f\n", $1, $2 }'
    exit 0
fi
case "$table" in
large)
    query='(.steps as $steps | .sizes[] | [.n, $steps, .full_ms, "", ""]),
           (.large[] | [.n, .steps, .full_ms, .state_bytes, .bytes_per_proc])' ;;
sparse_step)
    query='.sparse_step[] | select(.stall_ratio == null)
           | [.activity, .active_per_step, .sparse_ms, .dense_ms]' ;;
*)
    echo "usage: bash .github/bench-table.sh [large|sparse_step|faults_sweep]" >&2
    exit 2 ;;
esac

jq -r "$query | @tsv" BENCH_core.json |
    awk -F'\t' -v table="$table" '
        # `262144` → `262 144`.
        function group(x,   s) {
            s = ""
            while (length(x) > 3) {
                s = " " substr(x, length(x) - 2) s
                x = substr(x, 1, length(x) - 3)
            }
            return x s
        }
        # Pads to `w` characters; the em dash is one character in three
        # bytes, and awk may count either.
        function cell(s, w,   k) {
            k = s == "—" ? 1 : length(s)
            while (k++ < w) s = s " "
            return s
        }
        function time(ms) {
            if (ms < 100) return sprintf("~%.1f ms", ms)
            if (ms < 1000) return sprintf("~%.2f s", ms / 1000)
            return sprintf("~%.1f s", ms / 1000)
        }
        function row(a, b, c, d, e) {
            printf "| %s | %s | %s | %s | %s |\n",
                cell(a, 7), cell(b, 5), cell(c, 10), cell(d, 11), cell(e, 15)
        }
        function sparse_row(a, b, c, d) {
            printf "| %s | %s | %s | %s |\n", cell(a, 8), cell(b, 11), cell(c, 11), cell(d, 22)
        }
        BEGIN {
            if (table == "large") {
                row("n", "steps", "full_ms", "state bytes", "bytes/processor")
                print "|---------|-------|------------|-------------|-----------------|"
            } else {
                sparse_row("activity", "active/step", "sparse path", "dense path (`--dense`)")
                print "|----------|-------------|-------------|------------------------|"
            }
        }
        table == "large" {
            mb = $4 / 1e6
            state = $4 == "" ? "—" : sprintf(mb < 100 ? "%.1f MB" : "%.0f MB", mb)
            row(group($1), $2, time($3), state, $5 == "" ? "—" : $5)
        }
        # `1%` → `1 %`; active processors per step to the nearest hundred.
        table == "sparse_step" {
            sub(/%$/, " %", $1)
            sparse_row($1, "~" group(sprintf("%.0f", $2 / 100) * 100), time($3), time($4))
        }'
