#!/usr/bin/env bash
# Renders a table of BENCH_core.json for the documents that quote it:
#
#   bash .github/bench-table.sh [large]     # docs/GUIDE.md "Scaling: the
#       # sparse full model": the full engine's balance operations, one
#       # line per `sizes` row (the top-level `steps`, no state columns)
#       # and per `large` row
#   bash .github/bench-table.sh faults_sweep # EXPERIMENTS.md: the loss
#       # sweep of results/faults_sweep.json, balance quality (max/mean
#       # load) to three places, as `dlb-exp faults_sweep` prints it
#   bash .github/bench-table.sh service     # EXPERIMENTS.md "Serving
#       # latency": the trigger counters and latency quantiles (ticks,
#       # mean to one place) of results/service_diurnal_sim.json
#
# A document holds the output verbatim between `<!-- bench:begin NAME -->`
# and `<!-- bench:end -->` (`<!-- NAME:begin -->` and `<!-- NAME:end -->`
# for the last two), and doc-drift.sh fails when the two differ, so a
# refresh of BENCH_core.json or of a golden updates the documents by
# pasting what this prints there.
set -euo pipefail
cd "$(dirname "$0")/.."

table=${1:-large}
if [ "$table" = faults_sweep ]; then
    echo "loss,quality"
    jq -r '.loss_sweep[] | [.x, .quality] | @tsv' results/faults_sweep.json |
        awk -F'\t' '{ printf "%s,%.3f\n", $1, $2 }'
    exit 0
fi
if [ "$table" = service ]; then
    echo "| rebalances | redirected | mean | p50 | p99 | p999 |"
    echo "|---|---|---|---|---|---|"
    jq -r '[.rebalances, .redirected, .latency_ticks.mean, .latency_ticks.p50,
            .latency_ticks.p99, .latency_ticks.p999] | @tsv' results/service_diurnal_sim.json |
        awk -F'\t' '
            # `7539` → `7 539`.
            function group(x,   s) {
                s = ""
                while (length(x) > 3) {
                    s = " " substr(x, length(x) - 2) s
                    x = substr(x, 1, length(x) - 3)
                }
                return x s
            }
            { printf "| %s | %s | %.1f | %s | %s | %s |\n",
                group($1), group($2), $3, group($4), group($5), group($6) }'
    exit 0
fi
if [ "$table" != large ]; then
    echo "usage: bash .github/bench-table.sh [large|faults_sweep|service]" >&2
    exit 2
fi

jq -r '(.steps as $steps | .sizes[] | [.n, $steps, .full_ops, "", ""]),
       (.large[] | [.n, .steps, .full_ops, .state_bytes, .bytes_per_proc]) | @tsv' BENCH_core.json |
    awk -F'\t' '
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
        function row(a, b, c, d, e) {
            printf "| %s | %s | %s | %s | %s |\n",
                cell(a, 7), cell(b, 5), cell(c, 11), cell(d, 11), cell(e, 15)
        }
        BEGIN {
            row("n", "steps", "balance ops", "state bytes", "bytes/processor")
            print "|---------|-------|-------------|-------------|-----------------|"
        }
        {
            mb = $4 / 1e6
            state = $4 == "" ? "—" : sprintf(mb < 100 ? "%.1f MB" : "%.0f MB", mb)
            row(group($1), $2, group($3), state, $5 == "" ? "—" : $5)
        }'
