#!/usr/bin/env bash
# Renders the scaling table of docs/GUIDE.md ("Scaling: the sparse full
# model") from BENCH_core.json: one line per `sizes` row (the top-level
# `steps`, no state columns) and per `large` row.  The guide holds the
# output verbatim between `<!-- bench:begin large -->` and
# `<!-- bench:end -->`, and doc-drift.sh fails when the two differ, so a
# BENCH refresh updates the guide by pasting what
#
#   bash .github/bench-table.sh
#
# prints there.
set -euo pipefail
cd "$(dirname "$0")/.."

jq -r '(.steps as $steps | .sizes[] | [.n, $steps, .full_ms, "", ""]),
       (.large[] | [.n, .steps, .full_ms, .state_bytes, .bytes_per_proc])
       | @tsv' BENCH_core.json |
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
                cell(a, 7), cell(b, 5), cell(c, 10), cell(d, 11), cell(e, 15)
        }
        BEGIN {
            row("n", "steps", "full_ms", "state bytes", "bytes/processor")
            print "|---------|-------|------------|-------------|-----------------|"
        }
        {
            ms = $3
            if (ms < 100) t = sprintf("~%.1f ms", ms)
            else if (ms < 1000) t = sprintf("~%.2f s", ms / 1000)
            else t = sprintf("~%.1f s", ms / 1000)
            mb = $4 / 1e6
            state = $4 == "" ? "—" : sprintf(mb < 100 ? "%.1f MB" : "%.0f MB", mb)
            row(group($1), $2, t, state, $5 == "" ? "—" : $5)
        }'
