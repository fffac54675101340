#!/usr/bin/env bash
# doc-drift: README.md, docs/GUIDE.md, DESIGN.md, EXPERIMENTS.md and the
# verify skill may not name a `--flag` that no usage string or declared
# key list has, a `.rs` file that does not exist, a `dlb-exp <row>` that
# is no row of `exp/mod.rs`'s `table!`, nor a `results/<file>` that
# neither exists nor is an ignored (generated, untracked) output.  And
# DESIGN.md may only shrink: it fails above `design_ceiling` bytes.
#
# Checked text: inline `code spans` and ```bash / ```sh fences.  A
# paragraph that documents a flag or file as *removed* says so with
# `<!-- doc-drift: removed-flag -->` on a line of its own inside the
# paragraph and is skipped.
set -euo pipefail
cd "$(dirname "$0")/.."

docs=(README.md docs/GUIDE.md DESIGN.md EXPERIMENTS.md .claude/skills/verify/SKILL.md)

known_flags() {
    # `dlb`'s two usage strings.
    {
        sed -n '/^const USAGE/,/;$/p' crates/dlb-cli/src/main.rs
        sed -n '/^pub const SERVE_USAGE/,/;$/p' crates/dlb-cli/src/serve.rs
    } | grep -o -- '--[a-z][a-z0-9-]*'
    # Every `keys![…]` list: the `dlb-exp` rows, bench_core and
    # trace_analyze.
    cat crates/dlb-experiments/src/exp/*.rs crates/dlb-experiments/src/bin/*.rs |
        awk '/keys!\[/,/\];/' | grep -o '"[a-z][a-z0-9-]*":' | sed 's/^"\(.*\)":$/--\1/'
    # The benchmark harness's own options.
    grep -oh '"--[a-z][a-z0-9-]*"' benchmark/src/main.rs | tr -d '"'
    # Other tools' flags (cargo, git) and the `--key value` placeholder.
    printf '%s\n' --release --bin --example --workspace --all --all-targets \
        --lib --test --no-run --offline --manifest-path --exit-code --key
}

# The checked text of one document: marked paragraphs dropped, then the
# inline code spans and the bash/sh fences, one fragment per line.
checked_text() {
    awk 'BEGIN { RS = ""; ORS = "\n\n" } !/<!-- doc-drift: removed-flag -->/' "$1" |
        awk '
            /^```/ { fence = fence ? 0 : ($0 ~ /^```(bash|sh)[ \t]*$/ ? 1 : 2); next }
            fence == 1 { print; next }
            fence == 2 { next }
            {
                line = $0
                while (match(line, /`[^`]+`/)) {
                    print substr(line, RSTART + 1, RLENGTH - 2)
                    line = substr(line, RSTART + RLENGTH)
                }
            }'
}

# The `dlb-exp` rows: `list` and every name in the `table!` invocation.
known_rows() {
    awk '/table! \{/,/^\};/' crates/dlb-experiments/src/exp/mod.rs | grep -oE '^ +[a-z0-9_]+:' | tr -d ' :'
    echo list
}

known=$(known_flags | sort -u)
rows=$(known_rows)
status=0
for doc in "${docs[@]}"; do
    text=$(checked_text "$doc")

    while read -r flag; do
        grep -qxF -- "$flag" <<<"$known" ||
            { echo "$doc: \`$flag\` is in no usage string or declared key list"; status=1; }
    done < <(grep -oE -- '(^|[^a-z0-9-])--[a-z][a-z0-9-]*' <<<"$text" | grep -o -- '--.*' | sort -u)

    # `path/to/file.rs` (an optional `::item` or `:line` suffix ignored)
    # resolves from the root, from crates/, or from some crate's root or
    # src/; a bare `file.rs` anywhere in the first-party tree.
    while read -r path; do
        case "$path" in
        */*)
            found=0
            for candidate in "$path" crates/"$path" crates/*/"$path" crates/*/src/"$path"; do
                [ -e "$candidate" ] && found=1
            done
            [ "$found" -eq 1 ] || { echo "$doc: \`$path\` does not exist"; status=1; }
            ;;
        *)
            [ -n "$(find src tests examples crates benchmark/src -name "$path" -print -quit)" ] ||
                { echo "$doc: no file named \`$path\`"; status=1; }
            ;;
        esac
    done < <(grep -oE '[A-Za-z0-9_./{},-]+\.rs' <<<"$text" | grep -v '[{}]' | sort -u)

    # `dlb-exp <row>`, also as `--bin dlb-exp -- <row>`.
    while read -r row; do
        grep -qxF -- "$row" <<<"$rows" ||
            { echo "$doc: \`dlb-exp $row\` is no row of exp/mod.rs"; status=1; }
    done < <(grep -oE 'dlb-exp( --)? [a-z][a-z0-9_]*' <<<"$text" | grep -oE '[a-z0-9_]+$' | sort -u)

    # `results/<file>` (a glob must match something), or a generated
    # output .gitignore keeps out of the tree.
    while read -r path; do
        compgen -G "$path" > /dev/null || git check-ignore -q "$path" ||
            { echo "$doc: \`$path\` does not exist"; status=1; }
    done < <(grep -oE 'results/[A-Za-z0-9_.*-]+' <<<"$text" | sed 's/\.*$//' | sort -u)
done

# Lower the ceiling when DESIGN.md shrinks; never raise it.
design_ceiling=70895
design_bytes=$(wc -c < DESIGN.md)
[ "$design_bytes" -le "$design_ceiling" ] ||
    { echo "DESIGN.md: $design_bytes bytes, above its ceiling of $design_ceiling"; status=1; }
[ "$status" -eq 0 ] && echo "doc-drift: ${docs[*]} name no unknown flag, file or dlb-exp row"
exit "$status"
