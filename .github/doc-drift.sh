#!/usr/bin/env bash
# doc-drift: README.md, docs/GUIDE.md, DESIGN.md, EXPERIMENTS.md and the
# verify skill may not name a `--flag` that no usage string or declared
# key list has, a `.rs` file that does not exist, a `file.rs::item` or
# `dlb_crate::…::item` that file or crate does not define, a
# `dlb-exp <row>` that is no row of `exp/mod.rs`'s `table!`, nor a
# `results/<file>` that neither exists nor is an ignored (generated,
# untracked) output.  A marked block must be the committed artefact it
# embeds: EXPERIMENTS.md's claims, scaling, closed_loop and
# async_latency blocks results/<name>.csv, its faults_sweep block
# results/faults_sweep.json, its service block
# results/service_diurnal_sim.json, and docs/GUIDE.md's scaling table
# BENCH_core.json, each as bench-table.sh renders it.  And DESIGN.md may
# only shrink: it fails above `design_ceiling` bytes.
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
        sed -n '/^pub(crate) const SERVE_USAGE/,/;$/p' crates/dlb-cli/src/serve.rs
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

# The files a doc's `path/file.rs` names: from the root, from crates/,
# or from some crate's root or src/; a bare `file.rs` anywhere in the
# first-party tree.
resolve() {
    case "$1" in
    */*)
        for candidate in "$1" crates/"$1" crates/*/"$1" crates/*/src/"$1"; do
            if [ -e "$candidate" ]; then echo "$candidate"; fi
        done
        ;;
    *) find src tests examples crates benchmark/src -name "$1" ;;
    esac
}

# Whether one of the files (`$2`…) defines `$1`: a fn, type, trait,
# const, static, module or macro of that name, a `pub use` of it, or,
# for a capitalised name, an enum variant.
defines() {
    local name=$1 end='([^A-Za-z0-9_]|$)'
    shift
    local pattern="(^|[^A-Za-z0-9_])(fn|struct|enum|union|trait|type|const|static|mod|macro_rules!)[[:space:]]+$name$end"
    pattern+="|pub use [^;]*[^A-Za-z0-9_]$name$end"
    case "$name" in [A-Z]*) pattern+="|^[[:space:]]*$name[[:space:]]*([=,({]|$)" ;; esac
    grep -qE "$pattern" "$@"
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

    # `path/to/file.rs` (a `:line` suffix ignored) resolves to a file.
    while read -r path; do
        [ -n "$(resolve "$path")" ] || { echo "$doc: \`$path\` does not exist"; status=1; }
    done < <(grep -oE '[A-Za-z0-9_./{},-]+\.rs' <<<"$text" | grep -v '[{}]' | sort -u)

    # `file.rs::…::item` names an item that file defines, and
    # `dlb_crate::module::…::item` one its module (the module's file or
    # directory, else anywhere in the crate) defines; `::{a, b}` names
    # two.
    while read -r ref; do
        base=${ref%%::*}
        case "$base" in
        dlb_*)
            src=crates/${base//_/-}/src
            module=${ref#*::}
            module=${module%%::*}
            files=$(find "$src/$module.rs" "$src/$module" -name '*.rs' 2>/dev/null || true)
            [ "$module" != "${ref##*::}" ] && [ -n "$files" ] ||
                files=$(find "$src" -name '*.rs' 2>/dev/null || true)
            ;;
        *) files=$(resolve "$base") ;;
        esac
        for item in $(tr -d '{}' <<<"${ref##*::}" | tr ',' ' '); do
            # shellcheck disable=SC2086 # one path per word
            [ -n "$files" ] && defines "$item" $files ||
                { echo "$doc: \`$ref\` names no item \`$item\` there"; status=1; }
        done
    done < <(grep -oE '(dlb_[a-z_]+|[A-Za-z0-9_./-]+\.rs)::(\{[A-Za-z0-9_, ]+\}|[A-Za-z0-9_]+(::[A-Za-z0-9_]+)*)' <<<"$text" | sort -u)

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

# A block a document embeds from a committed artefact is that artefact
# verbatim: the lines of `$1` strictly between the marker lines `$2` and
# `$3`, fence lines dropped, must be the standard input (`$4` names it).
embeds() {
    cmp -s - <(awk -v begin="$2" -v end="$3" '$0 == end { on = 0 } on && !/^```/; $0 == begin { on = 1 }' "$1") ||
        { echo "$1: the block between \`$2\` and \`$3\` is not $4"; status=1; }
}
for name in claims scaling closed_loop async_latency; do
    embeds EXPERIMENTS.md "<!-- $name:begin -->" "<!-- $name:end -->" "results/$name.csv" < "results/$name.csv"
done
embeds docs/GUIDE.md '<!-- bench:begin large -->' '<!-- bench:end -->' \
    "BENCH_core.json as .github/bench-table.sh renders it" < <(bash .github/bench-table.sh large)
embeds EXPERIMENTS.md '<!-- faults_sweep:begin -->' '<!-- faults_sweep:end -->' \
    "results/faults_sweep.json as .github/bench-table.sh faults_sweep renders it" < <(bash .github/bench-table.sh faults_sweep)
embeds EXPERIMENTS.md '<!-- service:begin -->' '<!-- service:end -->' \
    "results/service_diurnal_sim.json as .github/bench-table.sh service renders it" < <(bash .github/bench-table.sh service)

# Lower the ceiling when DESIGN.md shrinks; never raise it.
design_ceiling=64277
design_bytes=$(wc -c < DESIGN.md)
[ "$design_bytes" -le "$design_ceiling" ] ||
    { echo "DESIGN.md: $design_bytes bytes, above its ceiling of $design_ceiling"; status=1; }
[ "$status" -eq 0 ] && echo "doc-drift: ${docs[*]} name no unknown flag, file, item or dlb-exp row"
exit "$status"
