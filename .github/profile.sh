#!/usr/bin/env bash
# Where does `dlb` spend its CPU time?  A statistical profile of the
# release binary, no perf or root needed:
#
#   .github/profile.sh [-n RUNS] <dlb args>
#   .github/profile.sh -n 10 run benchmark/out/42/paper_dense.json
#
# Builds `dlb`, then a small LD_PRELOAD sampler with the system `cc`: a
# SIGPROF handler armed by setitimer(ITIMER_PROF) records the interrupted
# program counter every 500 µs of CPU time.  At exit the sampler maps
# each one to its object (the executable, libc, …) and the object's own
# address.  `dlb <args>` runs RUNS times (default 5), pinned to CPU 0
# with taskset, its output discarded.  The addresses are symbolised with
# `llvm-symbolizer --inlining`, else `addr2line -i`, and two tables of
# the top 25 are printed: the share of samples whose innermost (inlined)
# function is each one ("self"), and the share whose chain of inlined
# frames contains it ("inline-inclusive").  There is no stack walk: a
# function that is called, not inlined, does not count towards its
# callers.  The release profile keeps line tables, so frames inlined into
# the hot loops resolve to their own functions.  A stripped libc names
# only its exported functions; the rest (the `memmove` variants, say)
# read `?? (libc.so.6)`.
set -euo pipefail
cd "$(dirname "$0")/.."

runs=5
while getopts "n:" opt; do
    case $opt in
        n) runs=$OPTARG ;;
        *) sed -n '5,6p' "$0" >&2; exit 2 ;;
    esac
done
shift $((OPTIND - 1))
[ $# -gt 0 ] || { sed -n '5,6p' "$0" >&2; exit 2; }

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

cargo build --release --offline --quiet -p dlb-cli --bin dlb >&2
dlb=${CARGO_TARGET_DIR:-target}/release/dlb

cat > "$work/sampler.c" <<'EOF'
#define _GNU_SOURCE
#include <link.h>
#include <limits.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define CAP (1 << 20)
static uintptr_t pcs[CAP];
static int len;

static void on_prof(int sig, siginfo_t *si, void *ctx) {
    ucontext_t *uc = ctx;
    (void)sig, (void)si;
#if defined(__x86_64__)
    uintptr_t pc = uc->uc_mcontext.gregs[REG_RIP];
#else
    uintptr_t pc = uc->uc_mcontext.pc;
#endif
    int at = __atomic_fetch_add(&len, 1, __ATOMIC_RELAXED);
    if (at < CAP) pcs[at] = pc;
}

__attribute__((constructor)) static void arm(void) {
    struct sigaction sa = {.sa_sigaction = on_prof, .sa_flags = SA_SIGINFO | SA_RESTART};
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval it = {{0, 500}, {0, 500}};
    setitimer(ITIMER_PROF, &it, NULL);
}

/* One line per sample: object path, tab, the address in that object. */
static int dump_object(struct dl_phdr_info *info, size_t size, void *out) {
    char exe[PATH_MAX];
    const char *name = info->dlpi_name;
    (void)size;
    if (!name[0]) {
        ssize_t n = readlink("/proc/self/exe", exe, sizeof exe - 1);
        exe[n < 0 ? 0 : n] = 0;
        name = exe;
    }
    for (int h = 0; h < info->dlpi_phnum; h++) {
        const ElfW(Phdr) *ph = &info->dlpi_phdr[h];
        if (ph->p_type != PT_LOAD || !(ph->p_flags & PF_X)) continue;
        uintptr_t lo = info->dlpi_addr + ph->p_vaddr, hi = lo + ph->p_memsz;
        for (int i = 0; i < len && i < CAP; i++)
            if (pcs[i] >= lo && pcs[i] < hi)
                fprintf(out, "%s\t0x%lx\n", name, (unsigned long)(pcs[i] - info->dlpi_addr));
    }
    return 0;
}

__attribute__((destructor)) static void dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    FILE *out = fopen(getenv("PROF_OUT"), "a");
    if (!out) return;
    dl_iterate_phdr(dump_object, out);
    fclose(out);
}
EOF
cc -O2 -shared -fPIC -o "$work/sampler.so" "$work/sampler.c"

for _ in $(seq "$runs"); do
    # The sampler is preloaded into `dlb` alone: preloaded into
    # `taskset`, it arms the timer there, the timer outlives the `exec`
    # and its handler does not, and the first SIGPROF kills `dlb`.
    taskset -c 0 env PROF_OUT="$work/samples" LD_PRELOAD="$work/sampler.so" "$dlb" "$@" > /dev/null
done
[ -s "$work/samples" ] || { echo "no samples: did dlb run long enough?" >&2; exit 1; }

# Per object: "address<TAB>count" for each distinct address, symbolised
# in one call to "frame|frame|…", innermost frame first.
: > "$work/frames"
n=0
cut -f1 "$work/samples" | sort -u > "$work/objects"
while IFS= read -r obj; do
    n=$((n + 1))
    awk -F'\t' -v o="$obj" '$1 == o { print $2 }' "$work/samples" | sort | uniq -c |
        awk '{ print $2 "\t" $1 }' > "$work/counts.$n"
    if command -v llvm-symbolizer > /dev/null; then
        # Per address: two lines per frame (function, file:line), then
        # a blank line.
        cut -f1 "$work/counts.$n" | llvm-symbolizer --inlining --demangle --obj="$obj" |
            awk 'BEGIN { RS = ""; FS = "\n" }
                 { f = $1; for (i = 3; i <= NF; i += 2) f = f "|" $i; print f }'
    else
        # `-a` heads each address's frame pairs with the address itself.
        cut -f1 "$work/counts.$n" | addr2line -a -f -i -C -e "$obj" |
            awk '/^0x/ { if (NR > 1) print f; f = ""; k = 0; next }
                 k++ % 2 == 0 { f = f == "" ? $0 : f "|" $0 }
                 END { print f }'
    fi > "$work/syms.$n"
    paste "$work/counts.$n" "$work/syms.$n" |
        awk -F'\t' -v obj="${obj##*/}" '{ print $2 "\t" obj "\t" $3 }' >> "$work/frames"
done < "$work/objects"

# A frame named by the symbol table keeps Rust's legacy mangling escapes
# and hash: undo both.  An unresolved frame is named after its object.
awk -F'\t' '
    function name(f, obj) {
        if (f == "" || f == "??") return "?? (" obj ")"
        sub(/::h[0-9a-f]+$/, "", f)
        gsub(/\$LT\$/, "<", f); gsub(/\$GT\$/, ">", f); gsub(/\$u20\$/, " ", f)
        gsub(/\$u7b\$/, "{", f); gsub(/\$u7d\$/, "}", f); gsub(/\$C\$/, ",", f)
        gsub(/\.\./, "::", f); sub(/^_</, "<", f)
        return f
    }
    {
        total += $1
        k = split($3, f, "|")
        self[name(f[1], $2)] += $1
        split("", once)
        for (i = 1; i <= k; i++) {
            g = name(f[i], $2)
            if (!(g in once)) { once[g]; incl[g] += $1 }
        }
    }
    END {
        sorter = "sort -rn | head -25"
        printf "%d samples\n\nself %%   function\n", total
        for (g in self) printf "%6.2f   %s\n", 100 * self[g] / total, g | sorter
        close(sorter)
        printf "\ninline-inclusive %%   function\n"
        for (g in incl) printf "%6.2f   %s\n", 100 * incl[g] / total, g | sorter
        close(sorter)
    }' "$work/frames"
