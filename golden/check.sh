#!/bin/sh
# Regenerate every experiment and campaign output and byte-diff it
# against the recorded copy under golden/ (see golden/README.md).
#
#   golden/check.sh            build, regenerate, compare; exit 1 on a mismatch
#   golden/check.sh --record   build, regenerate, overwrite golden/
#
# The release binaries are built in the usual target directory; each
# run writes into its own temporary CARGO_TARGET_DIR, so nothing under
# target/experiments/ is read or overwritten.
set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
golden="$root/golden"
record=0
case "${1-}" in
    "") ;;
    --record) record=1 ;;
    *) echo "usage: golden/check.sh [--record]" >&2; exit 2 ;;
esac

cd "$root"
cargo build --release --offline -q -p spider-bench --bins
bin="${CARGO_TARGET_DIR:-$root/target}/release"
case "$bin" in /*) ;; *) bin="$root/$bin" ;; esac

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
fresh="$tmp/fresh"
mkdir -p "$fresh/suite" "$fresh/campaign"

# The 24 figure, table and ablation binaries on two workers.
for b in fig02 fig03 fig04 fig05 fig06 fig07 fig08 fig10 fig11 fig12 \
         fig13 fig14 fig15 fig16 fig17 table1 table2 table3 table4 \
         appendix_a ablation_adaptive ablation_dividing ablation_psm \
         ablation_utility; do
    SPIDER_JOBS=2 CARGO_TARGET_DIR="$tmp/run/suite" "$bin/$b" > "$tmp/$b.log"
done
cp "$tmp/run/suite/experiments/"* "$fresh/suite/"

# campaign <name> <expected exit status> [args...]: run chaos_campaign
# in its own output directory and keep everything but the forkstats
# sidecars (performance accounting, not behaviour).
campaign() {
    name=$1 want=$2
    shift 2
    status=0
    CARGO_TARGET_DIR="$tmp/run/$name" "$bin/chaos_campaign" "$@" > "$tmp/$name.log" 2>&1 || status=$?
    if [ "$status" -ne "$want" ]; then
        echo "chaos_campaign $* exited $status, expected $want (log: $tmp/$name.log)" >&2
        trap - EXIT
        exit 1
    fi
    mkdir -p "$fresh/campaign/$name"
    for f in "$tmp/run/$name/experiments/"*; do
        case "$f" in *forkstats*) continue ;; esac
        cp "$f" "$fresh/campaign/$name/"
    done
}
campaign default 0
campaign tight 1 --tight --trials 4
campaign matrix 0 --matrix --trials 2 --duration-secs 60

if [ "$record" -eq 1 ]; then
    rm -rf "$golden/suite" "$golden/campaign"
    cp -R "$fresh/suite" "$fresh/campaign" "$golden/"
    echo "recorded $(find "$fresh" -type f | wc -l) files under golden/"
    exit 0
fi

# Compare both ways: every recorded file must be regenerated
# byte-for-byte, and no run may write a file that was never recorded.
(cd "$golden" && find suite campaign -type f | sort) > "$tmp/want"
(cd "$fresh" && find suite campaign -type f | sort) > "$tmp/got"
if ! cmp -s "$tmp/want" "$tmp/got"; then
    echo "golden: the set of output files changed (- recorded, + regenerated):" >&2
    diff "$tmp/want" "$tmp/got" | grep '^[<>]' | sed 's/^</-/; s/^>/+/' >&2
    exit 1
fi
while read -r f; do
    if ! cmp -s "$golden/$f" "$fresh/$f"; then
        line=$(cmp "$golden/$f" "$fresh/$f" 2>&1 | sed -n 's/.* line \([0-9]*\).*/\1/p')
        echo "golden: $f differs, first at line ${line:-?}:" >&2
        echo "  recorded:    $(sed -n "${line:-1}p" "$golden/$f" | cut -c1-200)" >&2
        echo "  regenerated: $(sed -n "${line:-1}p" "$fresh/$f" | cut -c1-200)" >&2
        exit 1
    fi
done < "$tmp/want"
echo "golden: all $(wc -l < "$tmp/want") files byte-identical"
