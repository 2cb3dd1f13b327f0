#!/bin/sh
# Regenerate every experiment and campaign output and byte-diff it
# against the recorded copy under golden/ (see golden/README.md).
#
#   golden/check.sh            build, regenerate, compare; exit 1 on a mismatch
#   golden/check.sh --record   build, regenerate, overwrite golden/
#
# The suite is every binary in crates/bench/src/bin/ except
# chaos_campaign (run below) and bench_world (the engine benchmark), so
# a new figure binary is checked as soon as it exists.
#
# town is also run on one sweep worker, and the three campaigns with
# --no-fork; every file those runs write must equal its recorded copy,
# which proves scheduling (worker count, checkpoint forking) cannot
# change what the program computes.
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
cold="$tmp/cold"
serial="$tmp/serial"
mkdir -p "$fresh/suite" "$serial/suite"

# The figure, table and ablation binaries on two workers.
ran=0
for src in "$root"/crates/bench/src/bin/*.rs; do
    b=$(basename "$src" .rs)
    case "$b" in chaos_campaign | bench_world) continue ;; esac
    SPIDER_JOBS=2 CARGO_TARGET_DIR="$tmp/run/suite" "$bin/$b" > "$tmp/$b.log"
    ran=$((ran + 1))
done
echo "golden: ran $ran suite binaries"
cp "$tmp/run/suite/experiments/"* "$fresh/suite/"

# town again on one worker: the sweep's worker count must not move a
# byte, so every file it writes must equal its recorded copy.
SPIDER_JOBS=1 CARGO_TARGET_DIR="$tmp/run/serial" "$bin/town" > "$tmp/town.serial.log"
cp "$tmp/run/serial/experiments/"* "$serial/suite/"

# campaign <output root> <name> <expected exit status> [args...]: run
# chaos_campaign in its own output directory and keep everything but
# the forkstats sidecars (performance accounting, not behaviour) under
# <output root>/campaign/<name>.
campaign() {
    root=$1 name=$2 want=$3
    shift 3
    run="$tmp/run/$(basename "$root")-$name"
    status=0
    CARGO_TARGET_DIR="$run" "$bin/chaos_campaign" "$@" > "$run.log" 2>&1 || status=$?
    if [ "$status" -ne "$want" ]; then
        echo "chaos_campaign $* exited $status, expected $want (log: $run.log)" >&2
        trap - EXIT
        exit 1
    fi
    mkdir -p "$root/campaign/$name"
    for f in "$run/experiments/"*; do
        case "$f" in *forkstats*) continue ;; esac
        cp "$f" "$root/campaign/$name/"
    done
}
campaign "$fresh" default 0
campaign "$fresh" tight 1 --tight --trials 4
campaign "$fresh" matrix 0 --matrix --trials 2 --duration-secs 60
# The same campaigns with every world run cold from t = 0: checkpoint
# forking must not move a byte either.
campaign "$cold" default 0 --no-fork
campaign "$cold" tight 1 --tight --trials 4 --no-fork
campaign "$cold" matrix 0 --matrix --trials 2 --duration-secs 60 --no-fork

if [ "$record" -eq 1 ]; then
    rm -rf "$golden/suite" "$golden/campaign"
    cp -R "$fresh/suite" "$fresh/campaign" "$golden/"
    echo "recorded $(find "$fresh" -type f | wc -l) files under golden/"
    exit 0
fi

# compare <list> <tree> <what>: <tree> must hold exactly the files named
# in <list> (paths relative to golden/), each byte for byte the same as
# its recorded copy. Checking both ways means no recorded file may go
# missing and no run may write a file that was never recorded.
compare() {
    (cd "$2" && find . -type f | sed 's|^\./||' | sort) > "$tmp/got"
    if ! cmp -s "$1" "$tmp/got"; then
        echo "golden: the set of output files of $3 changed (- recorded, + regenerated):" >&2
        diff "$1" "$tmp/got" | grep '^[<>]' | sed 's/^</-/; s/^>/+/' >&2
        exit 1
    fi
    while read -r f; do
        if ! cmp -s "$golden/$f" "$2/$f"; then
            line=$(cmp "$golden/$f" "$2/$f" 2>&1 | sed -n 's/.* line \([0-9]*\).*/\1/p')
            echo "golden: $f of $3 differs, first at line ${line:-?}:" >&2
            echo "  recorded:    $(sed -n "${line:-1}p" "$golden/$f" | cut -c1-200)" >&2
            echo "  regenerated: $(sed -n "${line:-1}p" "$2/$f" | cut -c1-200)" >&2
            exit 1
        fi
    done < "$1"
}
(cd "$golden" && find suite campaign -type f | sort) > "$tmp/want"
compare "$tmp/want" "$fresh" "the default runs"
# The one-worker list is whatever those runs wrote: it must not be
# empty, and each file must have a recorded copy.
(cd "$serial" && find suite -type f | sort) > "$tmp/want.serial"
if [ ! -s "$tmp/want.serial" ]; then
    echo "golden: the one-worker runs wrote no files" >&2
    exit 1
fi
while read -r f; do
    if [ ! -f "$golden/$f" ]; then
        echo "golden: $f of the one-worker runs has no recorded copy" >&2
        exit 1
    fi
done < "$tmp/want.serial"
compare "$tmp/want.serial" "$serial" "the one-worker runs"
(cd "$golden" && find campaign -type f | sort) > "$tmp/want.cold"
compare "$tmp/want.cold" "$cold" "the --no-fork campaigns"
echo "golden: all $(wc -l < "$tmp/want") files byte-identical" \
     "(and $(cat "$tmp/want.serial" "$tmp/want.cold" | wc -l) more from one worker and --no-fork)"
