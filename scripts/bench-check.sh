#!/usr/bin/env sh
# Compare benchmarks/latest.txt against benchmarks/baseline.txt and fail on
# per-benchmark ns/op regressions above BENCH_MAX_REGRESSION_PCT (default 5).
# Allocation is gated too: a benchmark that ran the same fixed iteration
# count on both sides (the -benchtime=Nx groups of scripts/bench.sh, whose
# B/op is stable run to run) also fails when its B/op grows by more than
# the same percentage and by more than 1 KiB; the absolute floor keeps
# amortized one-off allocations of a few bytes per op from tripping it.
#
# A missing latest run is a skip, not a failure, so fresh checkouts pass
# `make check` without a mandatory benchmark run. A missing baseline is an
# error — the repo commits one, so its absence means a broken checkout —
# and so is a present-but-empty result file (an interrupted run), rather
# than silently comparing against garbage. Benchmarks present on only one
# side are reported but never fatal (the set evolves); only a matched
# benchmark that slowed down beyond the threshold fails the check.
set -eu

cd "$(dirname "$0")/.."

MAX_PCT="${BENCH_MAX_REGRESSION_PCT:-5}"

if [ ! -f benchmarks/baseline.txt ]; then
    echo "bench-check: benchmarks/baseline.txt is missing — it is committed with the repo," >&2
    echo "bench-check: so this checkout is incomplete (restore it, or re-promote one with scripts/bench-update.sh)" >&2
    exit 1
fi
if [ ! -f benchmarks/latest.txt ]; then
    echo "bench-check: no benchmarks/latest.txt; skipping (run scripts/bench.sh to record a run)" >&2
    exit 0
fi

# Both files must contain at least one parseable benchmark line; anything
# else is a truncated or corrupt file, not a comparable run.
for f in benchmarks/baseline.txt benchmarks/latest.txt; do
    if ! grep -q '^Benchmark.* ns/op' "$f"; then
        echo "bench-check: $f contains no 'Benchmark... ns/op' lines (interrupted or corrupt run)" >&2
        echo "bench-check: re-record it with scripts/bench.sh before comparing" >&2
        exit 1
    fi
done

awk -v max_pct="$MAX_PCT" -v min_bytes=1024 '
    # Benchmark lines look like:
    #   BenchmarkPILJoin  43352  2668 ns/op  1234 B/op  5 allocs/op
    # Strip -cpu suffixes so baselines move across machines; with -count>1
    # keep the fastest run and the smallest B/op per name on each side,
    # and remember the iteration count while every run of the name agrees
    # on it (-1 once they differ: a time-budgeted run).
    function record(s, name, iters, ns, bytes) {
        sub(/-[0-9]+$/, "", name)
        k = s SUBSEP name
        if (!(k in ns_of) || ns < ns_of[k]) ns_of[k] = ns
        if (bytes != "" && (!(k in b_of) || bytes < b_of[k])) b_of[k] = bytes
        if (!(k in n_of)) n_of[k] = iters
        else if (n_of[k] != iters) n_of[k] = -1
        names[s, name] = 1
    }
    FNR == 1 { side++ }
    /^Benchmark/ && $4 == "ns/op" {
        # Custom metrics (b.ReportMetric) sit between ns/op and B/op.
        bytes = ""
        for (i = 6; i <= NF; i++) if ($i == "B/op") bytes = $(i - 1)
        record(side, $1, $2, $3, bytes)
    }
    END {
        status = 0
        for (k in names) {
            split(k, parts, SUBSEP)
            if (parts[1] != 2) continue
            name = parts[2]
            b = 1 SUBSEP name; l = 2 SUBSEP name
            if (!(b in ns_of)) {
                printf "bench-check: %-40s new (no baseline)\n", name
                continue
            }
            pct = (ns_of[l] - ns_of[b]) * 100.0 / ns_of[b]
            verdict = "ok"
            if (pct > max_pct) {
                verdict = sprintf("REGRESSION (> %s%%)", max_pct)
                status = 1
            }
            printf "bench-check: %-40s %12.0f -> %12.0f ns/op  %+7.1f%%  %s\n", \
                name, ns_of[b], ns_of[l], pct, verdict
            # Allocation gate: fixed-count pairs only.
            if (!(b in b_of) || !(l in b_of) || n_of[b] < 0 || n_of[b] != n_of[l]) continue
            grow = b_of[l] - b_of[b]
            bpct = (b_of[b] > 0) ? grow * 100.0 / b_of[b] : (grow > 0 ? 100 : 0)
            verdict = "ok"
            if (bpct > max_pct && grow > min_bytes) {
                verdict = sprintf("ALLOC REGRESSION (> %s%% and > %d B)", max_pct, min_bytes)
                status = 1
            }
            printf "bench-check: %-40s %12.0f -> %12.0f B/op   %+7.1f%%  %s\n", \
                name, b_of[b], b_of[l], bpct, verdict
        }
        for (k in names) {
            split(k, parts, SUBSEP)
            if (parts[1] == 1 && !((2, parts[2]) in names))
                printf "bench-check: %-40s dropped from latest run\n", parts[2]
        }
        exit status
    }
' benchmarks/baseline.txt benchmarks/latest.txt
