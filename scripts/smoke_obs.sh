#!/usr/bin/env bash
# Observability end-to-end smoke: boot a WAL-backed rangestored with
# -http, drive a rangeload burst, then scrape /metrics and fail on
# missing or NaN core series. CI runs this; it is also a handy local
# sanity check:
#
#   bash scripts/smoke_obs.sh
set -euo pipefail
cd "$(dirname "$0")/.."

PORT=${PORT:-7429}
HTTP=${HTTP:-9429}
dir=$(mktemp -d)
pid=""
cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    wait 2>/dev/null || true
    rm -rf "$dir"
}
trap cleanup EXIT

go build -o "$dir/rangestored" ./cmd/rangestored
go build -o "$dir/rangeload" ./cmd/rangeload

"$dir/rangestored" -addr "127.0.0.1:$PORT" -shards 4 -placement map \
    -wal "$dir/wal" -fsync batch -http "127.0.0.1:$HTTP" -trace-slow 50ms &
pid=$!

for _ in $(seq 50); do
    if curl -fs "http://127.0.0.1:$HTTP/healthz" >/dev/null 2>&1; then
        break
    fi
    sleep 0.2
done

health=$(curl -fs "http://127.0.0.1:$HTTP/healthz")
echo "$health"
if ! echo "$health" | grep -q '"role": "leader"'; then
    echo "FAIL: /healthz does not report role=leader" >&2
    exit 1
fi

"$dir/rangeload" -addr "127.0.0.1:$PORT" -mix write-heavy -workers 4 \
    -pipeline 4 -duration 3s -shards 4 -placement map \
    -report json -out "$dir/report.json"
if ! grep -q '"hist"' "$dir/report.json"; then
    echo "FAIL: rangeload JSON report carries no latency histograms" >&2
    exit 1
fi

metrics=$(curl -fs "http://127.0.0.1:$HTTP/metrics")
if echo "$metrics" | grep -q 'NaN'; then
    echo "FAIL: /metrics contains NaN" >&2
    exit 1
fi
for series in \
    'wal_fsync_ns_count' \
    'wal_commit_batch_records_count' \
    'wal_flushed_bytes_total' \
    'rs_requests_total{op="write"}' \
    'rs_batch_requests_count' \
    'rs_shard_requests_total{shard="0"}' \
    'rangelock_arena_nodes{shard="0"}' \
    'ebr_orphaned{shard="0"}' \
    'repl_lag_records'; do
    if ! echo "$metrics" | grep -qF "$series"; then
        echo "FAIL: /metrics missing core series $series" >&2
        echo "$metrics" | head -40 >&2
        exit 1
    fi
done

# A write burst under -fsync batch must have produced real fsyncs and
# real group commits — presence alone is not enough.
for counter in wal_fsyncs_total wal_commit_batch_records_count; do
    val=$(echo "$metrics" | awk -v c="$counter" '$1==c{print $2}')
    if [ -z "$val" ] || [ "$val" -le 0 ]; then
        echo "FAIL: $counter is ${val:-absent} after a write burst" >&2
        exit 1
    fi
done

# pprof must answer on the same listener.
curl -fs "http://127.0.0.1:$HTTP/debug/pprof/cmdline" >/dev/null

# Client-cache smoke: a warm read-heavy run through the client-side
# cache must report real hits and a hit rate above one half in the
# JSON report (keys match the cc_* obs series names).
"$dir/rangeload" -addr "127.0.0.1:$PORT" -mix read-heavy -workers 4 \
    -duration 2s -shards 4 -placement map \
    -client-cache-bytes $((64 * 1024 * 1024)) -cache-scenario warm \
    -report json -out "$dir/cache.json"
cc_hits=$(python3 -c "import json; print(json.load(open('$dir/cache.json'))['cache']['cc_hits_total'])" 2>/dev/null ||
    grep -o '"cc_hits_total": *[0-9]*' "$dir/cache.json" | grep -o '[0-9]*$')
if [ -z "$cc_hits" ] || [ "$cc_hits" -le 0 ]; then
    echo "FAIL: cc_hits_total is ${cc_hits:-absent} after a warm cached run" >&2
    cat "$dir/cache.json" >&2
    exit 1
fi
hit_rate=$(grep -o '"hit_rate": *[0-9.]*' "$dir/cache.json" | grep -o '[0-9.]*$')
if [ -z "$hit_rate" ] || ! awk -v r="$hit_rate" 'BEGIN{exit !(r > 0.5)}'; then
    echo "FAIL: warm cache hit_rate is ${hit_rate:-absent}, want > 0.5" >&2
    cat "$dir/cache.json" >&2
    exit 1
fi
echo "client cache: hits=$cc_hits hit_rate=$hit_rate"

echo "observability smoke OK"
