#!/usr/bin/env bash
# obs_smoke.sh — end-to-end check of the live introspection endpoint: run
# examples/scale with -listen-metrics on an ephemeral port, scrape
# /metrics and /debug/trace while the federation runs, and fail on an
# empty or malformed response. Used by CI; runnable locally too.
set -euo pipefail
cd "$(dirname "$0")/.."

LOG="$(mktemp)"
trap 'rm -f "$LOG"; kill "$PID" 2>/dev/null || true; wait "$PID" 2>/dev/null || true' EXIT

# Enough rounds that the run is still alive while we scrape it.
go run ./examples/scale -devices 1000 -sample-k 16 -rounds 20 \
    -listen-metrics 127.0.0.1:0 >"$LOG" 2>&1 &
PID=$!

# The example prints the bound address first; wait for it (the build can
# dominate the first seconds under `go run`).
ADDR=""
for _ in $(seq 1 600); do
    ADDR="$(sed -n 's#^metrics listening on http://\([^/]*\)/metrics$#\1#p' "$LOG" | head -n1)"
    [ -n "$ADDR" ] && break
    if ! kill -0 "$PID" 2>/dev/null; then
        echo "obs_smoke: example exited before announcing the metrics address" >&2
        cat "$LOG" >&2
        exit 1
    fi
    sleep 0.5
done
if [ -z "$ADDR" ]; then
    echo "obs_smoke: never saw the metrics address in the example output" >&2
    cat "$LOG" >&2
    exit 1
fi
echo "obs_smoke: endpoint at $ADDR"

# Poll the live endpoint until at least one round has been recorded, so
# the scraped snapshot holds real per-round data, not just registration.
METRICS=""
for _ in $(seq 1 600); do
    if ! kill -0 "$PID" 2>/dev/null; then
        echo "obs_smoke: example exited before a round was scraped" >&2
        cat "$LOG" >&2
        exit 1
    fi
    METRICS="$(curl -fsS "http://$ADDR/metrics" 2>/dev/null || true)"
    if echo "$METRICS" | grep -Eq '^fedzkt_rounds_total [1-9]'; then
        break
    fi
    METRICS=""
    sleep 0.5
done
[ -n "$METRICS" ] || { echo "obs_smoke: fedzkt_rounds_total never reached 1" >&2; cat "$LOG" >&2; exit 1; }
echo "$METRICS" | grep -q '^fedzkt_sched_tasks_completed_total ' ||
    { echo "obs_smoke: /metrics missing scheduler counters" >&2; echo "$METRICS" | head -n 20 >&2; exit 1; }
echo "$METRICS" | grep -q '^fedzkt_local_phase_seconds_count ' ||
    { echo "obs_smoke: /metrics missing phase histograms" >&2; exit 1; }

for owner in phase server_worker rig_step rig_task; do
    echo "$METRICS" | grep -Eq "^fedzkt_arena_${owner}_held_bytes [1-9]" ||
        { echo "obs_smoke: /metrics missing the $owner arenas' held bytes after a round" >&2; exit 1; }
done

TRACE="$(curl -fsS "http://$ADDR/debug/trace")"
echo "$TRACE" | python3 -c '
import json, sys
doc = json.load(sys.stdin)
events = doc["traceEvents"]
if not events:
    sys.exit("obs_smoke: /debug/trace has no events")
cats = {e["cat"] for e in events}
if "fed" not in cats:
    sys.exit(f"obs_smoke: no fed-phase spans in trace (cats: {sorted(cats)})")
print(f"obs_smoke: trace holds {len(events)} spans across {sorted(cats)}")
'

curl -fsS "http://$ADDR/debug/vars" | python3 -c 'import json,sys; json.load(sys.stdin)' ||
    { echo "obs_smoke: /debug/vars is not valid JSON" >&2; exit 1; }

kill "$PID" 2>/dev/null || true
wait "$PID" 2>/dev/null || true
trap 'rm -f "$LOG"' EXIT
echo "obs_smoke: OK"
