#!/usr/bin/env bash
# obs_smoke.sh — boot the three-shard fleet with tracing on and prove
# the observability surface from the outside: a traced cold/warm/peer-
# fill request mix leaves one trace ID in every involved daemon's span
# log with consistent cross-process parentage, ?trace=1 returns the
# span-tree envelope, /metrics scrapes clean on every process (router
# included), pprof answers on -debug-addr, and injected faults show up
# as dedicated obs counters.
#
# Usage: scripts/obs_smoke.sh [base_port]   (default: 8900)
set -euo pipefail
cd "$(dirname "$0")/.."

base_port="${1:-8900}"
lb_port=$((base_port + 3))
lb="http://127.0.0.1:$lb_port"
debug_port=$((base_port + 4))
faulty_lb_port=$((base_port + 5))
work="$(mktemp -d)"
pids=()

cleanup() {
  status=$?
  for pid in "${pids[@]:-}"; do
    [[ -n "$pid" ]] && kill -TERM "$pid" 2>/dev/null || true
  done
  for _ in $(seq 1 50); do
    alive=0
    for pid in "${pids[@]:-}"; do
      [[ -n "$pid" ]] && kill -0 "$pid" 2>/dev/null && alive=1
    done
    [[ $alive -eq 0 ]] && break
    sleep 0.2
  done
  for pid in "${pids[@]:-}"; do
    if [[ -n "$pid" ]] && kill -0 "$pid" 2>/dev/null; then
      echo "process $pid ignored SIGTERM; killing"
      kill -KILL "$pid" 2>/dev/null || true
    fi
  done
  wait 2>/dev/null || true
  rm -rf "$work"
  exit $status
}
trap cleanup EXIT INT TERM

echo "== build"
go build -o "$work/graphpiped" ./cmd/graphpiped
go build -o "$work/graphpipe-lb" ./cmd/graphpipe-lb
go build -o "$work/fleetgen" ./cmd/fleetgen

peers=""
for i in 0 1 2; do
  peers="$peers,http://127.0.0.1:$((base_port + i))"
done
peers="${peers#,}"

echo "== boot 3 shards with trace logs ($peers)"
for i in 0 1 2; do
  port=$((base_port + i))
  extra=()
  if [[ $i -eq 0 ]]; then
    extra=(-debug-addr "127.0.0.1:$debug_port")
  fi
  "$work/graphpiped" -addr "127.0.0.1:$port" -cache-dir "$work/cache$i" \
    -self "http://127.0.0.1:$port" -peers "$peers" \
    -instance "shard$i" -trace-log "$work/shard$i.trace" "${extra[@]}" &
  pids+=($!)
done

echo "== boot router with trace log on :$lb_port"
"$work/graphpipe-lb" -addr "127.0.0.1:$lb_port" -backends "$peers" \
  -instance lb -trace-log "$work/lb.trace" &
pids+=($!)

for url in ${peers//,/ } "$lb"; do
  up=""
  for _ in $(seq 1 50); do
    curl -fsS "$url/v1/stats" >/dev/null 2>&1 && { up=1; break; }
    sleep 0.2
  done
  [[ -n "$up" ]] || { echo "$url never came up"; exit 1; }
done

req='{"model":"case-study","devices":4}'

echo "== traced cold plan through the router"
curl -fsS -D "$work/cold.h" -o "$work/cold.json" \
  -H "X-Graphpipe-Trace: smoke-cold-1" \
  -X POST "$lb/v1/plan?trace=1" -d "$req"
grep -qi '^x-graphpipe-trace: smoke-cold-1' "$work/cold.h" \
  || { echo "router did not echo the trace ID:"; cat "$work/cold.h"; exit 1; }
grep -q '"trace_id":"smoke-cold-1"' "$work/cold.json" \
  || { echo "?trace=1 body is not a span envelope"; head -c 300 "$work/cold.json"; exit 1; }
# The router's envelope nests the shard's: both processes' trees are in
# one response.
grep -q '"process":"lb"' "$work/cold.json" || { echo "no router trace in envelope"; exit 1; }
grep -q '"process":"shard' "$work/cold.json" || { echo "no shard trace in envelope"; exit 1; }
grep -q '"name":"planner.search"' "$work/cold.json" \
  || { echo "cold trace has no planner.search span"; exit 1; }

echo "== untraced plan for the fingerprint (headers only)"
curl -fsS -D "$work/plain.h" -o /dev/null -X POST "$lb/v1/plan" -d "$req"
fp="$(sed -n 's/^[Xx]-[Gg]raphpipe-[Ff]ingerprint: *//p' "$work/plain.h" | tr -d '\r')"
[[ ${#fp} -eq 64 ]] || { echo "bad fingerprint header: '$fp'"; exit 1; }
owner="$(sed -n 's/^[Xx]-[Gg]raphpipe-[Bb]ackend: *//p' "$work/plain.h" | tr -d '\r')"

echo "== traced warm repeat"
curl -fsS -o "$work/warm.json" -H "X-Graphpipe-Trace: smoke-warm-1" \
  -X POST "$lb/v1/plan?trace=1" -d "$req"
grep -q '"trace_id":"smoke-warm-1"' "$work/warm.json" || { echo "warm trace missing"; exit 1; }
grep -q '"name":"cache.memory"' "$work/warm.json" \
  || { echo "warm trace has no cache.memory span"; exit 1; }

echo "== traced peer fill from a non-owner shard"
filler=""
for url in ${peers//,/ }; do
  [[ "$url" != "$owner" ]] && { filler="$url"; break; }
done
curl -fsS -o "$work/fill.json" -H "X-Graphpipe-Trace: smoke-fill-1" \
  "$filler/v1/artifacts/$fp?trace=1"
grep -q '"trace_id":"smoke-fill-1"' "$work/fill.json" || { echo "fill trace missing"; exit 1; }
grep -q '"name":"peer.fill"' "$work/fill.json" \
  || { echo "peer-fill trace has no peer.fill span"; exit 1; }

echo "== trace IDs landed in every involved daemon's span log"
sync
grep -q '"trace_id":"smoke-cold-1"' "$work/lb.trace" \
  || { echo "router log is missing the cold trace"; exit 1; }
cat "$work"/shard*.trace > "$work/shards.trace"
grep -q '"trace_id":"smoke-cold-1"' "$work/shards.trace" \
  || { echo "no shard logged the cold trace"; exit 1; }
grep -q '"trace_id":"smoke-fill-1"' "$work/shards.trace" \
  || { echo "no shard logged the peer-fill trace"; exit 1; }
# Consistent parentage: the shard's root span for the routed cold
# request reports an lb span as its parent; the owner's spans for the
# peer fill report the filler's peer.attempt span as theirs.
grep '"trace_id":"smoke-cold-1"' "$work/shards.trace" | grep -q '"parent":"lb-' \
  || { echo "shard cold-trace root does not parent under the router"; exit 1; }
fill_count="$(grep -c '"trace_id":"smoke-fill-1"' "$work/shards.trace")"
[[ "$fill_count" -ge 2 ]] \
  || { echo "peer-fill trace in $fill_count shard logs, want filler + owner"; exit 1; }

echo "== /metrics scrapes clean on every process"
for url in ${peers//,/ } "$lb"; do
  curl -fsS "$url/metrics" > "$work/metrics.txt"
  grep -q '^# HELP graphpipe_' "$work/metrics.txt" \
    || { echo "$url/metrics is not Prometheus text"; exit 1; }
done
curl -fsS "$lb/metrics" > "$work/lb-metrics.txt"
grep -q '^graphpipe_router_routed_total [1-9]' "$work/lb-metrics.txt" \
  || { echo "router routed_total did not count"; exit 1; }
: > "$work/shard-metrics.txt"
for url in ${peers//,/ }; do
  curl -fsS "$url/metrics" >> "$work/shard-metrics.txt"
done
grep -q '^graphpipe_planned_total [1-9]' "$work/shard-metrics.txt" \
  || { echo "no shard metrics show a planner run"; exit 1; }

echo "== router /v1/stats fleet block is the sum of the shards' /metrics"
shard_planned="$(awk '$1 == "graphpipe_planned_total" { n += $2 } END { print n + 0 }' \
  "$work/shard-metrics.txt")"
curl -fsS "$lb/v1/stats" > "$work/lb-stats.json"
# The fleet block renders first, so its "planned" is the first one.
fleet_planned="$(awk -F': *' '/"planned":/ { sub(/,$/, "", $2); print $2; exit }' \
  "$work/lb-stats.json")"
[[ -n "$fleet_planned" && "$fleet_planned" == "$shard_planned" ]] \
  || { echo "fleet planned '$fleet_planned' != shards' graphpipe_planned_total sum $shard_planned"; exit 1; }

echo "== pprof answers on -debug-addr"
curl -fsS "http://127.0.0.1:$debug_port/debug/pprof/cmdline" >/dev/null \
  || { echo "pprof debug listener not answering"; exit 1; }

echo "== traced replay reports phase attribution (fleetgen -trace-sample)"
"$work/fleetgen" -target "$lb" -requests 60 -concurrency 4 -zipf 1.2 \
  -population 8 -devices 2,4 -seed 7 -trace-sample 10 \
  -o "$work/fleetgen.json" | tee "$work/bench.txt"
grep -q 'fleet_phase_queue_share' "$work/bench.txt" \
  || { echo "fleetgen reported no phase attribution"; exit 1; }

echo "== injected faults surface as obs counters"
"$work/graphpipe-lb" -addr "127.0.0.1:$faulty_lb_port" -backends "$peers" \
  -fault-spec 'seed=42;http.drop=1' -health-interval -1s &
pids+=($!)
faulty="http://127.0.0.1:$faulty_lb_port"
for _ in $(seq 1 50); do
  curl -fsS "$faulty/metrics" >/dev/null 2>&1 && break
  sleep 0.2
done
curl -s -o /dev/null -X POST "$faulty/v1/plan" -d "$req" || true
curl -fsS "$faulty/metrics" > "$work/faulty-metrics.txt"
grep -q '^graphpipe_faults_injected_total{site=' "$work/faulty-metrics.txt" \
  || { echo "faulty router shows no faults_injected counter"; exit 1; }

echo "== graceful shutdown (SIGTERM all)"
for pid in "${pids[@]}"; do
  kill -TERM "$pid"
done
for pid in "${pids[@]}"; do
  wait "$pid"
done
pids=()
echo "obs smoke OK"
