#!/usr/bin/env bash
# Daemon smoke: websra_serve under three live producers, a kill -9 and a
# --resume, against the single-process file-ingest baseline.
#
#   1. Baseline: websra_sessionize --streaming --keep-robots on the whole
#      log (the daemon has no robot filter; that needs a whole-log
#      pre-pass).
#   2. The log split by last IP octet mod 3 into disjoint-user producers,
#      streamed concurrently into websra_serve with checkpointing, the
#      wum::mine tap and the HTTP observability port on. While they
#      stream, /metrics must lint as Prometheus exposition, /healthz must
#      answer and /statusz must be the fixed-schema JSON document; after
#      them websra_top --once must see every shard busy (busy_us > 0,
#      its emit part no larger).
#   3. CHECKPOINT through the admin socket, kill -9, restart --resume and
#      replay every producer from byte zero: the HELLO handshake hands
#      back skip offsets, PATTERNS answers with JSON (the miner frames rode
#      the checkpoint), QUIESCE drains, and the served session file must
#      equal the baseline byte for byte. The final metrics snapshot must
#      report an event-time watermark lag under an hour: it is measured
#      against the newest record each shard was handed, not the wall
#      clock, so a replayed 2006-dated log does not read as years late.
#
# Exact PATTERNS byte-equality across the kill is tests/smoke/mining.sh's
# job: it needs one shard and sequential producers.
#
# usage: serve.sh TOOLS_DIR AGENTS SEED THREADS WORK_DIR [SIMULATE_ARG...]
# SIMULATE_ARGs go to websra_simulate (--proxy-group 64 --start-window
# 86400 puts 64 agents behind each IP: long Smart-SRA candidates). WORK_DIR
# is recreated; the server and client logs, metrics series and scrapes
# stay there.
set -euo pipefail
tools=$1 agents=$2 seed=$3 threads=$4 dir=$5
shift 5
rm -rf "$dir"
mkdir -p "$dir"

"$tools/websra_simulate" --graph-out "$dir/site.graph" \
  --log-out "$dir/access.log" --agents "$agents" --seed "$seed" "$@" \
  > /dev/null
"$tools/websra_sessionize" --graph "$dir/site.graph" --log "$dir/access.log" \
  --out "$dir/base.sessions" --streaming --threads "$threads" --keep-robots \
  > /dev/null 2>&1

touch "$dir"/part{0,1,2}.log
awk -v d="$dir" \
  '{ n = split($1, a, "."); print >> (d "/part" (a[n] % 3) ".log") }' \
  "$dir/access.log"

serve() {
  rm -f "$dir/port" "$dir/admin_port" "$dir/http_port"
  "$tools/websra_serve" --graph "$dir/site.graph" \
    --out "$dir/serve.sessions" --threads "$threads" --mine-topk 10 \
    --port-file "$dir/port" --admin-port-file "$dir/admin_port" \
    --http-port 0 --http-port-file "$dir/http_port" \
    --checkpoint-dir "$dir/ckpt" --checkpoint-every-records 400 \
    --metrics-series "$dir/metrics.$1.jsonl" --metrics-every 1 \
    "${@:2}" > "$dir/serve.$1.out" 2>&1 &
  pid=$!
  for _ in $(seq 1 100); do
    [ -s "$dir/port" ] && [ -s "$dir/admin_port" ] && [ -s "$dir/http_port" ] \
      && break
    sleep 0.1
  done
  port=$(cat "$dir/port")
  admin=$(cat "$dir/admin_port")
  http=$(cat "$dir/http_port")
}
admin_cmd() {
  "$tools/websra_logclient" --port "$admin" --admin "$1"
}
start_clients() {
  cpids=
  for c in 0 1 2; do
    "$tools/websra_logclient" --port "$port" --log "$dir/part$c.log" \
      --client-id "client-$c" --chunk-bytes 1024 \
      > "$dir/client.$1.$c.out" 2>&1 &
    cpids="$cpids $!"
  done
}
wait_clients() {
  for p in $cpids; do wait "$p"; done
}

rm -rf "$dir/ckpt"
serve run1
start_clients run1
curl -sf "http://127.0.0.1:$http/metrics" > "$dir/metrics.prom"
"$tools/websra_top" --lint "$dir/metrics.prom"
curl -sf "http://127.0.0.1:$http/healthz" | grep -q '^ok'
curl -sf "http://127.0.0.1:$http/statusz" > "$dir/statusz.json"
wait_clients
"$tools/websra_top" --port "$http" --once --format json > "$dir/top.json"
python3 - "$dir" "$threads" <<'PY'
import json
import sys

dir, threads = sys.argv[1], int(sys.argv[2])
status = json.load(open(f"{dir}/statusz.json"))
assert status["healthy"] is True, status
assert len(status["engine"]["shards"]) == threads, status
top = json.load(open(f"{dir}/top.json"))
shards = top["shards"]
assert len(shards) == threads, top
assert sum(s["records_in"] for s in shards) > 0, top
assert any(s["watermark_seconds"] > 0 for s in shards), top
assert any(s["p99_ingest_to_emit_us"] > 0 for s in shards), top
assert all(0 < s["emit_busy_us"] <= s["busy_us"] for s in shards), top
assert top["watermark_lag_seconds"] >= 0, top
prom = open(f"{dir}/metrics.prom").read()
assert "wum_engine_shard0_ingest_to_emit_latency_us_bucket" in prom
assert "wum_build_info{" in prom
print("live scrape OK:", sum(s["records_in"] for s in shards),
      "records across", len(shards), "shards; lag",
      top["watermark_lag_seconds"], "s")
PY
admin_cmd CHECKPOINT | grep -q 'OK records_seen='
kill -9 "$pid"
wait "$pid" 2> /dev/null || true
test -f "$dir/ckpt/CURRENT"

serve run2 --resume
start_clients run2
wait_clients
# The resumed server handed back non-zero skip offsets.
grep -q 'handshake: OK' "$dir/client.run2.0.out"
admin_cmd PATTERNS | grep -q '^{.k.:10,'
admin_cmd QUIESCE | grep -q 'OK sessions='
wait "$pid"
grep -q 'resumed from checkpoint' "$dir/serve.run2.out"
python3 - "$dir/metrics.run2.jsonl" <<'PY'
import json
import sys

final = json.loads(open(sys.argv[1]).read().splitlines()[-1])
gauges = final["metrics"]["gauges"]
lag = gauges["engine.watermark_lag_seconds"]
assert gauges["engine.shard0.watermark_seconds"] > 0, gauges
assert 0 <= lag < 3600, f"watermark lag {lag} s after QUIESCE"
print("lag after QUIESCE:", lag, "s")
PY

cmp "$dir/base.sessions" "$dir/serve.sessions"
echo "serve output matches the single-process baseline:" \
  "$(grep -c . "$dir/serve.sessions") lines"
