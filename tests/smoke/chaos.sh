#!/usr/bin/env bash
# Chaos smoke over real processes: a hardened websra_serve (lifecycle
# deadlines + buffer quota on) absorbs hostile clients, one fresh server
# per chaos seed:
#
#   - a half-open connection that goes silent before its HELLO (it sends
#     0 bytes) and must be reaped by the handshake deadline;
#   - a trickle + stall-jitter producer on one half of the log, writing
#     one byte per send, whose seeded schedule must actually fire;
#   - a producer whose seeded schedule RSTs mid-stream, then a plain
#     replay of the same --client-id: the server's in-memory per-client
#     offset turns the pair into exactly-once convergence without a
#     checkpoint.
#
# After every round the admin plane still answers, STATS shows the
# expiry, QUIESCE drains, and the served session file equals the
# single-process baseline byte for byte.
#
# usage: chaos.sh TOOLS_DIR AGENTS SEED WORK_DIR CHAOS_SEED...
# SEED seeds websra_simulate; each CHAOS_SEED is one round (the trickle
# schedule uses it, the resetting producer CHAOS_SEED + 40). WORK_DIR is
# recreated; server, client and metrics-series files stay there.
set -euo pipefail
tools=$1 agents=$2 seed=$3 dir=$4
shift 4
rm -rf "$dir"
mkdir -p "$dir"

"$tools/websra_simulate" --graph-out "$dir/site.graph" \
  --log-out "$dir/access.log" --agents "$agents" --seed "$seed" > /dev/null
"$tools/websra_sessionize" --graph "$dir/site.graph" --log "$dir/access.log" \
  --out "$dir/base.sessions" --streaming --keep-robots > /dev/null 2>&1

touch "$dir"/part{0,1}.log
awk -v d="$dir" \
  '{ n = split($1, a, "."); print >> (d "/part" (a[n] % 2) ".log") }' \
  "$dir/access.log"
: > "$dir/empty.log"

for chaos in "$@"; do
  rm -f "$dir/port" "$dir/admin_port" "$dir/serve.sessions"
  "$tools/websra_serve" --graph "$dir/site.graph" \
    --out "$dir/serve.sessions" \
    --port-file "$dir/port" --admin-port-file "$dir/admin_port" \
    --idle-timeout-ms 30000 --handshake-timeout-ms 2000 \
    --read-timeout-ms 30000 --client-buffer-bytes 1048576 \
    --metrics-series "$dir/metrics.$chaos.jsonl" --metrics-every 1 \
    > "$dir/serve.$chaos.out" 2>&1 &
  pid=$!
  for _ in $(seq 1 100); do
    [ -s "$dir/port" ] && [ -s "$dir/admin_port" ] && break
    sleep 0.1
  done
  port=$(cat "$dir/port")
  admin=$(cat "$dir/admin_port")

  "$tools/websra_logclient" --port "$port" --log "$dir/empty.log" \
    --chaos-half-open-ms 4000 > "$dir/halfopen.$chaos.out" 2>&1 &
  hpid=$!
  "$tools/websra_logclient" --port "$port" --log "$dir/part0.log" \
    --client-id chaos-0 --chunk-bytes 512 --chaos-trickle \
    --chaos-stall-prob 0.1 --chaos-stall-ms 1 \
    --chaos-seed "$chaos" > "$dir/client0.$chaos.out" 2>&1 &
  c0=$!
  "$tools/websra_logclient" --port "$port" --log "$dir/part1.log" \
    --client-id chaos-1 --chunk-bytes 256 --chaos-reset-prob 0.05 \
    --chaos-seed "$((chaos + 40))" > "$dir/client1a.$chaos.out" 2>&1
  "$tools/websra_logclient" --port "$port" --log "$dir/part1.log" \
    --client-id chaos-1 --chunk-bytes 1024 > "$dir/client1b.$chaos.out" 2>&1
  wait "$c0"
  grep -q 'chaos:' "$dir/client0.$chaos.out"
  wait "$hpid"
  grep -q 'sent 0 bytes' "$dir/halfopen.$chaos.out"

  "$tools/websra_logclient" --port "$admin" --admin STATS \
    | grep -q '"net.conn.expired": [1-9]'
  "$tools/websra_logclient" --port "$admin" --admin QUIESCE \
    | grep -q 'OK sessions='
  wait "$pid"
  cmp "$dir/base.sessions" "$dir/serve.sessions"
  echo "chaos seed $chaos converged"
done
