#!/usr/bin/env bash
# Mining smoke: reactive top-k path mining on a simulated log, end to
# end.
#
#   1. Offline baseline: websra_sessionize --streaming --mine-topk mines
#      the whole session stream in one process.
#   2. The same log split into three disjoint-user producers, replayed
#      sequentially into a one-shard websra_serve — a deterministic
#      ingest order — and queried with PATTERNS / PATTERNS 5 2.
#   3. The same stream again, CHECKPOINTed after the first producer,
#      kill -9'd, restarted with --resume and replayed from byte zero:
#      its PATTERNS reply must equal run 2's byte for byte (evictions,
#      first-seen tie-breaks and all).
#   4. Every PATTERNS document has the documented shape, and the offline
#      top-1 pair matches a recount over the baseline session file.
#
# usage: mining.sh TOOLS_DIR AGENTS SEED WORK_DIR
# WORK_DIR is recreated; the server logs and PATTERNS replies stay there.
set -euo pipefail
tools=$1 agents=$2 seed=$3 dir=$4
rm -rf "$dir"
mkdir -p "$dir"

"$tools/websra_simulate" --graph-out "$dir/site.graph" \
  --log-out "$dir/access.log" --agents "$agents" --seed "$seed" > /dev/null
"$tools/websra_sessionize" --graph "$dir/site.graph" --log "$dir/access.log" \
  --out "$dir/base.sessions" --streaming --threads 2 --mine-topk 10 \
  > "$dir/sessionize.out" 2> /dev/null
grep -o '{"k".*}' "$dir/sessionize.out" > "$dir/patterns.offline.json"

touch "$dir"/part{0,1,2}.log
awk -v d="$dir" \
  '{ n = split($1, a, "."); print >> (d "/part" (a[n] % 3) ".log") }' \
  "$dir/access.log"

serve() {
  rm -f "$dir/port" "$dir/admin_port"
  "$tools/websra_serve" --graph "$dir/site.graph" \
    --out "$dir/serve.$1.sessions" --threads 1 --mine-topk 10 \
    --port-file "$dir/port" --admin-port-file "$dir/admin_port" \
    --checkpoint-dir "$dir/ckpt" --checkpoint-every-records 400 \
    "${@:2}" > "$dir/serve.$1.out" 2>&1 &
  pid=$!
  for _ in $(seq 1 100); do
    [ -s "$dir/port" ] && [ -s "$dir/admin_port" ] && break
    sleep 0.1
  done
  port=$(cat "$dir/port")
  admin=$(cat "$dir/admin_port")
}
admin_cmd() {
  "$tools/websra_logclient" --port "$admin" --admin "$1"
}
replay() {
  "$tools/websra_logclient" --port "$port" --log "$dir/part$2.log" \
    --client-id "client-$2" --chunk-bytes 1024 > "$dir/client.$1.$2.out" 2>&1
}

# Run 2: uninterrupted reference.
rm -rf "$dir/ckpt"
serve full
replay full 0; replay full 1; replay full 2
admin_cmd PATTERNS > "$dir/patterns.full.json"
admin_cmd 'PATTERNS 5 2' > "$dir/patterns.pairs.json"
grep -q '^{.k.:10,' "$dir/patterns.full.json"
admin_cmd QUIESCE | grep -q 'OK sessions='
wait "$pid"

# Run 3: the same stream, checkpointed and killed mid-flight...
rm -rf "$dir/ckpt"
serve kill
replay kill 0
admin_cmd CHECKPOINT | grep -q 'OK records_seen='
kill -9 "$pid"
wait "$pid" 2> /dev/null || true
test -f "$dir/ckpt/CURRENT"

# ...then resumed; every client replays its full log and the HELLO
# skip-bytes handshake discards the durable prefix.
serve resumed --resume
grep -q 'resumed from checkpoint' "$dir/serve.resumed.out"
replay resumed 0; replay resumed 1; replay resumed 2
admin_cmd PATTERNS > "$dir/patterns.resumed.json"
admin_cmd QUIESCE | grep -q 'OK sessions='
wait "$pid"
cmp "$dir/patterns.full.json" "$dir/patterns.resumed.json"

python3 - "$dir" <<'PY'
import json
import sys
from collections import Counter

dir = sys.argv[1]

def check_shape(doc, k, length):
    assert list(doc) == ["k", "length", "sessions", "paths",
                         "capacity", "patterns"], list(doc)
    assert doc["k"] == k and doc["length"] == length, doc
    assert doc["sessions"] > 0 and doc["paths"] > 0
    assert 0 < len(doc["patterns"]) <= k
    for p in doc["patterns"]:
        assert list(p) == ["path", "count", "error"], list(p)
        assert len(p["path"]) in (2, 3)
        assert all(isinstance(x, int) for x in p["path"])
        assert 0 <= p["error"] <= p["count"], p
    counts = [p["count"] for p in doc["patterns"]]
    assert counts == sorted(counts, reverse=True), "not ordered"

check_shape(json.load(open(f"{dir}/patterns.full.json")), 10, 0)
check_shape(json.load(open(f"{dir}/patterns.pairs.json")), 5, 2)
offline = json.load(open(f"{dir}/patterns.offline.json"))
check_shape(offline, 10, 0)

# Batch recount of navigation pairs over every emitted session
# (Smart-SRA sessions are link-valid, so each consecutive pair is a
# topology-valid path). The offline run mined the same full session set
# with ample capacity, so its best pair must match the recount argmax
# exactly, count and all.
pairs = Counter()
lines = open(f"{dir}/base.sessions").read().splitlines()
for line in lines[1:]:
    fields = line.split("\t")
    pages = [int(f.split(":")[0]) for f in fields[1:]]
    for a, b in zip(pages, pages[1:]):
        pairs[(a, b)] += 1
top_pair = next(p for p in offline["patterns"] if len(p["path"]) == 2)
assert top_pair["error"] == 0, top_pair
best = max(pairs.values())
got = pairs[tuple(top_pair["path"])]
assert top_pair["count"] == got == best, (top_pair, got, best)
print(f"top-1 pair {top_pair['path']} x{top_pair['count']} "
      f"matches the batch recount over {len(lines) - 1} sessions")
PY
echo "resumed PATTERNS matches the uninterrupted run byte for byte"
