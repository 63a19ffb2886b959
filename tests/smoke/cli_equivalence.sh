#!/usr/bin/env bash
# CLI equivalence smoke: websra_sessionize --streaming (FileSource ->
# IngestDriver -> StreamEngine, cleaning in the engine, robot pre-pass)
# must write the same bytes as the batch reference path, on a log that
# carries crawler traffic and a malformed line.
#
#   - a GET /robots.txt from a client that already browsed earlier in
#     the log: the robot filter drops every record of that client, so
#     its IP appears in neither output (but does with --keep-robots);
#   - one malformed line: --max-parse-errors 1 dead-letters it, 0 fails
#     the run and leaves no --out file;
#   - a checkpoint whose sink state is a bare decimal journal length
#     (the format older websra_sessionize builds wrote) is refused on
#     --resume, not resumed and not replaced by a fresh start.
#
# usage: cli_equivalence.sh TOOLS_DIR
set -euo pipefail
tools=$1
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

"$tools/websra_simulate" --graph-out "$dir/site.graph" \
  --log-out "$dir/clean.log" --agents 150 --seed 23 > /dev/null
robot=$(head -1 "$dir/clean.log" | cut -d' ' -f1)
stamp=$(tail -1 "$dir/clean.log" | sed 's/.*\[\(.*\)\].*/\1/')
awk 'NR == 50 { print "this is not a CLF line" } { print }' \
  "$dir/clean.log" > "$dir/access.log"
echo "$robot - - [$stamp] \"GET /robots.txt HTTP/1.0\" 200 64" \
  >> "$dir/access.log"

sessionize() {
  "$tools/websra_sessionize" --graph "$dir/site.graph" \
    --log "$dir/access.log" "$@"
}
# `! cmd` never trips `set -e`; this does.
fails() {
  if "$@"; then
    echo "unexpectedly succeeded: $*" >&2
    return 1
  fi
}

sessionize --out "$dir/kept.sessions" --keep-robots --max-parse-errors 1 \
  > /dev/null 2>&1
grep -q "^$robot	" "$dir/kept.sessions"

for heuristic in smart-sra duration pagestay navigation; do
  sessionize --heuristic "$heuristic" --max-parse-errors 1 \
    --out "$dir/batch.$heuristic" > /dev/null 2>&1
  sessionize --heuristic "$heuristic" --max-parse-errors 1 \
    --streaming --threads 3 --out "$dir/stream.$heuristic" \
    > /dev/null 2>&1
  cmp "$dir/batch.$heuristic" "$dir/stream.$heuristic"
  fails grep -q "^$robot	" "$dir/batch.$heuristic"
  fails grep -q "^$robot	" "$dir/stream.$heuristic"
done

fails sessionize --streaming --max-parse-errors 0 \
  --out "$dir/failed.sessions" > /dev/null 2>&1
test ! -e "$dir/failed.sessions"
sessionize --streaming --max-parse-errors 1 --out "$dir/tolerant.sessions" \
  2> /dev/null | grep -q 'malformed lines dead-lettered'

# Rewrite every MANIFEST's sink state to the bare decimal journal length
# inside it: [magic][u32 version] then one [u32 len][u32 crc32][payload]
# frame whose payload ends with the sink state string.
sessionize --streaming --max-parse-errors 1 --out "$dir/ckpt.sessions" \
  --checkpoint-dir "$dir/ckpt" --checkpoint-every-records 500 \
  > /dev/null 2>&1
python3 - "$dir/ckpt" <<'PY'
import glob, struct, sys, zlib

def uvarint(data, i):
    value = shift = 0
    while True:
        byte = data[i]; i += 1
        value |= (byte & 0x7F) << shift; shift += 7
        if byte < 0x80:
            return value, i

manifests = glob.glob(sys.argv[1] + "/epoch-*/MANIFEST")
assert manifests, "no checkpoint written"
for path in manifests:
    raw = open(path, "rb").read()
    head = len(b"wumckpt.manifest") + 4
    size, _ = struct.unpack_from("<II", raw, head)
    payload = raw[head + 8:head + 8 + size]
    _, i = uvarint(payload, 0)            # epoch
    _, i = uvarint(payload, i + 4)        # num_shards (u32), records_seen
    for _ in range(2):                    # heuristic, identity
        n, i = uvarint(payload, i); i += n
    _, i = uvarint(payload, i)            # max_session_duration
    _, i = uvarint(payload, i)            # max_page_stay
    n, j = uvarint(payload, i)            # sink state
    state = payload[j:j + n]
    _, k = uvarint(state, 0)              # magic
    n, k = uvarint(state, k)
    bare = state[k:k + n]                 # journal length, in decimal
    assert bare.isdigit(), bare
    payload = payload[:i] + bytes([len(bare)]) + bare
    frame = struct.pack("<II", len(payload), zlib.crc32(payload)) + payload
    open(path, "wb").write(raw[:head] + frame)
PY
fails sessionize --streaming --max-parse-errors 1 \
  --out "$dir/resumed.sessions" --checkpoint-dir "$dir/ckpt" --resume \
  > "$dir/resume.out" 2>&1
grep -q 'bare journal length' "$dir/resume.out"
fails grep -q 'starting fresh' "$dir/resume.out"
test ! -e "$dir/resumed.sessions"
echo "batch == streaming for all four heuristics; robots, malformed line" \
  "and old-format checkpoint handled"
