#!/usr/bin/env bash
# End-to-end smoke of the serving subsystem: build a sample DB + sharded
# index with pis_cli, start pis_server, drive every protocol op through
# pis_client, and require a clean shutdown; then serve what a plain
# `pis_cli build` (no --shards) writes. CI runs this against the freshly
# built binaries; locally:
#
#   scripts/server_smoke.sh ./build
set -euo pipefail

BIN="$(cd "${1:-./build}" && pwd)"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"

echo "== prepare sample DB + sharded index"
"$BIN/pis_cli" generate --out db.txt --count 60 --seed 42
"$BIN/pis_cli" build --db db.txt --out sharded_dir --max_fragment_edges 4 \
  --min_support 0.08 --shards 4
# The first record of the DB is its own sigma-0 answer — a query with a
# known non-empty result.
awk '/^t /{n++} n<=1' db.txt > probe.txt
"$BIN/pis_cli" generate --out new.txt --count 2 --seed 7

echo "== machine-readable stats (pis_cli stats --json)"
"$BIN/pis_cli" stats --index sharded_dir --json | tee stats.json
grep -q '"type":"sharded"' stats.json
grep -q '"num_shards":4' stats.json

echo "== manifest v4 keeps the auto-compaction policy across plain removes"
cp -r sharded_dir policy_dir
"$BIN/pis_cli" remove --index policy_dir --ids 58 --compact_dead_ratio 0.3 \
  > /dev/null
"$BIN/pis_cli" remove --index policy_dir --ids 59 > /dev/null
"$BIN/pis_cli" stats --index policy_dir --json | tee policy.json
grep -q '"compact_dead_ratio":0.3' policy.json
rm -rf policy_dir

echo "== pis, topo and naive print the same answers on any index"
# ring.txt: the 6-ring that opens graph 0 (its vertices 0-5 and their
# edges), a query with answers under both distances.
{
  echo "t # 0"
  awk '/^t /{n++} n==1 && /^v / && $2<6' db.txt
  awk '/^t /{n++} n==1 && /^e / && $2<6 && $3<6' db.txt
} > ring.txt
# engines_agree <index>: every engine's answer lines equal --engine pis's,
# and there is at least one.
engines_agree() {
  for engine in pis topo naive; do
    "$BIN/pis_cli" query --db db.txt --index "$1" --query ring.txt --sigma 1 \
      --engine "$engine" 2> /dev/null | tail -n +2 > "answers.$engine"
  done
  test -s answers.pis
  cmp answers.pis answers.topo
  cmp answers.pis answers.naive
}
cp -r sharded_dir agree_dir
engines_agree agree_dir
# 3, 17 and 42 are answers; removing them and compacting moves local ids.
"$BIN/pis_cli" remove --index agree_dir --ids 3,17,42 > /dev/null
"$BIN/pis_cli" compact --index agree_dir > /dev/null
engines_agree agree_dir
if grep -qx '17' answers.pis; then
  echo "a removed graph is still answered"; exit 1
fi
"$BIN/pis_cli" build --db db.txt --out linear_dir --max_fragment_edges 4 \
  --min_support 0.08 --shards 4 --distance linear > /dev/null
engines_agree linear_dir
rm -rf agree_dir linear_dir

# start_server <log> <pis_server flags...>: starts pis_server on an
# ephemeral port in the background and waits for readiness; sets
# SERVER_PID and PORT.
start_server() {
  local log="$1"
  shift
  "$BIN/pis_server" --port 0 "$@" > "$log" 2>&1 &
  SERVER_PID=$!
  for _ in $(seq 1 100); do
    grep -q "listening on port" "$log" && break
    kill -0 "$SERVER_PID" 2>/dev/null || { cat "$log"; exit 1; }
    sleep 0.1
  done
  PORT="$(sed -n 's/.*listening on port \([0-9]*\).*/\1/p' "$log")"
  echo "   port $PORT"
}

echo "== start pis_server (ephemeral port, background compaction on)"
start_server server.log --db db.txt --index sharded_dir \
  --compact_dead_ratio 0.2 --compact_interval_ms 200

echo "== health"
"$BIN/pis_client" health --port "$PORT" | tee health.json
grep -q '"ok":true' health.json

echo "== query (graph 0 must answer itself)"
"$BIN/pis_client" query --port "$PORT" --query probe.txt | tee query.json
grep -q '"ok":true' query.json
grep -q '"answers":\[0[],]' query.json

echo "== traced query returns a span tree"
"$BIN/pis_client" query --port "$PORT" --query probe.txt --trace \
  > traced.json 2> trace.txt
grep -q '"trace"' traced.json
grep -q '"trace_id"' traced.json
grep -q '"name":"filter"' traced.json
grep -q '"name":"verify"' traced.json
grep -q "ms total" trace.txt        # the stderr pretty-print ran
grep -q "filter" trace.txt

echo "== add two graphs, remove one, query still serves"
"$BIN/pis_client" add --port "$PORT" --graphs new.txt | tee add.json
grep -q '"id":60' add.json
grep -q '"id":61' add.json
"$BIN/pis_client" remove --port "$PORT" --ids 60 | tee remove.json
grep -q '"ok":true' remove.json
"$BIN/pis_client" query --port "$PORT" --query probe.txt | grep -q '"ok":true'

echo "== compact (the removed graph's postings) and check stats"
"$BIN/pis_client" compact --port "$PORT" | tee compact.json
grep -q '"compacted":1' compact.json
"$BIN/pis_client" stats --port "$PORT" | tee server_stats.json
grep -q '"live":61' server_stats.json
grep -q '"removed":1' server_stats.json

echo "== a malformed line is answered, and counted as op=\"other\""
if echo 'this is not json' | "$BIN/pis_client" raw --port "$PORT" \
  > malformed.json; then
  echo "expected nonzero exit for a malformed request line"; exit 1
fi
grep -q '"ok":false' malformed.json

echo "== metrics exposition reflects the load just driven"
"$BIN/pis_client" metrics --port "$PORT" | tee metrics.txt
grep -q '^# TYPE pis_server_requests_total counter' metrics.txt
grep -q '^# TYPE pis_server_request_seconds histogram' metrics.txt
grep -q '^# TYPE pis_queries_total counter' metrics.txt
grep -q '^# TYPE pis_query_stage_seconds histogram' metrics.txt
grep -q '^# TYPE pis_snapshot_epoch gauge' metrics.txt
grep -q '^# TYPE pis_checkpoints_total counter' metrics.txt
grep -q '^# TYPE pis_background_compactions_total counter' metrics.txt
grep -q '^# TYPE pis_write_apply_seconds histogram' metrics.txt
# The queries above must have been counted (strictly positive values).
grep -E '^pis_queries_total [1-9]' metrics.txt > /dev/null
grep -E '^pis_server_requests_total\{op="query"\} [1-9]' metrics.txt > /dev/null
grep -E '^pis_server_requests_total\{op="other"\} [1-9]' metrics.txt > /dev/null
grep -E '^pis_query_stage_seconds_count\{stage="pass1"\} [1-9]' metrics.txt \
  > /dev/null
# The add and remove steps each committed a batch.
grep -E '^pis_write_apply_seconds_count [1-9]' metrics.txt > /dev/null
# The stats reply mirrors the registry as JSON.
grep -q '"pis_server_requests_total"' server_stats.json

echo "== protocol errors do not wedge the server"
if "$BIN/pis_client" remove --port "$PORT" --ids 99999 > bad.json; then
  echo "expected nonzero exit for a failed remove"; exit 1
fi
grep -q '"ok":false' bad.json
"$BIN/pis_client" health --port "$PORT" | grep -q '"ok":true'

echo "== shutdown must be clean"
"$BIN/pis_client" shutdown --port "$PORT" | grep -q '"ok":true'
wait "$SERVER_PID"
grep -q "shut down cleanly" server.log
cat server.log

echo "== the default build output (no --shards) is servable"
"$BIN/pis_cli" build --db db.txt --out default_index --max_fragment_edges 4 \
  --min_support 0.08
"$BIN/pis_cli" stats --index default_index --json | grep -q '"num_shards":1'
start_server default.log --db db.txt --index default_index
"$BIN/pis_client" query --port "$PORT" --query probe.txt | tee default.json
grep -q '"answers":\[0[],]' default.json
"$BIN/pis_client" shutdown --port "$PORT" | grep -q '"ok":true'
wait "$SERVER_PID"
grep -q "shut down cleanly" default.log

echo "server smoke: OK"
