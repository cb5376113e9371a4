#!/usr/bin/env bash
# End-to-end smoke of the distributed shard fabric: 3 shard groups x 2
# replicas of pis_server (each with its own WAL) behind a pis_router,
# checked differentially against a single full-index pis_server oracle
# that receives the same write schedule. One replica is kill -9'd
# mid-stream: the cluster must stay available, accept writes (one-ack
# commit + catch-up queue), and after the replica restarts — WAL replay
# plus router catch-up — serve identical answers even when its sibling
# dies and it becomes the only source for its shard. CI runs this against
# the freshly built binaries; locally:
#
#   scripts/cluster_smoke.sh ./build
set -euo pipefail

BIN="$(cd "${1:-./build}" && pwd)"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"

SHARDS=3
REPLICAS=2

wait_listening() {  # <log> <pid>
  for _ in $(seq 1 100); do
    grep -q "listening on port" "$1" && return 0
    kill -0 "$2" 2>/dev/null || break
    sleep 0.1
  done
  cat "$1"
  return 1
}

port_from() { sed -n 's/.*listening on port \([0-9]*\).*/\1/p' "$1"; }

answers() { grep -o '"answers":\[[^]]*\]' "$1"; }

# The cluster and the oracle received the same writes in the same order,
# so every query must produce byte-identical answer lists and candidate
# counts through both front doors.
check_match() {  # <query file>
  "$BIN/pis_client" query --port "$ROUTER_PORT" --query "$1" > r.json
  "$BIN/pis_client" query --port "$ORACLE_PORT" --query "$1" > o.json
  grep -q '"ok":true' r.json
  grep -q '"ok":true' o.json
  local ra oa rc oc
  ra="$(answers r.json)"; oa="$(answers o.json)"
  rc="$(grep -o '"candidates":[0-9]*' r.json)"
  oc="$(grep -o '"candidates":[0-9]*' o.json)"
  if [ "$ra" != "$oa" ] || [ "$rc" != "$oc" ]; then
    echo "cluster and oracle disagree on $1:"
    echo "  router: $ra $rc"
    echo "  oracle: $oa $oc"
    exit 1
  fi
}

echo "== prepare sample DB + ${SHARDS}-shard index"
"$BIN/pis_cli" generate --out db.txt --count 60 --seed 42
"$BIN/pis_cli" build --db db.txt --out sharded_dir --max_fragment_edges 4 \
  --min_support 0.08 --shards "$SHARDS"
# The first two records of the DB are their own sigma-0 answers — queries
# with known non-empty results.
awk '/^t /{n++} n<=1' db.txt > probe0.txt
awk '/^t /{n++} n==2' db.txt > probe1.txt
"$BIN/pis_cli" generate --out fresh.txt --count 1 --seed 1234
"$BIN/pis_cli" generate --out new.txt --count 2 --seed 7
"$BIN/pis_cli" generate --out late.txt --count 1 --seed 9

echo "== start ${SHARDS}x${REPLICAS} shard replicas (own db/index/WAL each)"
declare -a PIDS PORTS
for g in $(seq 0 $((SHARDS - 1))); do
  for r in $(seq 0 $((REPLICAS - 1))); do
    idx=$((g * REPLICAS + r))
    node="node_${g}_${r}"
    mkdir -p "$node"
    cp db.txt "$node/db.txt"
    cp -r sharded_dir "$node/index"
    "$BIN/pis_server" --db "$node/db.txt" --index "$node/index" \
      --wal_dir "$node/wal" --port 0 --shards_owned "$g" \
      > "$node/server.log" 2>&1 &
    PIDS[$idx]=$!
    wait_listening "$node/server.log" "${PIDS[$idx]}"
    PORTS[$idx]="$(port_from "$node/server.log")"
    echo "   shard $g replica $r: port ${PORTS[$idx]}"
  done
done

echo "== start the single-process oracle (full index, same writes)"
"$BIN/pis_server" --db db.txt --index sharded_dir --port 0 \
  > oracle.log 2>&1 &
ORACLE_PID=$!
wait_listening oracle.log "$ORACLE_PID"
ORACLE_PORT="$(port_from oracle.log)"
echo "   oracle: port $ORACLE_PORT"

echo "== start pis_router over the manifest"
{
  printf '{"shards": ['
  for g in $(seq 0 $((SHARDS - 1))); do
    [ "$g" -gt 0 ] && printf ', '
    printf '{"replicas": ['
    for r in $(seq 0 $((REPLICAS - 1))); do
      [ "$r" -gt 0 ] && printf ', '
      printf '"127.0.0.1:%s"' "${PORTS[$((g * REPLICAS + r))]}"
    done
    printf ']}'
  done
  printf ']}\n'
} > manifest.json
cat manifest.json
"$BIN/pis_router" --manifest manifest.json --port 0 --timeout_ms 5000 \
  --breaker_threshold 1 --breaker_open_ms 100 --health_interval_ms 50 \
  > router.log 2>&1 &
ROUTER_PID=$!
wait_listening router.log "$ROUTER_PID"
ROUTER_PORT="$(port_from router.log)"
echo "   router: port $ROUTER_PORT"

echo "== health through the router"
"$BIN/pis_client" health --port "$ROUTER_PORT" | tee health.json
grep -q '"ok":true' health.json
grep -q '"live":60' health.json

echo "== differential queries (cluster vs oracle)"
check_match probe0.txt
check_match probe1.txt
check_match fresh.txt
"$BIN/pis_client" query --port "$ROUTER_PORT" --query probe0.txt \
  | grep -q '"answers":\[0[],]'

echo "== writes through the router, mirrored to the oracle"
"$BIN/pis_client" add --port "$ROUTER_PORT" --graphs new.txt | tee add.json
grep -q '"id":60' add.json
grep -q '"id":61' add.json
"$BIN/pis_client" add --port "$ORACLE_PORT" --graphs new.txt | tee oadd.json
grep -q '"id":60' oadd.json
grep -q '"id":61' oadd.json
"$BIN/pis_client" remove --port "$ROUTER_PORT" --ids 60 \
  | grep -q '"ok":true'
"$BIN/pis_client" remove --port "$ORACLE_PORT" --ids 60 \
  | grep -q '"ok":true'
check_match probe0.txt
check_match probe1.txt
"$BIN/pis_client" health --port "$ROUTER_PORT" | grep -q '"live":61'

echo "== traced query through the router carries per-shard child spans"
"$BIN/pis_client" query --port "$ROUTER_PORT" --query probe0.txt --trace \
  > traced.json 2> trace.txt
grep -q '"ok":true' traced.json
grep -q '"trace_id"' traced.json
# The router-level "query" root span must contain the two-round fan-out:
# shard_filter round trips (with the replicas' own child spans grafted in),
# the router's plan, and per-shard shard_refine round trips.
grep -q '"name":"query"' traced.json
grep -q '"name":"shard_filter:' traced.json
grep -q '"name":"plan"' traced.json
grep -q '"name":"shard_refine:' traced.json
grep -q '"name":"enumerate"' traced.json
grep -q '"name":"refine"' traced.json
grep -q "ms total" trace.txt
grep -q "shard_filter" trace.txt

echo "== a malformed line is answered, and counted as op=\"other\""
if echo 'this is not json' | "$BIN/pis_client" raw --port "$ROUTER_PORT" \
  > malformed.json; then
  echo "expected nonzero exit for a malformed request line"; exit 1
fi
grep -q '"ok":false' malformed.json

echo "== router metrics exposition reflects the load just driven"
"$BIN/pis_client" metrics --port "$ROUTER_PORT" | tee router_metrics.txt
grep -q '^# TYPE pis_router_requests_total counter' router_metrics.txt
grep -q '^# TYPE pis_router_request_seconds histogram' router_metrics.txt
grep -q '^# TYPE pis_cluster_rpc_seconds histogram' router_metrics.txt
grep -q '^# TYPE pis_cluster_breaker_open gauge' router_metrics.txt
# The queries and writes above must have been counted.
grep -E '^pis_router_requests_total\{op="query"\} [1-9]' router_metrics.txt \
  > /dev/null
grep -E '^pis_router_requests_total\{op="other"\} [1-9]' router_metrics.txt \
  > /dev/null
grep -E '^pis_router_requests_total\{op="add"\} [1-9]' router_metrics.txt \
  > /dev/null
grep -E '^pis_cluster_rpc_seconds_count\{.*op="shard_filter".*\} [1-9]' \
  router_metrics.txt > /dev/null
grep -E '^pis_cluster_rpc_seconds_count\{.*op="shard_refine".*\} [1-9]' \
  router_metrics.txt > /dev/null
# The stats reply mirrors the registry as JSON.
"$BIN/pis_client" stats --port "$ROUTER_PORT" \
  | grep -q '"pis_router_requests_total"'

echo "== a replica answers the retired shard_query op with an error"
exec 3<>"/dev/tcp/127.0.0.1/${PORTS[2]}"
printf '%s\n' '{"op":"shard_query","graph":"t # 0\nv 0 1","shards":[1]}' >&3
read -r -t 10 retired <&3
exec 3<&-
echo "$retired"
grep -q '"ok":false' <<< "$retired"
grep -q 'unknown op' <<< "$retired"

echo "== a failed write reports an application error, exit code intact"
if "$BIN/pis_client" remove --port "$ROUTER_PORT" --ids 99999 > bad.json; then
  echo "expected nonzero exit for a failed remove"; exit 1
fi
grep -q '"ok":false' bad.json

echo "== kill -9 one replica of shard 0; the cluster must not notice"
kill -9 "${PIDS[0]}"
wait "${PIDS[0]}" 2>/dev/null || true
check_match probe0.txt
check_match probe1.txt

echo "== writes during the outage commit on one ack and queue catch-up"
"$BIN/pis_client" add --port "$ROUTER_PORT" --graphs late.txt | tee late.json
grep -q '"id":62' late.json
"$BIN/pis_client" add --port "$ORACLE_PORT" --graphs late.txt \
  | grep -q '"id":62'
check_match probe0.txt
"$BIN/pis_client" health --port "$ROUTER_PORT" | grep -q '"live":62'

echo "== restart the dead replica on its old port: WAL replay + catch-up"
"$BIN/pis_server" --db node_0_0/db.txt --index node_0_0/index \
  --wal_dir node_0_0/wal --port "${PORTS[0]}" --shards_owned 0 \
  > node_0_0/server2.log 2>&1 &
PIDS[0]=$!
wait_listening node_0_0/server2.log "${PIDS[0]}"
grep -q "replayed .* WAL record" node_0_0/server2.log

# The router's health prober has to notice the recovery, close the
# breaker, and drain the queued catch-up ops before the replica counts as
# readable again.
for _ in $(seq 1 100); do
  "$BIN/pis_client" stats --port "$ROUTER_PORT" > rstats.json
  if ! grep -q '"breaker_open":true' rstats.json &&
     ! grep -q '"pending_ops":[1-9]' rstats.json; then
    break
  fi
  sleep 0.1
done
grep -q '"breaker_open":true' rstats.json && { cat rstats.json; exit 1; }
grep -q '"pending_ops":[1-9]' rstats.json && { cat rstats.json; exit 1; }

echo "== kill the sibling: the recovered replica is now shard 0's only source"
kill -9 "${PIDS[1]}"
wait "${PIDS[1]}" 2>/dev/null || true
check_match probe0.txt
check_match probe1.txt
check_match fresh.txt
"$BIN/pis_client" health --port "$ROUTER_PORT" | grep -q '"live":62'

echo "== shutdown must be clean everywhere"
"$BIN/pis_client" shutdown --port "$ROUTER_PORT" | grep -q '"ok":true'
wait "$ROUTER_PID"
grep -q "shut down cleanly" router.log
for idx in 0 2 3 4 5; do
  "$BIN/pis_client" shutdown --port "${PORTS[$idx]}" | grep -q '"ok":true'
  wait "${PIDS[$idx]}"
done
"$BIN/pis_client" shutdown --port "$ORACLE_PORT" | grep -q '"ok":true'
wait "$ORACLE_PID"
grep -q "shut down cleanly" node_0_0/server2.log
cat router.log

echo "cluster smoke: OK"
