#!/usr/bin/env bash
# st-serve smoke: boot the release server on an ephemeral port, drive a
# tiny E1 campaign through the HTTP API, and prove the cache contract:
# miss -> computed; identical resubmit -> hit with a byte-identical
# body and no recompute; clean shutdown over the API. Then boot a
# 2-node cluster and prove the fabric contract: both nodes serve
# byte-identical bodies and /cluster reports the converged ring.
#
# Usage: scripts/serve_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -p st-serve -q
bin=target/release/st_serve
work=$(mktemp -d)
trap 'rm -rf "$work"
      [[ -n "${server_pid:-}" ]] && kill "$server_pid" 2>/dev/null || true
      [[ -n "${a_pid:-}" ]] && kill "$a_pid" 2>/dev/null || true
      [[ -n "${b_pid:-}" ]] && kill "$b_pid" 2>/dev/null || true' EXIT

"$bin" serve 127.0.0.1:0 >"$work/server.out" 2>"$work/server.err" &
server_pid=$!

# The server prints "listening on <addr>" once bound.
addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's/^listening on //p' "$work/server.out")
    [[ -n "$addr" ]] && break
    sleep 0.1
done
[[ -n "$addr" ]] || { echo "server never bound"; cat "$work/server.err"; exit 1; }
echo "server at $addr"

req='{"type":"sim","scenario":"e1","backend":"compiled","seeds":[1,2,3],"cycles":40,"trace_cycles":40,"budget_fs":2000000000000}'

reply=$("$bin" submit "$addr" "$req")
echo "first submit: $reply"
grep -q '"status":"queued"' <<<"$reply" || { echo "expected a cache miss to queue"; exit 1; }
id=$(sed -n 's/.*"id":\([0-9]*\).*/\1/p' <<<"$reply")

for _ in $(seq 1 200); do
    status=$("$bin" status "$addr" "$id")
    grep -q '"status":"done"' <<<"$status" && break
    sleep 0.05
done
grep -q '"status":"done"' <<<"$status" || { echo "job never finished: $status"; exit 1; }

"$bin" result "$addr" "$id" "$work/first.bin"

reply=$("$bin" submit "$addr" "$req")
echo "second submit: $reply"
grep -q '"status":"cached"' <<<"$reply" || { echo "expected a cache hit"; exit 1; }
id2=$(sed -n 's/.*"id":\([0-9]*\).*/\1/p' <<<"$reply")
"$bin" result "$addr" "$id2" "$work/second.bin"

cmp "$work/first.bin" "$work/second.bin" || { echo "cache hit served different bytes"; exit 1; }
echo "hit body is byte-identical ($(wc -c <"$work/first.bin") bytes)"

metrics=$("$bin" metrics "$addr")
grep -q '^st_serve_jobs_done_total 1$' <<<"$metrics" || {
    echo "expected exactly one computed job (no recompute on hit):"; echo "$metrics"; exit 1; }
grep -q '^st_serve_served_cached_total 1$' <<<"$metrics" || {
    echo "expected one cached submission:"; echo "$metrics"; exit 1; }

# Malformed submissions must not kill the server.
"$bin" submit "$addr" '{"bad json' >/dev/null 2>&1 || true
"$bin" metrics "$addr" >/dev/null

# A client holding an idle kept-alive connection must not stall the
# shutdown: open one, send a request without `Connection: close`, read
# the reply's status line and keep the descriptor open.
exec 4<>"/dev/tcp/${addr%:*}/${addr#*:}"
printf 'GET /healthz HTTP/1.1\r\nHost: %s\r\nContent-Length: 0\r\n\r\n' "$addr" >&4
IFS= read -r -t 5 held_status <&4 || { echo "no reply on the kept-alive connection"; exit 1; }
grep -q '^HTTP/1.1 200' <<<"$held_status" || { echo "kept-alive healthz: $held_status"; exit 1; }

# Clean shutdown over the API; the server closes the held connection
# and the foreground process must exit.
printf 'POST /shutdown HTTP/1.1\r\nHost: %s\r\nContent-Length: 0\r\nConnection: close\r\n\r\n' "$addr" \
    | timeout 10 bash -c "exec 3<>/dev/tcp/${addr%:*}/${addr#*:}; cat >&3; head -c 200 <&3" >/dev/null
timeout 3 cat <&4 >/dev/null || { echo "server kept the idle connection open after /shutdown"; exit 1; }
exec 4<&-
for _ in $(seq 1 100); do
    kill -0 "$server_pid" 2>/dev/null || break
    sleep 0.1
done
if kill -0 "$server_pid" 2>/dev/null; then
    echo "server did not exit after /shutdown"; exit 1
fi
server_pid=""
echo "serve smoke OK"

# ---------------------------------------------------------------------------
# Cluster smoke: two nodes, node B seeded onto node A via --peers.
# ---------------------------------------------------------------------------

wait_addr() { # file -> prints the bound addr once the node logs it
    local file=$1 got=""
    for _ in $(seq 1 100); do
        got=$(sed -n 's/^listening on //p' "$file")
        [[ -n "$got" ]] && break
        sleep 0.1
    done
    [[ -n "$got" ]] || { echo "cluster node never bound" >&2; exit 1; }
    echo "$got"
}

"$bin" serve 127.0.0.1:0 --node-id smoke-a >"$work/a.out" 2>"$work/a.err" &
a_pid=$!
a_addr=$(wait_addr "$work/a.out")
"$bin" serve 127.0.0.1:0 --node-id smoke-b --peers "$a_addr" >"$work/b.out" 2>"$work/b.err" &
b_pid=$!
b_addr=$(wait_addr "$work/b.out")
echo "cluster at $a_addr (smoke-a), $b_addr (smoke-b)"

# Gossip runs on its background cadence (500 ms); wait for both rings
# to agree on two members.
converged=""
for _ in $(seq 1 100); do
    if "$bin" cluster "$a_addr" | grep -q '"smoke-b"' &&
       "$bin" cluster "$b_addr" | grep -q '"smoke-a"'; then
        converged=yes
        break
    fi
    sleep 0.1
done
[[ -n "$converged" ]] || {
    echo "cluster never converged"
    "$bin" cluster "$a_addr" || true
    "$bin" cluster "$b_addr" || true
    exit 1
}

creq='{"type":"sim","scenario":"e1","backend":"compiled","seeds":[7,8,9],"cycles":40,"trace_cycles":40,"budget_fs":2000000000000}'
fetch_done() { # addr out_file -> submit, wait, download the body
    local addr=$1 out=$2 reply cid cstatus
    reply=$("$bin" submit "$addr" "$creq")
    cid=$(sed -n 's/.*"id":\([0-9]*\).*/\1/p' <<<"$reply")
    for _ in $(seq 1 200); do
        cstatus=$("$bin" status "$addr" "$cid")
        grep -q '"status":"done"' <<<"$cstatus" && break
        sleep 0.05
    done
    grep -q '"status":"done"' <<<"$cstatus" || {
        echo "cluster job never finished on $addr: $cstatus" >&2; exit 1; }
    "$bin" result "$addr" "$cid" "$out" >/dev/null
}

fetch_done "$a_addr" "$work/a.bin"
fetch_done "$b_addr" "$work/b.bin"
cmp "$work/a.bin" "$work/b.bin" || { echo "cluster nodes served different bytes"; exit 1; }
echo "both nodes serve byte-identical bodies ($(wc -c <"$work/a.bin") bytes)"

kill "$a_pid" "$b_pid" 2>/dev/null || true
wait "$a_pid" "$b_pid" 2>/dev/null || true
a_pid="" b_pid=""
echo "cluster smoke OK"
