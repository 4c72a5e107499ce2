#!/usr/bin/env bash
# Smoke-test the crossbar_serve daemon: one query of every kind over
# stdin/stdout, then (when python3 is available) the same mixed stream
# through the Unix-domain socket.  Any ok:false response, missing
# response, or hung daemon fails the script; with python3, so does any
# response line its json module rejects (NaN and Infinity included).
#
# Usage: scripts/serve_smoke.sh [path-to-crossbar_serve.exe] [output.jsonl]
#
# The output file defaults to a temp path removed on exit, so a smoke
# run never leaves artifacts in the working tree (CI asserts this).
set -euo pipefail

SERVE="${1:-_build/default/bin/crossbar_serve.exe}"
if [ $# -ge 2 ]; then
  OUT="$2"
  CLEAN_OUT=""
else
  OUT="$(mktemp "${TMPDIR:-/tmp}/crossbar-serve-smoke-XXXXXX.jsonl")"
  CLEAN_OUT="$OUT"
fi
DAEMON=""
SOCK=""
cleanup() {
  if [ -n "$DAEMON" ]; then kill "$DAEMON" 2>/dev/null || true; fi
  if [ -n "$SOCK" ]; then rm -f "$SOCK"; fi
  if [ -n "$CLEAN_OUT" ]; then rm -f "$CLEAN_OUT"; fi
}
trap cleanup EXIT

if [ ! -x "$SERVE" ]; then
  echo "FATAL: $SERVE not built (run: dune build bin)" >&2
  exit 1
fi

MODEL='{"inputs":8,"outputs":8,"classes":[{"name":"voice","bandwidth":1,"alpha":0.5,"mu":1.0},{"name":"video","bandwidth":2,"alpha":0.3,"beta":0.1,"mu":0.5}]}'
# A 6000-port switch: its context must cost O(cap), not two (cap+1)^2
# weight grids (0.6 GB between them).
BIG='{"inputs":6000,"outputs":6000,"classes":[{"name":"one","bandwidth":1,"alpha":0.5,"mu":1.0}]}'
# A 1024-port R=2 switch some 600 decades deep: a single scale per
# lattice flushed its log G (the install answered ok:false), and a read
# of the tree left behind killed the daemon.  Both lines must answer.
DEEP='{"inputs":1024,"outputs":1024,"classes":[{"name":"a","bandwidth":1,"alpha":3.0,"mu":1.0},{"name":"b","bandwidth":2,"alpha":2.4,"mu":1.0}]}'

# ---- round 1: line protocol over stdin/stdout ----
printf '%s\n' \
  "{\"id\":1,\"op\":\"solve\",\"tree\":\"smoke\",\"model\":$MODEL}" \
  '{"id":2,"op":"blocking","tree":"smoke"}' \
  '{"id":3,"op":"delta","tree":"smoke","changes":[{"class":0,"alpha":0.6}]}' \
  '{"id":4,"op":"shadow_costs","tree":"smoke","weights":[1.0,0.2]}' \
  '{"id":5,"op":"admit","tree":"smoke","class":1,"weights":[1.0,0.2]}' \
  "{\"id\":6,\"op\":\"solve\",\"tree\":\"big\",\"model\":$BIG}" \
  "{\"id\":7,\"op\":\"solve\",\"tree\":\"deep\",\"model\":$DEEP}" \
  '{"id":8,"op":"blocking","tree":"deep"}' \
  '{"id":9,"op":"stats"}' \
  '{"id":10,"op":"shutdown"}' \
  | timeout 60 "$SERVE" --domains 2 > "$OUT"

lines=$(wc -l < "$OUT")
if [ "$lines" -ne 10 ]; then
  echo "FATAL: expected 10 responses over stdin, got $lines" >&2
  cat "$OUT" >&2
  exit 1
fi
if grep -q '"ok":false' "$OUT"; then
  echo "FATAL: a smoke query failed:" >&2
  grep '"ok":false' "$OUT" >&2
  exit 1
fi
if ! grep -q '^{"id":6,"ok":true,' "$OUT"; then
  echo "FATAL: the 6000-port solve did not answer ok:true" >&2
  exit 1
fi
for id in 7 8; do
  if ! grep -q "^{\"id\":$id,\"ok\":true," "$OUT"; then
    echo "FATAL: the 1024-port solve or its read (id $id) did not answer ok:true" >&2
    exit 1
  fi
done

# Every response line must be strict JSON to an independent parser:
# NaN/Infinity (which RFC 8259 lacks) and any invalid token fail.
check_json_lines() {
  python3 -c '
import json, sys

def reject(token):
    raise ValueError("non-RFC 8259 constant " + token)

for number, line in enumerate(open(sys.argv[1]), 1):
    try:
        json.loads(line, parse_constant=reject)
    except ValueError as err:
        sys.exit("FATAL: response line %d is not valid JSON (%s): %s"
                 % (number, err, line.rstrip()))
' "$1"
}

if ! command -v python3 >/dev/null 2>&1; then
  echo "stdin round: 10/10 ok"
  echo "python3 not found; skipping the JSON check and the socket round"
  exit 0
fi
check_json_lines "$OUT"
echo "stdin round: 10/10 ok, valid JSON"

# ---- round 2: same stream through the Unix-domain socket ----

SOCK="$(mktemp -u "${TMPDIR:-/tmp}/crossbar-serve-XXXXXX.sock")"
timeout 60 "$SERVE" --socket "$SOCK" --domains 2 >/dev/null 2>&1 < /dev/null &
DAEMON=$!

for _ in $(seq 1 50); do
  [ -S "$SOCK" ] && break
  sleep 0.1
done
if [ ! -S "$SOCK" ]; then
  echo "FATAL: daemon never bound $SOCK" >&2
  exit 1
fi

python3 - "$SOCK" <<'PYEOF'
import json, socket, sys

model = {
    "inputs": 8, "outputs": 8,
    "classes": [
        {"name": "voice", "bandwidth": 1, "alpha": 0.5, "mu": 1.0},
        {"name": "video", "bandwidth": 2, "alpha": 0.3, "beta": 0.1, "mu": 0.5},
    ],
}
requests = [
    {"id": 1, "op": "solve", "tree": "smoke", "model": model},
    {"id": 2, "op": "blocking", "tree": "smoke"},
    {"id": 3, "op": "delta", "tree": "smoke",
     "changes": [{"class": 0, "alpha": 0.6}]},
    {"id": 4, "op": "shadow_costs", "tree": "smoke", "weights": [1.0, 0.2]},
    {"id": 5, "op": "admit", "tree": "smoke", "class": 1,
     "weights": [1.0, 0.2]},
    {"id": 6, "op": "stats"},
    {"id": 7, "op": "shutdown"},
]

sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
sock.settimeout(30)
sock.connect(sys.argv[1])
sock.sendall("".join(json.dumps(r) + "\n" for r in requests).encode())

data = b""
while data.count(b"\n") < len(requests):
    chunk = sock.recv(65536)
    if not chunk:
        break
    data += chunk

def reject(token):
    raise ValueError("non-RFC 8259 constant " + token)

lines = [line for line in data.decode().split("\n") if line.strip()]
if len(lines) != len(requests):
    sys.exit(f"FATAL: expected {len(requests)} socket responses, got {len(lines)}")
for line in lines:
    try:
        response = json.loads(line, parse_constant=reject)
    except ValueError as err:
        sys.exit(f"FATAL: socket response is not valid JSON ({err}): {line}")
    if not response.get("ok"):
        sys.exit(f"FATAL: socket query failed: {response}")
print(f"socket round: {len(lines)}/{len(requests)} ok, valid JSON")
PYEOF

status=0
wait "$DAEMON" || status=$?
DAEMON=""
if [ "$status" -ne 0 ]; then
  echo "FATAL: daemon exited with status $status after shutdown" >&2
  exit 1
fi
if [ -e "$SOCK" ]; then
  echo "FATAL: daemon left its socket file behind" >&2
  exit 1
fi
echo "serve smoke: all rounds ok"
