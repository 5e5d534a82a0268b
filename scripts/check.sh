#!/usr/bin/env bash
# Offline tier-1 gate: everything CI requires, in the order that fails
# fastest after a code change. All commands run with --offline semantics
# (every dependency is vendored in-tree), so this works with no network.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --offline

echo "==> cargo test -q"
cargo test -q --offline

echo "==> cargo test --doc"
cargo test --doc --offline

echo "==> cargo doc (warnings are errors: dangling or ambiguous doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> cargo bench --no-run"
cargo bench --no-run --offline

echo "==> bench-compare smoke (regression gate against committed baseline)"
BASELINE="$(ls BENCH_*.json 2>/dev/null | sort | tail -1 || true)"
if [ -n "$BASELINE" ]; then
    # Tiny scale-10 run with the baseline's workload shape, then gate with
    # wide tolerances: this smokes the report schema + comparison plumbing,
    # not this host's absolute performance (hence --allow-mismatch: the
    # committed baseline was recorded at full scale on another machine).
    SMOKE_GRAPH="$(mktemp /tmp/check_smoke_XXXXXX.fbfs)"
    SMOKE_OUT="$(mktemp /tmp/check_smoke_XXXXXX.json)"
    SMOKE_TUNED="$(mktemp /tmp/check_smoke_XXXXXX.json)"
    trap 'rm -f "$SMOKE_GRAPH" "$SMOKE_OUT" "$SMOKE_TUNED"' EXIT
    target/release/fastbfs gen --family rmat --scale 10 --edge-factor 8 --seed 42 -o "$SMOKE_GRAPH"
    target/release/fastbfs run -i "$SMOKE_GRAPH" --sources 4 --seed 7 --direction auto --json "$SMOKE_OUT"
    target/release/fastbfs bench-compare "$SMOKE_OUT" "$SMOKE_OUT" --quiet
    target/release/fastbfs bench-compare "$BASELINE" "$SMOKE_OUT" --allow-mismatch \
        --max-mteps-drop 0.99 --max-latency-rise 100 --max-direction-drift 1.0 \
        --max-qps-drop 0.99
    # Memory-layout levers: --validate runs the serial oracle on the
    # PRE-relabel graph, so a pass proves the id-translation layer end to
    # end; the gate then confirms the both-flags report still satisfies
    # the comparison plumbing against the committed baseline.
    target/release/fastbfs run -i "$SMOKE_GRAPH" --sources 4 --seed 7 --direction auto \
        --relabel --hugepages --validate --json "$SMOKE_TUNED"
    grep -q '"relabel": true' "$SMOKE_TUNED" || {
        echo "error: tuned report lacks relabel provenance" >&2; exit 1; }
    grep -q '"hugepages": "' "$SMOKE_TUNED" || {
        echo "error: tuned report lacks hugepages provenance" >&2; exit 1; }
    target/release/fastbfs bench-compare "$BASELINE" "$SMOKE_TUNED" --allow-mismatch \
        --max-mteps-drop 0.99 --max-latency-rise 100 --max-direction-drift 1.0 \
        --max-qps-drop 0.99
    # Every level bottom-up on 3 lanes of a relabeled graph: each level
    # reads the frontier bitmap half its predecessor wrote, and 3 lanes
    # split bitmap words and epilogue chunks unevenly; --validate checks
    # every answer against the serial oracle.
    target/release/fastbfs run -i "$SMOKE_GRAPH" --sources 8 --seed 7 --direction bottom-up \
        --threads 3 --relabel --hugepages --validate
    # The scale-10 graph reaches 807 of 1024 ids, so relabeling leaves a
    # degree-0 id suffix that the bottom-up scan plan skips; under static
    # scheduling on 2 sockets each socket's stripe is clipped to the live
    # prefix before its lanes split it.
    target/release/fastbfs run -i "$SMOKE_GRAPH" --sources 8 --seed 7 --direction bottom-up \
        --sockets 2 --threads 4 --scheduling static --relabel --validate
else
    echo "    (no BENCH_*.json baseline committed; skipping)"
fi

echo "==> serve smoke (live Prometheus exporter)"
SERVE_GRAPH="$(mktemp /tmp/check_serve_XXXXXX.fbfs)"
ADDR_FILE="$(mktemp /tmp/check_serve_XXXXXX.addr)"
SERVE_PID=""
# Replaces (and extends) any trap the bench-compare smoke installed.
trap 'rm -f "${SMOKE_GRAPH:-}" "${SMOKE_OUT:-}" "${SMOKE_TUNED:-}" "$SERVE_GRAPH" "$ADDR_FILE"; [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true' EXIT
target/release/fastbfs gen --family rmat --scale 10 --edge-factor 8 --seed 42 -o "$SERVE_GRAPH"
: > "$ADDR_FILE"
# Ephemeral port; the exporter writes the bound address to --addr-file.
target/release/fastbfs serve -i "$SERVE_GRAPH" --metrics-addr 127.0.0.1:0 \
    --addr-file "$ADDR_FILE" --sources 8 --seed 7 --queries 150 --threads 2 &
SERVE_PID=$!
for _ in $(seq 1 100); do [ -s "$ADDR_FILE" ] && break; sleep 0.1; done
[ -s "$ADDR_FILE" ] || { echo "error: serve never wrote its address" >&2; exit 1; }
ADDR="$(cat "$ADDR_FILE")"
curl -fsS "http://$ADDR/healthz" | grep -qx ok
# The session must stay up across >= 100 queries...
Q=0
for _ in $(seq 1 300); do
    Q="$(curl -fsS "http://$ADDR/metrics" | awk '$1 == "fastbfs_queries_total" {print $2}')"
    [ "${Q:-0}" -ge 100 ] && break
    sleep 0.1
done
[ "${Q:-0}" -ge 100 ] || { echo "error: only $Q queries served" >&2; exit 1; }
# ...with monotonically non-decreasing counters across scrapes...
Q2="$(curl -fsS "http://$ADDR/metrics" | awk '$1 == "fastbfs_queries_total" {print $2}')"
[ "$Q2" -ge "$Q" ] || { echo "error: counter went backwards: $Q -> $Q2" >&2; exit 1; }
# ...valid Prometheus 0.0.4 text exposition...
curl -fsS "http://$ADDR/metrics" | python3 -c '
import re, sys
lines = [l for l in sys.stdin.read().splitlines() if l]
metric = re.compile(r"^[A-Za-z_:][A-Za-z0-9_:]*(\{[^}]*\})? -?[0-9.eE+-]+$")
bad = [l for l in lines if not (l.startswith("# HELP ") or l.startswith("# TYPE ") or metric.match(l))]
assert not bad, f"malformed exposition lines: {bad[:3]}"
assert any(l.startswith("fastbfs_queries_total ") for l in lines)
'
# ...and a JSON snapshot carrying structured hw-counter provenance.
curl -fsS "http://$ADDR/snapshot" | python3 -c '
import json, sys
d = json.load(sys.stdin)
assert d["queries"] >= 100, d["queries"]
assert "hw" in d and "metrics" in d, sorted(d)
assert isinstance(d["hw_available"], bool), d
if not d["hw_available"]:
    assert d["hw_kind"] and d["hw_reason"], d
'

echo "==> loadgen smoke (open-loop load against the live server)"
LOAD_OUT="$(mktemp /tmp/check_load_XXXXXX.json)"
LOAD_BAD="$(mktemp /tmp/check_load_XXXXXX.json)"
trap 'rm -f "${SMOKE_GRAPH:-}" "${SMOKE_OUT:-}" "${SMOKE_TUNED:-}" "$SERVE_GRAPH" "$ADDR_FILE" "$LOAD_OUT" "$LOAD_BAD"; [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true' EXIT
target/release/fastbfs loadgen "http://$ADDR" --rate 120 --duration 2 \
    --connections 4 --seed 7 --out "$LOAD_OUT"
python3 - "$LOAD_OUT" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
assert d["schema"] == "fastbfs-load-v1", d["schema"]
assert d["completed"] > 0 and d["errors"] == 0, (d["completed"], d["errors"])
assert d["achieved_qps"] > 0, d["achieved_qps"]
lat = d["latency"]
assert lat is not None, "no latency summary"
assert 0 < lat["p50_ms"] <= lat["p99_ms"] <= lat["p999_ms"], lat
EOF
# A breached p99 budget must exit nonzero.
if target/release/fastbfs loadgen "http://$ADDR" --rate 50 --duration 1 \
    --seed 7 --max-p99-ms 0.000001 >/dev/null 2>&1; then
    echo "error: --max-p99-ms breach did not fail loadgen" >&2; exit 1
fi
# The load-report gate: identical reports pass, an injected tail
# regression trips it.
python3 - "$LOAD_OUT" "$LOAD_BAD" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
d["latency"]["p99_ms"] *= 10.0
d["latency"]["p999_ms"] *= 10.0
json.dump(d, open(sys.argv[2], "w"))
EOF
target/release/fastbfs bench-compare "$LOAD_OUT" "$LOAD_OUT" --quiet
if target/release/fastbfs bench-compare "$LOAD_OUT" "$LOAD_BAD" --quiet; then
    echo "error: inflated tail latency did not fail bench-compare" >&2; exit 1
fi

curl -fsS "http://$ADDR/quitquitquit" >/dev/null
wait "$SERVE_PID"
SERVE_PID=""

echo "==> multi-session overload smoke (session pool, coalescing, deadlines)"
POOL_ADDR_FILE="$(mktemp /tmp/check_pool_XXXXXX.addr)"
POOL_OVER="$(mktemp /tmp/check_pool_XXXXXX.json)"
POOL_A="$(mktemp /tmp/check_pool_XXXXXX.json)"
POOL_B="$(mktemp /tmp/check_pool_XXXXXX.json)"
POOL_PID=""
trap '[ -n "${BATCH_STOP:-}" ] && touch "$BATCH_STOP" 2>/dev/null; rm -f "${SMOKE_GRAPH:-}" "${SMOKE_OUT:-}" "${SMOKE_TUNED:-}" "$SERVE_GRAPH" "$ADDR_FILE" "$LOAD_OUT" "$LOAD_BAD" "$POOL_ADDR_FILE" "$POOL_OVER" "$POOL_A" "$POOL_B"; [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true; [ -n "$POOL_PID" ] && kill "$POOL_PID" 2>/dev/null || true' EXIT
: > "$POOL_ADDR_FILE"
target/release/fastbfs serve -i "$SERVE_GRAPH" --metrics-addr 127.0.0.1:0 \
    --addr-file "$POOL_ADDR_FILE" --sessions 2 --deadline-ms 50 \
    --sources 8 --seed 7 --queries 40 --threads 2 &
POOL_PID=$!
for _ in $(seq 1 100); do [ -s "$POOL_ADDR_FILE" ] && break; sleep 0.1; done
[ -s "$POOL_ADDR_FILE" ] || { echo "error: pooled serve never wrote its address" >&2; exit 1; }
PADDR="$(cat "$POOL_ADDR_FILE")"
# The pool is visible: a sessions gauge plus one labeled series per session.
curl -fsS "http://$PADDR/metrics" | awk '$1 == "fastbfs_sessions" {print $2}' | grep -qx 2
curl -fsS "http://$PADDR/metrics" | grep -q '^fastbfs_session_requests_total{session="0"}'
curl -fsS "http://$PADDR/metrics" | grep -q '^fastbfs_session_requests_total{session="1"}'
# An already-expired budget is answered 504 without executing: the spans
# prove the request never touched a session.
DROP_BODY="$(curl -sS -H 'Deadline-Ms: 0' -w '\n%{http_code}' "http://$PADDR/query?src=1")"
echo "$DROP_BODY" | tail -1 | grep -qx 504
echo "$DROP_BODY" | grep -q '"execute_ns":0'
# Deadline drops under real overload: feeder loops keep max-size batch
# POSTs parked on both sessions for the *entire* loadgen window (a fixed
# up-front volley is timing-flaky — a fast host drains it early and
# drops nothing), so queued singles reliably out-wait the 50 ms default
# deadline.
SOURCES="$(python3 -c 'print("[" + ",".join(str(i % 1024) for i in range(1024)) + "]")')"
BATCH_STOP="$(mktemp /tmp/check_pool_XXXXXX.stop)"
rm -f "$BATCH_STOP"
BATCH_FEEDERS=""
for _ in 1 2 3 4; do
    ( while [ ! -e "$BATCH_STOP" ]; do
          curl -sS -X POST -d "{\"sources\":$SOURCES}" "http://$PADDR/query" >/dev/null 2>&1 || true
      done ) &
    BATCH_FEEDERS="$BATCH_FEEDERS $!"
done
sleep 0.3
target/release/fastbfs loadgen "http://$PADDR" --rate 500 --duration 1 \
    --connections 8 --seed 7 --out "$POOL_OVER"
touch "$BATCH_STOP"
wait $BATCH_FEEDERS 2>/dev/null || true
rm -f "$BATCH_STOP"
python3 - "$POOL_OVER" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
# Overload must shed via the deadline path: some 504s, and *only* 504s —
# any other 5xx under load is a server bug, not load shedding.
assert d["errors"] > 0, "overload produced no deadline drops"
assert d["dropped_504"] == d["errors"], (d["dropped_504"], d["errors"])
assert d["server_sessions"] == 2, d["server_sessions"]
EOF
DROPPED="$(curl -fsS "http://$PADDR/metrics" | awk '$1 == "fastbfs_serve_deadline_dropped_total" {print $2}')"
[ "${DROPPED:-0}" -gt 0 ] || { echo "error: deadline drops not counted in /metrics" >&2; exit 1; }
# Per-session request counters are monotonic across scrapes.
S0="$(curl -fsS "http://$PADDR/metrics" | grep '^fastbfs_session_requests_total{session="0"}' | awk '{print $2}')"
S1="$(curl -fsS "http://$PADDR/metrics" | grep '^fastbfs_session_requests_total{session="1"}' | awk '{print $2}')"
S0B="$(curl -fsS "http://$PADDR/metrics" | grep '^fastbfs_session_requests_total{session="0"}' | awk '{print $2}')"
S1B="$(curl -fsS "http://$PADDR/metrics" | grep '^fastbfs_session_requests_total{session="1"}' | awk '{print $2}')"
[ "$S0B" -ge "$S0" ] && [ "$S1B" -ge "$S1" ] || {
    echo "error: per-session counter went backwards: $S0->$S0B / $S1->$S1B" >&2; exit 1; }
# A matched, non-overloaded pair gates cleanly on achieved QPS (the
# warmup window keeps cold-start noise out of the measured figures and
# the sleep lets the host settle after the overload burst). Tail latency
# is deliberately not gated here: on a 1-core CI box a single ~100 ms
# scheduling hiccup blows any sane multiplier on a few-ms p99 baseline,
# and the injected-regression check above already proves the latency
# gate trips when it should.
sleep 1
target/release/fastbfs loadgen "http://$PADDR" --rate 100 --duration 2 --warmup 1 \
    --connections 4 --seed 7 --out "$POOL_A"
target/release/fastbfs loadgen "http://$PADDR" --rate 100 --duration 2 --warmup 1 \
    --connections 4 --seed 7 --out "$POOL_B"
target/release/fastbfs bench-compare "$POOL_A" "$POOL_B" --quiet \
    --max-qps-drop 0.30 --max-latency-rise 10000
# ...and the committed full-scale pool snapshot still satisfies the
# comparison plumbing from this host (wide tolerances: the snapshot was
# recorded at full scale, this run is a tiny smoke).
LOAD_BASELINE="$(ls LOAD_*session_pool*.json 2>/dev/null | sort | tail -1 || true)"
if [ -n "$LOAD_BASELINE" ]; then
    target/release/fastbfs bench-compare "$LOAD_BASELINE" "$POOL_A" --allow-mismatch \
        --max-qps-drop 0.99 --max-latency-rise 10000 --quiet
fi
curl -fsS "http://$PADDR/quitquitquit" >/dev/null
wait "$POOL_PID"
POOL_PID=""

echo "==> flight-recorder smoke (tail-sampled traces, /debug endpoints)"
FR_ADDR_FILE="$(mktemp /tmp/check_fr_XXXXXX.addr)"
FR_LOG="$(mktemp /tmp/check_fr_XXXXXX.jsonl)"
FR_OUT="$(mktemp /tmp/check_fr_XXXXXX.json)"
FR_DEEP="$(mktemp /tmp/check_fr_XXXXXX.fbfs)"
FR_PID=""
trap '[ -n "${BATCH_STOP:-}" ] && touch "$BATCH_STOP" 2>/dev/null; rm -f "${SMOKE_GRAPH:-}" "${SMOKE_OUT:-}" "${SMOKE_TUNED:-}" "$SERVE_GRAPH" "$ADDR_FILE" "$LOAD_OUT" "$LOAD_BAD" "$POOL_ADDR_FILE" "$POOL_OVER" "$POOL_A" "$POOL_B" "$FR_ADDR_FILE" "$FR_LOG" "$FR_OUT" "$FR_DEEP"; [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true; [ -n "$POOL_PID" ] && kill "$POOL_PID" 2>/dev/null || true; [ -n "$FR_PID" ] && kill "$FR_PID" 2>/dev/null || true' EXIT
: > "$FR_ADDR_FILE"
# --slow-ms 0: the sampler keeps every trace, so >= 50 driven queries
# must all be retrievable (ring capacity permitting).
target/release/fastbfs serve -i "$SERVE_GRAPH" --metrics-addr 127.0.0.1:0 \
    --addr-file "$FR_ADDR_FILE" --slow-ms 0 --trace-ring 128 \
    --trace-log "$FR_LOG" --threads 2 &
FR_PID=$!
for _ in $(seq 1 100); do [ -s "$FR_ADDR_FILE" ] && break; sleep 0.1; done
[ -s "$FR_ADDR_FILE" ] || { echo "error: flight-recorder serve never wrote its address" >&2; exit 1; }
FADDR="$(cat "$FR_ADDR_FILE")"
# Drive >= 50 queries, each stamped with a loadgen trace id.
target/release/fastbfs loadgen "http://$FADDR" --rate 100 --duration 1 \
    --connections 4 --seed 7 --out "$FR_OUT"
# /debug/slow is non-empty and ranked; pick the slowest trace that did
# real traversal work (a BFS from an isolated RMAT vertex legitimately
# records zero levels — its frontier dies at the source).
SLOW_ID="$(curl -fsS "http://$FADDR/debug/slow?n=50" | python3 -c '
import json, sys
d = json.load(sys.stdin)
assert d["slow"], "no slow traces retained with --slow-ms 0"
assert d["slow_ms"] == 0, d["slow_ms"]
totals = [t["total_ns"] for t in d["slow"]]
assert totals == sorted(totals, reverse=True), totals
with_levels = [t for t in d["slow"] if t["levels"]]
assert with_levels, "no slow trace carries a per-level digest"
print(with_levels[0]["id"])
')"
# The listed id resolves in full, spans nest inside the request latency,
# and the per-level digest is structurally sound.
curl -fsS "http://$FADDR/debug/trace/$SLOW_ID" | python3 -c '
import json, sys
t = json.load(sys.stdin)
assert t["sampled"] is True and t["status"] == 200, t
spans = t["parse_ns"] + t["queue_ns"] + t["execute_ns"] + t["serialize_ns"]
assert 0 < spans <= t["total_ns"], (spans, t["total_ns"])
assert t["session"] is not None and t["wave"] >= 1, t
for lvl in t["levels"]:
    assert lvl["frontier"] > 0 and isinstance(lvl["top_down"], bool), lvl
'
# The sampler decision counters flowed for every query.
SAMPLED="$(curl -fsS "http://$FADDR/metrics" | awk '$1 == "fastbfs_serve_trace_sampled_total" {print $2}')"
[ "${SAMPLED%.*}" -ge 50 ] || { echo "error: only $SAMPLED traces sampled" >&2; exit 1; }
# The load report's worst-percentile ids resolve on the server.
WORST="$(python3 - "$FR_OUT" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
ids = d.get("slowest_trace_ids") or []
assert ids, "report carries no slowest_trace_ids"
print(ids[0])
EOF
)"
curl -fsS "http://$FADDR/debug/trace/$WORST" | grep -q '"levels"'
# JSONL persistence captured every sampled trace as parseable lines.
python3 - "$FR_LOG" <<'EOF'
import json, sys
lines = [json.loads(l) for l in open(sys.argv[1]) if l.strip()]
assert len(lines) >= 50, len(lines)
assert all("total_ns" in t and "id" in t for t in lines)
EOF
curl -fsS "http://$FADDR/quitquitquit" >/dev/null
wait "$FR_PID"
FR_PID=""
# A traversal deeper than the 64-level flight cap: the session keeps
# every level, the kept trace copies the first 64 and counts the rest.
target/release/fastbfs gen --family road --vertices 16384 -o "$FR_DEEP" >/dev/null
: > "$FR_ADDR_FILE"
target/release/fastbfs serve -i "$FR_DEEP" --metrics-addr 127.0.0.1:0 \
    --addr-file "$FR_ADDR_FILE" --slow-ms 0 --threads 2 &
FR_PID=$!
for _ in $(seq 1 100); do [ -s "$FR_ADDR_FILE" ] && break; sleep 0.1; done
[ -s "$FR_ADDR_FILE" ] || { echo "error: deep-graph serve never wrote its address" >&2; exit 1; }
FADDR="$(cat "$FR_ADDR_FILE")"
DEPTH="$(curl -fsS -H 'Trace-Id: deep-0' "http://$FADDR/query?src=0" \
    | python3 -c 'import json, sys; print(json.load(sys.stdin)["depth"])')"
curl -fsS "http://$FADDR/debug/trace/deep-0" | python3 -c '
import json, sys
t, depth = json.load(sys.stdin), int(sys.argv[1])
assert len(t["levels"]) == 64, len(t["levels"])
assert t["levels_truncated"] > 0 and t["levels_truncated"] == depth - 64, (t["levels_truncated"], depth)
assert [l["step"] for l in t["levels"]] == list(range(1, 65))
' "$DEPTH"
curl -fsS "http://$FADDR/quitquitquit" >/dev/null
wait "$FR_PID"
FR_PID=""

echo "==> monitor smoke (windowed rollups, SLO verdicts, fastbfs monitor)"
MON_ADDR_FILE="$(mktemp /tmp/check_mon_XXXXXX.addr)"
MON_OUT="$(mktemp /tmp/check_mon_XXXXXX.json)"
MON_PID=""
trap '[ -n "${BATCH_STOP:-}" ] && touch "$BATCH_STOP" 2>/dev/null; rm -f "${SMOKE_GRAPH:-}" "${SMOKE_OUT:-}" "${SMOKE_TUNED:-}" "$SERVE_GRAPH" "$ADDR_FILE" "$LOAD_OUT" "$LOAD_BAD" "$POOL_ADDR_FILE" "$POOL_OVER" "$POOL_A" "$POOL_B" "$FR_ADDR_FILE" "$FR_LOG" "$FR_OUT" "$FR_DEEP" "$MON_ADDR_FILE" "$MON_OUT"; [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true; [ -n "$POOL_PID" ] && kill "$POOL_PID" 2>/dev/null || true; [ -n "$FR_PID" ] && kill "$FR_PID" 2>/dev/null || true; [ -n "$MON_PID" ] && kill "$MON_PID" 2>/dev/null || true' EXIT
: > "$MON_ADDR_FILE"
# Short windows so the smoke sees a full breach/recover cycle: 100 ms
# ticks, 2 s fast window, 8 s slow window, drop-rate SLO at 20%.
target/release/fastbfs serve -i "$SERVE_GRAPH" --metrics-addr 127.0.0.1:0 \
    --addr-file "$MON_ADDR_FILE" --sessions 1 --threads 2 \
    --rollup-interval-ms 100 --slo-fast-s 2 --slo-slow-s 8 --slo-drop-rate 0.2 &
MON_PID=$!
for _ in $(seq 1 100); do [ -s "$MON_ADDR_FILE" ] && break; sleep 0.1; done
[ -s "$MON_ADDR_FILE" ] || { echo "error: rollup serve never wrote its address" >&2; exit 1; }
MADDR="$(cat "$MON_ADDR_FILE")"
# Let the ring's baseline tick land before driving traffic: requests
# served before it are diffed into the baseline and belong to no frame.
for _ in $(seq 1 100); do
    FRAMES="$(curl -sS "http://$MADDR/debug/timeseries?n=1" | python3 -c 'import json,sys; print(len(json.load(sys.stdin)["frames"]))' 2>/dev/null || echo 0)"
    [ "${FRAMES:-0}" -ge 1 ] && break
    sleep 0.1
done
[ "${FRAMES:-0}" -ge 1 ] || { echo "error: rollup ticker produced no frames" >&2; exit 1; }
# Clean traffic: the verdict is ok, and the load report embeds the
# per-second timeseries plus the server's build provenance.
target/release/fastbfs loadgen "http://$MADDR" --rate 100 --duration 2 \
    --connections 4 --seed 7 --out "$MON_OUT"
python3 - "$MON_OUT" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
assert d["server_version"], "report lacks scraped server_version"
ts = d["timeseries"]
assert ts and len(ts) >= 2, ts
assert sum(s["completed"] for s in ts) == d["completed"], ts
assert sum(s["errors"] for s in ts) == d["errors"], ts
assert any(s["p99_ms"] is not None for s in ts), ts
EOF
# The scripting face: one JSON frame, health verdict embedded verbatim,
# per-session rows parsed from /metrics.
target/release/fastbfs monitor "http://$MADDR" --once --format json | python3 -c '
import json, sys
d = json.load(sys.stdin)
assert d["http_status"] == 200, d["http_status"]
h = d["health"]
assert h["state"] == "ok", h["state"]
assert [s["name"] for s in h["slos"]] == ["drop_rate"], h["slos"]
assert h["slow"]["requests"] > 0, h["slow"]
assert d["sessions"] and d["sessions"][0]["session"] == 0, d["sessions"]
'
# Text mode renders a frame without error.
target/release/fastbfs monitor "http://$MADDR" --once >/dev/null
# Deadline storm: every request expires in the queue, so the windowed
# drop rate pins to 1.0 and must flip the verdict to breaching (503)
# within the fast window.
for _ in $(seq 1 20); do
    curl -sS -H 'Deadline-Ms: 0' "http://$MADDR/query?src=1" >/dev/null
done
BREACH_BODY=""
for _ in $(seq 1 100); do
    H="$(curl -sS -w '\n%{http_code}' "http://$MADDR/debug/health")"
    CODE="$(echo "$H" | tail -1)"
    if [ "$CODE" = "503" ]; then BREACH_BODY="$(echo "$H" | head -n -1)"; break; fi
    sleep 0.1
done
[ -n "$BREACH_BODY" ] || { echo "error: deadline storm never flipped /debug/health to 503" >&2; exit 1; }
echo "$BREACH_BODY" | python3 -c '
import json, sys
d = json.load(sys.stdin)
assert d["state"] == "breaching", d["state"]
slo = [s for s in d["slos"] if s["name"] == "drop_rate"][0]
assert slo["state"] == "breaching" and slo["fast"] > slo["threshold"], slo
assert d["exemplars"], "breaching verdict carries no trace exemplars"
'
# The windowed verdict sees what the since-boot aggregates average away:
# liveness stays pure, and the boot-wide drop rate is still under the
# SLO threshold that the fast window is breaching right now.
curl -fsS "http://$MADDR/healthz" | grep -qx ok
curl -fsS "http://$MADDR/metrics" | python3 -c '
import sys
vals = {}
for l in sys.stdin:
    p = l.split()
    if len(p) == 2 and not l.startswith("#"):
        vals[p[0]] = float(p[1])
req = vals["fastbfs_serve_requests_total"]
drop = vals["fastbfs_serve_deadline_dropped_total"]
assert drop >= 20 and req > 0 and drop / req < 0.2, (drop, req)
'
# The monitor reports the breach as data, not an error.
target/release/fastbfs monitor "http://$MADDR" --once --format json | python3 -c '
import json, sys
d = json.load(sys.stdin)
assert d["http_status"] == 503 and d["health"]["state"] == "breaching", d
'
# Quiet window: idle ticks roll the storm out of both windows and the
# verdict recovers to ok (200) without a restart.
RECOVERED=""
for _ in $(seq 1 300); do
    H="$(curl -sS -w '\n%{http_code}' "http://$MADDR/debug/health")"
    CODE="$(echo "$H" | tail -1)"
    if [ "$CODE" = "200" ] && echo "$H" | head -n -1 | grep -q '"state":"ok"'; then
        RECOVERED=1; break
    fi
    sleep 0.1
done
[ -n "$RECOVERED" ] || { echo "error: verdict never recovered after the quiet window" >&2; exit 1; }
# Malformed ?n= is a 400 at parse time, not a 500 or a silent default.
N_CODE="$(curl -sS -o /dev/null -w '%{http_code}' "http://$MADDR/debug/timeseries?n=banana")"
[ "$N_CODE" = "400" ] || { echo "error: malformed ?n= answered $N_CODE, want 400" >&2; exit 1; }
curl -fsS "http://$MADDR/quitquitquit" >/dev/null
wait "$MON_PID"
MON_PID=""

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> all checks passed"
