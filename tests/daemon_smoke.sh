#!/usr/bin/env bash
# Black-box smoke test of a real diderotd process: start it on an ephemeral
# port, compile the same program twice (the second must be a cache hit),
# check the ISA level the cache index records, run it, poll the job, fetch
# the NRRD output and its request trace, scrape /metrics — then restart the
# daemon on the same cache dir and prove the warm-up compile is served from
# disk without a host-compiler invocation, and that after an edit to a
# runtime header the generated code includes the same program is compiled
# afresh instead of served stale from disk.
# Run by CI (daemon-smoke job) and runnable locally:
#
#   tests/daemon_smoke.sh build/src/serve/diderotd tests/cli_isocontour.diderot
#
# Set TRACE_ARTIFACT=/path/to/trace.json to keep the daemon's merged
# GET /trace output after the run (CI uploads it as a build artifact; open
# it in Perfetto / chrome://tracing).
set -euo pipefail

DIDEROTD=${1:?usage: daemon_smoke.sh <diderotd> <program.diderot>}
PROGRAM=${2:?usage: daemon_smoke.sh <diderotd> <program.diderot>}
TRACE_ARTIFACT=${TRACE_ARTIFACT:-}

# A header in the native prelude's include closure (the daemon resolves it
# from the source tree it was configured from: this checkout).
RUNTIME_HEADER="$(cd "$(dirname "$0")/.." && pwd)/src/runtime/scheduler.h"

WORK=$(mktemp -d)
CACHE="$WORK/cache"
PORTFILE="$WORK/port"
DPID=""
cleanup() {
  [ -n "$DPID" ] && kill "$DPID" 2>/dev/null || true
  wait 2>/dev/null || true
  # Restore the runtime header (contents and mtime) if step 5 edited it.
  [ -f "$WORK/header.orig" ] && cp -p "$WORK/header.orig" "$RUNTIME_HEADER"
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() { echo "daemon_smoke: FAIL: $*" >&2; exit 1; }

start_daemon() {
  rm -f "$PORTFILE"
  # --trace-sample all: the smoke runs one job; sample it so the merged
  # GET /trace artifact carries its full per-superstep timeline.
  "$DIDEROTD" --port 0 --port-file "$PORTFILE" --cache-dir "$CACHE" \
              --trace-sample all &
  DPID=$!
  for _ in $(seq 1 100); do
    [ -s "$PORTFILE" ] && break
    kill -0 "$DPID" 2>/dev/null || fail "daemon exited during startup"
    sleep 0.1
  done
  [ -s "$PORTFILE" ] || fail "daemon never wrote its port file"
  PORT=$(cat "$PORTFILE")
  # The port file appears when the socket is bound; /healthz answering 200
  # proves the whole request path (HTTP threads, scheduler, registry) is up
  # — no sleep-based guessing.
  for _ in $(seq 1 100); do
    if curl -sf "http://127.0.0.1:$PORT/healthz" | grep -q '"status":"ok"'; then
      echo "daemon_smoke: daemon pid $DPID healthy on port $PORT"
      return
    fi
    kill -0 "$DPID" 2>/dev/null || fail "daemon exited during startup"
    sleep 0.1
  done
  fail "daemon never became healthy"
}

stop_daemon() {
  kill "$DPID"
  wait "$DPID" 2>/dev/null || true
  DPID=""
}

post() { # post <path> [extra curl args...]
  local path=$1; shift
  curl -sS -X POST --data-binary @"$PROGRAM" "$@" "http://127.0.0.1:$PORT$path"
}

start_daemon

# 1. Cold compile, then the same bytes again: second answer must be cached.
R1=$(post /compile)
echo "daemon_smoke: compile #1: $R1"
echo "$R1" | grep -q '"cached":false' || fail "first compile claimed cached"
R2=$(post /compile)
echo "daemon_smoke: compile #2: $R2"
echo "$R2" | grep -q '"cached":true' || fail "second compile was not a cache hit"

# 1b. The cache index records the ISA level the artifact was built for in
# its compiler-id column (the 4th), and a CPU with the x86-64-v3 feature
# set gets v3 code on the serving path too.
[ -s "$CACHE/index.tsv" ] || fail "no index.tsv in the cache directory"
LEVELS=$(cut -f4 "$CACHE/index.tsv" | sed -n 's/.* isa=\([^ ]*\).*/\1/p' | sort -u)
echo "daemon_smoke: cache ISA level: ${LEVELS:-none}"
[ -n "$LEVELS" ] || fail "index.tsv compiler-id column has no isa= level"
V3=yes
for f in avx avx2 bmi1 bmi2 f16c fma movbe xsave abm; do
  grep -qw "$f" /proc/cpuinfo 2>/dev/null || V3=no
done
if [ "$V3" = yes ] && [ "$LEVELS" != x86-64-v3 ]; then
  fail "CPU supports x86-64-v3 but the cache was built for: $LEVELS"
fi

# 2. Async run: submit, poll to completion, fetch the output bytes.
RUN=$(post /run -H 'X-Diderot-Input: ddro=synth:portrait:48')
echo "daemon_smoke: run: $RUN"
JOB=$(echo "$RUN" | sed -n 's/.*"job":"\([^"]*\)".*/\1/p')
[ -n "$JOB" ] || fail "no job id in /run response"

STATE=""
for _ in $(seq 1 300); do
  POLL=$(curl -sS "http://127.0.0.1:$PORT/jobs/$JOB")
  STATE=$(echo "$POLL" | sed -n 's/.*"state":"\([^"]*\)".*/\1/p')
  if [ "$STATE" = done ] || [ "$STATE" = failed ]; then break; fi
  sleep 0.1
done
echo "daemon_smoke: job: $POLL"
[ "$STATE" = done ] || fail "job did not finish (state: ${STATE:-none})"
echo "$POLL" | grep -q '"outcome":"converged"' || fail "job did not converge"

curl -sS "http://127.0.0.1:$PORT/jobs/$JOB/output" -o "$WORK/out.nrrd"
head -c 4 "$WORK/out.nrrd" | grep -q NRRD || fail "output is not a NRRD file"
echo "daemon_smoke: output: $(wc -c < "$WORK/out.nrrd") NRRD bytes"

# 2b. The job's request trace: retrievable for every job, one trace id,
# and at least the queue-wait span of the coarse set (docs/TRACING.md).
TRACE=$(curl -sS "http://127.0.0.1:$PORT/jobs/$JOB/trace")
echo "$TRACE" | grep -q '"traceId":"[0-9a-f]\{32\}"' ||
  fail "job trace has no trace id"
echo "$TRACE" | grep -q '"queue-wait"' || fail "job trace has no queue-wait span"
echo "$TRACE" | grep -q '"run"' || fail "job trace has no run span"
echo "daemon_smoke: trace: $(echo "$TRACE" | wc -c) bytes for job $JOB"

# 2c. The merged recent-jobs timeline; kept as a CI artifact when asked.
MERGED=$(curl -sS "http://127.0.0.1:$PORT/trace")
echo "$MERGED" | grep -q '"traceEvents"' || fail "GET /trace is not a chrome trace"
if [ -n "$TRACE_ARTIFACT" ]; then
  echo "$MERGED" > "$TRACE_ARTIFACT"
  echo "daemon_smoke: saved merged trace to $TRACE_ARTIFACT"
fi

# 3. Metrics reflect what just happened.
METRICS=$(curl -sS "http://127.0.0.1:$PORT/metrics")
echo "$METRICS" | grep -q '^diderot_daemon_cache_hits_total [1-9]' ||
  fail "metrics do not show a program-cache hit"
echo "$METRICS" | grep -q 'diderot_daemon_jobs_total{state="done"} [1-9]' ||
  fail "metrics do not show the finished job"

# 4. Restart on the same cache dir: warming up must be a *disk* hit — the
# artifact built before the restart is reused, no host compiler run.
stop_daemon
start_daemon
R3=$(post /compile)
echo "daemon_smoke: compile after restart: $R3"
echo "$R3" | grep -q '"cached":false' || fail "registry unexpectedly warm after restart"
METRICS=$(curl -sS "http://127.0.0.1:$PORT/metrics")
echo "$METRICS" | grep -q '^diderot_daemon_native_disk_hits_total [1-9]' ||
  fail "restart warm-up was not served from the disk cache"
echo "$METRICS" | grep -q '^diderot_daemon_native_host_compiles_total 0' ||
  fail "restart warm-up invoked the host compiler"

# 5. Append a comment to a runtime header and restart on the same cache:
# the cache key covers the prelude's include closure, so the warm-up must
# be a host compile, not a disk hit of the object built from the old header.
stop_daemon
cp -p "$RUNTIME_HEADER" "$WORK/header.orig"
echo "// daemon_smoke: runtime header edit" >> "$RUNTIME_HEADER"
start_daemon
R4=$(post /compile)
echo "daemon_smoke: compile after runtime header edit: $R4"
echo "$R4" | grep -q '"cached":false' || fail "registry unexpectedly warm after restart"
METRICS=$(curl -sS "http://127.0.0.1:$PORT/metrics")
echo "$METRICS" | grep -q '^diderot_daemon_native_host_compiles_total 1' ||
  fail "runtime header edit did not force a host compile"
echo "$METRICS" | grep -q '^diderot_daemon_native_disk_hits_total 0' ||
  fail "runtime header edit was served a stale object from the disk cache"
stop_daemon
cp -p "$WORK/header.orig" "$RUNTIME_HEADER"
rm -f "$WORK/header.orig"

echo "daemon_smoke: PASS"
