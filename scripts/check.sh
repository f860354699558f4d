#!/usr/bin/env bash
# Full local gate: release build, tests, and lints for the whole workspace.
set -euo pipefail
cd "$(dirname "$0")/.."
# `nontest FILE...`: each file's product lines, prefixed `FILE: `, up to
# its test module. Every gate below that reads non-test code reads it so.
. scripts/nontest.sh

# Formatting gate first: cheapest check, and drift fails CI outright.
cargo fmt --all -- --check

# Source gates, as cheap: a match fails the run.
# No product path rewrites the bytes it was sent — a frame or record that
# is not UTF-8 is malformed, on the server, on the client and in the
# harnesses that drive them alike (`crates/e2e` is the benchmark's, and
# left alone).
if grep -rn "from_utf8_lossy" crates/*/src | grep -v '^crates/e2e/'; then
  echo "check.sh: from_utf8_lossy in a product path; decode with std::str::from_utf8" >&2
  exit 1
fi
# Every spawned thread has an owner that joins it (DESIGN.md §13.1, *stop
# means stopped*): a discarded JoinHandle is a thread that outlives stop().
if grep -rn "let _ = std::thread::Builder" crates/*/src; then
  echo "check.sh: a spawned thread's JoinHandle is discarded; keep it and join it" >&2
  exit 1
fi
# The journal frame format has one writer and one reader, in one file: the
# field only a frame carries is named nowhere else in the server.
if grep -rn '"tdrops"' crates/server/src | grep -v '^crates/server/src/persist.rs'; then
  echo "check.sh: journal record built or parsed outside persist.rs; use its codec" >&2
  exit 1
fi
# The state image has one builder and one cache, both in the backend; the
# transport asks the cache (DESIGN.md §14.3), it never builds an image.
if grep -rn "table_image()\|TableImage::of(" crates/server/src | grep -v '^crates/server/src/backend.rs'; then
  echo "check.sh: state image built outside backend.rs; read Backend::bootstrap_text" >&2
  exit 1
fi
# A join adopts (DESIGN.md §14.3): a client builds its replica from the
# table image and processes only the log after it — it never expands an
# image into messages or replays a history into a fresh replica — and the
# image has one encoder and one decoder, in wire.rs, which the checkpoint
# calls: no field of an image is named anywhere else in the server, and
# its `types` nowhere else in the workspace. A cell's payload has one
# codec, which a message's `{"t","v"}` cell and an image's positional cell
# share: non-test wire.rs holds one `match` over a `Value`'s payloads and
# one over a `DataType`'s.
wire_src() { nontest crates/server/src/wire.rs; }
if grep -n "Image::Messages\|into_messages\|rebuild(" crates/server/src/client_core.rs crates/server/src/client.rs \
  || grep -rn '"values"\|"uh"\|"dh"' crates/server/src | grep -v '^crates/server/src/wire.rs:' \
  || grep -rn '"types"' crates/*/src | grep -v '^crates/server/src/wire.rs:' \
  || [ "$(wire_src | grep -c "Value::Text(")" != 1 ] \
  || [ "$(wire_src | grep -c "DataType::Text =>")" != 1 ] \
  || ! grep -q "TableImage::from_json" crates/server/src/persist.rs \
  || ! grep -q "image.write(" crates/server/src/persist.rs; then
  echo "check.sh: a join replays, or an image or a cell payload is coded twice; adopt a wire::TableImage" >&2
  exit 1
fi
# The transport spawns no thread: a `TcpConn` reads its own socket on its
# caller's thread, the codecs and `LocalConn` never had one.
if nontest crates/net/src/tcp.rs crates/net/src/conn.rs crates/net/src/nonblocking.rs \
  | grep "thread::Builder\|thread::spawn"; then
  echo "check.sh: the transport spawns a thread; read the socket on the caller's" >&2
  exit 1
fi
# The wire protocol is a type: `wire::{Request, Reply}` is the only place a
# frame is put together or taken apart, so no other file of the server or
# of the harnesses names the field every frame has (comments may).
if grep -rn '"type"' crates/server/src crates/bench/src \
  | grep -v '^crates/server/src/wire.rs:' | grep -v '^[^:]*:[0-9]*:[[:space:]]*//'; then
  echo "check.sh: a frame-type literal outside wire.rs; build and read frames with wire::{Request, Reply}" >&2
  exit 1
fi
# One loop: the shard that read an op applies, journals, broadcasts and
# acks it (DESIGN.md §13.1). The batch pipeline is a plain struct — it
# spawns nothing and sends nothing to another thread — and no wake carries
# a reply or a broadcast between threads.
if grep -n "thread::Builder\|thread::spawn\|crossbeam" crates/server/src/batch.rs \
  || grep -rn "Wake::Reply\|Wake::Broadcast" crates/server/src; then
  echo "check.sh: an apply thread or a cross-thread reply/broadcast wake; the owner shard does it in its sweep" >&2
  exit 1
fi
# Threads = shards: the only thread the server spawns is a reactor shard
# (`start_shards`; the shard core and everything else in the crate spawn
# none), and nothing in the loop, its core, the service around it or the
# time-series module sleeps or parks — what is periodic is a deadline in a
# shard's heap, what listens is a fd in its epoll set.
if grep -rn "thread::Builder\|thread::spawn" crates/server/src \
  | grep -v '^[^:]*:[0-9]*:[[:space:]]*//' | grep -v '^crates/server/src/reactor.rs:' \
  || [ "$(grep -c "thread::Builder\|thread::spawn" crates/server/src/reactor.rs)" != 1 ]; then
  echo "check.sh: the server spawns a thread other than reactor.rs::start_shards; make it an entry of the shard loop" >&2
  exit 1
fi
if nontest crates/server/src/reactor.rs crates/server/src/shard.rs \
  crates/server/src/tcp_service.rs crates/obs/src/timeseries.rs \
  | grep -v '^[^:]*:[[:space:]]*//' | grep "thread::sleep\|park_timeout"; then
  echo "check.sh: a sleep or a park in the shard loop, the service or the sampler; arm a deadline (shard::Due)" >&2
  exit 1
fi
# One reader: a collection's telemetry reads its op log through one fold,
# `progress.rs`'s `ProgressTracker` (DESIGN.md §11) — `trace()` once there
# and nowhere in `health.rs` — and a served `health` reads the owner
# shard's fold, never a fresh walk.
if nontest crates/server/src/health.rs | grep "trace()" \
  || [ "$(nontest crates/server/src/progress.rs | grep -c "trace()")" != 1 ] \
  || grep -n "health::collect" crates/server/src/reactor.rs crates/server/src/shard.rs \
    crates/server/src/tcp_service.rs; then
  echo "check.sh: the op log read outside the telemetry fold; advance the collection's ProgressTracker" >&2
  exit 1
fi
# A report writes nothing: no metric is set or bumped by building one.
if nontest crates/server/src/health.rs crates/server/src/progress.rs \
  | grep "gauge(\|counter("; then
  echo "check.sh: a metric written by health.rs or progress.rs; a report is a read" >&2
  exit 1
fi

# One classification: the Central Client's live, per-key-group
# `Classifier` is the only probable-row classification the server runs —
# the PRI maintainer, the estimator and recommendations read it — and the
# batch sweep is its test oracle (DESIGN.md §4).
if nontest crates/constraints/src/maintainer.rs crates/pay/src/*.rs crates/server/src/*.rs \
  | grep -v '^[^:]*:[[:space:]]*//' | grep "classify(\|classify_rows(\|probable_rows("; then
  echo "check.sh: a batch classification on the server path; read the Central Client's Classifier" >&2
  exit 1
fi
# One server replica: the Central Client's replica is the master table, so
# the backend builds none of its own.
if grep -n "Replica::new\|Replica::restore" crates/server/src/backend.rs; then
  echo "check.sh: a second replica in the backend; Backend::master() is the Central Client's" >&2
  exit 1
fi
# Settlement reads no log (DESIGN.md §14): the settlement `Ledger` folds
# each op-log entry as it is logged and rides in the checkpoint, so
# contribution analysis and allocation never name the trace, no product
# code rebuilds row values, creators or filled cells from it (the batch
# walk is the test oracle, `crates/pay/tests/support/oracle.rs`; the
# benchmark's `crates/e2e` is left alone), and a log position has one
# name, its history seq.
if nontest crates/pay/src/contrib.rs crates/pay/src/allocate.rs | grep -w "Trace" \
  || nontest $(find crates -path '*/src/*' -name '*.rs' -not -path 'crates/e2e/*') \
    | grep "row_values(\|creators(\|filled_cell(" \
  || grep -rn "MsgIdx" crates src examples tests; then
  echo "check.sh: settlement reads the op log; fold it into pay::Ledger" >&2
  exit 1
fi
# One JSON grammar (DESIGN.md §12): the parser writes a tape and every
# decoder reads it through `JsonNode` handles; there is no borrowed tree
# with a grammar of its own, and the server never builds one.
if grep -rn "fn value_ref\|fn object_ref\|fn array_ref" crates/docstore/src \
  || grep -rn "JsonRef::parse" crates/server/src; then
  echo "check.sh: a second JSON grammar or a tree parse on the server; parse into a docstore::Tape" >&2
  exit 1
fi
# Edges live on classes (DESIGN.md §8): the PRI matcher joins a right to a
# class of equal lefts, never to one left, so it has no per-left edge API.
if grep -rn "fn add_edge\|fn remove_edge" crates/matching/src; then
  echo "check.sh: a per-left edge in the matcher; add rights to classes with add_right" >&2
  exit 1
fi
# A health request reads what it names and writes nothing (DESIGN.md §11):
# the service objectives subtract two readings of the three instruments
# they name, so no whole-registry delta ring or typed reading of every
# instrument is left, and no burn gauge is written.
if grep -rn "DeltaTracker\|crowdfill_slo_" crates/*/src \
  || grep -n "fn values(" crates/obs/src/metrics.rs; then
  echo "check.sh: a whole-registry reading or an SLO gauge; read the objectives' instruments into obs::timeseries::ReadingRing" >&2
  exit 1
fi
# Frames are written, not built (DESIGN.md §12): every frame, bootstrap,
# journal record and checkpoint is written by `docstore::JsonWriter`
# straight into its buffer — no `Json` tree is built to be serialised on
# the op path, the writer formats no temporary, and text that is already
# JSON is spliced by `JsonWriter::raw`. Exempt are the tree oracle the
# writer is proven against (`message_to_json` and its helpers, which
# `crates/e2e` also times) and the cold documents still built as trees
# (schema, template, trace export).
tree_oracle='payload_to_json\|value_to_json\|row_id_to_json\|row_value_to_json\|message_to_json'
cold_docs='trace_entry_to_json\|trace_to_json\|schema_to_json\|predicate_to_json\|template_to_json'
written() {
  nontest "$1" | sed "/^[^:]*: \(pub \)\?fn \($tree_oracle\|$cold_docs\)(/,/^[^:]*: }/d"
}
if written crates/server/src/persist.rs | grep 'Json::obj(\|Json::Arr(\|\.encode()' \
  || written crates/server/src/wire.rs | grep 'Json::obj(\|Json::Arr(\|\.encode()' \
  || sed -n '/^\/\/ ---- Writer/,/^\/\/ ---- [A-VX-Z]/p' crates/docstore/src/json.rs | grep -n 'format!(' \
  || grep -rn "encode_with_member" crates src examples tests; then
  echo "check.sh: a frame or record built as a Json tree, or a format! in the writer; write it with docstore::JsonWriter" >&2
  exit 1
fi
# One outbound buffer (DESIGN.md §9): a connection's broadcasts go
# straight into its `FrameWriter`, and the slow-reader watermark is judged
# there, on the frames the socket has not taken — no queue of encoded
# frames sits in front of it, and no lever paces the writer.
if grep -rn "writer_pace" crates src tests \
  || nontest crates/server/src/reactor.rs crates/server/src/shard.rs \
    | grep "VecDeque<String>"; then
  echo "check.sh: a second outbound buffer or a paced writer; write broadcasts into the connection's FrameWriter" >&2
  exit 1
fi
# A sans-IO shard core (DESIGN.md §13.1): every rule of a shard lives in
# `shard.rs`, which is fed the wake's one clock reading and what the
# sockets did — it reads no clock and touches no socket, poller or thread.
if nontest crates/server/src/shard.rs \
  | grep "Instant::now\|elapsed(\|SystemTime\|Poller\|TcpStream\|std::net\|std::thread"; then
  echo "check.sh: the shard core reads a clock or does I/O; take \`now\` and events from the driver (reactor.rs)" >&2
  exit 1
fi
# Docs cite code that exists: every `x.rs` cited in DESIGN.md or README.md
# names a file of the workspace, and every `x.rs::name` a `fn` in it (a
# name cut short with `…` is a prefix).
rs_files=$(find . -path ./target -prune -o -path ./vendor -prune -o -path ./.git -prune -o -name '*.rs' -print)
cited() {
  sed -e ':a' -e 'N' -e '$!ba' -e 's/_\n[[:space:]]*/_/g' "$@" | grep -o '`[^`]*`' \
    | grep -o '[A-Za-z0-9_/.-]*\.rs\(::[A-Za-z0-9_]*\(…\)\?\)\?' | sort -u
}
stale=$(for ref in $(cited DESIGN.md README.md); do
  path=${ref%%::*}
  name=${ref#"$path"}
  name=${name#::}
  files=$(printf '%s\n' $rs_files | grep "/${path#./}\$" || true)
  case "$name" in
    "") fn='' ;;
    *…) fn="fn ${name%…}" ;;
    *) fn="fn $name\b" ;;
  esac
  if [ -z "$files" ] || { [ -n "$fn" ] && ! grep -q "$fn" $files; }; then
    echo "$ref"
  fi
done)
if [ -n "$stale" ]; then
  echo "$stale"
  echo "check.sh: DESIGN.md or README.md cites a file or fn that is not there; fix the citation" >&2
  exit 1
fi
# An idle service sleeps (DESIGN.md §11, §13.1): the objectives' readings
# are taken on the shard wakes that can move them, not on a clock, and the
# service works out itself which ticks to arm — no sampling deadline, no
# telemetry, progress or reactor option type, and no optional field in
# `ServiceOptions` but the idle timeout and the stopping policy.
if grep -rn "Due::Sample\|TelemetryOptions\|ProgressOptions\|sample_period\|ReactorOptions" crates src tests examples \
  || sed -n '/^pub struct ServiceOptions {/,/^}/p' crates/server/src/tcp_service.rs \
    | grep "^ *pub [a-z_]*: Option<" | grep -v "pub idle_timeout:\|pub stopping:"; then
  echo "check.sh: a sampling clock or a switch the service can work out; read on wakes, arm ticks from what the collections are" >&2
  exit 1
fi
# One owner per instrument, a metric is a field (DESIGN.md §6): there is
# no registry, process-global or not. A layer below the service keeps plain
# counts in the struct that does the work and names none of them; the
# service's instruments are fields of `ServiceMetrics`, and every metric
# name the server renders is spelled in `tcp_service.rs` (`samples`,
# `named`, `stats`) — a `"crowdfill_` literal or `format!` elsewhere in the
# server is a second place to name one.
if nontest $(find crates/*/src -name '*.rs') \
  | grep 'OnceLock<\(Arc<\)\?\(Counter\|Gauge\|Histogram\)\|MetricsRegistry' \
  || nontest $(find crates/matching/src crates/constraints/src crates/sync/src crates/docstore/src \
    crates/net/src -name '*.rs') | grep '"crowdfill_' \
  || nontest $(find crates/server/src -name '*.rs' ! -name tcp_service.rs) | grep '"crowdfill_'; then
  echo "check.sh: a registry, a process-global instrument, or a metric named outside tcp_service.rs; keep a count on the struct and name it in tcp_service.rs" >&2
  exit 1
fi
# One recorder path (DESIGN.md §10): a stamp goes straight into the flight
# recorder's ring, one lock, and a dump copies the ring under it — no
# per-thread span buffer to flush, no lock-free slots, fences or checksums.
if nontest crates/obs/src/trace.rs | grep "thread_local!\|fence(\|fetch_max\|checksum" \
  || grep -rn "flush_thread" crates src tests examples; then
  echo "check.sh: a second path between a stamp and the ring; record into obs::trace::FlightRecorder under its lock" >&2
  exit 1
fi
# One load generator (DESIGN.md §9, §13.3): the overload storms run on the
# connection-scale poller driver (`bench/src/connscale.rs`), so the
# overload harness holds no blocking client and starts, and waits on, no
# thread of its own.
if nontest crates/bench/src/overload.rs \
  | grep "RemoteWorker\|thread::spawn\|thread::scope\|sleep"; then
  echo "check.sh: the overload harness drives workers of its own; replay the plan on connscale's driver" >&2
  exit 1
fi
# One recovery policy (DESIGN.md §7): what to do after an `overloaded`, a
# `reject`, a dropped link or a `resumed` reply is `ClientCore::step`'s
# (`server/src/client_core.rs`), and its shells — `RemoteWorker` and the
# poller driver — only move bytes and wait, so their code (comments may)
# names none of the core's recovery internals.
if nontest crates/server/src/client.rs crates/bench/src/connscale.rs | grep -v '^[^:]*: *//' \
  | grep "settle_resume\|Settled\|overload_backoff\b\|roll_back\|\.backoff("; then
  echo "check.sh: a client shell decides a retry, redial or resume; feed ClientCore::step and do the step it returns" >&2
  exit 1
fi

# The server runs what it holds (DESIGN.md §2): §8's cell recommendation
# and the simulated marketplace are `crowdfill-sim`'s, and admission has
# no class but a submission's `speculative` mark, so no code of the
# server (comments may) names a recommendation, a marketplace or a
# priority.
if nontest $(find crates/server/src -name '*.rs') | grep -v '^[^:]*: *//' \
  | grep '\brecommend\b\|Recommendation\|Marketplace\|\bmarketplace::\|Priority'; then
  echo "check.sh: the server holds what only a simulation runs; put it in crowdfill-sim" >&2
  exit 1
fi
# The shard core is a function of its inputs (DESIGN.md §13.1): its maps
# iterate in key order, so what visits every connection — broadcasts, a
# `CloseAll`, a `Stop` — does so in token or worker order, never in a
# randomly keyed hasher's.
if nontest crates/server/src/shard.rs | grep 'HashMap'; then
  echo "check.sh: a HashMap in the shard core; key it by token or worker in a BTreeMap" >&2
  exit 1
fi

cargo build --release
cargo test -q --workspace
cargo clippy --workspace --all-targets -- -D warnings

# Construction gate: `Backend::new` on `big_table`'s 400-row cardinality
# template stays within its allocation budget (`new_allocs.rs`), counted
# again in the release build, where no debug check allocates beside it.
cargo test -q --release -p crowdfill-server --test new_allocs

# Recovery-path gate: the fault-injection suite always runs with its
# built-in seeds as part of `cargo test` above; this pass pins an extra
# fixed seed set so regressions in reconnect/resume fail the check even
# when they only show under other fault schedules.
CROWDFILL_FAULT_SEEDS=11,23,47,101 cargo test -q -p crowdfill-server --test faults

# Durability gate (DESIGN.md §14): the crash-point matrix kills a child
# process at every syscall boundary of the append/checkpoint/compact
# sequence and asserts every acked op survives recovery byte-identically.
# The built-in seed runs in `cargo test` above; this pass pins extra seeds
# (each seed picks different torn-write prefixes at each boundary).
CROWDFILL_CRASH_SEEDS=23,101 \
  cargo test -q --release -p crowdfill-bench --test crashpoint

# Overload gate: the stress harness (seeded open-loop storms against a
# real service) and the shed/admission property tests, at extra pinned
# seeds beyond the built-ins. Release profile: the harness replays
# wall-clock schedules, so debug-build slowness just stretches the run.
CROWDFILL_STRESS_SEEDS=101,9091 \
  cargo test -q --release -p crowdfill-bench --test overload_harness
CROWDFILL_FAULT_SEEDS=11,23,47,101 \
  cargo test -q --release -p crowdfill-server --test overload_props

# Connection-scale gate (DESIGN.md §13): 1k concurrent wire sessions, each
# a `ClientCore` with a real replica, over 16 collections against the
# sharded reactor, pinned seeds — asserts zero acked-op loss, every replica
# equal to its collection's master at quiescence, bounded per-collection
# fairness spread, and O(shard pool) service threads.
CROWDFILL_CONNSCALE_SEEDS=1009,2003 \
  cargo test -q --release -p crowdfill-bench --test connscale_smoke

# Trace gate: a seeded end-to-end scenario with the flight recorder on
# for every op — asserts the wire dump parses and every acked submission
# carries a complete client → server → ack span tree (DESIGN.md §10).
OBS_TRACE=all \
  cargo test -q --release -p crowdfill-bench --test trace_smoke

# Health gate: a fill workload against a real TcpService with the
# telemetry sampler on — asserts the `health` wire request reports
# completeness matching ground truth, per-worker latency/agreement/lag,
# populated SLOs, that the §15 progress section rides the wire and its
# estimate converges to ~1.0 completeness once coverage is duplicated,
# and that replica lag drains to zero after a sync (DESIGN.md §11, §15).
cargo test -q --release -p crowdfill-bench --test health_smoke

# Progress gate (DESIGN.md §15): the estimator-accuracy suite replays
# pinned-seed species-arrival schedules and asserts MAPE <= 20% once true
# completeness >= 50%, plus the adaptive-stop cost/coverage bounds — the
# asserts live inside the suite, so this run is the gate. Quick mode
# emits bit-identical accuracy values to the full run (the schedules are
# pure functions of the pinned seeds); only the timing rows shrink.
cargo run --release -q -p crowdfill-bench --bin bench-report -- \
  --quick --suite progress --out-dir "$(mktemp -d)"

# Benchmark oracle gate: every workload BENCHMARK.json declares, three
# blocks, tracing off. The harness checks each action's outcome and every
# replica against the master table; its last line must read every action
# correct and none failed.
for workload in $(sed -n '/"workloads"/,/\]/p' BENCHMARK.json | grep -o '"name": "[^"]*"' | cut -d'"' -f4); do
  out=$(cargo run --release -q -p crowdfill-e2e --bin e2e -- --workload "$workload" --blocks 3 --trace 0)
  if ! tail -n 1 <<<"$out" | grep -q '"correct":true' \
    || ! tail -n 1 <<<"$out" | grep -q '"failed":0[,}]'; then
    echo "$out"
    echo "check.sh: e2e --workload $workload is not correct or failed operations" >&2
    exit 1
  fi
  echo "e2e $workload: correct, 0 failed"
done
