# Developer entry points. `just check` is the gate CI and pre-commit use.

# Build, test and lint everything, exactly as the release gate does
# (`lint` covers every target, tests, examples and benches included).
check:
    cargo build --release
    cargo test -q
    just lint

# The full CI gate: release build; the workspace tests (`default-members`
# makes the plain `cargo test -q` run every crate's unit tests and every
# integration suite — the campaign differentials, golden reports, fault /
# quirk / device matrices, trace determinism, ingest round trip, chaos
# soak, and `cli_e2e` on the real binary — so no suite is named twice
# here); then the live smokes through the CLI (`trace` with Perfetto
# export, `fuzz-coverage` with corpus persistence, `matrix`, `ingest`,
# `soak`); lint every target, tests included, with warnings fatal
# (`lint`), which is also what keeps `unwrap` /
# `expect` / indexing out of the modules that deny them; then the docs with
# warnings fatal (`doc`), which is what catches an intra-doc link to an item
# that was deleted or made private.
# The workspace tests run the dev profile, so the byte-level suites run once
# more under `--release`: the binary users run (fat LTO, one codegen unit)
# against the report goldens, the CLI goldens and the per-slot panic
# isolation that needs `panic = unwind` — and the event queue's
# zero-allocation and differential tests, and the engine's tick-against-
# timer differential, because that build inlines the wheel and the tick
# path into `Engine::run`, and the reconstruction properties, because it
# is that build's sort that orders the trace, and the device's two
# transcript pins (the random-operation harness and the loopback wire
# transcripts) with the ETS scheduler's early-exit differential, because
# it inlines `Rnic`'s handlers and the scheduler into `HostNode`, and
# the two ingest differentials — the header walk against the per-header
# walk (`header_walk`) and the pcap reader under ragged reads (`--lib
# pcap`) — because it inlines the walk into `recover_entry` and the reader
# into `ingest_reader` — and the byte pins of the one RC replay (`--lib
# routed_tests`, `--test analyzer_teeth`), because it inlines the
# Go-back-N view into the oracle's per-packet steps — and the chaos soak
# suite (`--test chaos_soak`), because it inlines the recovery oracle's
# view into the replay's per-packet step too — and the event log's
# byte pins and ring tests, because it inlines the recording sites.
# Speed is not gated here: a claim is made with `just bench-pairs`.
ci:
    cargo build --release
    cargo test -q
    just release-bytes
    just trace
    just fuzz-coverage
    just matrix
    just ingest
    just soak
    just lint
    just doc

# The product crates' API docs, warnings fatal (≈ 3 s).
doc:
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline -p lumina-packet -p lumina-sim -p lumina-telemetry -p lumina-rnic -p lumina-switch -p lumina-dumper -p lumina-gen -p lumina-core

# The release-profile pass of the byte-level suites (see `ci`): the
# device's random-operation harness (`table_candidates`) runs beside the
# ETS scans held to their full-scan reference (`ets::tests`). Then the
# byte pins of the one RC replay: both public reports over every preset,
# quirked fuzz children and colliding traces, the counter and recovery
# views against the walks they replaced, and the trace-mutation teeth
# of the oracle and its Go-back-N view; and the chaos soak suite, whose
# hostile traces reach the recovery oracle through the replay's view. Then
# the run's one event log: `event_log_pins` holds what its journal and hop views rendered while
# they were two rings (every preset untraced at seeds 1-2, the ten presets
# whose hops fit the trace ring traced at seed 1, an overflowing journal)
# and the `telemetry` documents the registry rendered while it stored JSON
# copies of each component's counters (every preset at seed 1, a
# fault-injected and a traced run), and the telemetry unit tests hold the ring itself (eviction order, each
# view's eviction count, which role each gate keeps). Then the allocator
# counts of the recording path and of a live run's mirrored packet, because
# that build inlines `tev!`'s record into the switch and the ring. Last,
# stage 4's memory: the high-water mark of a packet-dense run against what
# it leaves resident, on the shipped build's allocations. And the preset
# corpus with its hostile numbers, which wrap silently only in this build
# (the dev build panics on the overflow instead): each must be exit 2.
release-bytes:
    cargo test --release --offline -q -p lumina-core --test cli_e2e
    cargo test --release --offline -q -p lumina-core --lib run_caught
    cargo test --release --offline -q -p lumina-repro --test golden_reports
    cargo test --release --offline -q -p lumina-sim --test alloc_free
    cargo test --release --offline -q -p lumina-sim --lib wheel::tests::differential
    cargo test --release --offline -q -p lumina-sim --lib engine::tests::ticks_replay_the_timer_path
    cargo test --release --offline -q -p lumina-dumper --test proptest_reconstruct
    cargo test --release --offline -q -p lumina-rnic --lib -- table_candidates ets::tests
    cargo test --release --offline -q -p lumina-rnic --test loopback
    cargo test --release --offline -q -p lumina-packet --test header_walk
    cargo test --release --offline -q -p lumina-sim --lib pcap
    cargo test --release --offline -q -p lumina-core --lib routed_tests
    cargo test --release --offline -q -p lumina-core --test analyzer_teeth
    cargo test --release --offline -q -p lumina-repro --test chaos_soak
    cargo test --release --offline -q -p lumina-repro --test event_log_pins
    cargo test --release --offline -q -p lumina-telemetry --lib
    cargo test --release --offline -q -p lumina-telemetry --test alloc_free
    cargo test --release --offline -q -p lumina-core --test alloc_free
    cargo test --release --offline -q -p lumina-core --test stage4_memory
    cargo test --release --offline -q -p lumina-repro --test config_corpus

# Non-test lines of the product crates, the count ROADMAP quotes: every
# `crates/*/src` file but `crates/bench`'s, each counted up to the
# column-0 `#[cfg(test)]` that opens its test module; a file declared
# `#[cfg(test)] mod name;` (such as `analyzers/routed_tests.rs`) counts
# nothing (`tools/loc.awk`).
loc:
    files=$(find crates -path crates/bench -prune -o -path '*/src/*.rs' -print | sort); awk -f tools/loc.awk pass=1 $files pass=2 $files

# Fast feedback loop: debug build + tests.
test:
    cargo test --workspace -q

# Lint the whole workspace, warnings fatal.
lint:
    cargo clippy --workspace --all-targets -- -D warnings

# Run one test config end to end and show the human report.
demo config="configs/listing2.yaml":
    cargo run --release -p lumina-core --bin lumina-cli -- {{config}}

# Dump the telemetry journal + per-node metrics for a config.
telemetry config="configs/listing2.yaml":
    cargo run --release -p lumina-core --bin lumina-cli -- telemetry --config {{config}}

# Per-packet latency dissection with Perfetto export (load the JSON at
# ui.perfetto.dev). Doubles as the CI smoke test for the tracing path.
trace config="configs/fig11_noisy_neighbor.yaml" out="perfetto.json":
    cargo run --release -p lumina-core --bin lumina-cli -- trace --config {{config}} --perfetto {{out}}

# Coverage-guided fuzzing smoke: a short campaign on the quirks demo with
# the quirk-knob mutation dimension, persisting the novelty corpus and the
# shrunk per-class reproducer YAMLs to a scratch dir, then a second campaign
# that reloads that corpus (it must say `reloaded … corpus entries`).
# Doubles as the CI smoke for the coverage/shrink/corpus persist → reload
# CLI path.
fuzz-coverage config="configs/quirks_demo.yaml" out="target/fuzz-corpus":
    mkdir -p {{out}}
    rm -f {{out}}/corpus.jsonl {{out}}/repro-*.yaml
    cargo run --release -p lumina-core --bin lumina-cli -- fuzz --config {{config}} --corpus-dir {{out}} --quirk-knobs --generations 4 --batch 4 --seed 7 > {{out}}/findings.jsonl
    cargo run --release -p lumina-core --bin lumina-cli -- fuzz --config {{config}} --corpus-dir {{out}} --quirk-knobs --generations 4 --batch 4 --seed 8 > {{out}}/findings-reloaded.jsonl 2> {{out}}/reloaded.log
    cat {{out}}/reloaded.log
    grep -q '^fuzz: reloaded [1-9][0-9]* corpus entries' {{out}}/reloaded.log

# Cross-NIC behavior matrix: the demo scenario swept over the whole
# device registry, with per-cell conformance verdicts and the
# cross-device behavior diffs. Doubles as the CI smoke for the
# device-registry + matrix CLI path (byte-identical for any --workers).
matrix config="configs/matrix_demo.yaml":
    cargo run --release -p lumina-core --bin lumina-cli -- matrix --config {{config}} --workers 4

# Real-capture ingestion smoke: run the fig11 preset with pcap export,
# then grade the capture offline. `ingest` exits 0 only when the offline
# verdict is compliant AND the file re-ingested pristine, so this recipe
# failing means the export→ingest round trip no longer reproduces the
# live verdict. Doubles as the CI smoke for the pcap → frame-recovery →
# streaming-reconstruction → discovery-conformance path.
ingest config="configs/fig11_noisy_neighbor.yaml" out="target/ingest-smoke.pcap":
    cargo run --release -p lumina-core --bin lumina-cli -- {{config}} --pcap {{out}}
    cargo run --release -p lumina-core --bin lumina-cli -- ingest --pcap {{out}} --config {{config}}

# Deterministic chaos soak: every preset swept under generated chaos
# schedules (link flaps, pause storms, loss/corruption/reorder bursts),
# each run graded by the liveness/recovery oracle; exits 11 on a proven
# wedge. Byte-identical output for any --workers value. Doubles as the
# CI smoke for the chaos-plane + soak CLI path. The chaos_demo preset is
# skipped by design: it declares its own schedule (and its flap is
# *supposed* to wedge — run it with `just demo configs/chaos_demo.yaml`).
soak configs="configs" scenarios="2" workers="4":
    cargo run --release -p lumina-core --bin lumina-cli -- soak --configs {{configs}} --scenarios {{scenarios}} --workers {{workers}}

# The repo benchmark (BENCHMARK.json) for one workload, exactly as the
# driver runs it: end-to-end metrics of real lumina-cli children, last
# stdout line = the JSON result. `trace="1"` prints the per-layer table
# instead. Speed claims are made with this; see benchmark/README.md for
# the workloads and the pairing rule.
benchmark workload="run_packets" seed="1" seconds="10" trace="0":
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --workload {{workload}} --seed {{seed}} --seconds {{seconds}} --trace {{trace}}

# The pairing rule a speed claim rests on (benchmark/README.md): export the
# committed files of `rev` beside the working tree, run the benchmark on
# both `pairs` times alternating which goes first, and print per metric the
# medians, quartiles, wins/pairs, the gain verdict, failed operations and
# whether every run printed the same `report_fnv64`.
bench-pairs rev workload="run_timers" pairs="10" seed="1" trace="0":
    python3 tools/bench_pairs.py {{rev}} --workload {{workload}} --pairs {{pairs}} --seed {{seed}} --trace {{trace}}

# Where one benchmark workload's wall time goes, by function: builds
# `lumina-cli` with line tables into its own target directory, runs it
# `runs` times on the inputs `just benchmark <workload>` left under
# benchmark/out/ with the tools/wallprof.c sampler preloaded (100 µs
# wall-clock stack samples, nothing needed beyond cc / nm / addr2line), and
# prints the self and inclusive tables of tools/wallprof.py. Dev-only; pass
# the binary and the .prof files to the script yourself for `--callers-of`
# (who allocates: `--callers-of __rdl_alloc --through 'alloc,core::,__rdl_,{closure,new_uninit'`
# steps over the std shims between the allocator and the code that asked).
# The argument lists (tools/workload-args.sh) are the operations
# benchmark/src/workloads.rs runs; `export` is the `ingest` workload's set-up
# instead, the live run that exports its capture (`--pcap`), so set-up cost
# is profiled the same way.
profile workload="run_timers" runs="5":
    #!/usr/bin/env bash
    set -euo pipefail
    workload={{workload}} dir=target/wallprof
    source tools/workload-args.sh
    mkdir -p $dir
    cc -O2 -shared -fPIC -o $dir/wallprof.so tools/wallprof.c
    CARGO_PROFILE_RELEASE_DEBUG=line-tables-only cargo build --release --offline -q -p lumina-core --bin lumina-cli --target-dir $dir
    rm -f $dir/{{workload}}.*.prof
    for run in $(seq {{runs}}); do
        WALLPROF_OUT=$dir/{{workload}}.$run.prof LD_PRELOAD=$dir/wallprof.so \
            $dir/release/lumina-cli "${args[@]}" > /dev/null 2>&1 || true
    done
    python3 tools/wallprof.py $dir/release/lumina-cli $dir/{{workload}}.*.prof

# Peak memory of one benchmark workload's operation without the whole
# benchmark: builds the release `lumina-cli` and tools/rss.c, then runs the
# operation `runs` times on the inputs `just benchmark <workload>` left under
# benchmark/out/ (the argument lists `profile` uses) and prints each run's
# wall ms, `ru_maxrss` kB and minor faults, then their medians. The child
# is reaped with wait4(2) by a small C parent, as the benchmark reaps it: a
# Python parent's `wait4` would count the interpreter pages the child
# inherited across `fork`.
rss workload="run_packets" runs="10":
    #!/usr/bin/env bash
    set -euo pipefail
    workload={{workload}} dir=target/rss
    source tools/workload-args.sh
    mkdir -p $dir
    cc -O2 -o $dir/rss tools/rss.c
    cargo build --release --offline -q -p lumina-core --bin lumina-cli
    $dir/rss {{runs}} target/release/lumina-cli "${args[@]}"
