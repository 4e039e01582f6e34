# Developer entry points. `just check` is the gate CI and pre-commit use.

# Build, test and lint everything, exactly as the release gate does.
check:
    cargo build --release
    cargo test -q
    cargo clippy -- -D warnings

# The full CI gate: release build; the workspace tests (`default-members`
# makes the plain `cargo test -q` run every crate's unit tests and every
# integration suite — the campaign differentials, golden reports, fault /
# quirk / device matrices, trace determinism, ingest round trip, chaos
# soak, and `cli_e2e` on the real binary — so no suite is named twice
# here); then the live smokes through the CLI (`trace` with Perfetto
# export, `fuzz-coverage` with corpus persistence, `matrix`, `ingest`,
# `soak`); lint with warnings fatal, which is also what keeps `unwrap` /
# `expect` / indexing out of the modules that deny them.
# The workspace tests run the dev profile, so the byte-level suites run once
# more under `--release`: the binary users run (fat LTO, one codegen unit)
# against the report goldens, the CLI goldens and the per-slot panic
# isolation that needs `panic = unwind` — and the event queue's
# zero-allocation and differential tests, because that build inlines the
# wheel into `Engine::run`, and the reconstruction properties, because it
# is that build's sort that orders the trace, and the device's two
# transcript pins (the random-operation harness and the loopback wire
# transcripts), because it inlines `Rnic`'s handlers into `HostNode`, and
# the two ingest differentials — the header walk against the per-header
# walk (`header_walk`) and the pcap reader under ragged reads (`--lib
# pcap`) — because it inlines the walk into `recover_entry` and the reader
# into `ingest_reader`.
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
    cargo clippy -- -D warnings

# The release-profile pass of the byte-level suites (see `ci`).
release-bytes:
    cargo test --release --offline -q -p lumina-core --test cli_e2e
    cargo test --release --offline -q -p lumina-core --lib run_caught
    cargo test --release --offline -q -p lumina-repro --test golden_reports
    cargo test --release --offline -q -p lumina-sim --test alloc_free
    cargo test --release --offline -q -p lumina-sim --lib wheel::tests::differential
    cargo test --release --offline -q -p lumina-dumper --test proptest_reconstruct
    cargo test --release --offline -q -p lumina-rnic --lib table_candidates
    cargo test --release --offline -q -p lumina-rnic --test loopback
    cargo test --release --offline -q -p lumina-packet --test header_walk
    cargo test --release --offline -q -p lumina-sim --lib pcap

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
# shrunk per-class reproducer YAMLs to a scratch dir. Doubles as the CI
# smoke for the coverage/shrink/corpus-persistence CLI path.
fuzz-coverage config="configs/quirks_demo.yaml" out="target/fuzz-corpus":
    mkdir -p {{out}}
    cargo run --release -p lumina-core --bin lumina-cli -- fuzz --config {{config}} --corpus-dir {{out}} --quirk-knobs --generations 4 --batch 4 --seed 7 > {{out}}/findings.jsonl

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
# The argument lists are the operations benchmark/src/workloads.rs runs.
profile workload="run_timers" runs="5":
    #!/usr/bin/env bash
    set -euo pipefail
    dir=target/wallprof inputs=benchmark/out/{{workload}}
    case {{workload}} in
        run_packets | run_timers) args=("$inputs/config.yaml" --json) ;;
        ingest) args=(ingest --pcap "$inputs/capture.pcap" --config "$inputs/config.yaml" --chunk-events 8192 --json) ;;
        soak) args=(soak --configs "$inputs/presets" --scenarios 2 --seed 1 --workers 1 --json) ;;
        fuzz) args=(fuzz --config "$inputs/base.yaml" --coverage --no-shrink --events-only --workers 1 --generations 8 --batch 16) ;;
        matrix) args=(matrix --config "$inputs/base.yaml" --workers 1 --json) ;;
        *) echo "no such workload: {{workload}}" >&2; exit 2 ;;
    esac
    [ -d "$inputs" ] || { echo "$inputs is missing: run \`just benchmark {{workload}}\` once" >&2; exit 2; }
    mkdir -p $dir
    cc -O2 -shared -fPIC -o $dir/wallprof.so tools/wallprof.c
    CARGO_PROFILE_RELEASE_DEBUG=line-tables-only cargo build --release --offline -q -p lumina-core --bin lumina-cli --target-dir $dir
    rm -f $dir/{{workload}}.*.prof
    for run in $(seq {{runs}}); do
        WALLPROF_OUT=$dir/{{workload}}.$run.prof LD_PRELOAD=$dir/wallprof.so \
            $dir/release/lumina-cli "${args[@]}" > /dev/null 2>&1 || true
    done
    python3 tools/wallprof.py $dir/release/lumina-cli $dir/{{workload}}.*.prof
