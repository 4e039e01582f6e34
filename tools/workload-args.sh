# The lumina-cli argument list of one benchmark workload's operation, as
# benchmark/src/workloads.rs runs it, over the inputs one `just benchmark
# <workload>` run leaves under benchmark/out/. `export` is the `ingest`
# workload's set-up instead: the live run that exports its capture
# (`--pcap`, into `$dir`). Sourced by the `profile` and `rss` recipes with
# `workload` and `dir` set; sets `inputs` and `args`.
inputs=benchmark/out/$workload
case $workload in
    run_packets | run_timers) args=("$inputs/config.yaml" --json) ;;
    ingest) args=(ingest --pcap "$inputs/capture.pcap" --config "$inputs/config.yaml" --chunk-events 8192 --json) ;;
    export) inputs=benchmark/out/ingest args=("$inputs/config.yaml" --json --pcap "$dir/export.pcap") ;;
    soak) args=(soak --configs "$inputs/presets" --scenarios 2 --seed 1 --workers 1 --json) ;;
    fuzz) args=(fuzz --config "$inputs/base.yaml" --coverage --no-shrink --events-only --workers 1 --generations 8 --batch 16) ;;
    matrix) args=(matrix --config "$inputs/base.yaml" --workers 1 --json) ;;
    *) echo "no such workload: $workload" >&2; exit 2 ;;
esac
[ -d "$inputs" ] || { echo "$inputs is missing: run \`just benchmark ${inputs#benchmark/out/}\` once" >&2; exit 2; }
