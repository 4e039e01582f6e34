//! The `lumina-cli` binary itself: its typed exit codes, the unknown-flag
//! rejection, and the campaigns' stdout across worker counts. Everything
//! else in the workspace tests the library; this spawns the real process,
//! so `main`'s dispatch and its error-to-exit-code mapping are covered.

use std::process::{Command, Output};

/// Run `lumina-cli` from the repository root, so `configs/…` resolves.
fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lumina-cli"))
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
        .args(args)
        .output()
        .expect("lumina-cli spawns")
}

fn exit_code(args: &[&str]) -> i32 {
    code_of(args, &cli(args))
}

fn code_of(args: &[&str], out: &Output) -> i32 {
    out.status.code().unwrap_or_else(|| {
        panic!(
            "{args:?} died on a signal: {}",
            String::from_utf8_lossy(&out.stderr)
        )
    })
}

#[test]
fn exit_codes_are_typed() {
    // A sink that fails partway through: the staged capture meets a full
    // disk at a block flush or at `finish`, after the run has reported.
    let full = std::path::Path::new("/dev/full").exists();
    if !full {
        eprintln!("/dev/full is absent: skipping its row");
    }
    let dev_full = ["configs/listing2.yaml", "--pcap", "/dev/full"];
    for (args, want) in [
        (&["configs/listing2.yaml"][..], 0),
        (
            &[
                "matrix",
                "--config",
                "configs/matrix_demo.yaml",
                "--devices",
                "nosuchnic",
            ],
            2,
        ),
        (&["configs/no_such_file.yaml"], 3),
        // A capture that cannot be written is an I/O failure, not a
        // warning beside exit 0.
        (
            &["configs/listing2.yaml", "--pcap", "/nonexistent-dir/x.pcap"],
            3,
        ),
        (&["configs/quirks_demo.yaml"], 9),
        // Not a capture at all: nothing to degrade into.
        (&["ingest", "--pcap", "configs/listing2.yaml"], 10),
        (&["configs/chaos_demo.yaml"], 11),
        (&dev_full, 3),
    ] {
        if args == dev_full && !full {
            continue;
        }
        let out = cli(args);
        assert_eq!(code_of(args, &out), want, "{args:?}");
        // A capture that was not written names its path and never claims
        // the packets it lost.
        let pcap = args
            .iter()
            .position(|&a| a == "--pcap")
            .map(|at| args[at + 1]);
        if let (Some(path), 3) = (pcap, want) {
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(stderr.contains(path), "{args:?}: {stderr}");
            assert!(!stderr.contains("wrote "), "{args:?}: {stderr}");
        }
    }
}

/// A chaos window whose end overflows the simulation clock used to reach
/// the unchecked lowering: a panic (exit 8) on a dev build, a wrapped,
/// meaningless window (exit 11) on a release one. So did a horizon or a
/// reorder delay whose nanoseconds overflow (exit 8 on dev; a wrapped value
/// and exit 0 or 11 on release), a connection count with more connections
/// than UDP source ports, and a dumper with no cores or no service rate.
/// All are exit 2 now, naming the field, as are the keys that are gone and
/// a network with no dumper.
#[test]
fn hostile_window_arithmetic_is_a_config_error() {
    let max = "18446744073709551615";
    let burst = "{at-us: 100, duration-us: 150, loss-prob: 0.05}";
    for (preset, old, new, want) in [
        (
            "chaos_demo",
            "{at-us: 700, duration-us: 19300}",
            format!("{{at-us: {max}, duration-us: 2}}"),
            "chaos: link 0: flap 0: at-us + duration-us".to_string(),
        ),
        (
            "chaos_demo",
            burst,
            burst.replace(
                '}',
                &format!(", reorder-prob: 0.1, reorder-delay-us: {max}}}"),
            ),
            format!("chaos: link 0: burst 0: reorder-delay-us {max} does not fit"),
        ),
        (
            "listing2",
            "traffic:",
            format!("network:\n  horizon-ms: {max}\ntraffic:"),
            format!("network: horizon-ms {max} does not fit"),
        ),
        // The amplification bound is a constant, not a key: `1e400`, which
        // parses as +∞, once graded this preset against the default bound
        // (exit 11).
        (
            "chaos_demo",
            "chaos:\n",
            "chaos:\n  amplification-limit: 1e400\n".to_string(),
            "amplification-limit".to_string(),
        ),
        // Connection 16 384 would send from UDP port 65 536 (`49152 +
        // index` overflowed: exit 8 on dev, a wrapped port on release).
        (
            "listing2",
            "num-connections: 2",
            "num-connections: 16384".to_string(),
            "traffic: num-connections 16384 exceeds 16383".to_string(),
        ),
        // A dumper with no cores tripped an assert, and one serving 0
        // packets per second divided by zero, both while the testbed was
        // built (exit 8).
        (
            "listing2",
            "traffic:",
            "network:\n  dumper-cores: 0\ntraffic:".to_string(),
            "network: dumper-cores must be ≥ 1".to_string(),
        ),
        (
            "listing2",
            "traffic:",
            "network:\n  dumper-core-rate-pps: 0\ntraffic:".to_string(),
            "network: dumper-core-rate-pps must be ≥ 1".to_string(),
        ),
        // `num-dumpers: 0` built one dumper, yet rejected a freeze of
        // dumper 0 as out of range.
        (
            "listing2",
            "traffic:",
            "network:\n  num-dumpers: 0\ntraffic:".to_string(),
            "network: num-dumpers must be ≥ 1".to_string(),
        ),
        // The wall-clock watchdog fired or not with host load, and
        // `trace: {enabled: false}` meant no `trace:` at all.
        (
            "listing2",
            "traffic:",
            "network:\n  max-wall-ms: 5\ntraffic:".to_string(),
            "network: unknown field `max-wall-ms`".to_string(),
        ),
        (
            "listing2",
            "traffic:",
            "trace:\n  enabled: false\ntraffic:".to_string(),
            "trace: unknown field `enabled`".to_string(),
        ),
        // Every `traffic:` rejection names its section, as `network:`'s do.
        (
            "listing2",
            "num-connections: 2",
            "num-connections: 0".to_string(),
            "traffic: num-connections must be ≥ 1".to_string(),
        ),
        (
            "listing2",
            "mtu: 1024",
            "mtu: 8192".to_string(),
            "traffic: mtu 8192 out of range".to_string(),
        ),
        (
            "listing2",
            "rdma-verb: write",
            "rdma-verb: scribble".to_string(),
            "traffic: unknown rdma-verb \"scribble\"".to_string(),
        ),
        (
            "listing2",
            "min-retransmit-timeout: 14",
            "min-retransmit-timeout: 32".to_string(),
            "traffic: min-retransmit-timeout must be a 5-bit code".to_string(),
        ),
        (
            "listing2",
            "{qpn: 1, psn: 4, type: ecn, iter: 1}",
            "{qpn: 3, psn: 0, type: ecn, iter: 0}".to_string(),
            "traffic: event 0: qpn 3 out of range".to_string(),
        ),
        (
            "listing2",
            "{qpn: 1, psn: 4, type: ecn, iter: 1}",
            "{qpn: 3, psn: 0, type: ecn, iter: 0}".to_string(),
            "traffic: event 0: psn 0 out of range".to_string(),
        ),
        (
            "listing2",
            "{qpn: 1, psn: 4, type: ecn, iter: 1}",
            "{qpn: 3, psn: 0, type: ecn, iter: 0}".to_string(),
            "traffic: event 0: iter must be ≥ 1".to_string(),
        ),
        (
            "listing2",
            "{qpn: 1, psn: 4, type: ecn, iter: 1}",
            "{qpn: 1, psn: 4, type: smudge, iter: 1}".to_string(),
            "traffic: event 0: unknown type \"smudge\"".to_string(),
        ),
        (
            "listing2",
            "{qpn: 1, psn: 4, type: ecn, iter: 1}",
            "{qpn: 1, psn: 4, type: delay, iter: 1}".to_string(),
            "traffic: event 0: delay requires delay-us ≥ 1".to_string(),
        ),
        (
            "listing2",
            "{qpn: 1, psn: 4, type: ecn, iter: 1}",
            "{qpn: 1, psn: 4, type: reorder, reorder-by: 0, iter: 1}".to_string(),
            "traffic: event 0: reorder-by must be ≥ 1".to_string(),
        ),
        (
            "listing2",
            "tx-depth: 1",
            "tx-depth: 1\n  qp-traffic-class: [0, 7]".to_string(),
            "traffic: qp 1: traffic class 7 out of range".to_string(),
        ),
        // No ETS queue indexed out of bounds (exit 8).
        (
            "listing2",
            "traffic:",
            "ets: {queues: []}\ntraffic:".to_string(),
            "ets: queues must not be empty".to_string(),
        ),
        // A recovery context per `u64` asked the allocator for 2^67 bytes
        // (exit 8); a context per connection already never wedges.
        (
            "listing2",
            "adaptive-retrans: false",
            format!("adaptive-retrans: false\n  override-recovery-contexts: {max}"),
            format!("requester: override-recovery-contexts {max} exceeds 16383"),
        ),
        // Nothing posted: the run idled to the horizon (exit 1).
        (
            "listing2",
            "barrier-sync: true\n  tx-depth: 1",
            "barrier-sync: false\n  tx-depth: 0".to_string(),
            "traffic: tx-depth must be ≥ 1".to_string(),
        ),
        (
            "listing2",
            "num-msgs-per-qp: 10",
            "num-msgs-per-qp: 0".to_string(),
            "traffic: num-msgs-per-qp must be ≥ 1".to_string(),
        ),
        // An unknown NIC names the key that chose it.
        (
            "listing2",
            "nic-type: cx4\n  dcqcn-rp-enable",
            "nic-type: cx9\n  dcqcn-rp-enable".to_string(),
            "requester: nic-type: unknown requester nic \"cx9\"".to_string(),
        ),
        (
            "listing2",
            "traffic:",
            "device: {responder: cx9}\ntraffic:".to_string(),
            "device: responder: unknown responder nic \"cx9\"".to_string(),
        ),
    ] {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../configs");
        let yaml = std::fs::read_to_string(format!("{dir}/{preset}.yaml")).unwrap();
        assert!(yaml.contains(old), "{preset}.yaml lost {old:?}");
        let path = concat!(env!("CARGO_TARGET_TMPDIR"), "/hostile_window.yaml");
        std::fs::write(path, yaml.replace(old, &new)).unwrap();
        let out = cli(&[path]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{stderr}");
        assert!(stderr.contains(&want), "{stderr}");
    }
}

/// The `run` report, human and `--json`, against goldens recorded on the
/// commit before the report moved into the library. `quirks_demo` and
/// `chaos_demo` between them print every optional section (quirks,
/// conformance, chaos, recovery). `UPDATE_GOLDEN=1` re-records.
#[test]
fn run_report_matches_its_goldens() {
    for (preset, want) in [("quirks_demo", 9), ("chaos_demo", 11)] {
        let config = format!("configs/{preset}.yaml");
        for (extra, ext) in [(&[][..], "txt"), (&["--json"][..], "json")] {
            let out = cli(&[&[config.as_str()], extra].concat());
            assert_eq!(out.status.code(), Some(want), "{preset} {extra:?}");
            let golden = format!(
                "{}/tests/golden/run_{preset}.{ext}",
                env!("CARGO_MANIFEST_DIR")
            );
            if std::env::var_os("UPDATE_GOLDEN").is_some() {
                std::fs::write(&golden, &out.stdout).unwrap();
            }
            let expected = std::fs::read(&golden).unwrap_or_else(|e| panic!("{golden}: {e}"));
            assert!(
                out.stdout == expected,
                "{preset} {extra:?} drifted from {golden}:\n{}",
                String::from_utf8_lossy(&out.stdout)
            );
        }
    }
}

#[test]
fn unknown_flags_are_config_errors_naming_the_flag() {
    for (args, flag, sub) in [
        // `--worker` is a typo for `--workers`; it used to be ignored
        // (exit 0 on one worker).
        (
            &[
                "matrix",
                "--config",
                "configs/matrix_demo.yaml",
                "--worker",
                "4",
            ][..],
            "--worker",
            "matrix",
        ),
        // `--retries` re-ran a failed run, which replays the same seed to
        // the same verdict; it is gone.
        (
            &["configs/listing2.yaml", "--retries", "1"][..],
            "--retries",
            "run",
        ),
    ] {
        let out = cli(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "nothing may run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown flag {flag} for `{sub}`")),
            "{stderr}"
        );
    }

    // `--config` is a common flag, but `soak` sweeps `--configs <dir>`:
    // the one-letter typo used to soak the default directory and exit 0.
    for flag in ["--config", "--faults", "--quirks"] {
        let out = cli(&["soak", flag, "configs/listing2.yaml", "--scenarios", "1"]);
        assert_eq!(out.status.code(), Some(2), "soak {flag}");
        assert!(out.stdout.is_empty(), "nothing may run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("{flag}:")) && stderr.contains("--configs <dir>"),
            "{stderr}"
        );
    }

    // `--shrink` was a second spelling of `--coverage` and is gone.
    let shrink = ["fuzz", "--config", "configs/listing2.yaml", "--shrink"];
    assert_eq!(exit_code(&shrink), 2);

    // Another subcommand's flag is just as unknown here…
    assert_eq!(
        exit_code(&["configs/listing2.yaml", "--validate", "--workers", "2"]),
        2
    );
    // …a valued flag's value is never inspected, and the common flags
    // pass everywhere.
    assert_eq!(
        exit_code(&[
            "--validate",
            "--pcap",
            "--not-a-flag",
            "configs/listing2.yaml"
        ]),
        0
    );
    assert_eq!(
        exit_code(&[
            "--validate",
            "configs/listing2.yaml",
            "--seed",
            "9",
            "--json"
        ]),
        0
    );
}

/// A corpus whose entries name their first-covered points by hashed slot
/// number — the format before coverage became the replay's decision
/// points — names nothing the campaign can reload: exit 2, naming the line.
#[test]
fn a_corpus_of_hashed_slots_is_a_config_error() {
    let dir = concat!(env!("CARGO_TARGET_TMPDIR"), "/hashed_slot_corpus");
    std::fs::create_dir_all(dir).unwrap();
    let yaml = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../configs/listing2.yaml"
    ))
    .unwrap();
    let config = lumina_core::config::TestConfig::from_yaml(&yaml).unwrap();
    let line = format!(
        "{{\"candidate\":0,\"score\":2400.0,\"new-slots\":[10,306,539,577],\"config\":{}}}\n",
        serde_json::to_string(&config).unwrap()
    );
    std::fs::write(format!("{dir}/corpus.jsonl"), line).unwrap();
    let out = cli(&[
        "fuzz",
        "--config",
        "configs/listing2.yaml",
        "--corpus-dir",
        dir,
        "--generations",
        "1",
        "--batch",
        "1",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing may run");
    assert!(stderr.contains("corpus line 1"), "{stderr}");
}

#[test]
fn campaign_stdout_is_byte_identical_across_worker_counts() {
    for base in [
        &["matrix", "--config", "configs/matrix_demo.yaml", "--json"][..],
        &[
            "soak",
            "--configs",
            "configs/listing2.yaml",
            "--scenarios",
            "3",
            "--json",
        ],
    ] {
        let with_workers = |n: &str| {
            let out = cli(&[base, &["--workers", n]].concat());
            assert_eq!(out.status.code(), Some(0), "{base:?} --workers {n}");
            out.stdout
        };
        let serial = with_workers("1");
        assert!(!serial.is_empty());
        assert_eq!(serial, with_workers("4"), "{base:?}");
    }
}

#[test]
fn human_run_report_says_when_the_journal_overflowed() {
    // One journal event per mirrored packet: 66 x 1 MiB at MTU 1024 is
    // 67 584 data packets, more than the 65 536-event ring holds.
    let config = concat!(env!("CARGO_TARGET_TMPDIR"), "/journal_overflow.yaml");
    let yaml = "requester: { nic-type: cx6 }\nresponder: { nic-type: cx6 }\n\
                traffic:\n  num-connections: 1\n  rdma-verb: write\n  num-msgs-per-qp: 66\n  \
                mtu: 1024\n  message-size: 1048576\n";
    std::fs::write(config, yaml).unwrap();
    let out = cli(&[config]);
    assert_eq!(out.status.code(), Some(0));
    let report = String::from_utf8_lossy(&out.stdout);
    let dropped: Vec<&str> = report
        .lines()
        .filter(|l| l.starts_with("journal dropped : ") && l.ends_with(" (ring full)"))
        .collect();
    assert_eq!(dropped.len(), 1, "{report}");

    // A run the ring holds prints no such line.
    let out = cli(&["configs/listing2.yaml"]);
    assert!(!String::from_utf8_lossy(&out.stdout).contains("journal dropped"));
}

fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The bytes of `telemetry`, `trace` and `fuzz`, as FNV-1a 64 recorded on
/// the commit before their rendering moved out of the binary into
/// `lumina_core::report`. A failure prints the hashes it saw.
#[test]
fn telemetry_trace_and_fuzz_bytes_are_pinned() {
    let stdout_of = |args: &[&str], want: i32| {
        let out = cli(args);
        assert_eq!(out.status.code(), Some(want), "{args:?}");
        out.stdout
    };
    let telemetry = ["telemetry", "--config", "configs/listing2.yaml"];
    let perfetto = concat!(env!("CARGO_TARGET_TMPDIR"), "/pinned_perfetto.json");
    let trace = ["trace", "--config", "configs/fig11_noisy_neighbor.yaml"];
    let fuzz = cli(&[
        "fuzz",
        "--config",
        "configs/quirks_demo.yaml",
        "--coverage",
        "--quirk-knobs",
        "--generations",
        "3",
        "--batch",
        "4",
        "--seed",
        "7",
        "--workers",
        "1",
    ]);
    assert_eq!(fuzz.status.code(), Some(0));
    // The one wall-clock line of the campaign's stderr.
    let fuzz_stderr: String = String::from_utf8_lossy(&fuzz.stderr)
        .lines()
        .filter(|l| !l.starts_with("fuzz: profile "))
        .flat_map(|l| [l, "\n"])
        .collect();
    // The summary says how much of the spec's decision table was covered.
    let (k, n) = fuzz_stderr
        .lines()
        .find_map(|l| {
            let rest = l.strip_prefix("fuzz: coverage ")?;
            let (k, rest) = rest.split_once('/')?;
            let (n, _) = rest.split_once(" decision points (")?;
            Some((k.parse::<usize>().ok()?, n.parse::<usize>().ok()?))
        })
        .unwrap_or_else(|| panic!("no decision coverage line: {fuzz_stderr}"));
    assert!(0 < k && k <= n, "{k}/{n}");
    let seen = [
        fnv64(&stdout_of(&telemetry, 0)),
        fnv64(&stdout_of(&[&telemetry[..], &["--json"]].concat(), 0)),
        fnv64(&stdout_of(
            &[&trace[..], &["--perfetto", perfetto]].concat(),
            0,
        )),
        fnv64(&stdout_of(&[&trace[..], &["--json"]].concat(), 0)),
        fnv64(&std::fs::read(perfetto).unwrap()),
        fnv64(&fuzz.stdout),
        fnv64(fuzz_stderr.as_bytes()),
    ];
    let pinned = [
        0x218f_8870_8330_4b92, // telemetry
        0x81ab_b279_4868_0013, // telemetry --json
        0x5949_a397_8b5a_c2a3, // trace
        0xfdcb_89a3_4da9_cb84, // trace --json
        0x7b23_600a_b478_b177, // the --perfetto file
        // Re-recorded once when the coverage signal became the RC replay's
        // decision points instead of hashed journal edges. The novelty
        // bonus of each score and the summary line moved; the twelve
        // configs evaluated at this budget did not. The hashed-edge signal
        // left 0x6ec8_35b2_a2b8_bd87 / 0x6d39_98b3_cbd9_8562 (its summary
        // line: `coverage 223 distinct slots`).
        0xdfa6_8b32_ee88_db6e, // fuzz stdout
        0x9777_6e44_6df2_d517, // fuzz stderr, profile line dropped
    ];
    assert!(seen == pinned, "saw {seen:#018x?}");
}
