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
    let out = cli(args);
    out.status.code().unwrap_or_else(|| {
        panic!(
            "{args:?} died on a signal: {}",
            String::from_utf8_lossy(&out.stderr)
        )
    })
}

#[test]
fn exit_codes_are_typed() {
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
    ] {
        assert_eq!(exit_code(args), want, "{args:?}");
    }
}

/// A chaos window whose end overflows the simulation clock used to reach
/// the unchecked lowering: a panic (exit 8) on a dev build, a wrapped,
/// meaningless window (exit 11) on a release one. Both are exit 2 now.
#[test]
fn hostile_window_arithmetic_is_a_config_error() {
    let demo = concat!(env!("CARGO_MANIFEST_DIR"), "/../../configs/chaos_demo.yaml");
    let yaml = std::fs::read_to_string(demo).unwrap();
    let flap = "{at-us: 700, duration-us: 19300}";
    assert!(yaml.contains(flap), "chaos_demo.yaml lost its flap");
    let hostile = yaml.replace(flap, "{at-us: 18446744073709551615, duration-us: 2}");
    let path = concat!(env!("CARGO_TARGET_TMPDIR"), "/hostile_window.yaml");
    std::fs::write(path, hostile).unwrap();
    let out = cli(&[path]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    let want = "chaos: link 0: flap 0: at-us + duration-us";
    assert!(stderr.contains(want), "{stderr}");
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
    // `--worker` is a typo for `--workers`; it used to be ignored (exit 0
    // on one worker).
    let typo = [
        "matrix",
        "--config",
        "configs/matrix_demo.yaml",
        "--worker",
        "4",
    ];
    let out = cli(&typo);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing may run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--worker") && stderr.contains("matrix"),
        "{stderr}"
    );

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
