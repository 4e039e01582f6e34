//! The untraced, end-to-end half: real `lumina-cli` children, one at a
//! time, closed loop (the next operation starts when the previous one has
//! been reaped and checked).

use crate::child::{fnv1a64, run_op, OpResult};
use crate::workloads::{Inputs, Kind};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Where things live for this invocation.
pub struct Env {
    /// The freshly built `lumina-cli`.
    pub cli: PathBuf,
    /// `benchmark/out/<workload>/`: generated inputs and child stderr.
    pub dir: PathBuf,
}

impl Env {
    fn stderr_log(&self) -> PathBuf {
        self.dir.join("stderr.log")
    }

    /// Run one child; its stderr replaces `stderr.log`.
    fn run(&self, args: &[String]) -> Result<OpResult, String> {
        run_op(&self.cli, args, &self.stderr_log())
    }

    /// What the last child wrote to stderr.
    fn stderr(&self) -> String {
        std::fs::read_to_string(self.stderr_log()).unwrap_or_default()
    }

    /// The last few lines of it, for error messages.
    fn stderr_tail(&self) -> String {
        let text = self.stderr();
        let lines: Vec<&str> = text.lines().collect();
        lines[lines.len().saturating_sub(5)..].join("\n")
    }
}

/// One finished set-up: inputs on disk, the reference fingerprint every
/// measured operation must reproduce.
pub struct Prepared {
    pub inputs: Inputs,
    pub reference_fnv: u64,
    pub reference_exit: i32,
    /// Size of the exported capture (ingest only, else 0).
    pub pcap_bytes: u64,
}

fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))
}

/// Generate the inputs for `seed`, export the capture (ingest), run the
/// reference operation, check it and the workload's shape invariants, and
/// run one more warm-up operation that must already match the reference.
pub fn set_up(kind: Kind, seed: u64, env: &Env) -> Result<Prepared, String> {
    fresh_dir(&env.dir)?;
    let inputs = kind.generate(seed, &env.dir)?;

    let (mut exported, mut pcap_bytes) = (0u64, 0u64);
    if kind == Kind::Ingest {
        let pcap = env.dir.join("capture.pcap");
        let args = vec![
            inputs.primary_path.display().to_string(),
            "--json".into(),
            "--pcap".into(),
            pcap.display().to_string(),
        ];
        let r = env.run(&args)?;
        if r.exit_code != 0 {
            return Err(format!(
                "pcap export exited {}:\n{}",
                r.exit_code,
                env.stderr_tail()
            ));
        }
        let report: serde_json::Value = std::str::from_utf8(&r.stdout)
            .ok()
            .and_then(|t| serde_json::from_str(t).ok())
            .ok_or("pcap export printed no JSON report")?;
        exported = report
            .get("trace_packets")
            .and_then(|v| v.as_u64())
            .ok_or("pcap export report has no trace_packets")?;
        pcap_bytes = std::fs::metadata(&pcap)
            .map_err(|e| format!("{}: {e}", pcap.display()))?
            .len();
    }

    let reference = env.run(&inputs.op_args)?;
    if !kind.expected_exit().contains(&reference.exit_code) {
        return Err(format!(
            "reference operation exited {}, expected one of {:?}:\n{}",
            reference.exit_code,
            kind.expected_exit(),
            env.stderr_tail()
        ));
    }
    kind.check_reference(&reference.stdout, &env.stderr(), exported)?;
    let reference_fnv = fnv1a64(&reference.stdout);

    let prepared = Prepared {
        inputs,
        reference_fnv,
        reference_exit: reference.exit_code,
        pcap_bytes,
    };
    let warm = env.run(&prepared.inputs.op_args)?;
    check_op(&prepared, &warm)
        .map_err(|e| format!("warm-up operation: {e}\n{}", env.stderr_tail()))?;
    Ok(prepared)
}

/// A measured operation is correct when it exits like the reference and
/// prints the same bytes. Every subcommand is deterministic for a fixed
/// input, so equality with a semantically checked reference is the whole
/// check.
pub fn check_op(prepared: &Prepared, op: &OpResult) -> Result<(), String> {
    if op.exit_code != prepared.reference_exit {
        return Err(format!(
            "exit code {} differs from the reference's {}",
            op.exit_code, prepared.reference_exit
        ));
    }
    let fnv = fnv1a64(&op.stdout);
    if fnv != prepared.reference_fnv {
        return Err(format!(
            "stdout fnv64 {fnv:016x} differs from the reference's {:016x}",
            prepared.reference_fnv
        ));
    }
    Ok(())
}

/// What the measured loop saw.
#[derive(Default)]
pub struct Measured {
    pub wall_ms: Vec<f64>,
    pub peak_rss_mb: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
}

impl Measured {
    /// Run one more operation and file its outcome.
    pub fn one_op(&mut self, prepared: &Prepared, env: &Env) -> Result<(), String> {
        let op = env.run(&prepared.inputs.op_args)?;
        self.attempted += 1;
        match check_op(prepared, &op) {
            Ok(()) => {
                self.wall_ms.push(op.wall_ms);
                self.peak_rss_mb.push(op.peak_rss_mb);
            }
            Err(e) => {
                self.failed += 1;
                eprintln!(
                    "operation {} failed: {e}\n{}",
                    self.attempted,
                    env.stderr_tail()
                );
            }
        }
        Ok(())
    }
}

/// Run operations back to back for `seconds` (and at least `min_ops`).
/// Failed operations count in `attempted`/`failed` and contribute no
/// timing sample.
pub fn measure(
    prepared: &Prepared,
    env: &Env,
    seconds: f64,
    min_ops: u64,
) -> Result<Measured, String> {
    let mut m = Measured::default();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds || m.attempted < min_ops {
        m.one_op(prepared, env)?;
    }
    Ok(m)
}
