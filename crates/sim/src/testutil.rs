//! Simple nodes for driving and observing the network in tests: a
//! [`Script`] node that emits pre-planned frames at pre-planned times, and
//! a [`Collector`] node that records everything it receives.
//!
//! These live in the library (not `#[cfg(test)]`) because downstream
//! crates' integration tests use them too.

use crate::engine::{NodeCtx, PortId};
use crate::time::SimTime;
use crate::Node;
use lumina_packet::Frame;
use lumina_telemetry::EventLog;
use std::cell::RefCell;
use std::rc::Rc;

/// Compare two telemetry journals line by line (JSONL form).
///
/// Returns `None` when the journals are byte-identical; otherwise the
/// first differing line — `(line number, line from a, line from b)`, with
/// an empty string standing in for a journal that ended early. Tests use
/// this instead of a plain `assert_eq!` so a determinism regression
/// reports the first divergent event rather than two multi-kilobyte blobs.
pub fn journal_diff(a: &EventLog, b: &EventLog) -> Option<(usize, String, String)> {
    let (ja, jb) = (a.journal_jsonl(), b.journal_jsonl());
    if ja == jb {
        return None;
    }
    let (mut la, mut lb) = (ja.lines(), jb.lines());
    let mut n = 1;
    loop {
        match (la.next(), lb.next()) {
            (None, None) => return Some((n, String::new(), String::new())),
            (x, y) if x != y => {
                return Some((
                    n,
                    x.unwrap_or_default().to_string(),
                    y.unwrap_or_default().to_string(),
                ))
            }
            _ => n += 1,
        }
    }
}

/// Shared recording of received frames.
pub type Recording = Rc<RefCell<Vec<(SimTime, PortId, Frame)>>>;

/// Create an empty recording.
pub fn recording() -> Recording {
    Rc::new(RefCell::new(Vec::new()))
}

/// Records every frame it receives, with arrival time and port.
pub struct Collector {
    /// Shared handle to the recorded frames.
    pub frames: Recording,
}

impl Collector {
    /// Create a collector writing into `frames`.
    pub fn new(frames: Recording) -> Collector {
        Collector { frames }
    }
}

impl Node for Collector {
    fn on_frame(&mut self, port: PortId, frame: Frame, ctx: &mut NodeCtx<'_>) {
        self.frames.borrow_mut().push((ctx.now(), port, frame));
    }
    fn on_timer(&mut self, _token: u64, _ctx: &mut NodeCtx<'_>) {}
    fn name(&self) -> &str {
        "collector"
    }
}

/// Emits a fixed schedule of frames. Arm by scheduling a timer with
/// [`Script::KICKOFF`] after adding it to the engine.
pub struct Script {
    /// `(emit time, port, frame)` entries; emitted in order of the list.
    pub plan: Vec<(SimTime, PortId, Frame)>,
}

impl Script {
    /// Timer token that starts the plan.
    pub const KICKOFF: u64 = u64::MAX;

    /// Create a script node.
    pub fn new(plan: Vec<(SimTime, PortId, Frame)>) -> Script {
        Script { plan }
    }
}

impl Node for Script {
    fn on_frame(&mut self, _port: PortId, _frame: Frame, _ctx: &mut NodeCtx<'_>) {}
    fn on_timer(&mut self, token: u64, ctx: &mut NodeCtx<'_>) {
        if token == Self::KICKOFF {
            for (i, (at, _, _)) in self.plan.iter().enumerate() {
                ctx.set_timer_at(*at, i as u64);
            }
        } else if let Some((_, port, frame)) = self.plan.get(token as usize) {
            ctx.send(*port, frame.clone());
        }
    }
    fn name(&self) -> &str {
        "script"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::time::Bandwidth;
    use lumina_telemetry::{tev, Telemetry};

    #[test]
    fn script_delivers_to_collector_in_order() {
        let mut eng = Engine::new(1);
        let frames: Vec<Frame> = (0..3u8).map(|i| Frame::from_vec(vec![i; 64])).collect();
        let plan = frames
            .iter()
            .enumerate()
            .map(|(i, f)| (SimTime::from_micros(i as u64), PortId(0), f.clone()))
            .collect();
        let script = eng.add_node(Box::new(Script::new(plan)));
        let rec = recording();
        let coll = eng.add_node(Box::new(Collector::new(rec.clone())));
        eng.connect(
            script,
            PortId(0),
            coll,
            PortId(0),
            Bandwidth::gbps(100),
            SimTime::from_nanos(100),
        );
        eng.schedule_timer(script, SimTime::ZERO, Script::KICKOFF);
        eng.run(None);
        let got = rec.borrow();
        assert_eq!(got.len(), 3);
        for (i, (t, _, f)) in got.iter().enumerate() {
            assert_eq!(f[0], i as u8);
            assert!(*t >= SimTime::from_micros(i as u64));
        }
    }

    /// Journals one event per received frame, with an rng-derived attribute
    /// so the test also covers the engine's deterministic per-node RNG.
    struct Chatty;

    impl Node for Chatty {
        fn on_frame(&mut self, port: PortId, frame: Frame, ctx: &mut NodeCtx<'_>) {
            let jitter = ctx.rng().below(1000);
            tev!(
                ctx.telemetry(),
                ctx.now().as_nanos(),
                ctx.telemetry_node(),
                "test",
                "frame.rx",
                port = port.0,
                len = frame.len(),
                jitter = jitter,
            );
        }
        fn on_timer(&mut self, _token: u64, _ctx: &mut NodeCtx<'_>) {}
        fn name(&self) -> &str {
            "chatty"
        }
    }

    fn chatty_run(seed: u64) -> EventLog {
        let tel = Telemetry::enabled();
        let mut eng = Engine::new(seed);
        eng.set_telemetry(tel.clone());
        let plan = (0..50u64)
            .map(|i| {
                (
                    SimTime::from_nanos(i * 137),
                    PortId(0),
                    Frame::from_vec(vec![0u8; 64 + (i as usize % 7) * 32]),
                )
            })
            .collect();
        let script = eng.add_node(Box::new(Script::new(plan)));
        let chatty = eng.add_node(Box::new(Chatty));
        eng.connect(
            script,
            PortId(0),
            chatty,
            PortId(0),
            Bandwidth::gbps(100),
            SimTime::from_nanos(100),
        );
        eng.schedule_timer(script, SimTime::ZERO, Script::KICKOFF);
        eng.run(None);
        tel.into_log()
    }

    #[test]
    fn same_seed_runs_produce_identical_journals() {
        let a = chatty_run(7);
        let b = chatty_run(7);
        assert!(a.journal_len() > 0, "test must journal something");
        if let Some((n, la, lb)) = journal_diff(&a, &b) {
            panic!("journals diverge at line {n}:\n  a: {la}\n  b: {lb}");
        }
        assert_eq!(a.journal_jsonl(), b.journal_jsonl());
    }

    #[test]
    fn journal_diff_reports_first_divergence() {
        let a = chatty_run(7);
        let b = chatty_run(8); // different seed → different rng attrs
        let (n, la, lb) = journal_diff(&a, &b).expect("seeds must differ");
        assert_eq!(n, 1, "first event already differs through rng jitter");
        assert_ne!(la, lb);
    }
}
