//! The one campaign executor: run a list of independent jobs, each in its
//! own slot, and hand the results back in slot order.
//!
//! `fuzz` generations, `matrix` cells and `soak` scenarios are all "run
//! many configs, grade each, merge in a fixed order"; [`run_slots`] is the
//! only implementation of that. Its contract:
//!
//! * **Slot order.** The result vector lines up with `jobs` index for
//!   index, whatever order the jobs *executed* in, so anything the caller
//!   folds from it in order is byte-identical for every worker count.
//!   That holds when `f` is a pure function of its job — callers make every
//!   RNG decision before building the job list.
//! * **Serial path.** `workers <= 1` maps `f` over the jobs on the calling
//!   thread, in order, with no thread machinery at all.
//! * **Panic isolation.** A panic anywhere inside `f` is caught for that
//!   slot and comes home as [`EvalFailure::Panic`]; it never kills a worker
//!   (which would silently starve the remaining jobs) or the campaign.
//! * **What runs where.** All of `f` runs in the worker, so a caller that
//!   reduces a `TestResults` inside `f` (a matrix cell, a soak scenario)
//!   drops the heavy result there instead of holding every one until the
//!   merge. Everything order-sensitive — scoring against a pool, coverage
//!   maps, tallies — belongs after `run_slots` returns, on the campaign
//!   thread.

use crate::config::TestConfig;
use crate::error::Error;
use crate::orchestrator::{run_test, TestResults};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// How a job failed: a typed error it returned, or a panic the executor
/// caught and carried home as a message.
#[derive(Debug)]
pub(crate) enum EvalFailure {
    Error(Error),
    Panic(String),
}

/// Extract a human-readable message from a `catch_unwind` payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run `f`, turning a panic inside it into [`EvalFailure::Panic`]: the one
/// `catch_unwind` every run in the crate goes through.
fn caught<T>(f: impl FnOnce() -> Result<T, Error>) -> Result<T, EvalFailure> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r.map_err(EvalFailure::Error),
        Err(payload) => Err(EvalFailure::Panic(panic_message(payload.as_ref()))),
    }
}

/// `run_test` with panic isolation: a panicking configuration is a result
/// to classify, not the end of the caller. For single runs outside a job
/// list — the shrinker's verification re-runs, the supervisor's attempts.
pub(crate) fn run_caught(cfg: &TestConfig) -> Result<TestResults, EvalFailure> {
    caught(|| run_test(cfg))
}

/// What one slot comes home as.
pub(crate) type Evaluated<R> = Result<R, EvalFailure>;

/// One worker's share of a job list: `(runs, wall_ns)`.
pub(crate) type WorkerRow = (u64, u64);

/// Run `f` over every job on `workers` threads (see the module docs for
/// the contract). Returns the per-slot results and one row per worker that
/// ran — a single row on the serial path.
pub(crate) fn run_slots<J: Sync, R: Send>(
    jobs: &[J],
    workers: usize,
    f: impl Fn(&J) -> Result<R, Error> + Sync,
) -> (Vec<Evaluated<R>>, Vec<WorkerRow>) {
    if workers <= 1 {
        let start = Instant::now();
        let out: Vec<_> = jobs.iter().map(|job| caught(|| f(job))).collect();
        let row = (jobs.len() as u64, start.elapsed().as_nanos() as u64);
        return (out, vec![row]);
    }

    // Relaxed is enough: the cursor only hands out indices, and the jobs
    // themselves were published to the workers by the scope's spawn.
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<Evaluated<R>>> = jobs.iter().map(|_| None).collect();
    let mut rows = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.min(jobs.len().max(1)))
            .map(|_| {
                scope.spawn(|| {
                    let start = Instant::now();
                    let mut local = Vec::new();
                    loop {
                        let slot = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(job) = jobs.get(slot) else {
                            break;
                        };
                        local.push((slot, caught(|| f(job))));
                    }
                    (local, start.elapsed().as_nanos() as u64)
                })
            })
            .collect();
        for handle in handles {
            let (local, wall_ns) = handle
                .join()
                .expect("worker loop cannot panic: f is caught per slot");
            rows.push((local.len() as u64, wall_ns));
            for (slot, res) in local {
                slots[slot] = Some(res);
            }
        }
    });
    let out = slots
        .into_iter()
        .map(|s| s.expect("the cursor hands out every slot exactly once"))
        .collect();
    (out, rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    /// What job `j` must come home as: most square, every fifth errors,
    /// every seventh panics.
    fn expected(j: u64) -> Result<u64, String> {
        match j {
            j if j % 7 == 3 => Err(format!("panic: job {j} exploded")),
            j if j % 5 == 2 => Err(format!("error: invalid configuration: job {j} refused")),
            j => Ok(j * j),
        }
    }

    fn flat(r: Evaluated<u64>) -> Result<u64, String> {
        r.map_err(|f| match f {
            EvalFailure::Error(e) => format!("error: {e}"),
            EvalFailure::Panic(m) => format!("panic: {m}"),
        })
    }

    #[test]
    fn results_equal_the_serial_map_for_every_worker_count() {
        for n in [0u64, 1, 7, 64] {
            let jobs: Vec<u64> = (0..n).collect();
            let want: Vec<_> = jobs.iter().map(|j| expected(*j)).collect();
            for workers in [0, 1, 2, 3, 8, n as usize + 5] {
                let calls: Vec<AtomicUsize> = jobs.iter().map(|_| AtomicUsize::new(0)).collect();
                let (got, rows) = run_slots(&jobs, workers, |&j| {
                    calls[j as usize].fetch_add(1, Ordering::Relaxed);
                    if j % 4 == 1 {
                        // A slow job, so later slots finish before it.
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                    match j {
                        j if j % 7 == 3 => panic!("job {j} exploded"),
                        j if j % 5 == 2 => Err(Error::config(format!("job {j} refused"))),
                        j => Ok(j * j),
                    }
                });
                let got: Vec<_> = got.into_iter().map(flat).collect();
                assert_eq!(got, want, "jobs={n} workers={workers}");
                assert!(
                    calls.iter().all(|c| c.load(Ordering::Relaxed) == 1),
                    "jobs={n} workers={workers}: a slot ran twice or never"
                );
                assert_eq!(rows.iter().map(|(runs, _)| runs).sum::<u64>(), n);
                let threads = if workers <= 1 {
                    1
                } else {
                    workers.min(n.max(1) as usize)
                };
                assert_eq!(rows.len(), threads, "jobs={n} workers={workers}");
            }
        }
    }

    #[test]
    fn slots_hold_when_completion_order_is_reversed() {
        // Job 0 cannot finish until job 1 has: the second worker must pick
        // job 1 up and complete it first, and both still land in their slots.
        let one_done = AtomicBool::new(false);
        let (got, rows) = run_slots(&[0u64, 1], 2, |&j| {
            if j == 0 {
                while !one_done.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
            } else {
                one_done.store(true, Ordering::Release);
            }
            Ok(j + 10)
        });
        let got: Vec<_> = got.into_iter().map(flat).collect();
        assert_eq!(got, vec![Ok(10), Ok(11)]);
        assert_eq!(
            rows.iter().map(|(runs, _)| *runs).collect::<Vec<_>>(),
            [1, 1]
        );
    }

    #[test]
    fn run_caught_classifies_errors_and_panics() {
        // No shipped configuration panics `run_test`, so the panic arm is
        // driven through `caught` with an owned-`String` payload.
        let mut cfg = TestConfig::from_yaml(
            "traffic: {num-connections: 1, rdma-verb: write, num-msgs-per-qp: 1, mtu: 1024, message-size: 1024}",
        )
        .unwrap();
        assert!(run_caught(&cfg).is_ok());
        cfg.network.max_events = Some(10);
        assert!(matches!(
            run_caught(&cfg),
            Err(EvalFailure::Error(Error::Watchdog(_)))
        ));
        let boom: Result<(), _> = caught(|| panic!("{}", String::from("owned payload")));
        assert!(matches!(boom, Err(EvalFailure::Panic(m)) if m == "owned payload"));
    }
}
