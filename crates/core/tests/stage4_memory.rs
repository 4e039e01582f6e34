//! Stage 4 (`reconstruct`) frees each dumper's captures as it decodes
//! them, so the capture buffers and the trace are never resident together.
//!
//! One test in its own binary, so the process's memory belongs to that one
//! run: on the benchmark's `run_packets` shape (33 k mirrored packets over
//! two dumpers) the high-water mark may rise by at most 1.25 × what the
//! run leaves resident (its `TestResults`, trace included). Decoding the
//! trace while every capture buffer is still alive reads ≈ 1.67 here.

use lumina_core::config::TestConfig;
use lumina_core::orchestrator::run_test;

/// The benchmark's `run_packets` shape: 8 connections of 16 × 256 KiB
/// WRITE, a drop on each of the first four and a CE mark on each of the
/// last four, all in the fourth message.
fn packet_dense_yaml() -> String {
    let events: String = (1..=8)
        .map(|qpn| {
            let kind = if qpn <= 4 { "drop" } else { "ecn" };
            let psn = 3 * 256 + 128 + qpn;
            format!("    - {{qpn: {qpn}, psn: {psn}, type: {kind}, iter: 1}}\n")
        })
        .collect();
    format!(
        "requester: {{ nic-type: cx6 }}\n\
         responder: {{ nic-type: cx6, dcqcn-np-enable: true }}\n\
         traffic:\n  num-connections: 8\n  rdma-verb: write\n  \
         num-msgs-per-qp: 16\n  mtu: 1024\n  message-size: 262144\n  \
         data-pkt-events:\n{events}network:\n  seed: 1\n"
    )
}

/// `(VmHWM, VmRSS)` in kB, or `None` where `/proc` is absent.
fn hwm_and_rss() -> Option<(u64, u64)> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = |key: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(key))?
            .trim()
            .trim_end_matches("kB")
            .trim()
            .parse::<u64>()
            .ok()
    };
    Some((kb("VmHWM:")?, kb("VmRSS:")?))
}

#[test]
fn stage4_peak_stays_near_what_the_run_keeps() {
    let cfg = TestConfig::from_yaml(&packet_dense_yaml()).expect("packet-dense config parses");
    let Some((hwm_before, rss_before)) = hwm_and_rss() else {
        println!("skipped: /proc/self/status is not readable here");
        return;
    };
    let res = run_test(&cfg).expect("packet-dense run");
    let (hwm_after, rss_after) = hwm_and_rss().expect("/proc/self/status read once already");
    let trace_len = res.trace.as_ref().map_or(0, |t| t.len());
    assert!(trace_len > 30_000, "the run mirrored {trace_len} packets");
    assert!(res.integrity.passed(), "{:?}", res.integrity.details);
    let hwm_rise = hwm_after.saturating_sub(hwm_before);
    let rss_rise = rss_after.saturating_sub(rss_before);
    let ratio = hwm_rise as f64 / rss_rise.max(1) as f64;
    println!("high-water mark +{hwm_rise} kB, resident +{rss_rise} kB: {ratio:.2}");
    assert!(
        ratio <= 1.25,
        "stage 4 held captures and trace together: high-water mark +{hwm_rise} kB \
         against +{rss_rise} kB still resident ({ratio:.2} > 1.25)"
    );
    drop(res);
}
