//! Quickstart: run the paper's Listing-2 test end to end.
//!
//! Builds the simulated testbed (two hosts with the NIC under test, the
//! event-injector switch, a dumper pool), injects the three events of
//! Listing 2 — an ECN mark, a drop, and a drop of the retransmission —
//! reconstructs the packet trace, runs the integrity check and the RC
//! replay whose views are the built-in analyzers, and prints the collected
//! results.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use lumina_core::analyzers::counter;
use lumina_core::config::TestConfig;
use lumina_core::orchestrator::run_test;

const LISTING2: &str = r#"
requester:
  nic-type: cx4
  dcqcn-rp-enable: false
  dcqcn-np-enable: true
  min-time-between-cnps-us: 0
  adaptive-retrans: false
responder:
  nic-type: cx4
  dcqcn-np-enable: true
traffic:
  num-connections: 2
  rdma-verb: write
  num-msgs-per-qp: 10
  mtu: 1024
  message-size: 10240
  multi-gid: true
  barrier-sync: true
  tx-depth: 1
  min-retransmit-timeout: 14
  max-retransmit-retry: 7
  data-pkt-events:
    # Mark ECN on the 4th pkt of the 1st QP conn
    - {qpn: 1, psn: 4, type: ecn, iter: 1}
    # Drop the 5th pkt of the 2nd QP conn
    - {qpn: 2, psn: 5, type: drop, iter: 1}
    # Drop the retransmitted 5th pkt of the 2nd QP conn
    - {qpn: 2, psn: 5, type: drop, iter: 2}
"#;

fn main() {
    let cfg = TestConfig::from_yaml(LISTING2).expect("Listing 2 parses");
    println!("== Lumina quickstart: the paper's Listing 2 on a CX4 Lx model ==\n");

    let results = run_test(&cfg).expect("test runs");

    println!("-- run --");
    println!("finished at       : {}", results.outcome.end_time());
    println!("traffic completed : {}", results.traffic_completed());
    println!(
        "events fired      : {} (unfired: {})",
        results.events_fired, results.events_unfired
    );

    println!("\n-- integrity check (§3.5) --");
    println!("passed            : {}", results.integrity.passed());
    let trace = results.trace.as_ref().expect("trace reconstructed");
    println!("trace packets     : {}", trace.len());

    println!("\n-- traffic generator log --");
    for c in &results.conns {
        let f = &results.requester_metrics.flows[&c.requester.qpn];
        println!(
            "conn {}: {} msgs, goodput {:.2} Gbps, avg MCT {}",
            c.index,
            f.completed,
            f.goodput_gbps(),
            f.avg_mct().unwrap()
        );
    }

    println!("\n-- NIC counters (vendor names) --");
    for (host, responder_side) in [("requester", false), ("responder", true)] {
        let counters = results.vendor_counters(responder_side).expect("known device");
        for (name, v) in counters.iter().filter(|(_, v)| **v != 0) {
            println!("{host} {name:>28}: {v}");
        }
    }

    println!("\n-- analyzers (§4): views of the run's RC replay --");
    let views = results.replayed.as_ref().expect("a traced run is replayed");
    let gbn = &views.gbn;
    println!(
        "Go-back-N FSM     : {} ({} NACKs, {} OOO episodes)",
        if gbn.compliant() { "compliant" } else { "VIOLATIONS" },
        gbn.per_conn.iter().map(|c| c.nacks).sum::<u32>(),
        gbn.per_conn.iter().map(|c| c.ooo_episodes).sum::<u32>(),
    );
    for b in &views.retransmissions {
        println!(
            "retransmission    : conn {} psn {} via {:?}, gen {:?}, react {:?}, total {}",
            b.conn_index, b.dropped_psn, b.kind, b.nack_gen, b.nack_react,
            b.total()
        );
    }
    println!(
        "CNPs              : {} generated for {} CE-marked packets",
        views.cnp_total, views.ce_marked
    );
    let findings = counter::analyze(&results);
    println!("counter analyzer  : {} inconsistencies", findings.len());
    for f in findings {
        println!("  !! {} {}: {}", f.host, f.counter, f.detail);
    }

    // Export the reconstructed trace as a pcap for Wireshark.
    let path = std::env::temp_dir().join("lumina_quickstart.pcap");
    let file = std::fs::File::create(&path).expect("create pcap");
    let n = trace.write_pcap(file).expect("write pcap");
    println!("\nwrote {n}-packet trace to {}", path.display());
}
