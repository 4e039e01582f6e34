//! Fuzzing for the noisy neighbor (§4 Algorithm 1 + §6.2.2).
//!
//! Reproduces how the paper *found* the CX4 Lx noisy-neighbor bug: a
//! genetic fuzzing campaign over traffic/event configurations, scored by
//! how badly flows *without* injected events degrade. On the CX4 Lx model
//! the campaign converges on configurations with many concurrent
//! drop-injected Read connections; on the CX5 model the same campaign
//! finds nothing.
//!
//! ```text
//! cargo run --release --example fuzz_hunt          # default: cx4
//! cargo run --release --example fuzz_hunt cx5      # negative control
//! ```

use lumina_core::config::TestConfig;
use lumina_core::fuzz::mutate::EventMutator;
use lumina_core::fuzz::score::noisy_neighbor_score;
use lumina_core::fuzz::{fuzz, FuzzParams};

fn main() {
    let nic = std::env::args().nth(1).unwrap_or_else(|| "cx4".into());
    println!("== Genetic fuzzing for the noisy neighbor on {} ==\n", nic.to_uppercase());

    let base = TestConfig::from_yaml(&format!(
        r#"
requester: {{ nic-type: {nic} }}
responder: {{ nic-type: {nic} }}
traffic:
  num-connections: 16
  rdma-verb: read
  num-msgs-per-qp: 3
  mtu: 1024
  message-size: 20480
network:
  horizon-ms: 60000
"#
    ))
    .expect("base config");

    let mut mutator = EventMutator {
        max_connections: Some(30),
        ..Default::default()
    };
    let params = FuzzParams {
        pool_size: 6,
        iterations: 25,
        accept_prob: 0.25,
        anomaly_threshold: 8.0,
        seed: 0xbeef,
        // batch_size / workers defaults: the outcome is identical for any
        // worker count, so the hunt stays reproducible on every host.
        ..FuzzParams::default()
    };
    let outcome = fuzz(&base, &mut mutator, noisy_neighbor_score, &params);

    println!("evaluated {} configurations ({} rejected)", outcome.history.len(), outcome.rejections.len());
    println!(
        "score trajectory: {}",
        outcome
            .history
            .iter()
            .map(|s| format!("{s:.1}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!("\nanomalies above threshold: {}", outcome.anomalies.len());
    for (scored, desc) in outcome.anomalies.iter().take(3) {
        println!(
            "  score {:>7.1}: {} conns, verb {}, {} events — {}",
            scored.score,
            scored.cfg.traffic.num_connections,
            scored.cfg.traffic.rdma_verb,
            scored.cfg.traffic.data_pkt_events.len(),
            desc
        );
    }
    match outcome.best {
        Some(best) if best.score >= params.anomaly_threshold => {
            println!("\n>>> bug-triggering configuration found (score {:.1}):", best.score);
            println!("{}", best.cfg.to_yaml());
        }
        Some(best) => {
            println!(
                "\nno anomaly crossed the threshold (best score {:.1}) — expected on healthy NICs",
                best.score
            );
        }
        None => println!("\nno configuration executed successfully"),
    }
}
