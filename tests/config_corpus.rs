//! Every shipped preset in `configs/` must parse, validate, and — except
//! the deliberately heavy ones — run green end to end.

use lumina_core::config::{ChaosWindowSpec, TestConfig};
use lumina_core::orchestrator::{run_supervised, run_test, RetryPolicy};
use lumina_core::{FaultsSection, QuirksSection, RunReport};
use lumina_rnic::Quirk;

fn corpus() -> Vec<(String, TestConfig)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/configs");
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).expect("configs/ exists") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("yaml") {
            continue;
        }
        let yaml = std::fs::read_to_string(&path).unwrap();
        let cfg = TestConfig::from_yaml(&yaml)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        out.push((path.file_name().unwrap().to_string_lossy().into_owned(), cfg));
    }
    assert!(out.len() >= 8, "corpus shrank: {}", out.len());
    out
}

#[test]
fn all_presets_parse_and_validate() {
    for (name, cfg) in corpus() {
        let problems = cfg.problems();
        assert!(problems.is_empty(), "{name}: {problems:?}");
    }
}

#[test]
fn light_presets_run_green() {
    // The noisy-neighbor preset runs hundreds of ms of simulated
    // collapse; exclude it here (its behavior is asserted in
    // tests/figures_shape.rs) and run everything else end to end.
    // Presets declaring an active chaos schedule are also excluded:
    // wedging is their point (tests/chaos_soak.rs asserts it), so
    // "traffic completes" is exactly the wrong invariant for them.
    for (name, cfg) in corpus() {
        if name == "fig11_noisy_neighbor.yaml" || name == "fig10_ets_bug.yaml" {
            continue;
        }
        if cfg.chaos.as_ref().is_some_and(|c| !c.is_noop()) {
            continue;
        }
        let res = run_test(&cfg).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(res.traffic_completed(), "{name}: traffic incomplete");
        assert!(res.integrity.passed(), "{name}: {:?}", res.integrity);
    }
}

#[test]
fn listing2_preset_reproduces_its_events() {
    let yaml = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/configs/listing2.yaml"
    ))
    .unwrap();
    let res = run_test(&TestConfig::from_yaml(&yaml).unwrap()).unwrap();
    assert_eq!(res.events_fired, 3);
    assert_eq!(res.switch_counters.injected_ecn, 1);
    assert_eq!(res.switch_counters.injected_drops, 2);
    assert_eq!(res.responder_counters.np_cnp_sent, 1);
}

fn preset(name: &str) -> TestConfig {
    let path = format!("{}/configs/{name}", env!("CARGO_MANIFEST_DIR"));
    TestConfig::from_yaml(&std::fs::read_to_string(&path).unwrap()).unwrap()
}

/// A number that wraps or overflows the arithmetic it feeds is a config
/// error (exit 2) naming its section and field, on the dev profile (where
/// the overflow would panic) and on the release profile (where it would
/// wrap) alike: `just release-bytes` runs this suite under `--release`.
fn assert_rejected(cfg: &TestConfig, field: &str) {
    let e = cfg.validate().expect_err(field);
    assert_eq!(e.exit_code(), 2, "{e}");
    assert!(e.to_string().contains(field), "{field}: {e}");
    let e = run_test(cfg).err().expect(field);
    assert_eq!(e.exit_code(), 2, "{e}");
}

#[test]
fn hostile_cnp_interval_is_a_config_error() {
    let mut cfg = preset("listing2.yaml");
    cfg.requester.min_time_between_cnps_us = u64::MAX;
    assert_rejected(&cfg, "requester: min-time-between-cnps-us");
}

#[test]
fn hostile_delay_is_a_config_error() {
    let mut cfg = preset("delay_reorder_demo.yaml");
    let ev = cfg.traffic.data_pkt_events.iter_mut().find(|e| e.r#type == "delay");
    ev.unwrap().delay_us = u64::MAX;
    assert_rejected(&cfg, "traffic: event 0: delay-us");
}

/// A delay that fits the clock on its own but not once it is added to a
/// late arrival: the switch's release timer would overflow.
#[test]
fn late_overflowing_delay_is_a_config_error() {
    let mut cfg = preset("delay_reorder_demo.yaml");
    let ev = cfg.traffic.data_pkt_events.iter_mut().find(|e| e.r#type == "delay");
    ev.unwrap().delay_us = u64::MAX / 1_000;
    assert_rejected(
        &cfg,
        "traffic: event 0: delay-us 18446744073709551 does not fit",
    );
}

/// The same for a chaos burst's reorder delay, which is added to the
/// arrival time of every frame it reorders.
#[test]
fn late_overflowing_reorder_delay_is_a_config_error() {
    let mut cfg = preset("chaos_demo.yaml");
    let burst = &mut cfg.chaos.as_mut().unwrap().links[0].bursts[0];
    burst.reorder_prob = 1.0;
    burst.reorder_delay_us = u64::MAX / 1_000;
    assert_rejected(
        &cfg,
        "chaos: link 0: burst 0: reorder-delay-us 18446744073709551 does not fit",
    );
}

#[test]
fn hostile_period_is_a_config_error() {
    let mut cfg = preset("listing2.yaml");
    cfg.traffic.data_pkt_events[0].every = u32::MAX;
    assert_rejected(&cfg, "traffic: event 0: psn 4 + every 4294967295");
}

#[test]
fn hostile_packet_count_is_a_config_error() {
    let mut cfg = preset("listing2.yaml");
    cfg.traffic.mtu = 1;
    cfg.traffic.message_size = u32::MAX;
    assert_rejected(&cfg, "traffic: num-msgs-per-qp 10 × message-size 4294967295");
}

#[test]
fn hostile_propagation_delay_is_a_config_error() {
    let mut cfg = preset("listing2.yaml");
    cfg.network.propagation_delay_ns = u64::MAX;
    assert_rejected(&cfg, "network: propagation-delay-ns 18446744073709551615 exceeds");
}

#[test]
fn hostile_dumper_count_is_a_config_error() {
    let mut cfg = preset("listing2.yaml");
    cfg.network.num_dumpers = usize::MAX;
    assert_rejected(&cfg, "network: num-dumpers 18446744073709551615 exceeds 65536");
}

#[test]
fn hostile_dumper_core_count_is_a_config_error() {
    let mut cfg = preset("listing2.yaml");
    cfg.network.dumper_cores = u32::MAX as usize;
    assert_rejected(&cfg, "network: dumper-cores 4294967295 × num-dumpers 3 exceeds 65536");
}

/// A pause that ends near the top of the clock holds the link's next frame
/// until then: the frame would be sent past the end of the clock.
#[test]
fn late_ending_pause_is_a_config_error() {
    let mut cfg = preset("chaos_demo.yaml");
    let pause = ChaosWindowSpec {
        at_us: 100,
        duration_us: 18_446_744_073_709_451,
    };
    cfg.chaos.as_mut().unwrap().links[0].pauses.push(pause);
    assert_rejected(
        &cfg,
        "chaos: link 0: pause 0: at-us + duration-us 18446744073709551 does not fit",
    );
}

/// The last microsecond the simulation clock holds: the largest value a
/// window field can take on its own.
const CLOCK_US: u64 = u64::MAX / 1_000;

/// The exit `lumina-cli <cfg>` ends in: a typed error's code, else the run
/// report's verdict.
fn exit_of(cfg: &TestConfig) -> u8 {
    match run_supervised(cfg, &RetryPolicy::default()).and_then(|res| RunReport::of(&res).verdict())
    {
        Ok(passed) => u8::from(!passed),
        Err(e) => e.exit_code(),
    }
}

/// `[at-us, duration-us]` of the window `site` names.
fn window_fields<'a>(cfg: &'a mut TestConfig, site: &str) -> [&'a mut u64; 2] {
    let link = |cfg: &'a mut TestConfig| &mut cfg.chaos.as_mut().unwrap().links[0];
    match site {
        "chaos: link 0: flap 0" => {
            let w = &mut link(cfg).flaps[0];
            [&mut w.at_us, &mut w.duration_us]
        }
        "chaos: link 0: pause 0" => {
            let w = &mut link(cfg).pauses[0];
            [&mut w.at_us, &mut w.duration_us]
        }
        "chaos: link 0: burst 0" => {
            let w = &mut link(cfg).bursts[0];
            [&mut w.at_us, &mut w.duration_us]
        }
        "faults: freeze 0" => {
            let w = &mut cfg.faults.as_mut().unwrap().freezes[0];
            [&mut w.at_us, &mut w.duration_us]
        }
        "faults: stall 0" => {
            let w = &mut cfg.faults.as_mut().unwrap().dumper_stalls[0];
            [&mut w.at_us, &mut w.duration_us]
        }
        other => panic!("no window {other:?}"),
    }
}

/// Every window field of `chaos:` and `faults:` — flaps, pauses, bursts,
/// freezes and dumper stalls, on a chaos and a fault preset — set in turn
/// to 0, 1 and the clock's last two microseconds, the other field as the
/// preset has it. Each case ends in exit 2 naming its window and field, or
/// in the typed exit pinned here: never 8, and the same exit on the
/// release build (`just release-bytes`), where an overflow would wrap
/// instead of panicking.
#[test]
fn window_fields_at_the_clock_edges_end_in_a_typed_exit() {
    let mut chaos = preset("chaos_demo.yaml");
    let pause = ChaosWindowSpec {
        at_us: 1,
        duration_us: 50,
    };
    chaos.chaos.as_mut().unwrap().links[0].pauses.push(pause);
    let faults = TestConfig::from_yaml(&format!(
        "{}faults:\n  dumper-stalls:\n    - {{at-us: 10, duration-us: 100, slowdown: 4}}\n  \
         freezes:\n    - {{node: responder, at-us: 10, duration-us: 50}}\n",
        std::fs::read_to_string(format!("{}/configs/listing2.yaml", env!("CARGO_MANIFEST_DIR")))
            .unwrap()
    ))
    .unwrap();
    assert_eq!(faults.problems(), Vec::<String>::new());
    let values = [0, 1, CLOCK_US - 1, CLOCK_US];
    // Per window and field, the exit of each value in `values`.
    let pinned: [(&TestConfig, &str, [[u8; 4]; 2]); 5] = [
        (&chaos, "chaos: link 0: flap 0", [[11, 11, 2, 2], [2, 11, 2, 2]]),
        (&chaos, "chaos: link 0: pause 0", [[11, 11, 2, 2], [2, 11, 2, 2]]),
        (&chaos, "chaos: link 0: burst 0", [[11, 11, 2, 2], [2, 11, 2, 2]]),
        // A responder frozen from the first microsecond misses a CE mark
        // and an ACK; the frames it dropped are external loss, so the
        // oracle grades partial instead of blaming it (exit 0).
        (&faults, "faults: freeze 0", [[0, 0, 2, 2], [2, 0, 2, 2]]),
        (&faults, "faults: stall 0", [[0, 0, 2, 2], [2, 0, 2, 2]]),
    ];
    let mut got = Vec::new();
    for (base, site, _) in &pinned {
        let mut exits = [[0u8; 4]; 2];
        for (f, field) in ["at-us", "duration-us"].into_iter().enumerate() {
            for (v, &value) in values.iter().enumerate() {
                let mut cfg = (*base).clone();
                *window_fields(&mut cfg, site)[f] = value;
                let exit = exit_of(&cfg);
                if exit == 2 {
                    let e = cfg.validate().expect_err(site).to_string();
                    let named = e.lines().any(|l| l.contains(site) && l.contains(field));
                    assert!(named, "{site} {field} {value}: {e}");
                }
                assert_ne!(exit, 8, "{site} {field} {value}");
                exits[f][v] = exit;
            }
        }
        got.push((*site, exits));
    }
    let want: Vec<_> = pinned.iter().map(|&(_, site, exits)| (site, exits)).collect();
    assert_eq!(got, want);
}

/// One probability field: the section its message names, and the field.
#[derive(Clone, Copy)]
enum Probability {
    Faults(&'static str),
    Quirk(Quirk),
    Burst(usize, usize, &'static str),
}

impl Probability {
    /// Every probability field of `cfg`: the three of `faults:` and the nine
    /// of `quirks:` (a section the preset lacks is added with the field
    /// alone set), and the three of each chaos burst the preset has.
    fn of(cfg: &TestConfig) -> Vec<Probability> {
        let mut out: Vec<Probability> = [
            "mirror-loss-prob",
            "mirror-dup-prob",
            "capture-bit-rot-prob",
        ]
        .map(Probability::Faults)
        .into_iter()
        .chain(Quirk::ALL.map(Probability::Quirk))
        .collect();
        for (i, link) in cfg.chaos.iter().flat_map(|c| c.links.iter().enumerate()) {
            for j in 0..link.bursts.len() {
                for field in ["loss-prob", "corrupt-prob", "reorder-prob"] {
                    out.push(Probability::Burst(i, j, field));
                }
            }
        }
        out
    }

    /// `(section, field)` as a validation message names them.
    fn name(self) -> (String, &'static str) {
        match self {
            Probability::Faults(field) => ("faults".into(), field),
            Probability::Quirk(q) => ("quirks".into(), q.config_key()),
            Probability::Burst(i, j, field) => (format!("chaos: link {i}: burst {j}"), field),
        }
    }

    /// `cfg` with this field set to `p`.
    fn set(self, cfg: &TestConfig, p: f64) -> TestConfig {
        let mut cfg = cfg.clone();
        match self {
            Probability::Faults(field) => {
                let f = cfg.faults.get_or_insert_with(FaultsSection::default);
                *match field {
                    "mirror-loss-prob" => &mut f.mirror_loss_prob,
                    "mirror-dup-prob" => &mut f.mirror_dup_prob,
                    _ => &mut f.capture_bit_rot_prob,
                } = p;
            }
            Probability::Quirk(q) => {
                cfg.quirks.get_or_insert_with(QuirksSection::default).knobs[q] = p;
            }
            Probability::Burst(i, j, field) => {
                let b = &mut cfg.chaos.as_mut().unwrap().links[i].bursts[j];
                *match field {
                    "loss-prob" => &mut b.loss_prob,
                    "corrupt-prob" => &mut b.corrupt_prob,
                    _ => &mut b.reorder_prob,
                } = p;
            }
        }
        cfg
    }
}

/// ROADMAP item 6's probability slice: every probability field of every
/// preset set in turn to −0.0, −ε, NaN and 1 + ε. The last three are exit 2
/// with a message naming section and field. −0.0 is a probability, and
/// zero: the run ends in a typed exit (never 8, never a panic), the
/// preset's own. The two heavy presets `light_presets_run_green` skips are
/// validated here but not run: their 24 runs would take half a minute on
/// the dev build.
#[test]
fn probability_fields_off_the_unit_interval_end_in_a_typed_exit() {
    let values = [-0.0, -f64::EPSILON, f64::NAN, 1.0 + f64::EPSILON];
    let mut runs = 0;
    for (name, cfg) in corpus() {
        let heavy = name == "fig11_noisy_neighbor.yaml" || name == "fig10_ets_bug.yaml";
        let own = (!heavy).then(|| exit_of(&cfg));
        for site in Probability::of(&cfg) {
            let (section, field) = site.name();
            for p in values {
                let case = site.set(&cfg, p);
                let Err(e) = case.validate() else {
                    assert_eq!(p, 0.0, "{name} {section}: {field} {p} validated");
                    if let Some(own) = own {
                        let exit = exit_of(&case);
                        assert_ne!(exit, 8, "{name} {section}: {field} {p}");
                        assert_eq!(exit, own, "{name} {section}: {field} {p}");
                        runs += 1;
                    }
                    continue;
                };
                assert_eq!(e.exit_code(), 2, "{name} {section}: {field} {p}: {e}");
                let e = e.to_string();
                let named = e.lines().any(|l| l.contains(&section) && l.contains(field));
                assert!(named, "{name} {section}: {field} {p}: {e}");
            }
        }
    }
    assert!(runs >= 9 * 12, "sweep shrank: {runs} runs");
}
