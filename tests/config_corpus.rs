//! Every shipped preset in `configs/` must parse, validate, and — except
//! the deliberately heavy ones — run green end to end.

use lumina_core::config::{ChaosWindowSpec, Num, TestConfig};
use lumina_core::orchestrator::{run_supervised, run_test, RetryPolicy};
use lumina_core::{Error, FaultsSection, QuirksSection, RunReport};

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

/// Every bounded numeric field of `cfg`, named as its messages name it,
/// with its value (`None`: an optional field left out).
fn fields(cfg: &TestConfig) -> Vec<(String, Option<Num>)> {
    let mut out: Vec<(String, Option<Num>)> = Vec::new();
    cfg.clone().numeric_fields(|name, v, _| out.push((name.into(), v)));
    out.dedup_by(|a, b| a.0 == b.0);
    out
}

/// `cfg` with the numeric field `field` — a name [`fields`] lists — set to
/// `v`.
fn with(cfg: &TestConfig, field: &str, v: Num) -> TestConfig {
    let (mut cfg, mut found) = (cfg.clone(), false);
    cfg.numeric_fields(|name, _, set| {
        if name == field {
            set(v);
            found = true;
        }
    });
    assert!(found, "no field {field:?}");
    cfg
}

/// The section part of a field's name: `traffic: event 3` of
/// `traffic: event 3: qpn`.
fn section(field: &str) -> &str {
    field.rsplit_once(": ").expect("section: key").0
}

/// True when a line of the error `e` names `field`'s section and key (a
/// window's end names `at-us + duration-us` together).
fn names(e: &str, field: &str) -> bool {
    let (section, key) = field.rsplit_once(": ").expect("section: key");
    e.lines().any(|l| l.contains(section) && l.contains(key))
}

/// The presets `light_presets_run_green` does not run: the property tests
/// validate their cases but run none.
fn heavy(name: &str) -> bool {
    name == "fig11_noisy_neighbor.yaml" || name == "fig10_ets_bug.yaml"
}

/// `cfg` with a `faults:` and a `quirks:` section that inject nothing where
/// it has none, so that [`fields`] lists theirs too. A section that
/// injects nothing keeps the run on the pristine path.
fn with_every_section(mut cfg: TestConfig) -> TestConfig {
    cfg.faults.get_or_insert_with(FaultsSection::default);
    cfg.quirks.get_or_insert_with(QuirksSection::default);
    cfg
}

/// Every window field of `chaos:` and `faults:` — flaps, pauses, bursts,
/// freezes and dumper stalls, on a chaos and a fault preset — set in turn
/// through the field table to 0, 1 and the clock's last two microseconds,
/// the other field as the preset has it. Each case ends in exit 2 naming
/// its window and field, or in the typed exit pinned here: never 8, and
/// the same exit on the release build (`just release-bytes`), where an
/// overflow would wrap instead of panicking.
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
        for (f, key) in ["at-us", "duration-us"].into_iter().enumerate() {
            let field = format!("{site}: {key}");
            for (v, &value) in values.iter().enumerate() {
                let cfg = with(base, &field, Num::Int(value));
                let exit = exit_of(&cfg);
                if exit == 2 {
                    let e = cfg.validate().expect_err(&field).to_string();
                    assert!(names(&e, &field), "{field} {value}: {e}");
                }
                assert_ne!(exit, 8, "{field} {value}");
                exits[f][v] = exit;
            }
        }
        got.push((*site, exits));
    }
    let want: Vec<_> = pinned.iter().map(|&(_, site, exits)| (site, exits)).collect();
    assert_eq!(got, want);
}

/// ROADMAP item 6's probability slice: every probability field of every
/// preset — the three of `faults:`, the nine of `quirks:` and the three of
/// each chaos burst, as the field table lists them — set in turn to −0.0,
/// −ε, NaN and 1 + ε. The last three are exit 2 with a message naming
/// section and field. −0.0 is a probability, and zero: the run ends in a
/// typed exit (never 8, never a panic), the preset's own. The two heavy
/// presets are validated here but not run: their 24 runs would take half a
/// minute on the dev build.
#[test]
fn probability_fields_off_the_unit_interval_end_in_a_typed_exit() {
    let values = [-0.0, -f64::EPSILON, f64::NAN, 1.0 + f64::EPSILON];
    let mut runs = 0;
    for (name, cfg) in corpus() {
        let own = (!heavy(&name)).then(|| exit_of(&cfg));
        let cfg = with_every_section(cfg);
        for (field, value) in fields(&cfg) {
            if !matches!(value, Some(Num::Prob(_))) {
                continue;
            }
            for p in values {
                let case = with(&cfg, &field, Num::Prob(p));
                let Err(e) = case.validate() else {
                    assert_eq!(p, 0.0, "{name} {field} {p} validated");
                    if let Some(own) = own {
                        let exit = exit_of(&case);
                        assert_ne!(exit, 8, "{name} {field} {p}");
                        assert_eq!(exit, own, "{name} {field} {p}");
                        runs += 1;
                    }
                    continue;
                };
                assert_eq!(e.exit_code(), 2, "{name} {field} {p}: {e}");
                assert!(names(&e.to_string(), &field), "{name} {field} {p}: {e}");
            }
        }
    }
    assert!(runs >= 9 * 12, "sweep shrank: {runs} runs");
}

/// The event budget of each run of the extremes property: most light
/// presets finish inside it, and a run that would send 2^32 messages ends
/// in the watchdog's exit 7.
const EXTREME_EVENTS: u64 = 5_000;

/// ROADMAP item 6's numeric slice: every row of the field table at every
/// entry of every preset (with `faults:` and `quirks:` sections that inject
/// nothing) set in turn to 0, 1 and its type's `MAX − 1` and `MAX`. A case
/// `validate()` rejects is exit 2, each of its messages opens with the
/// section of an entry the config has, and one names the field — unless
/// every message is an index that the value left out of range (a `qpn`
/// past a lowered `num-connections`). A case it accepts runs at seeds 1–2
/// under an event budget (its own on the `max-events` row) on two threads,
/// and ends in a typed exit: never 8, which is also what a panic ends in. A
/// case that leaves the preset as it was runs once, as the preset. The two
/// heavy presets are validated only.
#[test]
fn numeric_fields_at_their_extremes_end_in_a_typed_exit() {
    let mut runs = Vec::new();
    for (name, cfg) in corpus() {
        let base = with_every_section(cfg);
        let fields = fields(&base);
        let mut cases = vec![("preset".to_string(), 0, base.clone())];
        for (field, _) in &fields {
            for v in [0, 1, u64::MAX - 1, u64::MAX] {
                let case = with(&base, field, Num::Int(v));
                match case.validate() {
                    Err(Error::Config { problems }) => {
                        let at = |p: &String| fields.iter().any(|(f, _)| p.starts_with(section(f)));
                        assert!(problems.iter().all(at), "{name} {field} {v}: {problems:?}");
                        let own = problems.iter().any(|p| names(p, field));
                        let counted = problems.iter().all(|p| p.contains(" out of range"));
                        assert!(own || counted, "{name} {field} {v}: {problems:?}");
                    }
                    Err(e) => panic!("{name} {field} {v}: {e}"),
                    Ok(()) if case.to_yaml() != base.to_yaml() => cases.push((field.clone(), v, case)),
                    Ok(()) => {}
                }
            }
        }
        if !heavy(&name) {
            for (field, v, mut case) in cases {
                if field != "network: max-events" {
                    case.network.max_events = Some(EXTREME_EVENTS);
                }
                for seed in [1, 2] {
                    case.network.seed = seed;
                    runs.push((format!("{name} {field} {v} seed {seed}"), case.clone()));
                }
            }
        }
    }
    assert!(runs.len() >= 800, "sweep shrank: {} runs", runs.len());
    let next = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                let claim = || next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                while let Some((case, cfg)) = runs.get(claim()) {
                    assert_ne!(exit_of(cfg), 8, "{case}");
                }
            });
        }
    });
}
