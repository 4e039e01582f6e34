//! `lumina-experiments` — regenerate every table and figure of the paper.
//!
//! ```text
//! lumina-experiments all            # everything (slow)
//! lumina-experiments fig08          # one experiment
//! lumina-experiments fig10 --json   # machine-readable output
//! ```

use lumina_bench::*;

const IDS: [&str; 12] = [
    "fig03",
    "fig07",
    "fig08",
    "fig09",
    "fig10",
    "fig11",
    "table2",
    "interop",
    "cnp",
    "adaptive",
    "sec34",
    "ablations",
];

/// One experiment's series: under `key` of the `--json` document when
/// there is one, through the experiment's own `print` otherwise.
fn emit<T: serde::Serialize>(
    doc: &mut Option<serde_json::Map>,
    key: &str,
    series: T,
    print: impl FnOnce(&T),
) {
    match doc {
        Some(doc) => {
            doc.insert(key, serde_json::to_value(&series).unwrap());
        }
        None => print(&series),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let quick = args.iter().any(|a| a == "--quick");
    let wanted: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(|s| s.as_str())
        .collect();
    if wanted.is_empty() {
        eprintln!("usage: lumina-experiments <id>... [--json] [--quick]");
        eprintln!("ids: all sec5 {}", IDS.join(" "));
        std::process::exit(2);
    }
    let run_all = wanted.contains(&"all");
    let want = |id: &str| run_all || wanted.contains(&id);

    let doc = &mut json.then(serde_json::Map::new);
    if want("fig03") {
        emit(doc, "fig03", fig03_iter::run(), fig03_iter::print);
    }
    if want("fig07") {
        let msgs = if quick { 100 } else { 1000 };
        let f = fig07_overhead::run_with_msgs(msgs);
        emit(doc, "fig07", f, fig07_overhead::print);
    }
    if want("fig08") || want("fig09") {
        emit(
            doc,
            "fig08_09",
            fig08_09_retrans::run(),
            fig08_09_retrans::print,
        );
    }
    if want("fig10") {
        let msgs = if quick { 5 } else { 20 };
        emit(doc, "fig10", fig10_ets::run_on("cx6", msgs), |f| {
            fig10_ets::print(f);
            println!("\nablation — same settings on a work-conserving model (CX5):");
            fig10_ets::print(&fig10_ets::run_on("cx5", msgs));
        });
    }
    if want("fig11") {
        let f = if quick {
            fig11_noisy::run_on("cx4", 24, 3)
        } else {
            fig11_noisy::run()
        };
        emit(doc, "fig11", f, fig11_noisy::print);
    }
    if want("table2") {
        emit(doc, "table2", table2_bugs::run(), table2_bugs::print);
    }
    if want("interop") {
        emit(doc, "interop", interop::run(), interop::print);
    }
    if want("cnp") {
        emit(doc, "cnp", cnp_behavior::run(), cnp_behavior::print);
    }
    if want("adaptive") {
        emit(
            doc,
            "adaptive",
            adaptive_retrans::run(),
            adaptive_retrans::print,
        );
    }
    if want("sec34") {
        emit(doc, "sec34", sec34_dumper::run(), sec34_dumper::print);
    }
    if want("ablations") {
        let fix = ablations::ets_fix(5);
        emit(doc, "ablation_ets_fix", fix, ablations::print_ets_fix);
        let contexts = ablations::context_sweep(&[4, 8, 10, 16, 32]);
        emit(doc, "ablation_contexts", contexts, |s| {
            ablations::print_contexts(s)
        });
        let apm = ablations::apm_sweep(&[128, 512, 1024, 2048, 4096]);
        emit(doc, "ablation_apm", apm, |s| ablations::print_apm(s));
    }
    if want("sec5") {
        emit(doc, "sec5", sec5_switch::run(), sec5_switch::print);
    }
    if let Some(doc) = doc {
        println!("{}", serde_json::to_string_pretty(doc).unwrap());
    }
}
