//! `repro` — regenerate the paper's tables over the substrate worlds.
//!
//! ```text
//! repro [--scale quick|full] [--json DIR] <target>...
//! targets: table4 table5 table6 table7 table8 table9 table10 table11
//!          table12 table13 table14 table15 table16 table17 table18
//!          sec75 ablations kbstats all
//! ```
//!
//! `quick` (default) runs small worlds in seconds; `full` runs the
//! KBA/Freebase/DBpedia-like presets used in EXPERIMENTS.md.

use std::io::Write;

use kbqa_bench::targets::{run_target, Sessions, ALL_TARGETS};
use kbqa_bench::{format::Table, session::Scale};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Quick;
    let mut json_dir: Option<String> = None;
    let mut targets: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = args
                    .get(i)
                    .and_then(|s| Scale::parse(s))
                    .unwrap_or_else(|| {
                        eprintln!("usage: repro [--scale quick|full] [--json DIR] <target>…");
                        std::process::exit(2);
                    });
            }
            "--json" => {
                i += 1;
                json_dir = args.get(i).cloned();
            }
            other => targets.push(other.to_owned()),
        }
        i += 1;
    }
    if targets.is_empty() {
        eprintln!("usage: repro [--scale quick|full] [--json DIR] <target>…");
        eprintln!("targets: {} all", ALL_TARGETS.join(" "));
        std::process::exit(2);
    }
    if targets.iter().any(|t| t == "all") {
        targets = ALL_TARGETS.iter().map(|s| (*s).to_owned()).collect();
    }

    let sessions = Sessions::new(scale);
    let mut produced: Vec<Table> = Vec::new();
    for target in &targets {
        let start = std::time::Instant::now();
        for table in run_target(target, &sessions) {
            println!("{table}");
            produced.push(table);
        }
        eprintln!(
            "[repro] {target} done in {:.1}s",
            start.elapsed().as_secs_f64()
        );
    }

    if let Some(dir) = json_dir {
        std::fs::create_dir_all(&dir).expect("create json dir");
        let path = format!("{dir}/results.json");
        let mut file = std::fs::File::create(&path).expect("create results.json");
        let json = serde_json::to_string_pretty(&produced).expect("serialize tables");
        file.write_all(json.as_bytes()).expect("write results.json");
        eprintln!("[repro] wrote {path}");
    }
}
