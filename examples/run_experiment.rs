//! Run any registered experiment by id and print its report.
//!
//! ```sh
//! cargo run --release --example run_experiment -- list
//! cargo run --release --example run_experiment -- e1 [smoke|standard|full] [seed]
//! cargo run --release --example run_experiment -- all [smoke|standard|full] [seed]
//! ```

use std::str::FromStr;

use bitdissem_experiments::{registry, RunConfig, Scale};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let id = args.next().unwrap_or_else(|| "list".to_string());
    let scale = args.next().map(|s| Scale::from_str(&s)).transpose()?.unwrap_or(Scale::Standard);
    let seed: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(2024);
    let cfg = RunConfig { scale, seed, threads: None, env: None };

    match id.as_str() {
        "list" => {
            println!("available experiments (run with: run_experiment <id> [scale] [seed]):\n");
            for entry in registry::all() {
                println!("  {:<4} {}", entry.id, entry.description);
            }
        }
        "all" => {
            let mut failures = Vec::new();
            for entry in registry::all() {
                let report = registry::run(entry.id, &cfg).expect("registered id");
                println!("{report}");
                if !report.pass {
                    failures.push(entry.id);
                }
            }
            if failures.is_empty() {
                println!("all experiments passed their directional checks");
            } else {
                println!("experiments with failed checks: {failures:?}");
                std::process::exit(1);
            }
        }
        id => match registry::run(id, &cfg) {
            Some(report) => {
                println!("{report}");
                if !report.pass {
                    std::process::exit(1);
                }
            }
            None => {
                eprintln!("unknown experiment '{id}'; use 'list' to see the registry");
                std::process::exit(2);
            }
        },
    }
    Ok(())
}
