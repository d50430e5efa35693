//! Command line of the benchmark:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload dge_analysis --seed 1 --seconds 10 --trace 0 [--mix-seed 2]
//! ```
//!
//! Prints report lines, then one JSON result line. Run from the
//! repository root: scratch files go under `.perfbench/`.

use std::path::PathBuf;
use std::process::ExitCode;

use seqdb_perfbench::{Config, Workload};

fn usage(msg: &str) -> ExitCode {
    eprintln!("{msg}");
    eprintln!(
        "usage: seqdb-perfbench --workload <dge_analysis|reseq_disk|wire_interactive> \
         --seed <n> --seconds <s> --trace <0|1> [--mix-seed <n>]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut mix_seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--mix-seed" => mix_seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            other => return usage(&format!("unknown flag {other}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are required");
    };
    let mut cfg = Config::new(workload, seed, seconds, trace);
    cfg.mix_seed = mix_seed.unwrap_or(seed);
    // In-memory databases keep FileStream and temp space under the
    // system temp directory; keep them inside the scratch directory.
    let tmp = std::env::current_dir()
        .unwrap_or_else(|_| PathBuf::from("."))
        .join(&cfg.work_dir)
        .join("tmp");
    std::env::set_var("TMPDIR", &tmp);

    match seqdb_perfbench::run(&cfg) {
        Ok(out) => {
            for line in &out.report {
                println!("{line}");
            }
            println!("{}", out.json_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::FAILURE
        }
    }
}
