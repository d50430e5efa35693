//! Tiny-scale smoke runs of every workload: every metric `BENCHMARK.json`
//! names is printed, and a wrong expected answer is counted as a failure.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::PathBuf;

use seqdb_perfbench::{names, run, Config, Outcome, Workload};

fn tiny(workload: Workload, trace: bool, tag: &str) -> Config {
    let mut cfg = Config::new(workload, 7, 0.3, trace);
    cfg.tiny = true;
    let base = std::env::temp_dir().join(format!(
        "perfbench-smoke-{}-{}-{tag}",
        std::process::id(),
        workload.name()
    ));
    cfg.work_dir = base.join("work");
    cfg.trace_dir = base.join("traces");
    cfg
}

fn run_tiny(cfg: &Config) -> Outcome {
    let out = run(cfg).unwrap_or_else(|e| panic!("{} failed: {e}", cfg.workload.name()));
    let _ = std::fs::remove_dir_all(cfg.work_dir.parent().expect("work dir has a parent"));
    out
}

/// `(name, unit)` pairs of one list in `BENCHMARK.json`.
fn benchmark_entries(section: &str) -> Vec<(String, Option<String>)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
    let open = start + text[start..].find('[').expect("list");
    let close = open + text[open..].find(']').expect("end of list");
    let field = |obj: &str, key: &str| -> Option<String> {
        let at = obj.find(&format!("\"{key}\""))?;
        let rest = &obj[at + key.len() + 2..];
        let rest = &rest[rest.find('"')? + 1..];
        Some(rest[..rest.find('"')?].to_string())
    };
    text[open + 1..close]
        .split('}')
        .filter(|obj| obj.contains("\"name\""))
        .map(|obj| (field(obj, "name").expect("name"), field(obj, "unit")))
        .collect()
}

#[test]
fn benchmark_json_matches_the_metric_lists() {
    let as_pairs = |list: &[(&str, &str)]| -> Vec<(String, Option<String>)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), Some(u.to_string())))
            .collect()
    };
    assert_eq!(benchmark_entries("end_to_end"), as_pairs(names::END_TO_END));
    assert_eq!(benchmark_entries("per_layer"), as_pairs(names::PER_LAYER));
    let workloads: Vec<String> = benchmark_entries("workloads")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    // `wire_interactive` runs but is not gated: its lookups straddle the
    // server watchdog's 10 ms poll, so run medians flip (README.md).
    let gated: Vec<String> = Workload::ALL
        .iter()
        .filter(|w| **w != Workload::WireInteractive)
        .map(|w| w.name().to_string())
        .collect();
    assert_eq!(workloads, gated);
}

fn assert_prints_every_metric(out: &Outcome) {
    let json = out.json_line();
    for (name, unit) in out.selected() {
        assert!(
            json.contains(&format!("\"{name}\": {{\"value\": ")),
            "{} does not print {name}: {json}",
            out.workload.name()
        );
        assert!(
            out.report
                .iter()
                .any(|l| l.starts_with(&format!("metric {name} ")) && l.contains(unit)),
            "{} report lacks {name}",
            out.workload.name()
        );
    }
    assert!(out.missing().is_empty(), "unmeasured: {:?}", out.missing());
    assert_eq!(out.checks.failed, 0, "{:?}", out.checks.notes);
    assert!(out.checks.attempted > 0);
    assert!(json.starts_with("{\"correct\": "));
}

/// The tiny re-sequencing lane fits the buffer pool, so `reseq_disk`'s
/// working-set checks must flag it; every other workload is valid.
fn assert_valid_except_working_set(out: &Outcome) {
    if out.workload == Workload::ReseqDisk {
        assert!(!out.checks.invalid.is_empty());
        assert!(out
            .checks
            .invalid
            .iter()
            .all(|i| i.starts_with("reseq_disk:")));
        assert!(!out.correct());
    } else {
        assert!(out.checks.invalid.is_empty(), "{:?}", out.checks.invalid);
        assert!(out.correct());
    }
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    for w in Workload::ALL {
        let out = run_tiny(&tiny(w, false, "e2e"));
        assert_prints_every_metric(&out);
        assert_valid_except_working_set(&out);
    }
}

#[test]
fn every_workload_prints_every_per_layer_metric_when_traced() {
    for w in Workload::ALL {
        let cfg = tiny(w, true, "trace");
        let spans = cfg
            .trace_dir
            .join(format!("{}-seed{}.jsonl", w.name(), cfg.seed));
        let out = run(&cfg).unwrap_or_else(|e| panic!("{} failed: {e}", w.name()));
        let written = std::fs::read_to_string(&spans).expect("spans written at the end");
        assert!(written.lines().count() > 10);
        assert!(written.contains("\"parent\":"));
        let _ = std::fs::remove_dir_all(cfg.work_dir.parent().expect("work dir has a parent"));
        assert_prints_every_metric(&out);
        assert_valid_except_working_set(&out);
    }
}

#[test]
fn a_wrong_expected_answer_is_counted_as_a_failure() {
    for w in Workload::ALL {
        let mut cfg = tiny(w, false, "wrong");
        cfg.wrong_expectation = true;
        let out = run_tiny(&cfg);
        assert!(out.checks.failed > 0, "{} counted no failure", w.name());
        assert!(!out.correct());
        assert!(out.json_line().contains("\"correct\": false"));
    }
}
