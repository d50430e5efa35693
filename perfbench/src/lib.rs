//! seqdb's benchmark: the paper's genomics workloads, measured end to end
//! and per layer.
//!
//! Three workloads (see `README.md` next to this crate):
//! `dge_analysis` (in-memory DGE lane, in-database analysis queries),
//! `reseq_disk` (on-disk re-sequencing lane larger than the buffer pool)
//! and `wire_interactive` (short statements over the wire server).
//!
//! Every run synthesizes its inputs from the seed, times an import, then
//! loops over the workload's statement cycle for the requested seconds,
//! checking each result against an answer computed outside the timed
//! calls. Untraced runs report the end-to-end metrics; traced runs
//! record spans around the benchmark's calls into each layer and report
//! the per-layer metrics.

pub mod names;
pub mod stats;
pub mod trace;

mod analyze;
mod common;
mod dge;
mod env;
mod lane;
mod probes;
mod reseq;
mod runner;
mod wire;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use env::Stamp;

/// Request id of the spans recorded during set-up and import.
pub(crate) const SETUP_REQUEST: u64 = u64::MAX - 1;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    DgeAnalysis,
    ReseqDisk,
    WireInteractive,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::DgeAnalysis,
        Workload::ReseqDisk,
        Workload::WireInteractive,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DgeAnalysis => "dge_analysis",
            Workload::ReseqDisk => "reseq_disk",
            Workload::WireInteractive => "wire_interactive",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// One benchmark run's settings.
#[derive(Clone, Debug)]
pub struct Config {
    pub workload: Workload,
    /// Seed of the synthesized dataset.
    pub seed: u64,
    /// Seed of the request mix (keys, windows, statement order);
    /// defaults to `seed`. A second seed lets a claim tuned on one mix be
    /// re-checked on another over the same data.
    pub mix_seed: u64,
    /// How long the statement loop measures.
    pub seconds: f64,
    /// Record spans and report per-layer metrics instead of end-to-end.
    pub trace: bool,
    /// Tiny inputs and a single set-up, for smoke tests. Too small for
    /// `reseq_disk` to exceed the buffer pool, so its working-set check
    /// reports a failure.
    pub tiny: bool,
    /// Scratch directory for datasets and databases; removed at the end.
    pub work_dir: PathBuf,
    /// Where traced runs write their spans.
    pub trace_dir: PathBuf,
    /// Perturb one expected answer, to prove mismatches are counted.
    pub wrong_expectation: bool,
}

impl Config {
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Config {
        Config {
            workload,
            seed,
            mix_seed: seed,
            seconds,
            trace,
            tiny: false,
            work_dir: PathBuf::from(".perfbench/work"),
            trace_dir: PathBuf::from(".perfbench/traces"),
            wrong_expectation: false,
        }
    }
}

/// Operations attempted and failed (errors and wrong answers), plus
/// self-check verdicts that invalidate a run without being operations.
#[derive(Default, Debug)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub invalid: Vec<String>,
    pub notes: Vec<String>,
}

impl Checks {
    /// Count one operation and whether its output was right.
    pub fn op(&mut self, what: &str, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = verdict {
            self.failed += 1;
            if self.notes.len() < 10 {
                self.notes.push(format!("{what}: {e}"));
            }
        }
    }

    /// A self-check on what the run measures (not an operation).
    pub fn require(&mut self, what: &str, ok: bool) {
        if !ok {
            self.invalid.push(what.to_string());
        }
    }

    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.invalid.extend(other.invalid);
        for n in other.notes {
            if self.notes.len() < 10 {
                self.notes.push(n);
            }
        }
    }
}

/// Everything a run measured, before it is reduced to one JSON line.
pub struct Outcome {
    pub workload: Workload,
    pub trace: bool,
    /// Human-readable report lines, printed before the JSON line.
    pub report: Vec<String>,
    pub checks: Checks,
    /// Every metric measured, end-to-end and per-layer.
    pub values: BTreeMap<String, f64>,
    /// Sample count behind each metric, where it is more than one.
    pub counts: BTreeMap<String, usize>,
}

impl Outcome {
    /// The metrics this run must print: every end-to-end metric when
    /// untraced, every per-layer metric when traced.
    pub fn selected(&self) -> &'static [(&'static str, &'static str)] {
        if self.trace {
            names::PER_LAYER
        } else {
            names::END_TO_END
        }
    }

    /// Names of selected metrics that were not measured or not finite.
    pub fn missing(&self) -> Vec<&'static str> {
        self.selected()
            .iter()
            .filter(|(n, _)| !self.values.get(*n).is_some_and(|v| v.is_finite()))
            .map(|(n, _)| *n)
            .collect()
    }

    pub fn correct(&self) -> bool {
        self.checks.failed == 0 && self.checks.invalid.is_empty() && self.missing().is_empty()
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .selected()
            .iter()
            .map(|(n, u)| {
                let v = self.values.get(*n).copied().filter(|v| v.is_finite());
                format!(
                    "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                    json_number(v.unwrap_or(0.0))
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.checks.attempted.max(1),
            self.checks.failed,
            metrics.join(", ")
        )
    }
}

fn json_number(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// Run one workload end to end. Removes its scratch directory on the
/// way out, whether or not the run succeeded.
pub fn run(cfg: &Config) -> seqdb_types::Result<Outcome> {
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
    std::fs::create_dir_all(cfg.work_dir.join("tmp"))?;
    let started = Instant::now();
    let result = match cfg.workload {
        Workload::DgeAnalysis => dge::run(cfg),
        Workload::ReseqDisk => reseq::run(cfg),
        Workload::WireInteractive => wire::run(cfg),
    };
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
    let mut out = result?;
    if let Some(rss) = env::peak_rss_mb() {
        out.values.insert("peak_rss_mb".into(), rss);
    }
    let mut head = vec![
        format!(
            "# perfbench workload={} trace={} seed={} mix_seed={} seconds={}",
            cfg.workload.name(),
            u8::from(cfg.trace),
            cfg.seed,
            cfg.mix_seed,
            cfg.seconds
        ),
        format!("env {}", Stamp::collect(cfg).to_json()),
    ];
    head.append(&mut out.report);
    out.report = head;
    for (name, unit) in out.selected() {
        if let Some(v) = out.values.get(*name) {
            let n = out.counts.get(*name).copied().unwrap_or(1);
            out.report
                .push(format!("metric {name} {v:.6} {unit} n={n}"));
        }
    }
    out.report.push(format!(
        "error_rate {:.6} ({} failed of {} attempted)",
        out.checks.failed as f64 / out.checks.attempted.max(1) as f64,
        out.checks.failed,
        out.checks.attempted
    ));
    for n in &out.checks.notes {
        out.report.push(format!("FAILED {n}"));
    }
    for n in &out.checks.invalid {
        out.report.push(format!("INVALID self-check failed: {n}"));
    }
    for n in out.missing() {
        out.report
            .push(format!("INVALID metric {n} was not measured"));
    }
    out.report
        .push(format!("wall_s {:.3}", started.elapsed().as_secs_f64()));
    Ok(out)
}
