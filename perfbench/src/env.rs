//! The environment stamp printed with every result, and process memory.

use std::path::Path;

use seqdb_storage::BufferPool;

use crate::Config;

pub struct Stamp {
    pub nproc: usize,
    pub pool_frames: usize,
    pub scale: String,
    /// Closed-loop callers (in-process threads or wire connections).
    pub callers: usize,
    /// Engine degree of parallelism for parallel plans.
    pub dop: usize,
    pub seed: u64,
    pub mix_seed: u64,
    pub commit: String,
    pub source_fnv: String,
    pub rustc: &'static str,
    pub profile: &'static str,
}

impl Stamp {
    pub fn collect(cfg: &Config) -> Stamp {
        Stamp {
            nproc: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            pool_frames: BufferPool::DEFAULT_CAPACITY,
            scale: crate::lane::scale_label(cfg),
            callers: match cfg.workload {
                crate::Workload::WireInteractive => crate::wire::CLIENTS,
                _ => 1,
            },
            dop: seqdb_engine::DbConfig::default().max_dop,
            seed: cfg.seed,
            mix_seed: cfg.mix_seed,
            commit: commit(),
            source_fnv: source_digest(Path::new("crates")),
            rustc: env!("PERFBENCH_RUSTC"),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"pool_frames\": {}, \"scale\": \"{}\", \"callers\": {}, \"dop\": {}, \"seed\": {}, \"mix_seed\": {}, \
             \"commit\": \"{}\", \"source_fnv\": \"{}\", \"rustc\": \"{}\", \"profile\": \"{}\"}}",
            self.nproc,
            self.pool_frames,
            self.scale,
            self.callers,
            self.dop,
            self.seed,
            self.mix_seed,
            self.commit,
            self.source_fnv,
            self.rustc,
            self.profile
        )
    }
}

/// `SEQDB_COMMIT` if set, else `git rev-parse HEAD`, else `unknown`
/// (benchmark checkouts need not be git repositories; `source_fnv`
/// identifies the code there).
fn commit() -> String {
    if let Ok(c) = std::env::var("SEQDB_COMMIT") {
        return c;
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a over the paths and contents of every file under `root`, in
/// path order: identifies the engine source a result was measured on.
fn source_digest(root: &Path) -> String {
    let mut files = Vec::new();
    collect_files(root, &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for f in &files {
        feed(f.to_string_lossy().as_bytes());
        if let Ok(bytes) = std::fs::read(f) {
            feed(&bytes);
        }
    }
    if files.is_empty() {
        "none".into()
    } else {
        format!("{h:016x}")
    }
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_files(&p, out);
        } else {
            out.push(p);
        }
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
