//! Lane inputs: dataset synthesis, repeated set-up, the statements every
//! lane answers, and the expected answers computed outside timed calls.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use seqdb_core::dataset::{ResequencingDataset, Scale};
use seqdb_core::udx::DB_QUAL_ENCODING;
use seqdb_engine::{Aggregate, Database};
use seqdb_types::{Result, Row, Value};

use crate::trace::Tracer;
use crate::{Config, Workload};

/// Scale factor of each workload's lane (multiples of 20,000 reads over
/// 200 kbp), or `None` for the tiny smoke-test lane.
fn factor(cfg: &Config) -> Option<usize> {
    if cfg.tiny {
        return None;
    }
    Some(match cfg.workload {
        Workload::ReseqDisk => 4,
        Workload::DgeAnalysis | Workload::WireInteractive => 1,
    })
}

pub fn scale(cfg: &Config) -> Scale {
    match factor(cfg) {
        Some(f) => Scale {
            genome_bp: 200_000 * f,
            n_chromosomes: 5,
            n_reads: 20_000 * f,
            seed: cfg.seed,
        },
        None => Scale {
            genome_bp: 40_000,
            n_chromosomes: 3,
            n_reads: 2_000,
            seed: cfg.seed,
        },
    }
}

pub fn scale_label(cfg: &Config) -> String {
    factor(cfg).map_or("tiny".into(), |f| f.to_string())
}

/// Run set-up `reps` times (once for tiny inputs), each into its own
/// directory, and keep the last result. Returns it with every
/// repetition's wall time.
pub fn repeat_setup<T>(
    cfg: &Config,
    reps: usize,
    tracer: &mut Tracer,
    mut once: impl FnMut(&Path, &mut Tracer) -> Result<T>,
) -> Result<(T, Vec<f64>)> {
    let reps = if cfg.tiny { 1 } else { reps };
    let mut times = Vec::with_capacity(reps);
    let mut kept = None;
    for i in 0..reps {
        let dir = cfg.work_dir.join(format!("setup-{i}"));
        let t = Instant::now();
        let value = once(&dir, tracer)?;
        times.push(t.elapsed().as_secs_f64());
        if i + 1 < reps {
            drop(value);
            let _ = std::fs::remove_dir_all(&dir);
        } else {
            kept = Some(value);
        }
    }
    Ok((kept.expect("at least one set-up repetition"), times))
}

/// Bytes of the lane's input text: the FASTQ plus the alignment export.
pub fn input_bytes(fastq: &Path, alignments: &Path) -> Result<u64> {
    Ok(std::fs::metadata(fastq)?.len() + std::fs::metadata(alignments)?.len())
}

/// Bytes the database stores: every allocated page plus FileStream blobs.
pub fn stored_bytes(db: &Database) -> Result<u64> {
    Ok(
        db.pool().store().num_pages() * seqdb_storage::PAGE_SIZE as u64
            + db.filestream().total_bytes()?,
    )
}

/// Rows across every table of the catalog.
pub fn catalog_rows(db: &Database) -> Result<u64> {
    let cat = db.catalog();
    let mut n = 0;
    for t in cat.table_names() {
        n += cat.table(&t)?.row_count();
    }
    Ok(n)
}

// ------------------------------------------------------------ statements

pub fn lookup_sql(r_id: i64) -> String {
    format!("SELECT r_id, short_read_seq, quals FROM Read WHERE r_id = {r_id}")
}

/// Alignments starting in the 200-bp window at `lo`, joined to their reads.
pub fn locus_sql(chr: i64, lo: i64) -> String {
    format!(
        "SELECT a_id, a_pos, r_id, short_read_seq FROM Alignment JOIN Read ON a_t_id = r_id \
         WHERE a_chr_id = {chr} AND a_pos >= {lo} AND a_pos < {}",
        lo + LOCUS_BP
    )
}

pub const LOCUS_BP: i64 = 200;

/// Reads with `lo <= r_id < lo + len`, sequences and qualities included.
pub fn export_sql(lo: i64, len: i64) -> String {
    format!(
        "SELECT r_id, short_read_seq, quals FROM Read WHERE r_id >= {lo} AND r_id < {}",
        lo + len
    )
}

/// A deterministic generator for keys and statement order (SplitMix64).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo).max(1) as u64) as i64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

// ------------------------------------------------- re-sequencing answers

/// Expected answers over a re-sequencing lane, computed from the dataset.
pub struct ReseqTruth {
    pub n_reads: u64,
    pub n_alignments: u64,
    pub n_free_reads: u64,
    /// Per read id (1-based; index 0 unused): sequence and quality text.
    pub reads: Vec<(String, String)>,
    /// Per chromosome: `(pos, a_id, r_id)` sorted by position.
    pub by_chr: Vec<Vec<(i64, i64, i64)>>,
    pub chr_lens: Vec<i64>,
}

impl ReseqTruth {
    pub fn new(ds: &ResequencingDataset) -> ReseqTruth {
        let mut reads = vec![(String::new(), String::new())];
        reads.extend(ds.reads.iter().map(|r| {
            (
                r.record.seq.clone(),
                DB_QUAL_ENCODING.encode(&r.record.quals),
            )
        }));
        let mut by_chr = vec![Vec::new(); ds.reference.chromosomes.len()];
        for (i, da) in ds.alignments.iter().enumerate() {
            by_chr[da.alignment.chrom as usize].push((
                da.alignment.pos as i64,
                i as i64 + 1,
                da.subject as i64 + 1,
            ));
        }
        for v in &mut by_chr {
            v.sort_unstable();
        }
        ReseqTruth {
            n_reads: ds.reads.len() as u64,
            n_alignments: ds.alignments.len() as u64,
            n_free_reads: ds
                .reads
                .iter()
                .filter(|r| !r.record.seq.contains('N'))
                .count() as u64,
            reads,
            by_chr,
            chr_lens: ds
                .reference
                .chromosomes
                .iter()
                .map(|c| c.len() as i64)
                .collect(),
        }
    }

    /// `(a_id, r_id)` of the alignments in the window, sorted.
    pub fn locus(&self, chr: i64, lo: i64) -> Vec<(i64, i64)> {
        let v = &self.by_chr[chr as usize];
        let a = v.partition_point(|e| e.0 < lo);
        let b = v.partition_point(|e| e.0 < lo + LOCUS_BP);
        let mut out: Vec<(i64, i64)> = v[a..b].iter().map(|e| (e.1, e.2)).collect();
        out.sort_unstable();
        out
    }

    /// Check rows shaped `(r_id, short_read_seq, quals)` against the lane.
    pub fn check_reads(&self, rows: &[Row], lo: i64, len: i64) -> std::result::Result<(), String> {
        let hi = (lo + len).min(self.reads.len() as i64);
        let want = (hi - lo).max(0) as usize;
        if rows.len() != want {
            return Err(format!("{} rows, expected {want}", rows.len()));
        }
        let mut ids = Vec::with_capacity(rows.len());
        for row in rows {
            let id = row[0].as_int().map_err(|e| e.to_string())?;
            let (seq, quals) = self
                .reads
                .get(id as usize)
                .filter(|_| id >= lo && id < hi)
                .ok_or_else(|| format!("unexpected r_id {id}"))?;
            if row[1] != Value::text(seq) || row[2] != Value::text(quals) {
                return Err(format!("read {id} differs from the dataset"));
            }
            ids.push(id);
        }
        ids.sort_unstable();
        ids.dedup();
        if ids.len() != want {
            return Err("duplicate r_id in result".into());
        }
        Ok(())
    }

    /// Check locus rows shaped `(a_id, a_pos, r_id, short_read_seq)`.
    pub fn check_locus(&self, rows: &[Row], chr: i64, lo: i64) -> std::result::Result<(), String> {
        let mut got = Vec::with_capacity(rows.len());
        for row in rows {
            let a = row[0].as_int().map_err(|e| e.to_string())?;
            let r = row[2].as_int().map_err(|e| e.to_string())?;
            let seq = &self
                .reads
                .get(r as usize)
                .ok_or_else(|| format!("unknown r_id {r}"))?
                .0;
            if row[3] != Value::text(seq) {
                return Err(format!("read {r} differs from the dataset"));
            }
            got.push((a, r));
        }
        got.sort_unstable();
        let want = self.locus(chr, lo);
        if got != want {
            return Err(format!(
                "{} alignments in window, expected {}",
                got.len(),
                want.len()
            ));
        }
        Ok(())
    }
}

/// Consensus per chromosome, folded through the `AssembleConsensus`
/// aggregate over the dataset's alignments in position order: the answer
/// the database's sliding-window plan must reproduce.
pub fn reference_consensus(ds: &ResequencingDataset) -> Result<Vec<(i64, String)>> {
    let mut order: Vec<usize> = (0..ds.alignments.len()).collect();
    order.sort_by_key(|&i| {
        let a = &ds.alignments[i].alignment;
        (a.chrom, a.pos, i)
    });
    let uda = seqdb_core::udx::AssembleConsensusAgg;
    let mut out = Vec::new();
    let mut current: Option<(i64, Box<dyn seqdb_engine::AggState>)> = None;
    for i in order {
        let da = &ds.alignments[i];
        let chr = da.alignment.chrom as i64;
        if current.as_ref().map(|c| c.0) != Some(chr) {
            if let Some((c, mut st)) = current.take() {
                out.push((c, st.finish()?.as_text()?.to_string()));
            }
            current = Some((chr, uda.create()));
        }
        let read = &ds.reads[da.subject as usize].record;
        let state = &mut current.as_mut().expect("set above").1;
        state.update(&[
            Value::Int(da.alignment.pos as i64),
            Value::text(&read.seq),
            Value::text(DB_QUAL_ENCODING.encode(&read.quals)),
            Value::text(da.alignment.strand.symbol().to_string()),
        ])?;
    }
    if let Some((c, mut st)) = current {
        out.push((c, st.finish()?.as_text()?.to_string()));
    }
    Ok(out)
}

/// What the layer probes need to know about a lane.
pub struct LaneFiles {
    pub fastq: std::path::PathBuf,
    pub n_reads: i64,
    pub chr_lens: Vec<i64>,
}

/// Open a fresh database: on disk under `dir` when `disk`, else in memory.
pub fn open_db(dir: &Path, disk: bool) -> Result<Arc<Database>> {
    let db = if disk {
        Database::open(&dir.join("db"))?
    } else {
        Database::in_memory()
    };
    seqdb_core::udx::register_udx(&db, None);
    Ok(db)
}
