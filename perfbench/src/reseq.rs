//! `reseq_disk`: a re-sequencing lane in an on-disk database whose data
//! file is larger than the buffer pool. The timed import is durable
//! (import plus `CHECKPOINT` through the WAL, with the Alignment PK and
//! two secondary B-trees). One caller then cycles the merge join, the
//! sliding-window consensus (Query 3) and an N-free count over Read. At
//! the end the database is dropped, reopened and its row counts checked.

use std::time::{Duration, Instant};

use seqdb_core::dataset::ResequencingDataset;
use seqdb_core::workflow::NORM;
use seqdb_core::{import, queries};
use seqdb_engine::Database;
use seqdb_sql::DatabaseSqlExt;
use seqdb_storage::rowfmt::Compression;
use seqdb_storage::BufferPool;
use seqdb_types::Result;

use crate::common::{median_actuals, Counters};
use crate::dge::expect_count;
use crate::lane::{self, LaneFiles, ReseqTruth};
use crate::runner::{run_loop, Output, Step};
use crate::trace::Tracer;
use crate::{probes, Config, Outcome};

const NFREE_SQL: &str = "SELECT COUNT(*) FROM Read WHERE CHARINDEX('N', short_read_seq) = 0";

pub fn run(cfg: &Config) -> Result<Outcome> {
    let mut out = Outcome::new(cfg);
    let mut tracer = Tracer::new(Instant::now(), 0);
    tracer.set_on(cfg.trace);
    tracer.set_request(crate::SETUP_REQUEST);
    let scale = lane::scale(cfg);
    let ((ds, truth, consensus, db, dir), setup_times) =
        lane::repeat_setup(cfg, 3, &mut tracer, |dir, t| {
            let ds = t.span("bio.dataset_gen", |_| {
                ResequencingDataset::generate(&dir.join("lane"), &scale)
            })?;
            let truth = ReseqTruth::new(&ds);
            let consensus = lane::reference_consensus(&ds)?;
            let db = lane::open_db(dir, true)?;
            Ok((ds, truth, consensus, db, dir.join("db")))
        })?;
    let gen = tracer.durations_ms("bio.dataset_gen");
    out.put(
        "bio.dataset_gen_s",
        crate::stats::median(&gen) / 1e3,
        gen.len(),
    );
    let nfree_expected = truth.n_free_reads + u64::from(cfg.wrong_expectation);

    // Timed import, durable: rows, index entries and a checkpoint.
    let io0 = Counters::now(&db);
    let t = Instant::now();
    tracer.span("core.import", |_| {
        import::import_reseq_normalized(&db, NORM, Compression::None, &ds)
    })?;
    let t_ckpt = Instant::now();
    tracer.span("storage.checkpoint", |_| db.checkpoint())?;
    let checkpoint_ms = t_ckpt.elapsed().as_secs_f64() * 1e3;
    let import_s = t.elapsed().as_secs_f64();
    let rows = lane::catalog_rows(&db)?;
    out.put_import_io(&Counters::now(&db).since(&io0), rows, checkpoint_ms);
    out.put_load(
        &setup_times,
        &[import_s],
        rows,
        lane::stored_bytes(&db)?,
        lane::input_bytes(&ds.fastq_path, &ds.alignments_path)?,
    );
    let data_pages =
        std::fs::metadata(dir.join("seqdb.data"))?.len() / seqdb_storage::PAGE_SIZE as u64;
    out.put("storage.data_pages", data_pages as f64, 1);
    out.report.push(format!(
        "working_set data_file_pages={data_pages} pool_frames={}",
        BufferPool::DEFAULT_CAPACITY
    ));
    out.checks.require(
        "reseq_disk: the data file must be larger than the buffer pool",
        data_pages > BufferPool::DEFAULT_CAPACITY as u64,
    );

    let merge_join = queries::merge_join_sql(NORM);
    let mut steps = vec![
        Step::new(
            "merge_join",
            |t| {
                let plan = t.span("sql.plan_sql", |_| db.plan_sql(&merge_join))?;
                let r = t.span("engine.run_plan", |_| db.run_plan(&plan))?;
                Ok(Output::count(r.rows[0][0].as_int()? as u64))
            },
            |o| expect_count("merge-join rows", o.count, truth.n_alignments),
        ),
        Step::new(
            "consensus",
            |t| {
                let plan = t.span("core.query3_sliding_plan", |_| {
                    queries::query3_sliding_plan(&db, NORM)
                })?;
                let r = t.span("engine.run_plan", |_| db.run_plan(&plan))?;
                Ok(Output::rows([0, 0], r.rows))
            },
            |o| {
                let mut got = Vec::with_capacity(o.rows.len());
                for row in &o.rows {
                    let chr = row[0].as_int().map_err(|e| e.to_string())?;
                    let seq = row[1].as_text().map_err(|e| e.to_string())?;
                    got.push((chr, seq.to_string()));
                }
                got.sort();
                if got == consensus {
                    Ok(())
                } else {
                    Err("consensus differs from the reference".into())
                }
            },
        ),
        Step::new(
            "nfree_count",
            |t| {
                let plan = t.span("sql.plan_sql", |_| db.plan_sql(NFREE_SQL))?;
                let r = t.span("engine.run_plan", |_| db.run_plan(&plan))?;
                Ok(Output::count(r.rows[0][0].as_int()? as u64))
            },
            |o| expect_count("N-free reads", o.count, nfree_expected),
        ),
    ];

    let io0 = Counters::now(&db);
    let mut last = io0;
    let start = Instant::now();
    let run_for = Duration::from_secs_f64(cfg.seconds);
    let log = run_loop(
        &mut steps,
        &mut tracer,
        cfg.trace,
        0,
        |_| (0..3).collect(),
        |c| c < 3 || start.elapsed() < run_for,
        |c, checks| {
            let now = Counters::now(&db);
            let misses = now.misses - last.misses;
            last = now;
            checks.require(
                &format!("reseq_disk: cycle {c} must miss the buffer pool (missed {misses})"),
                misses > 0,
            );
        },
    );
    drop(steps);
    let io = Counters::now(&db).since(&io0);
    out.put_loop_io(&io, log.cycles);
    out.put_loop(
        &log,
        &[
            ("merge_join", "merge_join_ms"),
            ("consensus", "consensus_ms"),
            ("nfree_count", "nfree_count_ms"),
        ],
    );

    if cfg.trace {
        out.put_layers(&tracer, &log.traced_cycle_ms, &log.cycle_ms);
        out.put_cycle_split(&tracer, &log.traced_cycle_ms);
        let actuals = vec![
            (
                "merge_join",
                1.0,
                median_actuals(&db, 3, || db.plan_sql(&merge_join))?,
            ),
            (
                "consensus",
                1.0,
                median_actuals(&db, 3, || queries::query3_sliding_plan(&db, NORM))?,
            ),
            (
                "nfree_count",
                1.0,
                median_actuals(&db, 3, || db.plan_sql(NFREE_SQL))?,
            ),
        ];
        out.put_actuals(&actuals);
        let files = LaneFiles {
            fastq: ds.fastq_path.clone(),
            n_reads: ds.reads.len() as i64,
            chr_lens: truth.chr_lens.clone(),
        };
        probes::run(&db, &files, &mut tracer, cfg.mix_seed, &mut out.values)?;
        out.put("server.client_retries", 0.0, 1);
        let path = cfg
            .trace_dir
            .join(format!("{}-seed{}.jsonl", cfg.workload.name(), cfg.seed));
        tracer.write_jsonl(&path)?;
        out.report.push(format!(
            "spans {} written to {}",
            tracer.spans().len(),
            path.display()
        ));
    }

    // Drop the database, reopen it from disk and re-verify.
    drop(db);
    let reopened = Database::open(&dir)?;
    for (table, want) in [("Read", truth.n_reads), ("Alignment", truth.n_alignments)] {
        let got = reopened.catalog().table(table).map(|t| t.row_count());
        out.checks.op(
            "reopen row count",
            match got {
                Ok(n) => expect_count(&format!("{table} rows after reopen"), n, want),
                Err(e) => Err(e.to_string()),
            },
        );
    }
    out.checks.merge(log.checks);
    Ok(out)
}
