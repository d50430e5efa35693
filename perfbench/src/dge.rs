//! `dge_analysis`: a DGE lane in an in-memory database that fits the
//! buffer pool. Timed import of three designs (normalized NONE,
//! normalized PAGE, FileStream blob), then one caller loops over Query 1
//! on each normalized design, the `ListShortReads` TVF count over the
//! blob, and Query 2.

use std::sync::Arc;
use std::time::{Duration, Instant};

use seqdb_core::dataset::DgeDataset;
use seqdb_core::workflow::{NORM, NORM_PAGE};
use seqdb_core::{import, queries};
use seqdb_engine::{Database, QueryResult};
use seqdb_sql::DatabaseSqlExt;
use seqdb_storage::rowfmt::Compression;
use seqdb_types::{Result, Schema};

use crate::common::{median_actuals, Counters};
use crate::lane::{self, LaneFiles};
use crate::runner::{run_loop, Output, Step};
use crate::trace::Tracer;
use crate::{probes, Config, Outcome};

const TVF_COUNT_SQL: &str = "SELECT COUNT(*) FROM ListShortReads(855, 1, 'FastQ')";

/// The SELECT of Query 2, which the loop plans and feeds to an insert.
fn query2_select() -> String {
    let sql = queries::query2_sql(NORM);
    let at = sql.find("SELECT").expect("Query 2 is INSERT ... SELECT");
    sql[at..].to_string()
}

fn select(t: &mut Tracer, db: &Arc<Database>, sql: &str) -> Result<Vec<seqdb_types::Row>> {
    let plan = t.span("sql.plan_sql", |_| db.plan_sql(sql))?;
    Ok(t.span("engine.run_plan", |_| db.run_plan(&plan))?.rows)
}

pub fn run(cfg: &Config) -> Result<Outcome> {
    let mut out = Outcome::new(cfg);
    let mut tracer = Tracer::new(Instant::now(), 0);
    tracer.set_on(cfg.trace);
    tracer.set_request(crate::SETUP_REQUEST);
    let scale = lane::scale(cfg);
    let ((ds, db), setup_times) = lane::repeat_setup(cfg, 5, &mut tracer, |dir, t| {
        let ds = t.span("bio.dataset_gen", |_| DgeDataset::generate(dir, &scale))?;
        Ok((ds, lane::open_db(dir, false)?))
    })?;
    let gen = tracer.durations_ms("bio.dataset_gen");
    out.put(
        "bio.dataset_gen_s",
        crate::stats::median(&gen) / 1e3,
        gen.len(),
    );

    // Expected answers, from the dataset.
    let unique_tags = ds.unique_tags.clone();
    let tvf_expected = ds.reads.len() as u64 + u64::from(cfg.wrong_expectation);
    let mut genes: Vec<(i64, i64, i64)> = ds
        .gene_expression
        .iter()
        .map(|&(g, f, c)| (g as i64, f as i64, c as i64))
        .collect();
    genes.sort_unstable();

    // Timed import of the three designs. A single import is short next
    // to the machine's slow drifts, so it runs into three fresh databases
    // (one for tiny inputs) and the median counts; the loop uses the last.
    let mut db = db;
    let mut import_times = Vec::new();
    let mut io = Counters::default();
    for rep in 0..if cfg.tiny { 1 } else { 3 } {
        if rep > 0 {
            db = lane::open_db(&cfg.work_dir, false)?;
        }
        let io0 = Counters::now(&db);
        let t = Instant::now();
        tracer.span("core.import", |_| -> Result<()> {
            import::import_dge_normalized(&db, NORM, Compression::None, &ds)?;
            import::import_dge_normalized(&db, NORM_PAGE, Compression::Page, &ds)?;
            import::import_filestream(&db, NORM, &ds.fastq_path, 855, 1)
        })?;
        import_times.push(t.elapsed().as_secs_f64());
        io = Counters::now(&db).since(&io0);
    }
    let t = Instant::now();
    tracer.span("storage.checkpoint", |_| db.checkpoint())?;
    let checkpoint_ms = t.elapsed().as_secs_f64() * 1e3;
    let rows = lane::catalog_rows(&db)?;
    out.put_import_io(&io, rows, checkpoint_ms);
    out.put_load(
        &setup_times,
        &import_times,
        rows,
        lane::stored_bytes(&db)?,
        lane::input_bytes(&ds.fastq_path, &ds.alignments_path)?,
    );
    let data_pages = db.pool().store().num_pages();
    out.put("storage.data_pages", data_pages as f64, 1);
    out.report.push(format!(
        "working_set pages={data_pages} pool_frames={}",
        seqdb_storage::BufferPool::DEFAULT_CAPACITY
    ));

    let q1_none = queries::query1_sql(NORM);
    let q1_page = queries::query1_sql(NORM_PAGE);
    let q2 = query2_select();
    let gene_expression = db.catalog().table(&format!("GeneExpression{NORM}"))?;
    let check_q1 = |o: &Output| -> std::result::Result<(), String> {
        let r = QueryResult {
            schema: Arc::new(Schema::empty()),
            rows: o.rows.clone(),
            affected: 0,
        };
        queries::check_query1_against(&r, &unique_tags).map_err(|e| e.to_string())
    };
    let mut steps = vec![
        Step::new(
            "q1",
            |t| Ok(Output::rows([0, 0], select(t, &db, &q1_none)?)),
            check_q1,
        ),
        Step::new(
            "q1_page",
            |t| Ok(Output::rows([0, 0], select(t, &db, &q1_page)?)),
            check_q1,
        ),
        Step::new(
            "tvf_count",
            |t| {
                let rows = select(t, &db, TVF_COUNT_SQL)?;
                Ok(Output::count(rows[0][0].as_int()? as u64))
            },
            |o| expect_count("ListShortReads rows", o.count, tvf_expected),
        ),
        Step::new(
            "q2",
            |t| {
                let plan = t.span("sql.plan_sql", |_| db.plan_sql(&q2))?;
                let r = t.span("engine.run_insert", |_| {
                    db.run_insert(&gene_expression, &plan)
                })?;
                Ok(Output::count(r.affected))
            },
            |o| {
                expect_count("Query 2 genes", o.count, genes.len() as u64)?;
                let got = db
                    .query_sql("SELECT x_g_id, total_frequency, tag_count FROM GeneExpression")
                    .map_err(|e| e.to_string())?;
                let mut got: Vec<(i64, i64, i64)> = got
                    .rows
                    .iter()
                    .map(|r| Ok((r[0].as_int()?, r[1].as_int()?, r[2].as_int()?)))
                    .collect::<Result<_>>()
                    .map_err(|e| e.to_string())?;
                got.sort_unstable();
                db.execute_sql("DELETE FROM GeneExpression")
                    .map_err(|e| e.to_string())?;
                if got == genes {
                    Ok(())
                } else {
                    Err("gene expression rows differ from the dataset".into())
                }
            },
        ),
    ];

    let io0 = Counters::now(&db);
    let start = Instant::now();
    let run_for = Duration::from_secs_f64(cfg.seconds);
    let log = run_loop(
        &mut steps,
        &mut tracer,
        cfg.trace,
        0,
        |_| (0..4).collect(),
        |c| c < 3 || start.elapsed() < run_for,
        |_, _| {},
    );
    drop(steps);
    let io = Counters::now(&db).since(&io0);
    out.checks.require(
        "dge_analysis: the loop must not miss the buffer pool",
        io.misses == 0,
    );
    out.put_loop_io(&io, log.cycles);
    out.put_loop(
        &log,
        &[
            ("q1", "q1_ms"),
            ("q1_page", "q1_page_ms"),
            ("q2", "q2_ms"),
            ("tvf_count", "tvf_count_ms"),
        ],
    );

    if cfg.trace {
        out.put_layers(&tracer, &log.traced_cycle_ms, &log.cycle_ms);
        out.put_cycle_split(&tracer, &log.traced_cycle_ms);
        let actuals = vec![
            ("q1", 1.0, median_actuals(&db, 3, || db.plan_sql(&q1_none))?),
            (
                "q1_page",
                1.0,
                median_actuals(&db, 3, || db.plan_sql(&q1_page))?,
            ),
            (
                "tvf_count",
                1.0,
                median_actuals(&db, 3, || db.plan_sql(TVF_COUNT_SQL))?,
            ),
            ("q2", 1.0, median_actuals(&db, 3, || db.plan_sql(&q2))?),
        ];
        out.put_actuals(&actuals);
        let files = LaneFiles {
            fastq: ds.fastq_path.clone(),
            n_reads: ds.reads.len() as i64,
            chr_lens: ds
                .reference
                .chromosomes
                .iter()
                .map(|c| c.len() as i64)
                .collect(),
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
    out.checks.merge(log.checks);
    Ok(out)
}

pub fn expect_count(what: &str, got: u64, want: u64) -> std::result::Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: got {got}, expected {want}"))
    }
}
