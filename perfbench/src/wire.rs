//! `wire_interactive`: a scale-1 re-sequencing lane in memory, served by
//! `seqdb-server` on loopback. Two client connections each run cycles of
//! 20 statements in seeded order: 15 point lookups of a read by `r_id`,
//! 4 locus queries (alignments in a 200-bp window joined to their reads)
//! and 1 export of ~5,000 reads, spoken frame by frame so the first row
//! frame can be timed.

use std::cell::RefCell;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use seqdb_core::dataset::ResequencingDataset;
use seqdb_core::import;
use seqdb_core::workflow::NORM;
use seqdb_engine::Database;
use seqdb_server::protocol::{
    decode_error, decode_rows, encode_query, read_frame, write_frame, RESP_DONE, RESP_ERR,
    RESP_ROWS, RESP_SCHEMA,
};
use seqdb_server::{Client, Server, ServerConfig};
use seqdb_sql::DatabaseSqlExt;
use seqdb_storage::rowfmt::Compression;
use seqdb_types::{DbError, Result, Row};

use crate::common::{median_actuals, Counters};
use crate::lane::{self, export_sql, locus_sql, lookup_sql, LaneFiles, ReseqTruth, Rng, LOCUS_BP};
use crate::probes::export_len;
use crate::runner::{run_loop, LoopLog, Output, Step};
use crate::stats::{describe, median, percentile};
use crate::trace::Tracer;
use crate::{probes, Config, Outcome};

pub const CLIENTS: usize = 2;
/// Statement kinds of one cycle: 15 lookups, 4 locus queries, 1 export.
const CYCLE: [usize; 20] = [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2];
/// Lookups the run must hold so p99 has ten samples beyond it.
const MIN_LOOKUPS: u64 = 1_000;
/// Request ids of the in-process replay, apart from the wire cycles.
const REPLAY_BASE: u64 = 1 << 40;

/// How a step reaches the database: over a wire connection or in-process.
enum Via<'a> {
    Wire(&'a RefCell<Client>),
    Local(&'a Arc<Database>),
}

impl Via<'_> {
    fn query(&self, t: &mut Tracer, sql: &str) -> Result<Vec<Row>> {
        match self {
            Via::Wire(c) => t
                .span("server.roundtrip", |_| c.borrow_mut().query(sql))
                .map(|r| r.rows),
            Via::Local(db) => {
                let plan = t.span("sql.plan_sql", |_| db.plan_sql(sql))?;
                Ok(t.span("engine.run_plan", |_| db.run_plan(&plan))?.rows)
            }
        }
    }

    /// Run an export; over the wire, frame by frame, timing the first
    /// row frame from the moment the request is sent.
    fn export(&self, t: &mut Tracer, sql: &str) -> Result<(Vec<Row>, Option<f64>)> {
        let Via::Wire(c) = self else {
            return Ok((self.query(t, sql)?, None));
        };
        let client = c.borrow();
        t.span("server.roundtrip", |_| {
            let mut s: &TcpStream = client.stream();
            let sent = Instant::now();
            write_frame(&mut s, &encode_query(sql))?;
            let mut rows = Vec::new();
            let mut first = None;
            loop {
                let payload = read_frame(&mut s)?
                    .ok_or_else(|| DbError::Io("server closed the connection".into()))?;
                match payload.first().copied() {
                    Some(RESP_SCHEMA) => {}
                    Some(RESP_ROWS) => {
                        first.get_or_insert_with(|| sent.elapsed().as_secs_f64() * 1e3);
                        rows.extend(decode_rows(&payload)?);
                    }
                    Some(RESP_DONE) => return Ok((rows, first)),
                    Some(RESP_ERR) => return Err(decode_error(&payload)?),
                    other => return Err(DbError::Protocol(format!("unexpected frame {other:?}"))),
                }
            }
        })
    }
}

/// The three statement kinds over `via`, with seeded parameters.
fn steps<'a>(
    via: &'a Via<'a>,
    truth: &'a ReseqTruth,
    rng: &'a RefCell<Rng>,
    lookups: &'a AtomicU64,
    wrong: bool,
) -> Vec<Step<'a>> {
    let n_reads = truth.n_reads as i64;
    let export = export_len(n_reads);
    vec![
        Step::new(
            "lookup",
            move |t| {
                let id = rng.borrow_mut().range(1, n_reads + 1);
                let rows = via.query(t, &lookup_sql(id))?;
                if !t.is_on() {
                    lookups.fetch_add(1, Ordering::Relaxed);
                }
                Ok(Output::rows([id, 1], rows))
            },
            move |o| truth.check_reads(&o.rows, o.params[0], o.params[1]),
        ),
        Step::new(
            "locus",
            move |t| {
                let (chr, lo) = {
                    let mut r = rng.borrow_mut();
                    let chr = r.range(0, truth.chr_lens.len() as i64);
                    (chr, r.range(0, truth.chr_lens[chr as usize] - LOCUS_BP))
                };
                Ok(Output::rows([chr, lo], via.query(t, &locus_sql(chr, lo))?))
            },
            move |o| truth.check_locus(&o.rows, o.params[0], o.params[1]),
        ),
        Step::new(
            "export",
            move |t| {
                let lo = rng.borrow_mut().range(1, n_reads - export + 2);
                let (rows, first) = via.export(t, &export_sql(lo, export))?;
                let mut o = Output::rows([lo, export], rows);
                o.first_row_ms = first;
                Ok(o)
            },
            move |o| truth.check_reads(&o.rows, o.params[0], o.params[1] + i64::from(wrong)),
        ),
    ]
}

pub fn run(cfg: &Config) -> Result<Outcome> {
    let mut out = Outcome::new(cfg);
    let mut tracer = Tracer::new(Instant::now(), 0);
    tracer.set_on(cfg.trace);
    tracer.set_request(crate::SETUP_REQUEST);
    let scale = lane::scale(cfg);
    let ((ds, truth, db), setup_times) = lane::repeat_setup(cfg, 5, &mut tracer, |dir, t| {
        let ds = t.span("bio.dataset_gen", |_| {
            ResequencingDataset::generate(dir, &scale)
        })?;
        let truth = ReseqTruth::new(&ds);
        Ok((ds, truth, lane::open_db(dir, false)?))
    })?;
    let gen = tracer.durations_ms("bio.dataset_gen");
    out.put("bio.dataset_gen_s", median(&gen) / 1e3, gen.len());

    let io0 = Counters::now(&db);
    let t = Instant::now();
    tracer.span("core.import", |_| {
        import::import_reseq_normalized(&db, NORM, Compression::None, &ds)
    })?;
    let import_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    tracer.span("storage.checkpoint", |_| db.checkpoint())?;
    let checkpoint_ms = t.elapsed().as_secs_f64() * 1e3;
    let rows = lane::catalog_rows(&db)?;
    out.put_import_io(&Counters::now(&db).since(&io0), rows, checkpoint_ms);
    out.put_load(
        &setup_times,
        &[import_s],
        rows,
        lane::stored_bytes(&db)?,
        lane::input_bytes(&ds.fastq_path, &ds.alignments_path)?,
    );
    out.put(
        "storage.data_pages",
        db.pool().store().num_pages() as f64,
        1,
    );

    let server = Server::start(db.clone(), "127.0.0.1:0", ServerConfig::default())?;
    let addr = server.addr();
    let lookups = AtomicU64::new(0);
    let start = Instant::now();
    let run_for = Duration::from_secs_f64(cfg.seconds);
    let cap = run_for * 3;
    let min_lookups = if cfg.tiny { 0 } else { MIN_LOOKUPS };
    let io0 = Counters::now(&db);
    let results: Vec<Result<(LoopLog, Tracer, u64)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|i| {
                let (truth, lookups) = (&truth, &lookups);
                s.spawn(move || -> Result<(LoopLog, Tracer, u64)> {
                    let client = RefCell::new(Client::connect(addr)?);
                    let via = Via::Wire(&client);
                    let rng = RefCell::new(Rng::new(cfg.mix_seed ^ (i as u64 + 1)));
                    let mut steps = steps(&via, truth, &rng, lookups, cfg.wrong_expectation);
                    let mut tracer = Tracer::new(start, i as u32 + 1);
                    let mut order_rng = Rng::new(cfg.mix_seed ^ 0x0DE5 ^ i as u64);
                    let log = run_loop(
                        &mut steps,
                        &mut tracer,
                        cfg.trace,
                        (i as u64) << 32,
                        |_| {
                            let mut o = CYCLE.to_vec();
                            order_rng.shuffle(&mut o);
                            o
                        },
                        |c| {
                            let el = start.elapsed();
                            c < 2
                                || el < run_for
                                || (lookups.load(Ordering::Relaxed) < min_lookups && el < cap)
                        },
                        |_, _| {},
                    );
                    drop(steps);
                    let retries = client.borrow().retries_performed();
                    Ok((log, tracer, retries))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let io = Counters::now(&db).since(&io0);
    let mut log = LoopLog::default();
    let mut retries = 0;
    for r in results {
        let (l, t, n) = r?;
        log.absorb(l);
        tracer.absorb(t);
        retries += n;
    }
    server.drain()?;
    out.report
        .push(format!("callers {CLIENTS} closed-loop connections"));
    out.put_loop_io(&io, log.cycles);
    out.put_loop(
        &log,
        &[
            ("lookup", "lookup_p50_ms"),
            ("locus", "locus_p50_ms"),
            ("export", "export_ms"),
        ],
    );
    let lookup = log.latency.get("lookup").cloned().unwrap_or_default();
    out.report.push(format!(
        "stmt lookup_p99_ms {:.4} ms n={}{}",
        percentile(&lookup, 99.0),
        lookup.len(),
        if lookup.len() >= 1_000 {
            ""
        } else {
            " (fewer than 1000 samples: p99 not supported)"
        }
    ));
    out.report
        .push(describe("export_first_row_ms", "ms", &log.first_row_ms));
    out.report.push(describe(
        "export_rows_per_s",
        "rows/s",
        &log.stream_rows_per_s,
    ));
    out.put("server.client_retries", retries as f64, 1);

    if cfg.trace {
        out.put_layers(&tracer, &log.traced_cycle_ms, &log.cycle_ms);
        // The same cycles in-process split the statements' time into
        // front end and engine.
        let via = Via::Local(&db);
        let rng = RefCell::new(Rng::new(cfg.mix_seed ^ 0x4E91));
        let replay_lookups = AtomicU64::new(0);
        let mut steps = steps(&via, &truth, &rng, &replay_lookups, false);
        let mut order_rng = Rng::new(cfg.mix_seed ^ 0x4E92);
        let replay = run_loop(
            &mut steps,
            &mut tracer,
            true,
            REPLAY_BASE,
            |_| {
                let mut o = CYCLE.to_vec();
                order_rng.shuffle(&mut o);
                o
            },
            |c| c < 6,
            |_, _| {},
        );
        drop(steps);
        out.put_cycle_split(&tracer, &replay.traced_cycle_ms);
        let mut r = Rng::new(cfg.mix_seed ^ 0xAC7);
        let n_reads = truth.n_reads as i64;
        let actuals = vec![
            (
                "lookup",
                15.0,
                median_actuals(&db, 5, || db.plan_sql(&lookup_sql(r.range(1, n_reads + 1))))?,
            ),
            (
                "locus",
                4.0,
                median_actuals(&db, 5, || {
                    let chr = r.range(0, truth.chr_lens.len() as i64);
                    db.plan_sql(&locus_sql(
                        chr,
                        r.range(0, truth.chr_lens[chr as usize] - LOCUS_BP),
                    ))
                })?,
            ),
            (
                "export",
                1.0,
                median_actuals(&db, 3, || db.plan_sql(&export_sql(1, export_len(n_reads))))?,
            ),
        ];
        out.put_actuals(&actuals);
        let files = LaneFiles {
            fastq: ds.fastq_path.clone(),
            n_reads,
            chr_lens: truth.chr_lens.clone(),
        };
        probes::run(&db, &files, &mut tracer, cfg.mix_seed, &mut out.values)?;
        let path = cfg
            .trace_dir
            .join(format!("{}-seed{}.jsonl", cfg.workload.name(), cfg.seed));
        tracer.write_jsonl(&path)?;
        out.report.push(format!(
            "spans {} written to {}",
            tracer.spans().len(),
            path.display()
        ));
        out.checks.merge(replay.checks);
    }
    out.checks.merge(log.checks);
    Ok(out)
}
