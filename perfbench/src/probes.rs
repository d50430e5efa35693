//! Layer probes, run on traced runs after the statement loop: each
//! times one layer's public call over the workload's own lane, inside
//! spans named `<layer>.<call>`, and derives its metric from those spans.

use std::collections::BTreeMap;
use std::sync::Arc;

use seqdb_bio::fastq::{ChunkedFastqParser, IoChunkSource};
use seqdb_core::{queries, schema};
use seqdb_engine::Database;
use seqdb_server::protocol::{decode_rows, encode_rows, ROWS_PER_FRAME};
use seqdb_server::{Client, Server, ServerConfig};
use seqdb_sql::DatabaseSqlExt;
use seqdb_storage::keycode::encode_key;
use seqdb_storage::rowfmt::{self, Compression};
use seqdb_storage::{BTree, HeapFile, PageContext};
use seqdb_types::{DbError, Result, Row, Value};

use crate::analyze::analyze;
use crate::lane::{export_sql, locus_sql, lookup_sql, LaneFiles, Rng, LOCUS_BP};
use crate::stats::median;
use crate::trace::Tracer;

/// Request id the probes' spans carry, apart from the loop's cycles.
pub const PROBE_REQUEST: u64 = u64::MAX;

/// Rows copied into scratch tables, heaps and trees.
const SCRATCH_ROWS: usize = 2_000;

pub fn run(
    db: &Arc<Database>,
    lane: &LaneFiles,
    tracer: &mut Tracer,
    seed: u64,
    values: &mut BTreeMap<String, f64>,
) -> Result<()> {
    tracer.set_on(true);
    tracer.set_request(PROBE_REQUEST);
    let mut rng = Rng::new(seed ^ 0x9_0BE5);
    let mut put = |k: &str, v: f64| {
        values.insert(k.to_string(), v);
    };

    // bio: the chunked FASTQ parser over the lane file.
    for _ in 0..5 {
        let n = tracer.span("bio.fastq_parse", |_| {
            ChunkedFastqParser::new(IoChunkSource(std::fs::File::open(&lane.fastq)?))
                .count_remaining()
        })?;
        expect_eq("FASTQ records", n, lane.n_reads as u64)?;
    }
    put(
        "bio.fastq_parse_ns_per_record",
        median(&tracer.durations_ms("bio.fastq_parse")) * 1e6 / lane.n_reads as f64,
    );

    // sql: parse alone, and parse + bind + plan.
    let statements: [(&'static str, &'static str, String); 3] = [
        ("sql.parse.q1", "sql.plan_sql.q1", queries::query1_sql("")),
        (
            "sql.parse.lookup",
            "sql.plan_sql.lookup",
            lookup_sql(rng.range(1, lane.n_reads + 1)),
        ),
        (
            "sql.parse.locus",
            "sql.plan_sql.locus",
            locus_sql(0, rng.range(0, lane.chr_lens[0] - LOCUS_BP)),
        ),
    ];
    for (parse_span, plan_span, sql) in &statements {
        for _ in 0..200 {
            tracer.span(parse_span, |_| seqdb_sql::parse(sql))?;
            tracer.span(plan_span, |_| db.plan_sql(sql))?;
        }
        let parse_us = median(&tracer.durations_ms(parse_span)) * 1e3;
        let plan_us = median(&tracer.durations_ms(plan_span)) * 1e3 - parse_us;
        let name = parse_span.rsplit('.').next().expect("named span");
        put(&format!("sql.parse_us.{name}"), parse_us);
        put(&format!("sql.plan_us.{name}"), plan_us);
    }

    // engine + storage: inserts into scratch copies of Read and Alignment.
    let read = db.catalog().table("Read")?;
    let alignment = db.catalog().table("Alignment")?;
    let read_rows = first_rows(&read.heap, SCRATCH_ROWS)?;
    let align_rows = first_rows(&alignment.heap, SCRATCH_ROWS)?;
    schema::create_normalized_schema(db, "_probe", Compression::None)?;
    let scratch_read = db.catalog().table("Read_probe")?;
    let scratch_align = db.catalog().table("Alignment_probe")?;
    for r in &read_rows {
        tracer.span("engine.table_insert.read", |_| scratch_read.insert(r))?;
    }
    for r in &align_rows {
        tracer.span("engine.table_insert.alignment", |_| scratch_align.insert(r))?;
    }
    put(
        "engine.table_insert_us.read",
        median(&tracer.durations_ms("engine.table_insert.read")) * 1e3,
    );
    put(
        "engine.table_insert_us.alignment",
        median(&tracer.durations_ms("engine.table_insert.alignment")) * 1e3,
    );
    for t in db.catalog().table_names() {
        if t.ends_with("_probe") {
            db.catalog().drop_table(&t)?;
        }
    }

    let pool = db.pool().clone();
    let schema = read.schema.clone();
    let heap_none = HeapFile::create(pool.clone(), schema.clone(), Compression::None)?;
    let heap_page = HeapFile::create(pool.clone(), schema.clone(), Compression::Page)?;
    let tree = BTree::create(pool.clone())?;
    for r in &read_rows {
        tracer.span("storage.heap_insert", |_| heap_none.insert(r))?;
        heap_page.insert(r)?;
        let key = encode_key(&[r[0].clone()]);
        let encoded = rowfmt::encode_row(&schema, r, Compression::Row, None);
        tracer.span("storage.btree_insert", |_| tree.insert(&key, &encoded))?;
    }
    put(
        "storage.heap_insert_us",
        median(&tracer.durations_ms("storage.heap_insert")) * 1e3,
    );
    put(
        "storage.btree_insert_us",
        median(&tracer.durations_ms("storage.btree_insert")) * 1e3,
    );
    let n = read_rows.len() as f64;
    for _ in 0..5 {
        tracer.span("storage.encode.none", |_| {
            for r in &read_rows {
                std::hint::black_box(rowfmt::encode_row(&schema, r, Compression::None, None));
            }
        });
        tracer.span("storage.encode.page", |_| {
            for group in read_rows.chunks(64) {
                let ctx = PageContext::build(&schema, group);
                for r in group {
                    std::hint::black_box(rowfmt::encode_row(
                        &schema,
                        r,
                        Compression::Page,
                        Some(&ctx),
                    ));
                }
            }
        });
    }
    put(
        "storage.encode_ns_per_row.none",
        median(&tracer.durations_ms("storage.encode.none")) * 1e6 / n,
    );
    put(
        "storage.encode_ns_per_row.page",
        median(&tracer.durations_ms("storage.encode.page")) * 1e6 / n,
    );
    for (span, heap) in [
        ("storage.decode.none", &heap_none),
        ("storage.decode.page", &heap_page),
    ] {
        let pages = heap.pages_snapshot();
        let mut buf: Vec<Row> = Vec::new();
        for _ in 0..5 {
            let decoded = tracer.span(span, |_| -> Result<usize> {
                let mut total = 0;
                for &pid in &pages {
                    buf.clear();
                    heap.page_rows_into(pid, &mut buf)?;
                    total += buf.len();
                }
                Ok(total)
            })?;
            expect_eq("decoded rows", decoded as u64, read_rows.len() as u64)?;
        }
    }
    put(
        "storage.decode_ns_per_row.none",
        median(&tracer.durations_ms("storage.decode.none")) * 1e6 / n,
    );
    put(
        "storage.decode_ns_per_row.page",
        median(&tracer.durations_ms("storage.decode.page")) * 1e6 / n,
    );
    let resident = heap_none.first_page();
    pool.fetch(resident)?;
    for _ in 0..20 {
        tracer.span("storage.pool_fetch_x1000", |_| -> Result<()> {
            for _ in 0..1000 {
                std::hint::black_box(pool.fetch(resident)?);
            }
            Ok(())
        })?;
    }
    put(
        "storage.pool_hit_ns",
        median(&tracer.durations_ms("storage.pool_fetch_x1000")) * 1e3,
    );
    let pk = read
        .indexes
        .read()
        .first()
        .cloned()
        .ok_or_else(|| DbError::Plan("Read has no primary key index".into()))?;
    for _ in 0..500 {
        let key = encode_key(&[Value::Int(rng.range(1, lane.n_reads + 1))]);
        let hit = tracer.span("storage.btree_get", |_| pk.btree.get(&key))?;
        if hit.is_none() {
            return Err(DbError::Execution("primary key lookup missed".into()));
        }
    }
    put(
        "storage.btree_get_us",
        median(&tracer.durations_ms("storage.btree_get")) * 1e3,
    );

    // storage: FileStream streaming reads of the lane file.
    let fs = db.filestream();
    let guid = fs.insert_from_file(&lane.fastq)?;
    let blob_len = fs.len(guid)?;
    let mut chunk = vec![0u8; 64 * 1024];
    for _ in 0..3 {
        let read_bytes = tracer.span("storage.filestream_read", |_| -> Result<u64> {
            let mut reader = fs.open_reader(guid, true)?;
            let mut off = 0u64;
            loop {
                let got = reader.get_bytes(off, &mut chunk)?;
                if got == 0 {
                    return Ok(off);
                }
                off += got as u64;
            }
        })?;
        expect_eq("FileStream bytes", read_bytes, blob_len)?;
    }
    fs.delete(guid)?;
    put(
        "storage.filestream_read_mb_per_s",
        blob_len as f64 / 1e6 / (median(&tracer.durations_ms("storage.filestream_read")) / 1e3),
    );

    // server: protocol encode/decode of an export-shaped result.
    let export_len = export_len(lane.n_reads);
    let export = db.run_plan(&db.plan_sql(&export_sql(1, export_len))?)?.rows;
    let mut frames = Vec::new();
    for _ in 0..5 {
        frames = tracer.span("server.encode_rows", |_| {
            export
                .chunks(ROWS_PER_FRAME)
                .map(encode_rows)
                .collect::<Vec<_>>()
        });
        let decoded = tracer.span("server.decode_rows", |_| -> Result<usize> {
            let mut n = 0;
            for f in &frames {
                n += decode_rows(f)?.len();
            }
            Ok(n)
        })?;
        expect_eq("decoded wire rows", decoded as u64, export.len() as u64)?;
    }
    let krows = export.len() as f64 / 1e3;
    put(
        "server.encode_us_per_krow",
        median(&tracer.durations_ms("server.encode_rows")) * 1e3 / krows,
    );
    put(
        "server.decode_us_per_krow",
        median(&tracer.durations_ms("server.decode_rows")) * 1e3 / krows,
    );
    put(
        "server.wire_bytes_per_row",
        frames.iter().map(|f| f.len()).sum::<usize>() as f64 / export.len() as f64,
    );

    // server + engine: the same short statements in-process and over a
    // loopback connection; the difference is what the wire adds.
    let server = Server::start(db.clone(), "127.0.0.1:0", ServerConfig::default())?;
    let wire = (|| -> Result<()> {
        let mut client = Client::connect(server.addr())?;
        for (kind, inproc, wire) in [
            ("lookup", "engine.inproc.lookup", "server.roundtrip.lookup"),
            ("locus", "engine.inproc.locus", "server.roundtrip.locus"),
        ] {
            // At least 5 pairs, then as many as fit in about 2 s.
            let started = std::time::Instant::now();
            let mut examined = Vec::new();
            for i in 0.. {
                if i >= 5 && (i >= 100 || started.elapsed().as_secs_f64() > 2.0) {
                    break;
                }
                let sql = if kind == "lookup" {
                    lookup_sql(rng.range(1, lane.n_reads + 1))
                } else {
                    let chr = rng.range(0, lane.chr_lens.len() as i64);
                    locus_sql(chr, rng.range(0, lane.chr_lens[chr as usize] - LOCUS_BP))
                };
                let local = tracer.span(inproc, |_| db.run_plan(&db.plan_sql(&sql)?))?;
                let remote = tracer.span(wire, |_| client.query(&sql))?;
                expect_eq(
                    "wire rows",
                    remote.rows.len() as u64,
                    local.rows.len() as u64,
                )?;
                if i < 3 {
                    examined.push(analyze(db, &db.plan_sql(&sql)?)?.examined_per_row());
                }
            }
            let overhead =
                median(&tracer.durations_ms(wire)) - median(&tracer.durations_ms(inproc));
            values.insert(format!("server.wire_overhead_us.{kind}"), overhead * 1e3);
            values.insert(
                format!("engine.rows_examined_per_row.{kind}"),
                median(&examined),
            );
        }
        Ok(())
    })();
    server.drain()?;
    tracer.set_on(false);
    wire
}

/// Rows in an export: ~5,000 reads, or a quarter of a small lane.
pub fn export_len(n_reads: i64) -> i64 {
    5_000.min(n_reads / 4).max(1)
}

fn first_rows(heap: &HeapFile, n: usize) -> Result<Vec<Row>> {
    heap.scan()
        .take(n)
        .map(|item| item.map(|(_, row)| row))
        .collect()
}

fn expect_eq(what: &str, got: u64, want: u64) -> Result<()> {
    if got == want {
        Ok(())
    } else {
        Err(DbError::Execution(format!(
            "{what}: got {got}, expected {want}"
        )))
    }
}
