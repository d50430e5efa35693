//! Batch-size invariance and robustness: every query must return the
//! rows a plain-Rust reference computes from the same data under any
//! batch size (1 is row-at-a-time), DOP or memory budget, and the
//! governor contracts — KILL, timeouts, spill cleanup, pin accounting —
//! must hold mid-batch.

use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use seqdb::engine::{Database, ExecContext, TableFunction, TvfCursor};
use seqdb::sql::{DatabaseSqlExt, SessionSqlExt};
use seqdb::types::{Column, DataType, DbError, Result, Row, Schema, Value};

/// `NUMBERS(n)` emits 0..n — an effectively endless stream for the
/// cancellation and timeout tests.
struct Numbers;

struct NumbersCursor {
    next: i64,
    limit: i64,
}

impl TvfCursor for NumbersCursor {
    fn move_next(&mut self) -> Result<bool> {
        self.next += 1;
        Ok(self.next <= self.limit)
    }
    fn fill_row(&mut self) -> Result<Row> {
        Ok(Row::new(vec![Value::Int(self.next - 1)]))
    }
}

impl TableFunction for Numbers {
    fn name(&self) -> &str {
        "NUMBERS"
    }
    fn schema(&self) -> Arc<Schema> {
        Arc::new(Schema::new(vec![Column::new("n", DataType::Int)]))
    }
    fn open(&self, args: &[Value], _ctx: &ExecContext) -> Result<Box<dyn TvfCursor>> {
        Ok(Box::new(NumbersCursor {
            next: 0,
            limit: args[0].as_int()?,
        }))
    }
}

fn counter(db: &Arc<Database>, name: &str) -> i64 {
    let r = db
        .query_sql(&format!(
            "SELECT value FROM DM_OS_PERFORMANCE_COUNTERS() WHERE counter_name = '{name}'"
        ))
        .unwrap();
    r.rows.first().map_or(0, |row| row[0].as_int().unwrap())
}

// ----------------------------------------------------------------------
// Property: every batch size returns the reference result
// ----------------------------------------------------------------------

/// `Some(v)` for an INT value, `None` for NULL.
fn int(v: &Value) -> Option<i64> {
    match v {
        Value::Int(i) => Some(*i),
        _ => None,
    }
}

fn int_or_null(v: Option<i64>) -> Value {
    v.map_or(Value::Null, Value::Int)
}

/// One query of the invariance sweep with its expected rows, computed
/// in plain Rust from the table contents.
struct Case {
    sql: String,
    /// `SET JOIN_STRATEGY` the query runs under (0 = cost-based).
    join_strategy: u8,
    /// Compare row order too (full ORDER BY), not just the multiset.
    ordered: bool,
    expect: Vec<Row>,
}

impl Case {
    fn new(sql: impl Into<String>, expect: Vec<Row>) -> Case {
        Case {
            sql: sql.into(),
            join_strategy: 0,
            ordered: false,
            expect,
        }
    }
}

fn rendered(rows: &[Row], ordered: bool) -> Vec<String> {
    let mut out: Vec<String> = rows.iter().map(|row| format!("{row:?}")).collect();
    if !ordered {
        out.sort();
    }
    out
}

/// The sweep's queries over `t(id, grp, v)` and `s(g, name)`, where `s`
/// holds g = 0..6, and the reference answer of each.
fn invariance_cases(t: &[Row], k: i64) -> Vec<Case> {
    let rows: Vec<(i64, Option<i64>, Option<i64>)> = t
        .iter()
        .map(|r| (int(&r[0]).unwrap(), int(&r[1]), int(&r[2])))
        .collect();
    let lane = |g: i64| (0..6).contains(&g);
    let row = |vals: Vec<Value>| Row::new(vals);
    let mut cases = Vec::new();

    // Scan kernel in both operand orders (NULL never passes), then
    // filter→project.
    cases.push(Case::new(
        format!("SELECT id, v FROM t WHERE v < {k}"),
        rows.iter()
            .filter_map(|&(id, _, v)| v.filter(|v| *v < k).map(|v| (id, v)))
            .map(|(id, v)| row(vec![Value::Int(id), Value::Int(v)]))
            .collect(),
    ));
    cases.push(Case::new(
        format!("SELECT id FROM t WHERE {k} >= v"),
        rows.iter()
            .filter(|&&(_, _, v)| v.is_some_and(|v| k >= v))
            .map(|&(id, _, _)| row(vec![Value::Int(id)]))
            .collect(),
    ));
    cases.push(Case::new(
        format!("SELECT id + v, grp FROM t WHERE v <> {k}"),
        rows.iter()
            .filter_map(|&(id, g, v)| v.filter(|v| *v != k).map(|v| (id + v, g)))
            .map(|(sum, g)| row(vec![Value::Int(sum), int_or_null(g)]))
            .collect(),
    ));

    // Grouped and global aggregates: NULL keys form one group, SUM skips
    // NULLs and is NULL over no values.
    let mut groups: std::collections::BTreeMap<Option<i64>, (i64, Option<i64>)> =
        Default::default();
    for &(_, g, v) in &rows {
        let e = groups.entry(g).or_insert((0, None));
        e.0 += 1;
        if let Some(v) = v {
            e.1 = Some(e.1.unwrap_or(0) + v);
        }
    }
    cases.push(Case::new(
        "SELECT grp, COUNT(*), SUM(v) FROM t GROUP BY grp",
        groups
            .iter()
            .map(|(g, (n, sum))| row(vec![int_or_null(*g), Value::Int(*n), int_or_null(*sum)]))
            .collect(),
    ));
    let above: Vec<i64> = rows.iter().filter_map(|r| r.2).filter(|v| *v > k).collect();
    cases.push(Case::new(
        format!("SELECT COUNT(*), SUM(v) FROM t WHERE v > {k}"),
        vec![row(vec![
            Value::Int(above.len() as i64),
            int_or_null((!above.is_empty()).then(|| above.iter().sum())),
        ])],
    ));

    // Hash-join probe (cost-based) and a forced merge join.
    let matched = rows.iter().filter(|r| r.1.is_some_and(lane)).count() as i64;
    cases.push(Case::new(
        "SELECT COUNT(*) FROM t JOIN s ON (t.grp = s.g)",
        vec![row(vec![Value::Int(matched)])],
    ));
    // The merge join's right side is `t`, so it buffers groups of
    // duplicate keys.
    cases.push(Case {
        join_strategy: 2,
        ..Case::new(
            "SELECT s.name, t.id FROM s JOIN t ON (s.g = t.grp)",
            rows.iter()
                .filter_map(|&(id, g, _)| g.filter(|g| lane(*g)).map(|g| (id, g)))
                .map(|(id, g)| row(vec![Value::text(format!("lane{g}")), Value::Int(id)]))
                .collect(),
        )
    });

    // Sorts: NULL orders first, ties broken by the unique id.
    let mut by_v = rows.clone();
    by_v.sort_by_key(|&(id, _, v)| (v, id));
    cases.push(Case::new(
        "SELECT TOP 10 id FROM t ORDER BY v, id",
        by_v.iter()
            .take(10)
            .map(|&(id, _, _)| row(vec![Value::Int(id)]))
            .collect(),
    ));
    cases.push(Case {
        ordered: true,
        ..Case::new(
            "SELECT id, v FROM t ORDER BY v, id",
            by_v.iter()
                .map(|&(id, _, v)| row(vec![Value::Int(id), int_or_null(v)]))
                .collect(),
        )
    });

    // ROW_NUMBER over the sorted ids (ids are 0..n, so the rank is id+1).
    cases.push(Case::new(
        "SELECT id, ROW_NUMBER() OVER (ORDER BY id) FROM t",
        rows.iter()
            .map(|&(id, _, _)| row(vec![Value::Int(id), Value::Int(id + 1)]))
            .collect(),
    ));

    // CROSS APPLY: NUMBERS(id % 3) yields 0..id % 3 per outer row.
    cases.push(Case::new(
        "SELECT id, n FROM t CROSS APPLY NUMBERS(id % 3)",
        rows.iter()
            .flat_map(|&(id, _, _)| (0..id % 3).map(move |n| (id, n)))
            .map(|(id, n)| row(vec![Value::Int(id), Value::Int(n)]))
            .collect(),
    ));
    cases
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn batch_sizes_agree_with_reference_on_random_plans(
        rows in proptest::collection::vec((0i64..9, -50i64..50), 0..400),
        k in -60i64..60,
        budget_kb in 2i64..8,
    ) {
        let db = Database::in_memory();
        db.catalog().register_table_fn(Arc::new(Numbers));
        db.execute_sql("CREATE TABLE t (id INT NOT NULL, grp INT, v INT)")
            .unwrap();
        db.execute_sql("CREATE TABLE s (g INT, name VARCHAR(8))").unwrap();
        // grp 0 maps to NULL so predicates and join keys both see NULLs;
        // v is NULL on every 7th row to exercise the kernel's NULL rule.
        let t_rows: Vec<Row> = rows
            .iter()
            .enumerate()
            .map(|(i, (g, v))| {
                let grp = if *g == 0 { Value::Null } else { Value::Int(*g) };
                let val = if i % 7 == 3 { Value::Null } else { Value::Int(*v) };
                Row::new(vec![Value::Int(i as i64), grp, val])
            })
            .collect();
        db.insert_rows("t", &t_rows).unwrap();
        for g in 0..6i64 {
            db.insert_rows(
                "s",
                &[Row::new(vec![Value::Int(g), Value::text(format!("lane{g}"))])],
            )
            .unwrap();
        }

        for case in invariance_cases(&t_rows, k) {
            let expect = rendered(&case.expect, case.ordered);
            db.execute_sql(&format!("SET JOIN_STRATEGY = {}", case.join_strategy))
                .unwrap();
            for batch in [1usize, 7, 1024] {
                for (dop, budget) in [(1usize, 0i64), (4, budget_kb)] {
                    db.execute_sql(&format!("SET BATCH_SIZE = {batch}")).unwrap();
                    db.execute_sql(&format!("SET MAX_DOP = {dop}")).unwrap();
                    db.execute_sql(&format!("SET QUERY_MEMORY_LIMIT_KB = {budget}"))
                        .unwrap();
                    match db.query_sql(&case.sql) {
                        Ok(r) => prop_assert_eq!(
                            rendered(&r.rows, case.ordered),
                            expect.clone(),
                            "batch={} dop={} budget={}kb sql={}",
                            batch, dop, budget, &case.sql
                        ),
                        // A tiny budget may legitimately refuse a join
                        // whose one hash bucket exceeds it — typed, not
                        // silent truncation.
                        Err(DbError::ResourceExhausted(_)) => {}
                        Err(other) => prop_assert!(false, "unexpected error {:?}", other),
                    }
                    prop_assert_eq!(db.temp().live_files().unwrap(), 0, "leaked spill files");
                }
            }
        }
        prop_assert_eq!(db.pool().pinned_frames(), 0, "leaked buffer pins");
    }
}

#[test]
fn batch_size_out_of_range_fails_typed_at_both_scopes() {
    let db = Database::in_memory();
    let session = db.create_session();
    for rows in [0, 1u64 << 32] {
        let set = format!("SET BATCH_SIZE = {rows}");
        for err in [
            db.execute_sql(&set).unwrap_err(),
            session.execute_sql(&set).unwrap_err(),
        ] {
            match err {
                DbError::Unsupported(msg) => {
                    assert!(msg.contains("valid range is 1 to 4294967295"), "{msg}")
                }
                other => panic!("expected Unsupported, got {other:?}"),
            }
        }
    }
    // The refused value left both scopes at their previous setting.
    assert_eq!(
        db.config().batch_size,
        ExecContext::DEFAULT_BATCH_SIZE,
        "database scope unchanged"
    );
    assert_eq!(
        session.effective_config().batch_size,
        ExecContext::DEFAULT_BATCH_SIZE,
        "session scope unchanged"
    );
    session.execute_sql("SET BATCH_SIZE = 1").unwrap();
    assert_eq!(session.effective_config().batch_size, 1);
}

// ----------------------------------------------------------------------
// Mid-batch KILL and timeout: cancellation is honored between (and
// inside) batches, with no leaked pins or temp files
// ----------------------------------------------------------------------

#[test]
fn kill_lands_mid_batch_without_leaks() {
    let db = Database::in_memory();
    db.catalog().register_table_fn(Arc::new(Numbers));
    let pins_before = db.pool().pinned_frames();

    let victim = db.create_session();
    victim.execute_sql("SET BATCH_SIZE = 1024").unwrap();
    let victim_sid = victim.id() as i64;
    let runner = std::thread::spawn(move || {
        victim
            .query_sql("SELECT COUNT(*) FROM NUMBERS(1000000000)")
            .unwrap_err()
    });

    let killer = db.create_session();
    let deadline = Instant::now() + Duration::from_secs(10);
    let statement_id = loop {
        let r = killer
            .query_sql("SELECT statement_id, session_id FROM DM_EXEC_REQUESTS()")
            .unwrap();
        let found = r
            .rows
            .iter()
            .find_map(|row| (row[1] == Value::Int(victim_sid)).then(|| row[0].as_int().unwrap()));
        match found {
            Some(id) => break id,
            None if Instant::now() > deadline => panic!("victim never registered"),
            None => std::thread::sleep(Duration::from_millis(2)),
        }
    };
    let kills_before = counter(&db, "statement_kills");
    killer.execute_sql(&format!("KILL {statement_id}")).unwrap();
    let err = runner.join().unwrap();
    assert!(matches!(err, DbError::Cancelled(_)), "{err}");
    assert_eq!(counter(&db, "statement_kills"), kills_before + 1);
    assert_eq!(db.pool().pinned_frames(), pins_before, "leaked pins");
    assert_eq!(db.temp().live_files().unwrap(), 0, "leaked temp files");
}

#[test]
fn timeout_fires_under_batch_mode_without_leaks() {
    let db = Database::in_memory();
    db.catalog().register_table_fn(Arc::new(Numbers));
    db.execute_sql("SET BATCH_SIZE = 1024").unwrap();
    db.execute_sql("SET QUERY_TIMEOUT_MS = 50").unwrap();
    let start = Instant::now();
    let err = db
        .query_sql("SELECT COUNT(*) FROM NUMBERS(1000000000)")
        .unwrap_err();
    assert!(matches!(err, DbError::Timeout(_)), "{err}");
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "timeout must fire promptly, took {:?}",
        start.elapsed()
    );
    assert_eq!(db.pool().pinned_frames(), 0, "leaked pins");
    assert_eq!(db.temp().live_files().unwrap(), 0, "leaked temp files");

    // The clock disarmed, the same session keeps working.
    db.execute_sql("SET QUERY_TIMEOUT_MS = 0").unwrap();
    let r = db.query_sql("SELECT COUNT(*) FROM NUMBERS(100)").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(100));
}

// ----------------------------------------------------------------------
// Spill under batch mode: exact results, all resources released
// ----------------------------------------------------------------------

#[test]
fn batched_aggregate_spills_exactly_and_releases_everything() {
    let db = Database::in_memory();
    db.execute_sql("CREATE TABLE t (id INT NOT NULL, v INT)")
        .unwrap();
    let rows: Vec<Row> = (0..3000i64)
        .map(|i| Row::new(vec![Value::Int(i), Value::Int(i % 100)]))
        .collect();
    db.insert_rows("t", &rows).unwrap();

    let pins_before = db.pool().pinned_frames();
    db.execute_sql("SET BATCH_SIZE = 1024").unwrap();
    db.execute_sql("SET QUERY_MEMORY_LIMIT_KB = 8").unwrap();
    db.temp().reset_counters();
    let r = db
        .query_sql("SELECT id, COUNT(*) FROM t GROUP BY id")
        .unwrap();
    assert_eq!(r.rows.len(), 3000, "every group exactly once");
    assert!(r.rows.iter().all(|row| row[1] == Value::Int(1)));
    assert!(db.temp().spill_count() > 0, "8 KiB must force a spill");
    assert_eq!(db.temp().live_files().unwrap(), 0, "leaked spill files");
    assert_eq!(db.pool().pinned_frames(), pins_before, "leaked pins");
    assert_eq!(counter(&db, "tempspace_live_files"), 0);
}

// ----------------------------------------------------------------------
// EXPLAIN ANALYZE surfaces batch shape
// ----------------------------------------------------------------------

#[test]
fn explain_analyze_reports_batches_in_batch_mode() {
    let db = Database::in_memory();
    db.execute_sql("CREATE TABLE t (id INT NOT NULL, v INT)")
        .unwrap();
    let rows: Vec<Row> = (0..5000i64)
        .map(|i| Row::new(vec![Value::Int(i), Value::Int(i % 10)]))
        .collect();
    db.insert_rows("t", &rows).unwrap();

    db.execute_sql("SET BATCH_SIZE = 512").unwrap();
    let r = db
        .query_sql("EXPLAIN ANALYZE SELECT COUNT(*) FROM t WHERE v < 7")
        .unwrap();
    let text = r
        .rows
        .iter()
        .map(|row| row[0].as_text().unwrap().to_string())
        .collect::<Vec<_>>()
        .join("\n");
    assert!(text.contains("batches="), "batch stats missing:\n{text}");
    assert!(text.contains("avg_batch="), "batch stats missing:\n{text}");
}
