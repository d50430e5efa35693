//! Physical execution: a pull-based iterator model that moves rows in
//! batches.
//!
//! Every operator implements [`RowIterator`], whose one method pulls a
//! [`RowBatch`] of up to `max_rows` rows from its child — the
//! vector-at-a-time variant of the Volcano model (MonetDB/X100). A query
//! runs with one batch size (`SET BATCH_SIZE`); `BATCH_SIZE = 1` is
//! row-at-a-time execution on the same code. Operators whose logic is
//! naturally row-shaped (sort, merge join, ROW_NUMBER, stream aggregate,
//! table-valued functions) read their input through one `RowCursor`
//! and assemble their output with `fill_batch`. The paper's
//! row-at-a-time contract with CLR table-valued functions (§4.1,
//! Figure 5) survives as the single adapter at the UDX boundary:
//! [`crate::udx::TvfCursor`]'s `move_next`/`fill_row`, driven from
//! [`apply`].

pub mod agg;
pub mod apply;
pub mod filter;
pub mod join;
pub mod rowser;
pub mod scan;
pub mod sort;
pub mod window;

use std::sync::Arc;

use seqdb_types::{DbError, Result, Row};

use seqdb_storage::tempspace::SpillWriter;
use seqdb_storage::{FileStreamStore, SpillTally, TempSpace};

use crate::catalog::Catalog;
use crate::governor::{MemCharge, QueryGovernor};
use crate::stats::{ExecStats, NodeStats};

/// Everything an operator needs at run time.
#[derive(Clone)]
pub struct ExecContext {
    pub catalog: Arc<Catalog>,
    pub filestream: Arc<FileStreamStore>,
    pub temp: Arc<TempSpace>,
    /// Degree of parallelism for eligible operators.
    pub dop: usize,
    /// Memory budget (bytes) for blocking operators before they spill.
    pub sort_budget: usize,
    /// Rows per [`RowBatch`] (`SET BATCH_SIZE`, at least 1; 1 runs the
    /// query row-at-a-time).
    pub batch_size: usize,
    /// Per-query resource governor: cancellation, timeout, memory budget.
    /// Fresh for every query; clone the `Arc` to cancel from another
    /// thread.
    pub gov: Arc<QueryGovernor>,
    /// Actual-execution collector (`EXPLAIN ANALYZE`); `None` for plain
    /// runs, which then pay nothing per row.
    pub stats: Option<Arc<ExecStats>>,
    /// The stats slot of the plan node this context was captured by.
    /// `Plan::open` sets it per node before building the node's iterator,
    /// so spills created through [`ExecContext::create_spill`] attribute
    /// to the operator that caused them.
    pub node: Option<Arc<NodeStats>>,
}

impl ExecContext {
    /// Default memory budget for blocking operators: 64 MiB.
    pub const DEFAULT_SORT_BUDGET: usize = 64 * 1024 * 1024;

    /// Default rows per batch.
    pub const DEFAULT_BATCH_SIZE: usize = 1024;

    /// Validate a `SET BATCH_SIZE` value: a batch holds at least one
    /// row, and selection vectors index rows with `u32`.
    pub fn check_batch_size(rows: usize) -> Result<usize> {
        if (1..=u32::MAX as usize).contains(&rows) {
            Ok(rows)
        } else {
            Err(DbError::Unsupported(format!(
                "BATCH_SIZE = {rows}: valid range is 1 to {} rows",
                u32::MAX
            )))
        }
    }

    /// The spill tallies every spill of this context should feed: the
    /// query-wide tally on the governor plus, when collecting actuals,
    /// the current plan node's tally.
    pub fn spill_tallies(&self) -> Vec<Arc<SpillTally>> {
        let mut tallies = vec![Arc::clone(self.gov.spill_tally())];
        if let Some(node) = &self.node {
            tallies.push(Arc::clone(&node.spill));
        }
        tallies
    }

    /// Create a spill file attributed to this query (and, under
    /// `EXPLAIN ANALYZE`, to the current operator). All operator spill
    /// paths go through here rather than `TempSpace::create_spill`.
    pub fn create_spill(&self) -> Result<SpillWriter> {
        self.temp.create_spill_tallied(self.spill_tallies())
    }

    /// Create a hash-join partition file: same attribution as
    /// [`ExecContext::create_spill`], but waits land in the `JOIN_SPILL`
    /// class and the dedicated join spill gauges.
    pub fn create_join_spill(&self) -> Result<SpillWriter> {
        self.temp
            .create_spill_class(self.spill_tallies(), seqdb_storage::WaitClass::JoinSpill)
    }
}

/// A batch of rows moving through the vectorized execution path.
///
/// The batch owns its rows plus an optional *selection vector*: indices
/// of the rows still live. A filter narrows the selection in place
/// instead of moving or dropping rows; whoever materializes the batch
/// (projection, join probe, the root drain) compacts it then. A batch
/// may also carry a [`MemCharge`] so buffered rows stay visible to the
/// query's memory budget while in flight; the charge releases when the
/// batch drops, so cancelled queries cannot leak budget through
/// abandoned batches.
pub struct RowBatch {
    rows: Vec<Row>,
    /// Live row indices, ascending. `None` means every row is live.
    sel: Option<Vec<u32>>,
    /// Budget charge covering `rows`, released on drop.
    charge: Option<MemCharge>,
}

impl RowBatch {
    pub fn from_rows(rows: Vec<Row>) -> RowBatch {
        RowBatch {
            rows,
            sel: None,
            charge: None,
        }
    }

    /// Attach the budget charge covering this batch's rows.
    pub fn set_charge(&mut self, charge: MemCharge) {
        self.charge = Some(charge);
    }

    /// Number of *selected* rows.
    pub fn len(&self) -> usize {
        match &self.sel {
            Some(sel) => sel.len(),
            None => self.rows.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterate the selected rows in order.
    pub fn iter(&self) -> impl Iterator<Item = &Row> {
        let sel = self.sel.as_deref();
        (0..self.len()).map(move |i| match sel {
            Some(s) => &self.rows[s[i] as usize],
            None => &self.rows[i],
        })
    }

    /// Underlying storage and selection, for operators that rewrite rows
    /// in place (projection takes values out of selected rows).
    pub fn parts_mut(&mut self) -> (&mut [Row], Option<&[u32]>) {
        (&mut self.rows, self.sel.as_deref())
    }

    /// Narrow the selection to rows where `keep` returns true, without
    /// moving or dropping any row.
    pub fn narrow(&mut self, mut keep: impl FnMut(&Row) -> Result<bool>) -> Result<()> {
        let mut next = Vec::with_capacity(self.len());
        match self.sel.take() {
            Some(sel) => {
                for i in sel {
                    if keep(&self.rows[i as usize])? {
                        next.push(i);
                    }
                }
            }
            None => {
                for (i, row) in self.rows.iter().enumerate() {
                    if keep(row)? {
                        next.push(i as u32);
                    }
                }
            }
        }
        self.sel = Some(next);
        Ok(())
    }

    /// Keep only the first `n` selected rows (LIMIT).
    pub fn truncate(&mut self, n: usize) {
        if n >= self.len() {
            return;
        }
        match &mut self.sel {
            Some(sel) => sel.truncate(n),
            None => {
                self.sel = Some((0..n as u32).collect());
            }
        }
    }

    /// Compact into a plain row vector, consuming the batch. Rows outside
    /// the selection are dropped here and only here.
    pub fn into_rows(mut self) -> Vec<Row> {
        match self.sel.take() {
            None => std::mem::take(&mut self.rows),
            Some(sel) => {
                let mut out = Vec::with_capacity(sel.len());
                let mut want = sel.into_iter();
                let mut target = want.next();
                for (i, row) in std::mem::take(&mut self.rows).into_iter().enumerate() {
                    if Some(i as u32) == target {
                        out.push(row);
                        target = want.next();
                    }
                }
                out
            }
        }
    }
}

/// A pull-based row stream.
pub trait RowIterator: Send {
    /// Produce the next batch of at most `max_rows` rows (at least one
    /// row is always asked for). `None` at end-of-stream; a returned
    /// batch always has at least one selected row. After `None` (or an
    /// error) the iterator must not be called again.
    fn next_batch(&mut self, max_rows: usize) -> Result<Option<RowBatch>>;
}

/// Boxed operator, the unit plans compose.
pub type BoxedIter = Box<dyn RowIterator>;

/// Assemble a batch of up to `max_rows` rows from a row-at-a-time
/// producer: the output side of every row-shaped operator. `next_row`
/// must keep returning `None` once it has returned `None`.
pub(crate) fn fill_batch(
    max_rows: usize,
    mut next_row: impl FnMut() -> Result<Option<Row>>,
) -> Result<Option<RowBatch>> {
    let max = max_rows.max(1);
    let mut rows = Vec::with_capacity(max.min(ExecContext::DEFAULT_BATCH_SIZE));
    while rows.len() < max {
        match next_row()? {
            Some(row) => rows.push(row),
            None => break,
        }
    }
    Ok((!rows.is_empty()).then(|| RowBatch::from_rows(rows)))
}

/// The input side of every row-shaped operator: pulls the child one
/// batch of `batch_size` rows at a time and hands the selected rows out
/// one by one. Once the child reports end-of-stream it is not pulled
/// again.
pub(crate) struct RowCursor {
    input: BoxedIter,
    batch_size: usize,
    rows: std::vec::IntoIter<Row>,
    done: bool,
}

impl RowCursor {
    pub(crate) fn new(input: BoxedIter, batch_size: usize) -> RowCursor {
        RowCursor {
            input,
            batch_size,
            rows: Vec::new().into_iter(),
            done: false,
        }
    }

    /// The next input row, `None` at end-of-stream.
    pub(crate) fn next_row(&mut self) -> Result<Option<Row>> {
        loop {
            if let Some(row) = self.rows.next() {
                return Ok(Some(row));
            }
            if self.done {
                return Ok(None);
            }
            match self.input.next_batch(self.batch_size)? {
                Some(batch) => self.rows = batch.into_rows().into_iter(),
                None => self.done = true,
            }
        }
    }
}

/// Drain an iterator into a vector, `batch_size` rows per pull: the
/// root drain of every query.
pub fn collect(mut it: BoxedIter, batch_size: usize) -> Result<Vec<Row>> {
    let mut out = Vec::new();
    while let Some(batch) = it.next_batch(batch_size)? {
        out.extend(batch.into_rows());
    }
    Ok(out)
}

/// An iterator over a pre-materialized set of rows.
pub struct ValuesIter {
    rows: std::vec::IntoIter<Row>,
}

impl ValuesIter {
    pub fn new(rows: Vec<Row>) -> ValuesIter {
        ValuesIter {
            rows: rows.into_iter(),
        }
    }
}

impl RowIterator for ValuesIter {
    fn next_batch(&mut self, max_rows: usize) -> Result<Option<RowBatch>> {
        fill_batch(max_rows, || Ok(self.rows.next()))
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use seqdb_storage::{BufferPool, MemPager};
    use seqdb_types::Value;

    /// A throwaway context over in-memory storage.
    pub fn test_context() -> ExecContext {
        let pool = BufferPool::new(Arc::new(MemPager::new()), 1024);
        let catalog = Catalog::new(pool);
        for f in crate::builtins::all_builtins() {
            catalog.register_scalar(f);
        }
        // Directories of their own: tests run in parallel, and opening a
        // temp space sweeps the spill files already in its directory.
        let dir = |kind: &str| {
            std::env::temp_dir().join(format!(
                "seqdb-exec-{kind}-{}-{:p}",
                std::process::id(),
                Arc::as_ptr(&catalog)
            ))
        };
        ExecContext {
            filestream: Arc::new(FileStreamStore::open(dir("fs")).unwrap()),
            temp: TempSpace::open(dir("tmp")).unwrap(),
            catalog,
            dop: 2,
            sort_budget: ExecContext::DEFAULT_SORT_BUDGET,
            batch_size: ExecContext::DEFAULT_BATCH_SIZE,
            gov: QueryGovernor::unlimited(),
            stats: None,
            node: None,
        }
    }

    pub fn int_rows(vals: &[&[i64]]) -> Vec<Row> {
        vals.iter()
            .map(|r| r.iter().map(|&v| Value::Int(v)).collect())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::int_rows;
    use super::*;

    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Counts the pulls made on it, to show where a cursor stops.
    struct Counted {
        inner: ValuesIter,
        pulls: Arc<AtomicUsize>,
    }

    impl RowIterator for Counted {
        fn next_batch(&mut self, max_rows: usize) -> Result<Option<RowBatch>> {
            self.pulls.fetch_add(1, Ordering::Relaxed);
            self.inner.next_batch(max_rows)
        }
    }

    #[test]
    fn fill_batch_caps_each_batch_and_ends_with_none() {
        let mut it = ValuesIter::new(int_rows(&[&[1], &[2], &[3], &[4], &[5]]));
        let sizes: Vec<usize> = std::iter::from_fn(|| it.next_batch(2).unwrap())
            .map(|b| b.len())
            .collect();
        assert_eq!(sizes, vec![2, 2, 1]);
        assert!(it.next_batch(0).unwrap().is_none(), "exhausted stays empty");
    }

    #[test]
    fn row_cursor_crosses_batches_and_never_pulls_past_the_end() {
        for (batch_size, batches) in [(1, 3), (2, 2), (1024, 1)] {
            let pulls = Arc::new(AtomicUsize::new(0));
            let input = Counted {
                inner: ValuesIter::new(int_rows(&[&[1], &[2], &[3]])),
                pulls: pulls.clone(),
            };
            let mut cursor = RowCursor::new(Box::new(input), batch_size);
            let mut seen = Vec::new();
            while let Some(row) = cursor.next_row().unwrap() {
                seen.push(row[0].as_int().unwrap());
            }
            assert_eq!(seen, vec![1, 2, 3], "batch_size={batch_size}");
            assert!(cursor.next_row().unwrap().is_none());
            assert_eq!(
                pulls.load(Ordering::Relaxed),
                batches + 1,
                "one pull per batch plus the end-of-stream pull"
            );
        }
    }

    #[test]
    fn collect_is_the_same_at_every_batch_size() {
        let rows = int_rows(&[&[1], &[2], &[3], &[4], &[5], &[6], &[7]]);
        for batch_size in [1, 3, 7, 1024] {
            let out = collect(Box::new(ValuesIter::new(rows.clone())), batch_size).unwrap();
            assert_eq!(out, rows, "batch_size={batch_size}");
        }
    }

    #[test]
    fn batch_size_zero_is_refused() {
        assert!(matches!(
            ExecContext::check_batch_size(0),
            Err(DbError::Unsupported(_))
        ));
        assert_eq!(ExecContext::check_batch_size(1).unwrap(), 1);
    }
}
