//! The closed-loop statement cycle shared by every workload.
//!
//! One caller runs cycles of steps until its `keep_going` predicate says
//! stop. Each step's operation is timed; its check runs afterwards,
//! outside the timing. On traced runs every other cycle is traced, so the
//! untraced cycles of the same run give the tracing overhead.

use std::collections::BTreeMap;
use std::time::Instant;

use seqdb_types::{Result, Row};

use crate::trace::Tracer;
use crate::Checks;

/// What a timed operation produced, with the parameters it was run with
/// so the check can compute the expected answer.
pub struct Output {
    pub params: [i64; 2],
    pub rows: Vec<Row>,
    /// Affected or counted rows, for statements answering with a number.
    pub count: u64,
    /// Milliseconds from send to the first row frame (wire exports).
    pub first_row_ms: Option<f64>,
}

impl Output {
    pub fn rows(params: [i64; 2], rows: Vec<Row>) -> Output {
        Output {
            params,
            count: rows.len() as u64,
            rows,
            first_row_ms: None,
        }
    }

    pub fn count(count: u64) -> Output {
        Output {
            params: [0, 0],
            rows: Vec::new(),
            count,
            first_row_ms: None,
        }
    }
}

type Op<'a> = Box<dyn FnMut(&mut Tracer) -> Result<Output> + 'a>;
type Check<'a> = Box<dyn FnMut(&Output) -> std::result::Result<(), String> + 'a>;

pub struct Step<'a> {
    pub kind: &'static str,
    pub op: Op<'a>,
    pub check: Check<'a>,
}

impl<'a> Step<'a> {
    pub fn new(
        kind: &'static str,
        op: impl FnMut(&mut Tracer) -> Result<Output> + 'a,
        check: impl FnMut(&Output) -> std::result::Result<(), String> + 'a,
    ) -> Step<'a> {
        Step {
            kind,
            op: Box::new(op),
            check: Box::new(check),
        }
    }
}

/// What one caller's loop measured.
#[derive(Default)]
pub struct LoopLog {
    /// Latency (ms) per statement kind, untraced cycles only.
    pub latency: BTreeMap<&'static str, Vec<f64>>,
    /// Send-to-first-row-frame (ms), untraced cycles only.
    pub first_row_ms: Vec<f64>,
    /// Rows per second of each untraced statement that returned rows
    /// with a first-row time (exports).
    pub stream_rows_per_s: Vec<f64>,
    /// Sum of statement latencies per untraced cycle (ms).
    pub cycle_ms: Vec<f64>,
    /// `(request id, sum of latencies)` per traced cycle.
    pub traced_cycle_ms: Vec<(u64, f64)>,
    pub checks: Checks,
    pub cycles: u64,
}

impl LoopLog {
    pub fn absorb(&mut self, other: LoopLog) {
        for (k, v) in other.latency {
            self.latency.entry(k).or_default().extend(v);
        }
        self.first_row_ms.extend(other.first_row_ms);
        self.stream_rows_per_s.extend(other.stream_rows_per_s);
        self.cycle_ms.extend(other.cycle_ms);
        self.traced_cycle_ms.extend(other.traced_cycle_ms);
        self.checks.merge(other.checks);
        self.cycles += other.cycles;
    }

    /// Median latency of each kind, in kind order.
    pub fn kind_medians(&self) -> Vec<f64> {
        self.latency
            .values()
            .map(|v| crate::stats::median(v))
            .collect()
    }
}

/// Run cycles until `keep_going(cycles_done)` is false. `order` gives the
/// step indices of cycle `c`; `after_cycle` sees each cycle's index and
/// may record per-cycle self-checks. Request ids are `request_base + c`.
pub fn run_loop(
    steps: &mut [Step<'_>],
    tracer: &mut Tracer,
    trace: bool,
    request_base: u64,
    mut order: impl FnMut(u64) -> Vec<usize>,
    mut keep_going: impl FnMut(u64) -> bool,
    mut after_cycle: impl FnMut(u64, &mut Checks),
) -> LoopLog {
    let mut log = LoopLog::default();
    let mut c = 0u64;
    while keep_going(c) {
        let traced = trace && c % 2 == 1;
        tracer.set_on(traced);
        tracer.set_request(request_base + c);
        let mut sum = 0.0;
        for i in order(c) {
            let step = &mut steps[i];
            let t = Instant::now();
            let res = tracer.span("bench.stmt", |t| (step.op)(t));
            let ms = t.elapsed().as_secs_f64() * 1e3;
            sum += ms;
            let verdict = match &res {
                Ok(out) => (step.check)(out),
                Err(e) => Err(format!("error: {e}")),
            };
            log.checks.op(step.kind, verdict);
            if !traced {
                log.latency.entry(step.kind).or_default().push(ms);
                if let Ok(Output {
                    first_row_ms: Some(first),
                    count,
                    ..
                }) = &res
                {
                    log.first_row_ms.push(*first);
                    log.stream_rows_per_s.push(*count as f64 / (ms / 1e3));
                }
            }
        }
        tracer.set_on(false);
        if traced {
            log.traced_cycle_ms.push((request_base + c, sum));
        } else {
            log.cycle_ms.push(sum);
        }
        after_cycle(c, &mut log.checks);
        c += 1;
    }
    log.cycles = c;
    log
}
