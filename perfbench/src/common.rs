//! Pieces every workload shares: counter snapshots, and the reduction of
//! a loop log and its spans to metrics.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;

use seqdb_engine::{engine_counters, Database};
use seqdb_storage::{storage_counters, waits, WaitClass};

use crate::runner::LoopLog;
use crate::stats::{describe, geomean, median};
use crate::trace::Tracer;
use crate::Outcome;

/// Monotonic counters of the pool, WAL, spill, waits and engine.
#[derive(Clone, Copy, Default, Debug)]
pub struct Counters {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub writebacks: u64,
    pub wal_records: u64,
    pub wal_bytes: u64,
    pub wal_fsyncs: u64,
    pub spill_bytes: u64,
    pub wait_buffer_io: u64,
    pub wait_spill_io: u64,
    pub wait_admission: u64,
    pub admission_waits: u64,
    pub kills: u64,
    pub udx_panics: u64,
}

impl Counters {
    pub fn now(db: &Database) -> Counters {
        let p = &db.pool().stats;
        let s = storage_counters();
        let e = engine_counters();
        let w = waits();
        let ld = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::Relaxed);
        Counters {
            hits: ld(&p.hits),
            misses: ld(&p.misses),
            evictions: ld(&p.evictions),
            writebacks: ld(&p.writebacks),
            wal_records: ld(&s.wal_records),
            wal_bytes: ld(&s.wal_bytes),
            wal_fsyncs: ld(&s.wal_fsyncs),
            spill_bytes: ld(&s.spill_bytes),
            wait_buffer_io: w.count(WaitClass::BufferIo),
            wait_spill_io: w.count(WaitClass::SpillIo),
            wait_admission: w.count(WaitClass::Admission),
            admission_waits: ld(&e.admission_waits),
            kills: ld(&e.kills),
            udx_panics: ld(&e.udx_panics),
        }
    }

    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            evictions: self.evictions - earlier.evictions,
            writebacks: self.writebacks - earlier.writebacks,
            wal_records: self.wal_records - earlier.wal_records,
            wal_bytes: self.wal_bytes - earlier.wal_bytes,
            wal_fsyncs: self.wal_fsyncs - earlier.wal_fsyncs,
            spill_bytes: self.spill_bytes - earlier.spill_bytes,
            wait_buffer_io: self.wait_buffer_io - earlier.wait_buffer_io,
            wait_spill_io: self.wait_spill_io - earlier.wait_spill_io,
            wait_admission: self.wait_admission - earlier.wait_admission,
            admission_waits: self.admission_waits - earlier.admission_waits,
            kills: self.kills - earlier.kills,
            udx_panics: self.udx_panics - earlier.udx_panics,
        }
    }
}

impl Outcome {
    pub(crate) fn new(cfg: &crate::Config) -> Outcome {
        Outcome {
            workload: cfg.workload,
            trace: cfg.trace,
            report: Vec::new(),
            checks: crate::Checks::default(),
            values: BTreeMap::new(),
            counts: BTreeMap::new(),
        }
    }

    pub(crate) fn put(&mut self, name: &str, value: f64, n: usize) {
        self.values.insert(name.to_string(), value);
        if n > 1 {
            self.counts.insert(name.to_string(), n);
        }
    }

    /// Set-up, import and storage-size metrics.
    pub(crate) fn put_load(
        &mut self,
        setup_times: &[f64],
        import_times: &[f64],
        rows: u64,
        stored: u64,
        input: u64,
    ) {
        let import_s = median(import_times);
        let n = import_times.len();
        self.put("setup_s", median(setup_times), setup_times.len());
        self.put("import_rows_per_s", rows as f64 / import_s, n);
        self.put("bytes_per_input_byte", stored as f64 / input as f64, 1);
        self.put("core.import_us_per_row", import_s * 1e6 / rows as f64, n);
        self.report.push(format!(
            "import rows={rows} seconds={import_s:.4} n={n} stored_bytes={stored} input_bytes={input}"
        ));
        let samples: Vec<String> = import_times.iter().map(|t| format!("{t:.3}")).collect();
        self.report
            .push(format!("import_s_samples [{}]", samples.join(" ")));
    }

    /// Import-time WAL traffic and the durability checkpoint.
    pub(crate) fn put_import_io(&mut self, io: &Counters, rows: u64, checkpoint_ms: f64) {
        self.put(
            "storage.wal_records_per_row",
            io.wal_records as f64 / rows as f64,
            1,
        );
        self.put(
            "storage.wal_bytes_per_row",
            io.wal_bytes as f64 / rows as f64,
            1,
        );
        self.put("storage.wal_fsyncs", io.wal_fsyncs as f64, 1);
        self.put("storage.checkpoint_ms", checkpoint_ms, 1);
    }

    /// Per-cycle counter deltas over the measured loop.
    pub(crate) fn put_loop_io(&mut self, io: &Counters, cycles: u64) {
        let per = |v: u64| v as f64 / cycles.max(1) as f64;
        self.put("storage.pool_hits", per(io.hits), 1);
        self.put("storage.pool_misses", per(io.misses), 1);
        self.put("storage.pool_evictions", per(io.evictions), 1);
        self.put("storage.pool_writebacks", per(io.writebacks), 1);
        self.put(
            "storage.pool_hit_ratio",
            io.hits as f64 / (io.hits + io.misses).max(1) as f64,
            1,
        );
        self.put("storage.spill_bytes", per(io.spill_bytes), 1);
        self.put("storage.waits.buffer_io", per(io.wait_buffer_io), 1);
        self.put("storage.waits.spill_io", per(io.wait_spill_io), 1);
        self.put("storage.waits.admission", per(io.wait_admission), 1);
        self.put("engine.admission_waits", io.admission_waits as f64, 1);
        self.put("engine.statement_kills", io.kills as f64, 1);
        self.put("engine.udx_panics", io.udx_panics as f64, 1);
        self.report.push(format!(
            "loop cycles={cycles} pool_hits={} pool_misses={} evictions={} writebacks={}",
            io.hits, io.misses, io.evictions, io.writebacks
        ));
    }

    /// Statement medians and the cycle metrics. `kinds` maps each step
    /// kind to the name its median is reported under.
    pub(crate) fn put_loop(&mut self, log: &LoopLog, kinds: &[(&str, &str)]) {
        for (kind, metric) in kinds {
            let samples = log.latency.get(kind).map(Vec::as_slice).unwrap_or(&[]);
            self.report.push(describe(metric, "ms", samples));
        }
        self.put("cycle_ms", median(&log.cycle_ms), log.cycle_ms.len());
        let samples: Vec<String> = log.cycle_ms.iter().map(|c| format!("{c:.1}")).collect();
        self.report
            .push(format!("cycle_ms_samples [{}]", samples.join(" ")));
        let n: usize = log.latency.values().map(Vec::len).sum();
        self.put("stmt_p50_geomean_ms", geomean(&log.kind_medians()), n);
    }

    /// Per-layer self time per traced cycle, the unattributed remainder
    /// against the untraced cycles, and the tracing overhead. `traced`
    /// holds each traced cycle's request id and latency sum.
    pub(crate) fn put_layers(
        &mut self,
        tracer: &Tracer,
        traced: &[(u64, f64)],
        untraced_cycle_ms: &[f64],
    ) {
        let by = tracer.layer_self_ms();
        let mut per_layer: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        let mut attributed = Vec::new();
        for (req, _) in traced {
            let mut sum = 0.0;
            for layer in ["bio", "core", "sql", "engine", "storage", "server"] {
                let ms = by.get(&(*req, layer)).copied().unwrap_or(0.0);
                per_layer.entry(layer).or_default().push(ms);
                sum += ms;
            }
            attributed.push(sum);
        }
        for (layer, v) in &per_layer {
            self.report.push(format!(
                "layer {layer} self_ms_per_cycle={:.4} n={}",
                median(v),
                v.len()
            ));
        }
        let traced_ms: Vec<f64> = traced.iter().map(|(_, ms)| *ms).collect();
        let untraced = median(untraced_cycle_ms);
        self.put(
            "unattributed_ms",
            untraced - median(&attributed),
            traced.len(),
        );
        self.put(
            "trace.overhead_pct",
            (median(&traced_ms) / untraced - 1.0) * 100.0,
            traced.len(),
        );
    }

    /// Front-end and engine self time per cycle, from traced cycles.
    pub(crate) fn put_cycle_split(&mut self, tracer: &Tracer, traced: &[(u64, f64)]) {
        let by = tracer.layer_self_ms();
        let pick = |layer: &str| -> Vec<f64> {
            traced
                .iter()
                .map(|(r, _)| by.get(&(*r, layer)).copied().unwrap_or(0.0))
                .collect()
        };
        self.put("sql.cycle_front_end_ms", median(&pick("sql")), traced.len());
        self.put(
            "engine.cycle_execute_ms",
            median(&pick("engine")),
            traced.len(),
        );
    }

    /// Operator self times and peak memory of one cycle's statements.
    pub(crate) fn put_actuals(&mut self, per_kind: &[(&str, f64, crate::analyze::Actuals)]) {
        let mut leaf = 0.0;
        let mut inner = 0.0;
        let mut peak = 0u64;
        for (kind, weight, a) in per_kind {
            leaf += weight * a.leaf_ms;
            inner += weight * a.inner_ms;
            peak = peak.max(a.peak_mem_kb);
            self.report.push(format!(
                "actuals {kind} leaf_self_ms={:.4} inner_self_ms={:.4} peak_mem_kb={} \
                 rows_examined_per_row={:.2}",
                a.leaf_ms,
                a.inner_ms,
                a.peak_mem_kb,
                a.examined_per_row()
            ));
        }
        self.put("engine.op_self_ms.leaf", leaf, 1);
        self.put("engine.op_self_ms.inner", inner, 1);
        self.put("engine.peak_mem_kb", peak as f64, 1);
    }
}

/// Median actuals of `reps` analyzed runs of a plan built by `plan`.
pub fn median_actuals(
    db: &std::sync::Arc<Database>,
    reps: usize,
    mut plan: impl FnMut() -> seqdb_types::Result<seqdb_engine::Plan>,
) -> seqdb_types::Result<crate::analyze::Actuals> {
    let mut runs = Vec::with_capacity(reps);
    for _ in 0..reps {
        runs.push(crate::analyze::analyze(db, &plan()?)?);
    }
    let med = |f: &dyn Fn(&crate::analyze::Actuals) -> f64| {
        median(&runs.iter().map(f).collect::<Vec<_>>())
    };
    Ok(crate::analyze::Actuals {
        leaf_ms: med(&|a| a.leaf_ms),
        inner_ms: med(&|a| a.inner_ms),
        leaf_rows: med(&|a| a.leaf_rows as f64) as u64,
        result_rows: med(&|a| a.result_rows as f64) as u64,
        peak_mem_kb: med(&|a| a.peak_mem_kb as f64) as u64,
    })
}
