//! The metric names this benchmark reports, with their units. The lists
//! must match `BENCHMARK.json` at the repository root; the smoke tests
//! check that they do.

/// End-to-end metrics, printed on untraced runs (`--trace 0`) for every
/// workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("import_rows_per_s", "rows/s"),
    ("bytes_per_input_byte", "B/B"),
    ("peak_rss_mb", "MB"),
    ("cycle_ms", "ms"),
    ("stmt_p50_geomean_ms", "ms"),
];

/// Per-layer metrics, printed on traced runs (`--trace 1`) for every
/// workload. Per-cycle counts are deltas over the measured loop divided
/// by the cycles it ran.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("bio.dataset_gen_s", "s"),
    ("bio.fastq_parse_ns_per_record", "ns"),
    ("core.import_us_per_row", "us"),
    ("sql.parse_us.q1", "us"),
    ("sql.parse_us.lookup", "us"),
    ("sql.parse_us.locus", "us"),
    ("sql.plan_us.q1", "us"),
    ("sql.plan_us.lookup", "us"),
    ("sql.plan_us.locus", "us"),
    ("sql.cycle_front_end_ms", "ms"),
    ("engine.cycle_execute_ms", "ms"),
    ("engine.table_insert_us.read", "us"),
    ("engine.table_insert_us.alignment", "us"),
    ("engine.op_self_ms.leaf", "ms"),
    ("engine.op_self_ms.inner", "ms"),
    ("engine.peak_mem_kb", "KiB"),
    ("engine.rows_examined_per_row.lookup", "rows/row"),
    ("engine.rows_examined_per_row.locus", "rows/row"),
    ("engine.admission_waits", "count"),
    ("engine.statement_kills", "count"),
    ("engine.udx_panics", "count"),
    ("storage.heap_insert_us", "us"),
    ("storage.btree_insert_us", "us"),
    ("storage.encode_ns_per_row.none", "ns"),
    ("storage.encode_ns_per_row.page", "ns"),
    ("storage.decode_ns_per_row.none", "ns"),
    ("storage.decode_ns_per_row.page", "ns"),
    ("storage.pool_hit_ns", "ns"),
    ("storage.btree_get_us", "us"),
    ("storage.pool_hits", "count"),
    ("storage.pool_misses", "count"),
    ("storage.pool_evictions", "count"),
    ("storage.pool_writebacks", "count"),
    ("storage.pool_hit_ratio", "ratio"),
    ("storage.wal_records_per_row", "count"),
    ("storage.wal_bytes_per_row", "B"),
    ("storage.wal_fsyncs", "count"),
    ("storage.checkpoint_ms", "ms"),
    ("storage.spill_bytes", "B"),
    ("storage.waits.buffer_io", "count"),
    ("storage.waits.spill_io", "count"),
    ("storage.waits.admission", "count"),
    ("storage.filestream_read_mb_per_s", "MB/s"),
    ("storage.data_pages", "count"),
    ("server.wire_overhead_us.lookup", "us"),
    ("server.wire_overhead_us.locus", "us"),
    ("server.encode_us_per_krow", "us"),
    ("server.decode_us_per_krow", "us"),
    ("server.wire_bytes_per_row", "B"),
    ("server.client_retries", "count"),
    ("unattributed_ms", "ms"),
    ("trace.overhead_pct", "%"),
];
