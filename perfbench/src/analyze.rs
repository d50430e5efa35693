//! Operator actuals from the engine's `EXPLAIN ANALYZE` collector.

use std::sync::Arc;

use seqdb_engine::{Database, ExecStats, Plan};
use seqdb_types::Result;

/// One analyzed execution of a plan.
#[derive(Debug, Default, Clone, Copy)]
pub struct Actuals {
    /// Self time of leaf operators (scans, seeks, TVFs), ms.
    pub leaf_ms: f64,
    /// Self time of every other operator, ms.
    pub inner_ms: f64,
    /// Rows the leaf operators produced.
    pub leaf_rows: u64,
    pub result_rows: u64,
    pub peak_mem_kb: u64,
}

impl Actuals {
    /// Rows examined at the leaves per result row returned.
    pub fn examined_per_row(&self) -> f64 {
        self.leaf_rows as f64 / self.result_rows.max(1) as f64
    }
}

/// Run `plan` with the actuals collector attached and split its
/// operators' elapsed times into self times. Operator elapsed times
/// include their children (the showplan convention), so a node's self
/// time is its elapsed minus its direct children's, floored at zero
/// (parallel children can overlap their parent).
pub fn analyze(db: &Arc<Database>, plan: &Plan) -> Result<Actuals> {
    let mut ctx = db.exec_context();
    let stats = ExecStats::new();
    ctx.stats = Some(stats.clone());
    let rows = plan.run(&ctx)?;
    let text = plan.explain_analyze(&stats);
    let mut out = parse(&text);
    out.result_rows = rows.len() as u64;
    out.peak_mem_kb = ctx.gov.mem_peak() as u64 / 1024;
    Ok(out)
}

/// Self times from an `EXPLAIN ANALYZE` rendering: operator header lines
/// carry `(actual_rows=N ... elapsed_ms=X ...)` and nest by two spaces.
fn parse(text: &str) -> Actuals {
    struct Node {
        depth: usize,
        rows: u64,
        elapsed: f64,
        children_elapsed: f64,
        has_children: bool,
    }
    let mut nodes: Vec<Node> = Vec::new();
    let mut stack: Vec<usize> = Vec::new();
    for line in text.lines() {
        let Some(ann) = line.find("(actual_rows=") else {
            continue;
        };
        let depth = (line.len() - line.trim_start().len()) / 2;
        let field = |key: &str| -> Option<f64> {
            let rest = &line[ann..];
            let at = rest.find(key)? + key.len();
            rest[at..].split([' ', ')']).next()?.parse().ok()
        };
        let node = Node {
            depth,
            rows: field("actual_rows=").unwrap_or(0.0) as u64,
            elapsed: field("elapsed_ms=").unwrap_or(0.0),
            children_elapsed: 0.0,
            has_children: false,
        };
        while stack.last().is_some_and(|&p| nodes[p].depth >= depth) {
            stack.pop();
        }
        if let Some(&p) = stack.last() {
            nodes[p].children_elapsed += node.elapsed;
            nodes[p].has_children = true;
        }
        stack.push(nodes.len());
        nodes.push(node);
    }
    let mut out = Actuals::default();
    for n in &nodes {
        let self_ms = (n.elapsed - n.children_elapsed).max(0.0);
        if n.has_children {
            out.inner_ms += self_ms;
        } else {
            out.leaf_ms += self_ms;
            out.leaf_rows += n.rows;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_and_leaves() {
        let text = "Hash Match (Aggregate) (actual_rows=3 est_rows=? nexts=4 elapsed_ms=10.000 peak_mem_kb=1)\n\
                    \x20 detail line\n\
                    \x20 Hash Match (Inner Join) (actual_rows=50 est_rows=? nexts=51 elapsed_ms=8.000 peak_mem_kb=1)\n\
                    \x20   Table Scan [a] (actual_rows=100 est_rows=? nexts=101 elapsed_ms=2.500 peak_mem_kb=0)\n\
                    \x20   Table Scan [b] (actual_rows=20 est_rows=? nexts=21 elapsed_ms=1.500 peak_mem_kb=0)\n";
        let a = parse(text);
        assert_eq!(a.leaf_rows, 120);
        assert!((a.leaf_ms - 4.0).abs() < 1e-9);
        assert!((a.inner_ms - 6.0).abs() < 1e-9);
    }
}
