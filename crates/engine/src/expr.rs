//! Scalar expression evaluation.
//!
//! Expressions are fully resolved at plan time: column references are
//! positional, function calls hold an `Arc` to the resolved
//! [`ScalarUdf`]. Evaluation is row-at-a-time, matching the iterator
//! model of the rest of the engine.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

use seqdb_types::{DbError, Result, Row, Value};

use crate::udx::ScalarUdf;

/// Binary operators. Comparisons use SQL three-valued logic (NULL
/// propagates); `And`/`Or` short-circuit with SQL NULL semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    And,
    Or,
}

impl BinOp {
    pub fn sql_symbol(&self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Eq => "=",
            BinOp::NotEq => "<>",
            BinOp::Lt => "<",
            BinOp::LtEq => "<=",
            BinOp::Gt => ">",
            BinOp::GtEq => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
        }
    }
}

/// A scalar expression over an input row.
#[derive(Clone)]
pub enum Expr {
    /// Positional column reference, with the display name kept for EXPLAIN.
    Column {
        index: usize,
        name: String,
    },
    Literal(Value),
    Binary {
        op: BinOp,
        left: Box<Expr>,
        right: Box<Expr>,
    },
    /// Logical NOT.
    Not(Box<Expr>),
    /// Arithmetic negation.
    Neg(Box<Expr>),
    /// `expr IS NULL` / `expr IS NOT NULL`.
    IsNull {
        expr: Box<Expr>,
        negated: bool,
    },
    /// Resolved scalar function call.
    Func {
        udf: Arc<dyn ScalarUdf>,
        args: Vec<Expr>,
    },
}

impl Expr {
    pub fn col(index: usize, name: impl Into<String>) -> Expr {
        Expr::Column {
            index,
            name: name.into(),
        }
    }

    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    pub fn binary(op: BinOp, left: Expr, right: Expr) -> Expr {
        Expr::Binary {
            op,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    /// Evaluate against a row.
    pub fn eval(&self, row: &Row) -> Result<Value> {
        match self {
            Expr::Column { index, name } => row.get(*index).cloned().ok_or_else(|| {
                DbError::Execution(format!(
                    "column {name} (#{index}) out of range for row of {} values",
                    row.len()
                ))
            }),
            Expr::Literal(v) => Ok(v.clone()),
            Expr::Binary { op, left, right } => eval_binary(*op, left, right, row),
            Expr::Not(e) => match e.eval(row)? {
                Value::Null => Ok(Value::Null),
                v => Ok(Value::Bool(!v.as_bool()?)),
            },
            Expr::Neg(e) => match e.eval(row)? {
                Value::Null => Ok(Value::Null),
                Value::Int(i) => Ok(Value::Int(-i)),
                Value::Float(f) => Ok(Value::Float(-f)),
                v => Err(DbError::Execution(format!(
                    "cannot negate {}",
                    v.type_name()
                ))),
            },
            Expr::IsNull { expr, negated } => {
                let isnull = expr.eval(row)?.is_null();
                Ok(Value::Bool(isnull != *negated))
            }
            Expr::Func { udf, args } => {
                let vals: Vec<Value> = args.iter().map(|a| a.eval(row)).collect::<Result<_>>()?;
                // User code runs inside the engine; a panicking UDF must
                // fail its query, not the process (paper §2.3.1).
                crate::udx::protect(udf.name(), || udf.invoke(&vals))
            }
        }
    }

    /// Evaluate as a predicate: NULL counts as false (SQL WHERE semantics).
    pub fn eval_predicate(&self, row: &Row) -> Result<bool> {
        match self.eval(row)? {
            Value::Null => Ok(false),
            v => v.as_bool(),
        }
    }

    /// All column indexes referenced by this expression.
    pub fn referenced_columns(&self, out: &mut Vec<usize>) {
        match self {
            Expr::Column { index, .. } => out.push(*index),
            Expr::Literal(_) => {}
            Expr::Binary { left, right, .. } => {
                left.referenced_columns(out);
                right.referenced_columns(out);
            }
            Expr::Not(e) | Expr::Neg(e) => e.referenced_columns(out),
            Expr::IsNull { expr, .. } => expr.referenced_columns(out),
            Expr::Func { args, .. } => {
                for a in args {
                    a.referenced_columns(out);
                }
            }
        }
    }

    /// Rewrite column indexes through a mapping (used when pushing
    /// expressions below a projection). `map[i]` is the new index of old
    /// column `i`; `None` entries must not be referenced.
    pub fn remap_columns(&mut self, map: &[Option<usize>]) -> Result<()> {
        match self {
            Expr::Column { index, name } => {
                *index = map.get(*index).copied().flatten().ok_or_else(|| {
                    DbError::Plan(format!("column {name} unavailable after projection"))
                })?;
                Ok(())
            }
            Expr::Literal(_) => Ok(()),
            Expr::Binary { left, right, .. } => {
                left.remap_columns(map)?;
                right.remap_columns(map)
            }
            Expr::Not(e) | Expr::Neg(e) => e.remap_columns(map),
            Expr::IsNull { expr, .. } => expr.remap_columns(map),
            Expr::Func { args, .. } => {
                for a in args {
                    a.remap_columns(map)?;
                }
                Ok(())
            }
        }
    }
}

/// Evaluate `exprs` over one row into a reused buffer (cleared first).
/// Join probes and aggregate argument loops run once per input row and
/// must not allocate a fresh vector each time.
pub fn eval_into(exprs: &[Expr], row: &Row, out: &mut Vec<Value>) -> Result<()> {
    out.clear();
    for e in exprs {
        out.push(e.eval(row)?);
    }
    Ok(())
}

/// A type-specialized comparison kernel for batch filters:
/// `column <op> integer-literal` predicates (either operand order)
/// evaluate directly against the stored value instead of walking the
/// expression tree per row. Rows whose stored value is neither `Int` nor
/// `Null` return `None` so the caller can fall back to the interpreter —
/// kernel and interpreter are observably identical.
#[derive(Clone, Copy, Debug)]
pub struct IntCmpKernel {
    col: usize,
    op: BinOp,
    k: i64,
}

impl IntCmpKernel {
    /// Recognize a kernel-eligible predicate shape, normalizing
    /// `literal <op> column` by flipping the comparison.
    pub fn compile(expr: &Expr) -> Option<IntCmpKernel> {
        let Expr::Binary { op, left, right } = expr else {
            return None;
        };
        if !matches!(
            op,
            BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq
        ) {
            return None;
        }
        match (left.as_ref(), right.as_ref()) {
            (Expr::Column { index, .. }, Expr::Literal(Value::Int(k))) => Some(IntCmpKernel {
                col: *index,
                op: *op,
                k: *k,
            }),
            (Expr::Literal(Value::Int(k)), Expr::Column { index, .. }) => {
                let flipped = match op {
                    BinOp::Lt => BinOp::Gt,
                    BinOp::LtEq => BinOp::GtEq,
                    BinOp::Gt => BinOp::Lt,
                    BinOp::GtEq => BinOp::LtEq,
                    other => *other,
                };
                Some(IntCmpKernel {
                    col: *index,
                    op: flipped,
                    k: *k,
                })
            }
            _ => None,
        }
    }

    /// Evaluate against one row; `None` means the row is outside the
    /// kernel's domain (missing column or non-integer value) and must go
    /// through the interpreter. `Null` compares to `Null`, which a
    /// predicate position treats as false.
    #[inline]
    pub fn eval(&self, row: &Row) -> Option<bool> {
        match row.get(self.col) {
            Some(Value::Int(v)) => Some(match self.op {
                BinOp::Eq => *v == self.k,
                BinOp::NotEq => *v != self.k,
                BinOp::Lt => *v < self.k,
                BinOp::LtEq => *v <= self.k,
                BinOp::Gt => *v > self.k,
                BinOp::GtEq => *v >= self.k,
                _ => unreachable!("compile admits only comparisons"),
            }),
            Some(Value::Null) => Some(false),
            _ => None,
        }
    }
}

/// Which expressions of a projection list may *move* their value out of
/// the input row instead of cloning it: bare column references whose
/// column no other expression in the list touches. Safe because the
/// input row is dropped right after the projection, and a column taken
/// here is by construction read by nothing else.
pub fn take_plan(exprs: &[Expr]) -> Vec<bool> {
    let mut counts: std::collections::HashMap<usize, usize> = std::collections::HashMap::new();
    let mut refs = Vec::new();
    for e in exprs {
        refs.clear();
        e.referenced_columns(&mut refs);
        for &i in &refs {
            *counts.entry(i).or_insert(0) += 1;
        }
    }
    exprs
        .iter()
        .map(|e| matches!(e, Expr::Column { index, .. } if counts.get(index) == Some(&1)))
        .collect()
}

/// Evaluate a projection list over one row into `out` (cleared first).
/// Where `take` (from [`take_plan`]) allows, the value is moved out of
/// the row, leaving `Value::Null` behind — the batch projection path
/// uses this to avoid the per-row `Value` clones (and for `Text`
/// columns, the string copies) that `Expr::eval` pays.
pub fn eval_project_into(
    exprs: &[Expr],
    take: &[bool],
    row: &mut Row,
    out: &mut Vec<Value>,
) -> Result<()> {
    out.clear();
    out.reserve(exprs.len());
    for (i, e) in exprs.iter().enumerate() {
        if take.get(i).copied().unwrap_or(false) {
            if let Expr::Column { index, .. } = e {
                if let Some(slot) = row.0.get_mut(*index) {
                    out.push(std::mem::replace(slot, Value::Null));
                    continue;
                }
            }
        }
        out.push(e.eval(row)?);
    }
    Ok(())
}

fn eval_binary(op: BinOp, left: &Expr, right: &Expr, row: &Row) -> Result<Value> {
    // AND/OR need SQL three-valued logic with short-circuiting.
    if matches!(op, BinOp::And | BinOp::Or) {
        let l = left.eval(row)?;
        let l_bool = if l.is_null() {
            None
        } else {
            Some(l.as_bool()?)
        };
        match (op, l_bool) {
            (BinOp::And, Some(false)) => return Ok(Value::Bool(false)),
            (BinOp::Or, Some(true)) => return Ok(Value::Bool(true)),
            _ => {}
        }
        let r = right.eval(row)?;
        let r_bool = if r.is_null() {
            None
        } else {
            Some(r.as_bool()?)
        };
        return Ok(match (op, l_bool, r_bool) {
            (BinOp::And, Some(true), Some(b)) => Value::Bool(b),
            (BinOp::And, _, Some(false)) => Value::Bool(false),
            (BinOp::And, _, _) => Value::Null,
            (BinOp::Or, Some(false), Some(b)) => Value::Bool(b),
            (BinOp::Or, _, Some(true)) => Value::Bool(true),
            (BinOp::Or, _, _) => Value::Null,
            _ => unreachable!(),
        });
    }

    let l = left.eval(row)?;
    let r = right.eval(row)?;
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }

    match op {
        BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq => {
            // Comparable only within a type class; mixed numeric is fine.
            let comparable = matches!(
                (&l, &r),
                (
                    Value::Int(_) | Value::Float(_),
                    Value::Int(_) | Value::Float(_)
                ) | (Value::Text(_), Value::Text(_))
                    | (Value::Bytes(_), Value::Bytes(_))
                    | (Value::Bool(_), Value::Bool(_))
                    | (Value::Guid(_), Value::Guid(_))
            );
            if !comparable {
                return Err(DbError::Execution(format!(
                    "cannot compare {} with {}",
                    l.type_name(),
                    r.type_name()
                )));
            }
            let ord = l.total_cmp(&r);
            Ok(Value::Bool(match op {
                BinOp::Eq => ord == Ordering::Equal,
                BinOp::NotEq => ord != Ordering::Equal,
                BinOp::Lt => ord == Ordering::Less,
                BinOp::LtEq => ord != Ordering::Greater,
                BinOp::Gt => ord == Ordering::Greater,
                BinOp::GtEq => ord != Ordering::Less,
                _ => unreachable!(),
            }))
        }
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => match (&l, &r) {
            (Value::Int(a), Value::Int(b)) => {
                let v = match op {
                    BinOp::Add => a.checked_add(*b),
                    BinOp::Sub => a.checked_sub(*b),
                    BinOp::Mul => a.checked_mul(*b),
                    BinOp::Div => {
                        if *b == 0 {
                            return Err(DbError::Execution("division by zero".into()));
                        }
                        a.checked_div(*b)
                    }
                    BinOp::Mod => {
                        if *b == 0 {
                            return Err(DbError::Execution("division by zero".into()));
                        }
                        a.checked_rem(*b)
                    }
                    _ => unreachable!(),
                };
                v.map(Value::Int)
                    .ok_or_else(|| DbError::Execution("integer overflow".into()))
            }
            (Value::Text(a), Value::Text(b)) if op == BinOp::Add => {
                // T-SQL string concatenation with `+`.
                Ok(Value::text(format!("{a}{b}")))
            }
            _ => {
                let a = l.as_float()?;
                let b = r.as_float()?;
                let v = match op {
                    BinOp::Add => a + b,
                    BinOp::Sub => a - b,
                    BinOp::Mul => a * b,
                    BinOp::Div => {
                        if b == 0.0 {
                            return Err(DbError::Execution("division by zero".into()));
                        }
                        a / b
                    }
                    BinOp::Mod => a % b,
                    _ => unreachable!(),
                };
                Ok(Value::Float(v))
            }
        },
        BinOp::And | BinOp::Or => unreachable!("handled above"),
    }
}

impl fmt::Debug for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column { name, .. } => write!(f, "{name}"),
            Expr::Literal(Value::Text(s)) => write!(f, "'{s}'"),
            Expr::Literal(v) => write!(f, "{v}"),
            Expr::Binary { op, left, right } => {
                write!(f, "({left} {} {right})", op.sql_symbol())
            }
            Expr::Not(e) => write!(f, "NOT {e}"),
            Expr::Neg(e) => write!(f, "-{e}"),
            Expr::IsNull { expr, negated } => {
                write!(f, "{expr} IS {}NULL", if *negated { "NOT " } else { "" })
            }
            Expr::Func { udf, args } => {
                write!(f, "{}(", udf.name())?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row() -> Row {
        Row::new(vec![Value::Int(10), Value::text("ACGTN"), Value::Null])
    }

    #[test]
    fn arithmetic_and_comparison() {
        let e = Expr::binary(
            BinOp::Gt,
            Expr::binary(BinOp::Mul, Expr::col(0, "x"), Expr::lit(2)),
            Expr::lit(19),
        );
        assert_eq!(e.eval(&row()).unwrap(), Value::Bool(true));
    }

    #[test]
    fn null_propagates_and_where_treats_null_as_false() {
        let e = Expr::binary(BinOp::Eq, Expr::col(2, "n"), Expr::lit(1));
        assert_eq!(e.eval(&row()).unwrap(), Value::Null);
        assert!(!e.eval_predicate(&row()).unwrap());
    }

    #[test]
    fn three_valued_and_or() {
        let null = Expr::Literal(Value::Null);
        let t = Expr::lit(true);
        let f = Expr::lit(false);
        // FALSE AND NULL = FALSE (short circuit)
        assert_eq!(
            Expr::binary(BinOp::And, f.clone(), null.clone())
                .eval(&row())
                .unwrap(),
            Value::Bool(false)
        );
        // TRUE AND NULL = NULL
        assert_eq!(
            Expr::binary(BinOp::And, t.clone(), null.clone())
                .eval(&row())
                .unwrap(),
            Value::Null
        );
        // NULL OR TRUE = TRUE
        assert_eq!(
            Expr::binary(BinOp::Or, null.clone(), t)
                .eval(&row())
                .unwrap(),
            Value::Bool(true)
        );
        // NULL OR FALSE = NULL
        assert_eq!(
            Expr::binary(BinOp::Or, null, f).eval(&row()).unwrap(),
            Value::Null
        );
    }

    #[test]
    fn string_concat_with_plus() {
        let e = Expr::binary(BinOp::Add, Expr::lit("chr"), Expr::lit("1"));
        assert_eq!(e.eval(&Row::empty()).unwrap(), Value::text("chr1"));
    }

    #[test]
    fn division_by_zero_and_overflow_are_errors() {
        let e = Expr::binary(BinOp::Div, Expr::lit(1), Expr::lit(0));
        assert!(e.eval(&Row::empty()).is_err());
        let e = Expr::binary(BinOp::Add, Expr::lit(i64::MAX), Expr::lit(1));
        assert!(e.eval(&Row::empty()).is_err());
    }

    #[test]
    fn is_null_and_not() {
        let e = Expr::IsNull {
            expr: Box::new(Expr::col(2, "n")),
            negated: false,
        };
        assert_eq!(e.eval(&row()).unwrap(), Value::Bool(true));
        let e = Expr::Not(Box::new(e));
        assert_eq!(e.eval(&row()).unwrap(), Value::Bool(false));
    }

    #[test]
    fn remap_columns() {
        let mut e = Expr::binary(BinOp::Add, Expr::col(3, "a"), Expr::col(1, "b"));
        e.remap_columns(&[None, Some(0), None, Some(1)]).unwrap();
        let mut refs = Vec::new();
        e.referenced_columns(&mut refs);
        refs.sort();
        assert_eq!(refs, vec![0, 1]);
        // Referencing a dropped column fails.
        let mut bad = Expr::col(2, "c");
        assert!(bad.remap_columns(&[Some(0), Some(1), None]).is_err());
    }

    #[test]
    fn incomparable_types_error() {
        let e = Expr::binary(BinOp::Lt, Expr::lit("a"), Expr::lit(1));
        assert!(e.eval(&Row::empty()).is_err());
    }
}
