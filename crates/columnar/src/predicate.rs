//! Predicates with pushdown: row-group pruning via chunk statistics.
//!
//! "These engines have implemented various query optimization techniques,
//! with predicate pushdown being a key example. ... While these
//! optimizations lead to performance gains, they also often result in a
//! high number of read requests for small portions of data files" (§2.2).

use std::cmp::Ordering;

use crate::format::ChunkMeta;
use crate::types::{ColumnData, ColumnView, Scalar, Value};

/// A predicate over one column (by name), with conjunction/disjunction.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// `column == value`
    Eq(String, Value),
    /// `column < value`
    Lt(String, Value),
    /// `column > value`
    Gt(String, Value),
    /// `low <= column <= high`
    Between(String, Value, Value),
    /// Both sides hold.
    And(Box<Predicate>, Box<Predicate>),
    /// Either side holds.
    Or(Box<Predicate>, Box<Predicate>),
}

impl Predicate {
    /// Convenience constructor for `AND`.
    pub fn and(self, other: Predicate) -> Predicate {
        Predicate::And(Box::new(self), Box::new(other))
    }

    /// Convenience constructor for `OR`.
    pub fn or(self, other: Predicate) -> Predicate {
        Predicate::Or(Box::new(self), Box::new(other))
    }

    /// Column names referenced by this predicate.
    pub fn columns(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect_columns<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Predicate::Eq(c, _) | Predicate::Lt(c, _) | Predicate::Gt(c, _) => out.push(c),
            Predicate::Between(c, _, _) => out.push(c),
            Predicate::And(a, b) | Predicate::Or(a, b) => {
                a.collect_columns(out);
                b.collect_columns(out);
            }
        }
    }

    /// Conservatively decides whether a row group *may* contain matching
    /// rows, from per-column chunk statistics. `chunk_of` maps a column name
    /// to its chunk metadata in this row group; unknown columns or missing
    /// stats yield `true` (cannot prune).
    pub fn may_match(&self, chunk_of: &dyn Fn(&str) -> Option<ChunkMeta>) -> bool {
        match self {
            Predicate::Eq(col, v) => match stats(chunk_of, col) {
                Some((min, max)) => in_range(v, &min, &max),
                None => true,
            },
            Predicate::Lt(col, v) => match stats(chunk_of, col) {
                // Some value < v iff min < v.
                Some((min, _)) => min.partial_cmp_same_type(v) == Some(Ordering::Less),
                None => true,
            },
            Predicate::Gt(col, v) => match stats(chunk_of, col) {
                Some((_, max)) => max.partial_cmp_same_type(v) == Some(Ordering::Greater),
                None => true,
            },
            Predicate::Between(col, lo, hi) => match stats(chunk_of, col) {
                Some((min, max)) => {
                    // The ranges [min,max] and [lo,hi] must intersect.
                    min.partial_cmp_same_type(hi) != Some(Ordering::Greater)
                        && max.partial_cmp_same_type(lo) != Some(Ordering::Less)
                }
                None => true,
            },
            Predicate::And(a, b) => a.may_match(chunk_of) && b.may_match(chunk_of),
            Predicate::Or(a, b) => a.may_match(chunk_of) || b.may_match(chunk_of),
        }
    }

    /// Evaluates the predicate on one row. `value_of` resolves a column name
    /// to the row's value; unknown columns evaluate to `false`.
    pub fn matches(&self, value_of: &dyn Fn(&str) -> Option<Value>) -> bool {
        match self {
            Predicate::Eq(col, v) => {
                value_of(col).is_some_and(|x| x.partial_cmp_same_type(v) == Some(Ordering::Equal))
            }
            Predicate::Lt(col, v) => {
                value_of(col).is_some_and(|x| x.partial_cmp_same_type(v) == Some(Ordering::Less))
            }
            Predicate::Gt(col, v) => {
                value_of(col).is_some_and(|x| x.partial_cmp_same_type(v) == Some(Ordering::Greater))
            }
            Predicate::Between(col, lo, hi) => value_of(col).is_some_and(|x| {
                x.partial_cmp_same_type(lo) != Some(Ordering::Less)
                    && x.partial_cmp_same_type(hi) != Some(Ordering::Greater)
            }),
            Predicate::And(a, b) => a.matches(value_of) && b.matches(value_of),
            Predicate::Or(a, b) => a.matches(value_of) || b.matches(value_of),
        }
    }

    /// The typed, column-at-a-time form of [`Predicate::matches`]: narrows
    /// `input` (ascending row ids) to the rows the predicate holds on. Each
    /// leaf resolves its column through `column_of` once and runs one
    /// comparison loop over the typed slice (for `Utf8`, over the
    /// dictionary into a mask that the rows' codes index); `And` refines its
    /// left side's output, `Or` merges both sides'. Unknown columns select
    /// nothing.
    pub fn select<'a>(
        &self,
        column_of: &dyn Fn(&str) -> Option<ColumnView<'a>>,
        input: &[u32],
    ) -> Vec<u32> {
        match self {
            Predicate::And(a, b) => b.select(column_of, &a.select(column_of, input)),
            Predicate::Or(a, b) => union(&a.select(column_of, input), &b.select(column_of, input)),
            Predicate::Eq(col, _)
            | Predicate::Lt(col, _)
            | Predicate::Gt(col, _)
            | Predicate::Between(col, _, _) => match column_of(col) {
                None => Vec::new(),
                Some(view) => match view.data {
                    ColumnData::Int64(v) => self.select_leaf(v, view, input),
                    ColumnData::Float64(v) => self.select_leaf(v, view, input),
                    ColumnData::Utf8 { codes, dict } => {
                        // The leaf runs once per entry; rows test their code.
                        let entries: Vec<u32> = (0..dict.len() as u32).collect();
                        let mut mask = vec![false; dict.len()];
                        for e in self.select_leaf(dict, ColumnView::direct(view.data), &entries) {
                            mask[e as usize] = true;
                        }
                        keep(codes, view, input, |&c| mask[c as usize])
                    }
                    ColumnData::Bool(v) => self.select_leaf(v, view, input),
                },
            },
        }
    }

    /// One leaf over its typed values, with the outcomes `matches` gets from
    /// [`Value::partial_cmp_same_type`] returning `None`: against a literal
    /// of another type `Eq`/`Lt`/`Gt` hold nowhere and a `Between` bound
    /// everywhere, and a NaN on either side fails every comparison.
    fn select_leaf<T: Scalar>(&self, vals: &[T], view: ColumnView<'_>, input: &[u32]) -> Vec<u32> {
        // One monomorphic loop per comparison: a `fn` pointer here would
        // cost an indirect call per row.
        match self {
            Predicate::Eq(_, x) => {
                T::of(x).map_or_else(Vec::new, |x| keep(vals, view, input, |v| v == x))
            }
            Predicate::Lt(_, x) => {
                T::of(x).map_or_else(Vec::new, |x| keep(vals, view, input, |v| v < x))
            }
            Predicate::Gt(_, x) => {
                T::of(x).map_or_else(Vec::new, |x| keep(vals, view, input, |v| v > x))
            }
            Predicate::Between(_, lo, hi) => {
                let (lo, hi) = (T::of(lo), T::of(hi));
                keep(vals, view, input, |v| {
                    !lo.is_some_and(|lo| v < lo) & !hi.is_some_and(|hi| v > hi)
                })
            }
            Predicate::And(..) | Predicate::Or(..) => unreachable!("not a leaf"),
        }
    }

    /// Filters decoded columns: returns the indices of matching rows.
    /// `columns` pairs each column name with its data.
    pub fn matching_rows(&self, columns: &[(&str, &ColumnData)], rows: usize) -> Vec<usize> {
        let rows = u32::try_from(rows).expect("a row group holds fewer than 2^32 rows");
        let all: Vec<u32> = (0..rows).collect();
        let column_of = |name: &str| {
            let (_, data) = columns.iter().find(|(n, _)| *n == name)?;
            Some(ColumnView::direct(data))
        };
        let selected = self.select(&column_of, &all);
        selected.into_iter().map(|r| r as usize).collect()
    }
}

/// The rows of `input` whose value in the view passes `test`. Every row is
/// written and the cursor advances only past a keeper, so the loop has no
/// branch for a middling selectivity to mispredict.
fn keep<T>(vals: &[T], view: ColumnView<'_>, input: &[u32], test: impl Fn(&T) -> bool) -> Vec<u32> {
    let mut out = vec![0; input.len()];
    let mut kept = 0;
    for &r in input {
        out[kept] = r;
        kept += usize::from(test(&vals[view.index(r)]));
    }
    out.truncate(kept);
    out
}

/// The union of two ascending row-id lists, ascending.
fn union(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let next = a[i].min(b[j]);
        i += usize::from(a[i] == next);
        j += usize::from(b[j] == next);
        out.push(next);
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

fn stats(chunk_of: &dyn Fn(&str) -> Option<ChunkMeta>, col: &str) -> Option<(Value, Value)> {
    let chunk = chunk_of(col)?;
    Some((chunk.min?, chunk.max?))
}

fn in_range(v: &Value, min: &Value, max: &Value) -> bool {
    v.partial_cmp_same_type(min) != Some(Ordering::Less)
        && v.partial_cmp_same_type(max) != Some(Ordering::Greater)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::Encoding;

    fn chunk(min: i64, max: i64) -> ChunkMeta {
        ChunkMeta {
            offset: 0,
            len: 0,
            encoding: Encoding::Plain,
            min: Some(Value::Int64(min)),
            max: Some(Value::Int64(max)),
        }
    }

    fn lookup(min: i64, max: i64) -> impl Fn(&str) -> Option<ChunkMeta> {
        move |name| (name == "x").then(|| chunk(min, max))
    }

    #[test]
    fn eq_pruning() {
        let p = Predicate::Eq("x".into(), Value::Int64(50));
        assert!(p.may_match(&lookup(0, 100)));
        assert!(!p.may_match(&lookup(60, 100)));
        assert!(!p.may_match(&lookup(0, 49)));
        assert!(p.may_match(&lookup(50, 50)));
    }

    #[test]
    fn lt_gt_pruning() {
        assert!(Predicate::Lt("x".into(), Value::Int64(10)).may_match(&lookup(5, 100)));
        assert!(!Predicate::Lt("x".into(), Value::Int64(10)).may_match(&lookup(10, 100)));
        assert!(Predicate::Gt("x".into(), Value::Int64(90)).may_match(&lookup(0, 91)));
        assert!(!Predicate::Gt("x".into(), Value::Int64(90)).may_match(&lookup(0, 90)));
    }

    #[test]
    fn between_pruning_checks_intersection() {
        let p = Predicate::Between("x".into(), Value::Int64(10), Value::Int64(20));
        assert!(p.may_match(&lookup(0, 15)));
        assert!(p.may_match(&lookup(15, 100)));
        assert!(p.may_match(&lookup(0, 100)));
        assert!(!p.may_match(&lookup(21, 100)));
        assert!(!p.may_match(&lookup(0, 9)));
    }

    #[test]
    fn and_or_pruning() {
        let lo = Predicate::Gt("x".into(), Value::Int64(80));
        let hi = Predicate::Lt("x".into(), Value::Int64(20));
        // x in [30, 60]: neither side can match.
        assert!(!lo.clone().or(hi.clone()).may_match(&lookup(30, 60)));
        // AND of contradictory conditions over [0,100] cannot be pruned by
        // independent min/max checks (both sides individually may match).
        assert!(lo.and(hi).may_match(&lookup(0, 100)));
    }

    #[test]
    fn unknown_column_cannot_prune() {
        let p = Predicate::Eq("y".into(), Value::Int64(1));
        assert!(p.may_match(&lookup(5, 6)));
    }

    #[test]
    fn a_chunk_holding_nan_is_never_pruned() {
        // `Between` keeps the NaN row, so stats over the non-NaN values
        // ([5, 5]) would wrongly prune this chunk under `Between(10, 20)`.
        let col = ColumnData::Float64(vec![f64::NAN, 5.0]);
        assert_eq!(col.min_max(), None, "no stats for a chunk with a NaN");
        let meta = ChunkMeta {
            offset: 0,
            len: 0,
            encoding: Encoding::Plain,
            min: None,
            max: None,
        };
        let chunk_of = |name: &str| (name == "x").then(|| meta.clone());
        let ten = Value::Float64(10.0);
        for (p, rows) in [
            (Predicate::Lt("x".into(), ten.clone()), vec![1]),
            (Predicate::Gt("x".into(), ten.clone()), vec![]),
            (
                Predicate::Between("x".into(), ten, Value::Float64(20.0)),
                vec![0],
            ),
        ] {
            assert!(p.may_match(&chunk_of), "{p:?} pruned a NaN chunk");
            assert_eq!(p.matching_rows(&[("x", &col)], 2), rows, "{p:?}");
        }
    }

    #[test]
    fn row_evaluation() {
        let col = ColumnData::Int64(vec![1, 5, 10, 15]);
        let p = Predicate::Between("x".into(), Value::Int64(5), Value::Int64(10));
        assert_eq!(p.matching_rows(&[("x", &col)], 4), vec![1, 2]);
        let p2 = Predicate::Eq("x".into(), Value::Int64(1))
            .or(Predicate::Gt("x".into(), Value::Int64(12)));
        assert_eq!(p2.matching_rows(&[("x", &col)], 4), vec![0, 3]);
    }

    #[test]
    fn columns_are_collected() {
        let p = Predicate::Eq("a".into(), Value::Int64(1))
            .and(Predicate::Lt("b".into(), Value::Int64(2)))
            .or(Predicate::Gt("a".into(), Value::Int64(3)));
        assert_eq!(p.columns(), vec!["a", "b"]);
    }
}
