//! Column types, typed values, and in-memory column vectors.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

use edgecache_common::error::{Error, Result};

/// The physical type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColumnType {
    Int64,
    Float64,
    Utf8,
    Bool,
}

impl ColumnType {
    /// Stable byte tag used in the footer encoding.
    pub(crate) fn tag(self) -> u8 {
        match self {
            ColumnType::Int64 => 0,
            ColumnType::Float64 => 1,
            ColumnType::Utf8 => 2,
            ColumnType::Bool => 3,
        }
    }

    pub(crate) fn from_tag(tag: u8) -> Option<Self> {
        Some(match tag {
            0 => ColumnType::Int64,
            1 => ColumnType::Float64,
            2 => ColumnType::Utf8,
            3 => ColumnType::Bool,
            _ => return None,
        })
    }
}

impl fmt::Display for ColumnType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ColumnType::Int64 => "int64",
            ColumnType::Float64 => "float64",
            ColumnType::Utf8 => "utf8",
            ColumnType::Bool => "bool",
        };
        f.write_str(s)
    }
}

/// One typed scalar value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Int64(i64),
    Float64(f64),
    Utf8(String),
    Bool(bool),
}

impl Value {
    /// The value's type.
    pub fn column_type(&self) -> ColumnType {
        match self {
            Value::Int64(_) => ColumnType::Int64,
            Value::Float64(_) => ColumnType::Float64,
            Value::Utf8(_) => ColumnType::Utf8,
            Value::Bool(_) => ColumnType::Bool,
        }
    }

    /// Total order within a type (used for min/max statistics and
    /// predicates). Cross-type comparisons return `None`.
    pub fn partial_cmp_same_type(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Int64(a), Value::Int64(b)) => Some(a.cmp(b)),
            (Value::Float64(a), Value::Float64(b)) => a.partial_cmp(b),
            (Value::Utf8(a), Value::Utf8(b)) => Some(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int64(v) => write!(f, "{v}"),
            Value::Float64(v) => write!(f, "{v}"),
            Value::Utf8(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
        }
    }
}

/// The Rust type behind one [`ColumnType`], so a column kernel is written
/// once over `&[T]` and compares with the type's own `PartialOrd` — the
/// order [`Value::partial_cmp_same_type`] defines.
pub trait Scalar: PartialOrd + Sized {
    /// The payload of `v`, or `None` when `v` is of another type.
    fn of(v: &Value) -> Option<&Self>;
    /// A copy boxed as a [`Value`].
    fn to_value(&self) -> Value;
}

macro_rules! scalar {
    ($t:ty, $variant:ident) => {
        impl Scalar for $t {
            fn of(v: &Value) -> Option<&Self> {
                match v {
                    Value::$variant(x) => Some(x),
                    _ => None,
                }
            }

            fn to_value(&self) -> Value {
                Value::$variant(self.clone())
            }
        }
    };
}
scalar!(i64, Int64);
scalar!(f64, Float64);
scalar!(String, Utf8);
scalar!(bool, Bool);

/// A column as a scan operator reads it: row `r` is `data[r]`, or
/// `data[gather[r]]` when the column belongs to a joined dimension and is
/// reached through the probe's fact-row → dimension-row index.
#[derive(Debug, Clone, Copy)]
pub struct ColumnView<'a> {
    pub data: &'a ColumnData,
    pub gather: Option<&'a [u32]>,
}

impl<'a> ColumnView<'a> {
    /// A column read directly by row.
    pub fn direct(data: &'a ColumnData) -> Self {
        Self { data, gather: None }
    }

    /// The index into `data` that row `row` reads.
    #[inline]
    pub fn index(&self, row: u32) -> usize {
        match self.gather {
            Some(gather) => gather[row as usize] as usize,
            None => row as usize,
        }
    }
}

/// A decoded column vector. A `Utf8` row `r` is `dict[codes[r]]`; entries
/// need not be distinct nor used, and columns may share a dictionary.
#[derive(Debug, Clone)]
pub enum ColumnData {
    Int64(Vec<i64>),
    Float64(Vec<f64>),
    Utf8 {
        codes: Vec<u32>,
        dict: Arc<Vec<String>>,
    },
    Bool(Vec<bool>),
}

impl PartialEq for ColumnData {
    /// Compares values, not codes.
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (ColumnData::Int64(a), ColumnData::Int64(b)) => a == b,
            (ColumnData::Float64(a), ColumnData::Float64(b)) => a == b,
            (ColumnData::Bool(a), ColumnData::Bool(b)) => a == b,
            (ColumnData::Utf8 { codes: a, dict: da }, ColumnData::Utf8 { codes: b, dict: db }) => {
                let same = |(x, y): (&u32, &u32)| da[*x as usize] == db[*y as usize];
                a.len() == b.len() && a.iter().zip(b).all(same)
            }
            _ => false,
        }
    }
}

impl ColumnData {
    /// A `Utf8` column holding `strings` in order, each its own entry.
    pub fn utf8(strings: Vec<String>) -> Self {
        let codes = (0..strings.len() as u32).collect();
        ColumnData::Utf8 {
            codes,
            dict: Arc::new(strings),
        }
    }

    /// An empty vector of the given type.
    pub fn empty(ty: ColumnType) -> Self {
        match ty {
            ColumnType::Int64 => ColumnData::Int64(Vec::new()),
            ColumnType::Float64 => ColumnData::Float64(Vec::new()),
            ColumnType::Utf8 => ColumnData::utf8(Vec::new()),
            ColumnType::Bool => ColumnData::Bool(Vec::new()),
        }
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Int64(v) => v.len(),
            ColumnData::Float64(v) => v.len(),
            ColumnData::Utf8 { codes, .. } => codes.len(),
            ColumnData::Bool(v) => v.len(),
        }
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The column's type.
    pub fn column_type(&self) -> ColumnType {
        match self {
            ColumnData::Int64(_) => ColumnType::Int64,
            ColumnData::Float64(_) => ColumnType::Float64,
            ColumnData::Utf8 { .. } => ColumnType::Utf8,
            ColumnData::Bool(_) => ColumnType::Bool,
        }
    }

    /// The value at `row`.
    pub fn value(&self, row: usize) -> Value {
        match self {
            ColumnData::Int64(v) => Value::Int64(v[row]),
            ColumnData::Float64(v) => Value::Float64(v[row]),
            ColumnData::Utf8 { codes, dict } => Value::Utf8(dict[codes[row] as usize].clone()),
            ColumnData::Bool(v) => Value::Bool(v[row]),
        }
    }

    /// Appends a value (a string as a new entry); panics on a type mismatch.
    pub fn push(&mut self, value: Value) {
        match (self, value) {
            (ColumnData::Int64(v), Value::Int64(x)) => v.push(x),
            (ColumnData::Float64(v), Value::Float64(x)) => v.push(x),
            (ColumnData::Utf8 { codes, dict }, Value::Utf8(x)) => {
                codes.push(dict.len() as u32);
                Arc::make_mut(dict).push(x);
            }
            (ColumnData::Bool(v), Value::Bool(x)) => v.push(x),
            (col, value) => panic!(
                "type mismatch: pushing {} into {} column",
                value.column_type(),
                col.column_type()
            ),
        }
    }

    /// Min and max values, or `None` if empty or if a `Float64` column holds
    /// a NaN. Such a chunk gets no stats and is never pruned: `Between`
    /// matches a NaN row (both bound comparisons are unordered, so neither
    /// fails), so stats over the other values would prune `[NaN, 5.0]`
    /// under `Between(10, 20)` although its first row matches. A `Utf8`
    /// column reads only the dictionary entries its codes use.
    pub fn min_max(&self) -> Option<(Value, Value)> {
        if let ColumnData::Utf8 { codes, dict } = self {
            let mut used = vec![false; dict.len()];
            codes.iter().for_each(|&c| used[c as usize] = true);
            let texts = dict.iter().zip(used).filter_map(|(s, u)| u.then_some(s));
            let (min, max) = (texts.clone().min()?, texts.max()?);
            return Some((Value::Utf8(min.clone()), Value::Utf8(max.clone())));
        }
        let has_nan = matches!(self, ColumnData::Float64(v) if v.iter().any(|x| x.is_nan()));
        if self.is_empty() || has_nan {
            return None;
        }
        let mut min = self.value(0);
        let mut max = self.value(0);
        for i in 1..self.len() {
            let v = self.value(i);
            if v.partial_cmp_same_type(&min) == Some(Ordering::Less) {
                min = v.clone();
            }
            if v.partial_cmp_same_type(&max) == Some(Ordering::Greater) {
                max = v;
            }
        }
        Some((min, max))
    }

    /// Appends the view's values at the rows in `sel`; panics on a type
    /// mismatch. `Utf8` rows copy their codes (see [`merge_dict`]).
    pub fn extend_selected(&mut self, view: ColumnView<'_>, sel: &[u32]) {
        let at = |r: &u32| view.index(*r);
        match (self, view.data) {
            (ColumnData::Int64(d), ColumnData::Int64(v)) => d.extend(sel.iter().map(|r| v[at(r)])),
            (ColumnData::Float64(d), ColumnData::Float64(v)) => {
                d.extend(sel.iter().map(|r| v[at(r)]))
            }
            (ColumnData::Utf8 { codes, dict }, ColumnData::Utf8 { codes: v, dict: d }) => {
                let base = merge_dict(codes.is_empty(), dict, d);
                codes.extend(sel.iter().map(|r| base + v[at(r)]))
            }
            (ColumnData::Bool(d), ColumnData::Bool(v)) => d.extend(sel.iter().map(|r| v[at(r)])),
            (col, data) => panic!(
                "type mismatch: extending {} column from {}",
                col.column_type(),
                data.column_type()
            ),
        }
    }

    /// Appends all of `other`; fails on a type mismatch.
    pub fn append(&mut self, other: ColumnData) -> Result<()> {
        match (self, other) {
            (ColumnData::Int64(d), ColumnData::Int64(mut v)) => d.append(&mut v),
            (ColumnData::Float64(d), ColumnData::Float64(mut v)) => d.append(&mut v),
            (ColumnData::Utf8 { codes, dict }, ColumnData::Utf8 { codes: v, dict: d }) => {
                let base = merge_dict(codes.is_empty(), dict, &d);
                codes.extend(v.iter().map(|c| base + c))
            }
            (ColumnData::Bool(d), ColumnData::Bool(mut v)) => d.append(&mut v),
            (col, other) => {
                return Err(Error::InvalidArgument(format!(
                    "cannot append {} values to a {} column",
                    other.column_type(),
                    col.column_type()
                )))
            }
        }
        Ok(())
    }

    /// Consumes the column into boxed values (one string made per row).
    pub fn into_values(self) -> Box<dyn Iterator<Item = Value>> {
        match self {
            ColumnData::Int64(v) => Box::new(v.into_iter().map(Value::Int64)),
            ColumnData::Float64(v) => Box::new(v.into_iter().map(Value::Float64)),
            col @ ColumnData::Utf8 { .. } => Box::new((0..col.len()).map(move |r| col.value(r))),
            ColumnData::Bool(v) => Box::new(v.into_iter().map(Value::Bool)),
        }
    }
}

/// Makes `theirs`' entries readable through `mine` and returns the offset
/// their codes take: 0 for the same `Arc`, or when `mine` has no rows yet
/// and adopts `theirs`; otherwise `theirs` is appended once, whole.
fn merge_dict(no_rows: bool, mine: &mut Arc<Vec<String>>, theirs: &Arc<Vec<String>>) -> u32 {
    if Arc::ptr_eq(mine, theirs) || no_rows {
        *mine = Arc::clone(theirs);
        return 0;
    }
    let base = mine.len() as u32;
    Arc::make_mut(mine).extend(theirs.iter().cloned());
    base
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_tags_round_trip() {
        for ty in [
            ColumnType::Int64,
            ColumnType::Float64,
            ColumnType::Utf8,
            ColumnType::Bool,
        ] {
            assert_eq!(ColumnType::from_tag(ty.tag()), Some(ty));
        }
        assert_eq!(ColumnType::from_tag(99), None);
    }

    #[test]
    fn value_comparisons() {
        assert_eq!(
            Value::Int64(1).partial_cmp_same_type(&Value::Int64(2)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Utf8("b".into()).partial_cmp_same_type(&Value::Utf8("a".into())),
            Some(Ordering::Greater)
        );
        assert_eq!(
            Value::Int64(1).partial_cmp_same_type(&Value::Bool(true)),
            None
        );
    }

    #[test]
    fn column_push_and_value() {
        let mut col = ColumnData::empty(ColumnType::Utf8);
        col.push(Value::Utf8("x".into()));
        col.push(Value::Utf8("y".into()));
        assert_eq!(col.len(), 2);
        assert_eq!(col.value(1), Value::Utf8("y".into()));
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn push_wrong_type_panics() {
        let mut col = ColumnData::empty(ColumnType::Int64);
        col.push(Value::Bool(true));
    }

    #[test]
    fn min_max_over_ints() {
        let col = ColumnData::Int64(vec![5, -2, 9, 0]);
        let (min, max) = col.min_max().unwrap();
        assert_eq!(min, Value::Int64(-2));
        assert_eq!(max, Value::Int64(9));
        assert!(ColumnData::empty(ColumnType::Int64).min_max().is_none());
    }

    #[test]
    fn extend_selected_reads_through_the_gather_index() {
        let dim = ColumnData::utf8(vec!["a".into(), "b".into(), "c".into()]);
        let mut out = ColumnData::empty(ColumnType::Utf8);
        out.extend_selected(ColumnView::direct(&dim), &[0, 2]);
        // Fact rows 1 and 3 joined dimension rows 2 and 1.
        let gather = [9, 2, 9, 1];
        let view = ColumnView {
            data: &dim,
            gather: Some(&gather),
        };
        out.extend_selected(view, &[1, 3]);
        let all: Vec<Value> = out.clone().into_values().collect();
        assert_eq!(all, ["a", "c", "c", "b"].map(|s| Value::Utf8(s.into())));
        assert!(out.append(ColumnData::Int64(vec![1])).is_err());
        out.append(ColumnData::utf8(vec!["z".into()])).unwrap();
        assert_eq!(out.len(), 5);
    }
}
