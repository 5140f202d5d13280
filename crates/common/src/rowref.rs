//! Shared, pipelined row representation for the execution cores.
//!
//! Both executors used to materialize `Vec<Vec<Value>>` at every operator:
//! scans copied whole tables, joins cloned every value of both sides into a
//! fresh row, and `DISTINCT` cloned each row a second time into its hash set.
//! The cost of that grows with `|D|` even for queries whose *answers* are
//! tiny — exactly the behaviour bounded evaluation is meant to avoid.
//!
//! A [`RowRef`] is a logical row assembled from *segments* that are either
//! borrowed (`&[Value]` into a base table or a constraint-index bucket) or
//! shared (`Arc<Row>` produced by a projection or a computed key).
//! Operators move `RowRef`s, not values:
//!
//! * a scan yields one single-segment borrowed `RowRef` per table row — no
//!   copy of the table at all;
//! * a join concatenates the two sides by appending segments — O(#segments)
//!   instead of O(row width) per output row, and the underlying values are
//!   never cloned;
//! * `DISTINCT`/`dedupe` hash the `RowRef` itself (its `Hash`/`Eq` iterate
//!   the logical values), so duplicate elimination clones nothing.
//!
//! A row only becomes an owned [`Row`] again at the query boundary
//! ([`RowRef::into_row`] moves sole-owner shared segments instead of
//! cloning them) or when an expression produces new values.  The common
//! single-segment row — every scanned or freshly projected row — stores its
//! segment inline, so building one performs no allocation beyond the values
//! themselves.
//!
//! [`ValueRow`] is the tiny accessor trait that lets the expression
//! evaluator (`beas_sql::evaluate`) read positions from either
//! representation without knowing which one it was handed.

use crate::tuple::Row;
use crate::value::Value;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Positional value access shared by owned rows and [`RowRef`]s.
pub trait ValueRow {
    /// Number of values in the row.
    fn arity(&self) -> usize;
    /// Value at position `i`, if in bounds.
    fn value_at(&self, i: usize) -> Option<&Value>;
}

impl ValueRow for [Value] {
    fn arity(&self) -> usize {
        self.len()
    }
    fn value_at(&self, i: usize) -> Option<&Value> {
        self.get(i)
    }
}

impl<const N: usize> ValueRow for [Value; N] {
    fn arity(&self) -> usize {
        N
    }
    fn value_at(&self, i: usize) -> Option<&Value> {
        self.get(i)
    }
}

impl ValueRow for Vec<Value> {
    fn arity(&self) -> usize {
        self.len()
    }
    fn value_at(&self, i: usize) -> Option<&Value> {
        self.get(i)
    }
}

/// One contiguous piece of a [`RowRef`].
#[derive(Debug, Clone)]
pub enum RowSeg<'a> {
    /// Borrowed from storage (a base table or an index bucket).
    Slice(&'a [Value]),
    /// Computed values shared between the rows that contain them.  The row
    /// is boxed whole so a sole owner can move it back out at the query
    /// boundary ([`RowRef::into_row`]) without cloning the values.
    Shared(Arc<Row>),
}

impl RowSeg<'_> {
    fn values(&self) -> &[Value] {
        match self {
            RowSeg::Slice(s) => s,
            RowSeg::Shared(a) => a,
        }
    }
}

/// A logical row assembled from borrowed/shared segments; cheap to clone.
///
/// The first segment is stored inline: the overwhelmingly common
/// single-segment row (a scanned base row, a projected row) allocates
/// nothing beyond its values — only multi-segment rows (join outputs) touch
/// the spill vector.
#[derive(Debug, Clone, Default)]
pub struct RowRef<'a> {
    head: Option<RowSeg<'a>>,
    tail: Vec<RowSeg<'a>>,
}

impl<'a> RowRef<'a> {
    /// The empty row (arity 0) — the initial bounded-execution context.
    pub fn empty() -> Self {
        RowRef::default()
    }

    /// A row borrowing `values` without copying them.
    pub fn borrowed(values: &'a [Value]) -> Self {
        let mut r = RowRef::empty();
        r.push_slice(values);
        r
    }

    /// A row owning freshly computed `values` (no copy of the values).
    pub fn owned(values: Vec<Value>) -> Self {
        RowRef::shared(Arc::new(values))
    }

    /// A row over an already-shared block of values.
    pub fn shared(values: Arc<Row>) -> Self {
        let mut r = RowRef::empty();
        r.push_shared(values);
        r
    }

    fn push_seg(&mut self, seg: RowSeg<'a>) {
        if self.head.is_none() && self.tail.is_empty() {
            self.head = Some(seg);
        } else {
            self.tail.push(seg);
        }
    }

    /// The segments in logical order.
    fn segs(&self) -> impl Iterator<Item = &RowSeg<'a>> {
        self.head.iter().chain(self.tail.iter())
    }

    /// Append a borrowed segment (no-op for empty slices).
    pub fn push_slice(&mut self, values: &'a [Value]) {
        if !values.is_empty() {
            self.push_seg(RowSeg::Slice(values));
        }
    }

    /// Append a shared segment (no-op for empty blocks).
    pub fn push_shared(&mut self, values: Arc<Row>) {
        if !values.is_empty() {
            self.push_seg(RowSeg::Shared(values));
        }
    }

    /// This row followed by a shared and a borrowed segment, with the
    /// segment list allocated once at its final size — the bounded fetch
    /// join's output row (context row, key values, fetched partial tuple).
    pub fn extended(&self, shared: Arc<Row>, values: &'a [Value]) -> RowRef<'a> {
        let mut out = RowRef {
            head: self.head.clone(),
            tail: Vec::with_capacity(self.tail.len() + 2),
        };
        out.tail.extend(self.tail.iter().cloned());
        out.push_shared(shared);
        out.push_slice(values);
        out
    }

    /// Concatenate two rows by appending segments — the join primitive.
    pub fn concat(&self, other: &RowRef<'a>) -> RowRef<'a> {
        let mut out = RowRef::empty();
        let total = self.segs().count() + other.segs().count();
        if total > 1 {
            out.tail.reserve(total - 1);
        }
        for seg in self.segs().chain(other.segs()) {
            out.push_seg(seg.clone());
        }
        out
    }

    /// Number of logical values.
    pub fn len(&self) -> usize {
        self.segs().map(|s| s.values().len()).sum()
    }

    /// Whether the row has no values.
    pub fn is_empty(&self) -> bool {
        self.head.is_none()
    }

    /// Value at logical position `i`.
    pub fn get(&self, i: usize) -> Option<&Value> {
        let mut offset = i;
        for seg in self.segs() {
            let vals = seg.values();
            if offset < vals.len() {
                return Some(&vals[offset]);
            }
            offset -= vals.len();
        }
        None
    }

    /// Iterate the logical values left to right.
    pub fn values(&self) -> impl Iterator<Item = &Value> {
        self.segs().flat_map(|s| s.values().iter())
    }

    /// Materialize an owned row without consuming the reference.
    pub fn to_row(&self) -> Row {
        let mut out = Vec::with_capacity(self.len());
        out.extend(self.values().cloned());
        out
    }

    /// Materialize an owned row, consuming the reference — the query
    /// boundary.  A single-segment shared row whose values have no other
    /// owner (the common projected-row case) is moved out without cloning
    /// a single value; everything else copies like [`RowRef::to_row`].
    pub fn into_row(mut self) -> Row {
        if self.tail.is_empty() {
            return match self.head.take() {
                Some(RowSeg::Shared(a)) => Arc::try_unwrap(a).unwrap_or_else(|a| (*a).clone()),
                Some(RowSeg::Slice(s)) => s.to_vec(),
                None => Vec::new(),
            };
        }
        self.to_row()
    }
}

impl ValueRow for RowRef<'_> {
    fn arity(&self) -> usize {
        self.len()
    }
    fn value_at(&self, i: usize) -> Option<&Value> {
        self.get(i)
    }
}

/// Equality over the logical value sequence, ignoring segmentation — a
/// 2-segment join output equals the equivalent flat row.
impl PartialEq for RowRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.values().zip(other.values()).all(|(a, b)| a == b)
    }
}

impl Eq for RowRef<'_> {}

/// Hash over the logical value sequence (consistent with `PartialEq` above
/// and with how `Vec<Value>` hashes: length prefix then each value).
impl Hash for RowRef<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.len().hash(state);
        for v in self.values() {
            v.hash(state);
        }
    }
}

/// Order-preserving duplicate elimination that never clones an item: kept
/// items move into the output and candidates are compared against them
/// through a hash → indices table.
pub fn dedupe<T: Hash + Eq>(items: impl IntoIterator<Item = T>) -> Vec<T> {
    use std::collections::hash_map::RandomState;
    use std::collections::HashMap;
    use std::hash::BuildHasher;
    let state = RandomState::new();
    let mut buckets: HashMap<u64, Vec<usize>> = HashMap::new();
    let mut out: Vec<T> = Vec::new();
    for item in items {
        let h = state.hash_one(&item);
        let ids = buckets.entry(h).or_default();
        if ids.iter().any(|&i| out[i] == item) {
            continue;
        }
        ids.push(out.len());
        out.push(item);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn vals(xs: &[i64]) -> Vec<Value> {
        xs.iter().map(|&x| Value::Int(x)).collect()
    }

    #[test]
    fn borrowed_rows_index_and_materialize() {
        let base = vals(&[1, 2, 3]);
        let r = RowRef::borrowed(&base);
        assert_eq!(r.len(), 3);
        assert!(!r.is_empty());
        assert_eq!(r.get(0), Some(&Value::Int(1)));
        assert_eq!(r.get(2), Some(&Value::Int(3)));
        assert_eq!(r.get(3), None);
        assert_eq!(r.to_row(), base);
    }

    #[test]
    fn concat_spans_segments_without_copying_values() {
        let left = vals(&[1, 2]);
        let right = vals(&[3]);
        let l = RowRef::borrowed(&left);
        let r = RowRef::owned(right.clone());
        let joined = l.concat(&r);
        assert_eq!(joined.len(), 3);
        assert_eq!(joined.get(2), Some(&Value::Int(3)));
        assert_eq!(joined.to_row(), vals(&[1, 2, 3]));
        // the borrowed side still points into `left`
        assert!(std::ptr::eq(joined.get(0).unwrap(), &left[0]));
    }

    #[test]
    fn equality_and_hash_ignore_segmentation() {
        let flat = RowRef::owned(vals(&[1, 2, 3]));
        let a = vals(&[1, 2]);
        let b = vals(&[3]);
        let split = RowRef::borrowed(&a).concat(&RowRef::borrowed(&b));
        assert_eq!(flat, split);
        let mut set = HashSet::new();
        set.insert(flat);
        assert!(set.contains(&split));
        // differing rows are distinct
        assert!(!set.contains(&RowRef::owned(vals(&[1, 2, 4]))));
        assert!(!set.contains(&RowRef::owned(vals(&[1, 2]))));
    }

    #[test]
    fn empty_segments_are_skipped() {
        let mut r = RowRef::empty();
        r.push_slice(&[]);
        r.push_shared(Arc::new(Vec::new()));
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
        assert_eq!(RowRef::empty(), r);
    }

    #[test]
    fn value_row_access() {
        let base = vals(&[7, 8]);
        let r = RowRef::borrowed(&base);
        assert_eq!(ValueRow::arity(&r), 2);
        assert_eq!(r.value_at(1), Some(&Value::Int(8)));
        assert_eq!(ValueRow::arity(&base), 2);
        assert_eq!(base.value_at(0), Some(&Value::Int(7)));
        assert_eq!(base.as_slice().value_at(2), None);
    }

    #[test]
    fn dedupe_preserves_first_occurrence_order() {
        let rows = vec![vals(&[1]), vals(&[2]), vals(&[1]), vals(&[3]), vals(&[2])];
        let out = dedupe(rows);
        assert_eq!(out, vec![vals(&[1]), vals(&[2]), vals(&[3])]);
        let empty: Vec<Vec<Value>> = Vec::new();
        assert!(dedupe(empty).is_empty());
    }
}
