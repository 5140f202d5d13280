//! Pull-based row streams: the pipelined execution model shared by both
//! engines.
//!
//! A [`RowStream`] is a lazy, fallible iterator over [`RowRef`]s.  Operators
//! implement it by pulling from their input stream on demand, so *demand*
//! propagates down the operator tree: when a consumer stops pulling (a
//! `LIMIT` is satisfied, an error aborts the query), every upstream operator
//! — including the base-table scan — stops producing.  This is what turns
//! the limit hint of the batch executors into genuine early termination: a
//! `LIMIT 10` under a filter reads base rows only until ten survivors have
//! been found, instead of scanning and buffering the whole table.
//!
//! The trait is deliberately tiny (`next()` only).  Operators implement it
//! directly in their own crates — the engine's because each carries its own
//! metrics counters; the bounded executor's fetch join is a plain loop over
//! key ids.

use crate::error::Result;
use crate::rowref::RowRef;

/// A lazy, fallible stream of [`RowRef`]s — the pipelined operator
/// interface.
///
/// `next()` returns `Ok(Some(row))` while rows remain, `Ok(None)` at
/// exhaustion, and `Err(_)` when producing the next row fails (the error
/// aborts the pipeline; a stream need not be pollable after an error).
pub trait RowStream<'a> {
    /// Pull the next row.
    fn next(&mut self) -> Result<Option<RowRef<'a>>>;

    /// Drain the stream into a vector (the materialization boundary).
    fn collect_rows(&mut self) -> Result<Vec<RowRef<'a>>>
    where
        Self: Sized,
    {
        let mut out = Vec::new();
        while let Some(row) = self.next()? {
            out.push(row);
        }
        Ok(out)
    }
}

impl<'a, S: RowStream<'a> + ?Sized> RowStream<'a> for Box<S> {
    fn next(&mut self) -> Result<Option<RowRef<'a>>> {
        (**self).next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    /// Counts up from 1 and stops after `last`.
    struct Counter {
        at: i64,
        last: i64,
    }

    impl<'a> RowStream<'a> for Counter {
        fn next(&mut self) -> Result<Option<RowRef<'a>>> {
            if self.at == self.last {
                return Ok(None);
            }
            self.at += 1;
            Ok(Some(RowRef::owned(vec![Value::Int(self.at)])))
        }
    }

    #[test]
    fn boxed_streams_are_streams() {
        let mut s: Box<dyn RowStream<'static>> = Box::new(Counter { at: 0, last: 1 });
        assert_eq!(s.next().unwrap().unwrap().get(0), Some(&Value::Int(1)));
        assert!(s.next().unwrap().is_none());
    }
}
