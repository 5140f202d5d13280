//! Answer checking: every bounded read against its deduced bound, and a
//! seeded sample of reads against a conventional reference engine on the
//! same snapshot.

use beas_common::{Row, Value};
use beas_engine::{Engine, ExecProfile, OptimizerProfile, ParallelConfig};
use beas_storage::Database;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

/// An answered read, whichever path produced it.
#[derive(Debug)]
pub struct Answered {
    /// Answer rows.
    pub rows: Vec<Row>,
    /// Tuples accessed.
    pub tuples: u64,
    /// The deduced bound when the read ran bounded.
    pub bound: Option<u64>,
    /// Generation of the snapshot the read ran against.
    pub generation: u64,
}

/// Share of reads compared against the reference engine, on top of every
/// read whose reference answer is already known at its generation.
const SAMPLE: f64 = 1.0 / 16.0;
/// How many failure descriptions are kept for the report.
const KEPT_FAILURES: usize = 8;

/// Checks answers and counts failures.
#[derive(Debug)]
pub struct Verifier {
    reference: Engine,
    rng: StdRng,
    /// Sorted reference answers, valid for `memo_generation` only.
    memo: HashMap<Arc<str>, Vec<Row>>,
    memo_generation: u64,
    /// Reads compared against the reference engine.
    pub compared: u64,
    /// Failed operations (errors, refusals, wrong answers, bound
    /// violations).
    pub failed: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
}

/// Sort rows into a canonical order, so answers compare as sets.
fn sort_rows(rows: &mut [Row]) {
    rows.sort_by(|a, b| {
        a.iter()
            .zip(b.iter())
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| *o != Ordering::Equal)
            .unwrap_or_else(|| a.len().cmp(&b.len()))
    });
}

/// Values agree; floats within a relative 1e-9, since a SUM may add the
/// same terms in another order on another path.
fn same_value(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => {
            x == y || (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0)
        }
        _ => a.total_cmp(b) == Ordering::Equal,
    }
}

fn same_rows(a: &[Row], b: &[Row]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.len() == y.len() && x.iter().zip(y).all(|(u, v)| same_value(u, v)))
}

impl Verifier {
    /// A verifier that compares a `SAMPLE` share of reads (drawn from
    /// `seed`) with the reference engine, plus every read whose reference
    /// answer is already known at the current generation.
    pub fn new(seed: u64) -> Verifier {
        Verifier {
            reference: Engine::new(OptimizerProfile::PgLike)
                .with_parallelism(ParallelConfig::serial())
                .with_exec_profile(ExecProfile::RowAtATime),
            rng: StdRng::seed_from_u64(seed ^ 0xc0ff_ee00),
            memo: HashMap::new(),
            memo_generation: u64::MAX,
            compared: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// Drop the memoized reference answers (before checking another
    /// system).
    pub fn forget(&mut self) {
        self.memo.clear();
        self.memo_generation = u64::MAX;
    }

    /// Count one failed operation.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < KEPT_FAILURES {
            self.failures.push(what);
        }
    }

    /// Check one answered read of `sql`; returns whether it passed.  `db`
    /// must be the snapshot the read ran against.  `force` compares with
    /// the reference even when the read is not sampled.
    pub fn read(&mut self, db: &Database, sql: &Arc<str>, answer: Answered, force: bool) -> bool {
        let Answered {
            mut rows,
            tuples,
            bound,
            generation,
        } = answer;
        if let Some(bound) = bound {
            if tuples > bound {
                self.fail(format!(
                    "{tuples} tuples accessed exceed the deduced bound {bound}: {sql}"
                ));
                return false;
            }
        }
        if generation != self.memo_generation {
            self.memo.clear();
            self.memo_generation = generation;
        }
        let sampled = self.rng.gen_bool(SAMPLE);
        if !self.memo.contains_key(sql) {
            if !(sampled || force) {
                return true;
            }
            match self.reference.run(db, sql) {
                Ok(result) => {
                    let mut expected = result.rows;
                    sort_rows(&mut expected);
                    self.memo.insert(Arc::clone(sql), expected);
                }
                Err(e) => {
                    self.fail(format!("reference engine failed ({e}): {sql}"));
                    return false;
                }
            }
        }
        self.compared += 1;
        sort_rows(&mut rows);
        let expected = &self.memo[sql];
        if same_rows(expected, &rows) {
            return true;
        }
        let what = format!(
            "wrong answer ({} rows, expected {}): {sql}",
            rows.len(),
            expected.len()
        );
        self.fail(what);
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn float_sums_compare_with_a_relative_tolerance() {
        let a = vec![vec![Value::str("x"), Value::Float(0.1 + 0.2)]];
        let b = vec![vec![Value::str("x"), Value::Float(0.3)]];
        assert!(same_rows(&a, &b));
        let c = vec![vec![Value::str("x"), Value::Float(0.31)]];
        assert!(!same_rows(&a, &c));
        assert!(!same_rows(&a, &[]));
    }
}
