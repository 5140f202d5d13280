//! Seeded operation streams for the three workloads.
//!
//! A stream is a pure function of `(workload, scale factor, seed)`: two
//! streams built from the same triple yield the same operations in the same
//! order, however fast the system under test answers them.

use beas_common::{Row, Value};
use beas_tlc::generator::{cell_id, date, pnum, vocab};
use beas_tlc::TlcConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::sync::Arc;

/// Number of distinct SQL texts `tlc_hot` replays (16 per covered template).
const HOT_TEXTS: usize = 160;
/// Texts per covered template in the hot pool.
const HOT_PER_TEMPLATE: usize = HOT_TEXTS / COVERED_TEMPLATES;
/// Number of covered TLC templates (Q1–Q10).
const COVERED_TEMPLATES: usize = 10;
/// Number of uncovered templates (Q11 plus three single-table analytics).
const UNCOVERED_TEMPLATES: usize = 4;
/// Size of the uncovered pool `tlc_rw` draws its every-10th read from.
const UNCOVERED_POOL: usize = 8;
// `tlc_rw` keeps both pools cached: the plan cache holds 256 entries.
const _: () = assert!(HOT_TEXTS + UNCOVERED_POOL <= 256);

/// `tlc_rw`: reads between two write batches.  Each write makes the next
/// uncovered read re-derive the `call` statistics; at one write per 100
/// reads those reads would be exactly 1% of all reads, and `read_p99_us`
/// would sit on the edge between them and the rest.  At one per 50 they
/// are 2%, and the p99 lands inside them.
const READS_PER_WRITE: u64 = 50;
/// `tlc_rw`: every this-many-th read is a pooled uncovered read.
const UNCOVERED_EVERY: u64 = 10;
/// Rows per write batch.
const BATCH_ROWS: usize = 20;
/// Subscriber numbers at and above this index are never generated by the
/// TLC generator, so write batches always insert fresh subscribers.
const FRESH_SUBSCRIBER_BASE: usize = 9_000_000;
/// Call record ids at and above this value are never generated either.
const FRESH_RECORD_BASE: i64 = 1_000_000_000;
/// Days that carry calls in generated data (`2016-07-01` .. `2016-07-10`).
const CALL_DAYS: u8 = 10;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 160 covered texts replayed uniformly: the plan cache always hits.
    Hot,
    /// Fresh parameters per submission, every fourth read uncovered.
    Adhoc,
    /// Hot reads, a pooled uncovered read every 10th, a write batch every
    /// 50 reads.
    Rw,
}

impl Workload {
    /// All workloads, in the order the documentation lists them.
    pub const ALL: [Workload; 3] = [Workload::Hot, Workload::Adhoc, Workload::Rw];

    /// Parse a workload name as given on the command line.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload's own operation stream issues writes.
    pub fn writes(self) -> bool {
        self == Workload::Rw
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Hot => "tlc_hot",
            Workload::Adhoc => "tlc_adhoc",
            Workload::Rw => "tlc_rw",
        }
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One read submission.
#[derive(Debug, Clone, PartialEq)]
pub struct Read {
    /// The SQL text.
    pub sql: Arc<str>,
    /// Whether the template is covered by the TLC access schema.
    pub covered: bool,
}

/// One write batch against `call`.
#[derive(Debug, Clone, PartialEq)]
pub enum WriteBatch {
    /// Insert rows of fresh subscribers.
    Insert(Vec<Row>),
    /// Delete every row of these subscribers (the previous insert's).
    Delete(Vec<String>),
}

impl WriteBatch {
    /// Rows the batch must affect.
    pub fn expected_rows(&self) -> usize {
        match self {
            WriteBatch::Insert(rows) => rows.len(),
            WriteBatch::Delete(pnums) => pnums.len(),
        }
    }
}

/// One operation of a workload.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// A read through `Session::execute`.
    Read(Read),
    /// A write batch through `QueryService::insert_rows`/`delete_rows`.
    Write(WriteBatch),
}

/// The data dimensions query parameters are drawn from.
#[derive(Debug, Clone, Copy)]
struct Dims {
    customers: usize,
    towers: usize,
}

impl Dims {
    fn of(config: &TlcConfig) -> Dims {
        Dims {
            customers: config.customers(),
            towers: config.towers(),
        }
    }
}

fn pick<'a>(rng: &mut StdRng, options: &[&'a str]) -> &'a str {
    options[rng.gen_range(0..options.len())]
}

fn call_day(rng: &mut StdRng) -> String {
    date(rng.gen_range(0..CALL_DAYS))
}

fn any_day(rng: &mut StdRng) -> String {
    date(rng.gen_range(0..vocab::DAYS))
}

/// Covered template `t` (Q1–Q10 for `t` = 0..9) with fresh parameters.
fn covered_sql(rng: &mut StdRng, dims: Dims, t: usize) -> String {
    let btype = pick(rng, &vocab::BUSINESS_TYPES);
    let region = pick(rng, &vocab::REGIONS);
    let segment = pick(rng, &vocab::SEGMENTS);
    match t {
        0 => {
            // Every business holds package 7, so half the texts match data.
            let pid = if rng.gen_bool(0.5) {
                7
            } else {
                rng.gen_range(1..=vocab::PLAN_COUNT)
            };
            beas_tlc::example2_query(btype, region, pid, &call_day(rng))
        }
        1 => format!(
            "SELECT DISTINCT recnum, region FROM call WHERE pnum = '{}' AND date = '{}'",
            pnum(rng.gen_range(0..dims.customers)),
            call_day(rng)
        ),
        2 => format!(
            "SELECT DISTINCT c.city, d.brand, d.five_g FROM business b, customer c, device d \
             WHERE b.type = '{btype}' AND b.region = '{region}' \
             AND b.pnum = c.pnum AND c.pnum = d.pnum"
        ),
        3 => format!(
            "SELECT COUNT(DISTINCT c.pnum) AS overdue FROM customer c, billing bl \
             WHERE c.region = '{region}' AND c.segment = '{segment}' \
             AND c.pnum = bl.pnum AND bl.year = {} AND bl.paid = FALSE",
            vocab::YEAR
        ),
        4 => format!(
            "SELECT s.sms_type, COUNT(DISTINCT s.recnum) AS receivers FROM business b, sms s \
             WHERE b.type = '{btype}' AND b.region = '{region}' \
             AND b.pnum = s.pnum AND s.date = '{}' \
             GROUP BY s.sms_type ORDER BY receivers DESC, s.sms_type",
            call_day(rng)
        ),
        5 => format!(
            "SELECT u.app_category, COUNT(DISTINCT u.pnum) AS users FROM business b, data_usage u \
             WHERE b.type = '{btype}' AND b.region = '{region}' \
             AND b.pnum = u.pnum AND u.date = '{}' \
             GROUP BY u.app_category ORDER BY users DESC, u.app_category",
            call_day(rng)
        ),
        6 => format!(
            "SELECT DISTINCT call.pnum, t.technology, r.province \
             FROM call, cell_tower t, region_info r \
             WHERE call.cell_id = '{}' AND call.date = '{}' \
             AND call.cell_id = t.cell_id AND t.region = r.region",
            cell_id(rng.gen_range(0..dims.towers)),
            call_day(rng)
        ),
        7 => format!(
            "SELECT DISTINCT b.pnum, k.category, k.severity FROM business b, complaint k \
             WHERE b.type = '{btype}' AND b.region = '{region}' \
             AND b.pnum = k.pnum AND k.date = '{}' \
             AND k.severity >= {} AND k.resolved = FALSE",
            any_day(rng),
            rng.gen_range(1..=4)
        ),
        8 => {
            format!(
            "SELECT DISTINCT pc.plan_name, pc.tier FROM business b, package p, plan_catalog pc \
             WHERE b.type = '{btype}' AND b.region = '{region}' \
             AND b.pnum = p.pnum AND p.year = {} AND p.pid = pc.pid",
            if rng.gen_bool(0.5) { vocab::YEAR } else { vocab::YEAR - 1 }
        )
        }
        9 => format!(
            "SELECT d.brand, COUNT(DISTINCT d.pnum) AS owners FROM customer c, device d \
             WHERE c.region = '{region}' AND c.segment = '{segment}' \
             AND c.pnum = d.pnum AND d.five_g = TRUE \
             GROUP BY d.brand ORDER BY owners DESC, d.brand"
        ),
        _ => unreachable!("covered template index out of range"),
    }
}

/// Uncovered template `t` with fresh parameters: Q11 and three
/// single-table analytics over `call` that no access constraint covers.
fn uncovered_sql(rng: &mut StdRng, t: usize) -> String {
    match t {
        0 => format!(
            "SELECT call.region, SUM(call.cost) AS spend FROM business b, call \
             WHERE b.type = '{}' AND b.region = '{}' \
             AND b.pnum = call.pnum AND call.date = '{}' \
             GROUP BY call.region ORDER BY call.region",
            pick(rng, &vocab::BUSINESS_TYPES),
            pick(rng, &vocab::REGIONS),
            call_day(rng)
        ),
        1 => {
            let lo = rng.gen_range(5..3_000);
            let hi = lo + rng.gen_range(60..600);
            format!(
                "SELECT call_type, COUNT(*) AS calls, SUM(duration) AS seconds FROM call \
                 WHERE duration >= {lo} AND duration < {hi} GROUP BY call_type ORDER BY call_type"
            )
        }
        2 => {
            let first = rng.gen_range(0..CALL_DAYS - 1);
            let last = rng.gen_range(first + 1..CALL_DAYS);
            format!(
                "SELECT DISTINCT date, region FROM call \
                 WHERE date >= '{}' AND date <= '{}' AND network_type = '{}'",
                date(first),
                date(last),
                pick(rng, &["4g", "5g", "volte"])
            )
        }
        3 => format!(
            "SELECT region, COUNT(DISTINCT pnum) AS callers FROM call \
             WHERE start_hour = {} AND dropped = {} GROUP BY region ORDER BY region",
            rng.gen_range(0..23),
            if rng.gen_bool(0.5) { "TRUE" } else { "FALSE" }
        ),
        _ => unreachable!("uncovered template index out of range"),
    }
}

/// One `call` row of fresh subscriber `subscriber`, laid out like the
/// generator's rows.
fn call_row(rng: &mut StdRng, dims: Dims, subscriber: usize, record: i64) -> Row {
    let caller = subscriber % dims.customers;
    let duration = rng.gen_range(5..3_600);
    vec![
        Value::str(pnum(subscriber)),
        Value::str(pnum(rng.gen_range(0..dims.customers))),
        Value::str(call_day(rng)),
        Value::str(vocab::REGIONS[caller % vocab::REGIONS.len()]),
        Value::Int(duration),
        Value::Int(rng.gen_range(0..23)),
        Value::Int(rng.gen_range(0..23)),
        Value::str(pick(rng, &["local", "long_distance", "international"])),
        // Spread across (cell_id, date) keys so no bucket of
        // call(cell_id, date → …) grows by more than a row or two.
        Value::str(cell_id(rng.gen_range(0..dims.towers))),
        Value::Bool(rng.gen_bool(0.05)),
        Value::Bool(rng.gen_bool(0.02)),
        Value::Float(duration as f64 * 0.002),
        Value::str(pick(rng, &["outgoing", "incoming"])),
        Value::Int(rng.gen_range(0..5)),
        Value::str(pick(rng, &["4g", "5g", "volte"])),
        Value::Int(record),
    ]
}

/// Alternating insert/delete batches of fresh subscribers: every insert is
/// undone by the next batch, so `|D|` stays at its generated size.
#[derive(Debug, Clone)]
struct WriteGen {
    rng: StdRng,
    dims: Dims,
    batches: usize,
    pending_delete: Option<Vec<String>>,
}

impl WriteGen {
    fn new(seed: u64, dims: Dims) -> WriteGen {
        WriteGen {
            rng: StdRng::seed_from_u64(seed),
            dims,
            batches: 0,
            pending_delete: None,
        }
    }

    /// The next batch.
    fn next_batch(&mut self) -> WriteBatch {
        if let Some(pnums) = self.pending_delete.take() {
            return WriteBatch::Delete(pnums);
        }
        let first = self.batches * BATCH_ROWS;
        self.batches += 1;
        let rows: Vec<Row> = (0..BATCH_ROWS)
            .map(|k| {
                let subscriber = FRESH_SUBSCRIBER_BASE + first + k;
                call_row(
                    &mut self.rng,
                    self.dims,
                    subscriber,
                    FRESH_RECORD_BASE + (first + k) as i64,
                )
            })
            .collect();
        self.pending_delete = Some(
            (0..BATCH_ROWS)
                .map(|k| pnum(FRESH_SUBSCRIBER_BASE + first + k))
                .collect(),
        );
        WriteBatch::Insert(rows)
    }
}

/// The seeded operation stream of one workload.
#[derive(Debug, Clone)]
pub struct OpStream {
    workload: Workload,
    rng: StdRng,
    dims: Dims,
    hot: Vec<Arc<str>>,
    uncovered: Vec<Arc<str>>,
    reads: u64,
    next_write_at: u64,
    writes: WriteGen,
}

impl OpStream {
    /// The stream of `workload` over data generated by `config`, with
    /// parameters drawn from `seed`.
    pub fn new(workload: Workload, config: &TlcConfig, seed: u64) -> OpStream {
        let dims = Dims::of(config);
        let mut pools = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        // Stratified: every covered template contributes the same number of
        // texts, so the mix does not swing with the seed.
        let hot = (0..COVERED_TEMPLATES)
            .flat_map(|t| (0..HOT_PER_TEMPLATE).map(move |_| t))
            .map(|t| Arc::from(covered_sql(&mut pools, dims, t)))
            .collect();
        let uncovered = (0..UNCOVERED_POOL)
            .map(|i| Arc::from(uncovered_sql(&mut pools, i % UNCOVERED_TEMPLATES)))
            .collect();
        OpStream {
            workload,
            rng: StdRng::seed_from_u64(seed),
            dims,
            hot,
            uncovered,
            reads: 0,
            next_write_at: READS_PER_WRITE,
            writes: WriteGen::new(seed ^ 0x5851_f42d_4c95_7f2d, dims),
        }
    }

    /// The SQL texts of the warm-up pass, which fills the plan cache and
    /// the statistics memo before timing starts.
    pub fn warmup(&self) -> Vec<Read> {
        let covered = |sql: &Arc<str>| Read {
            sql: Arc::clone(sql),
            covered: true,
        };
        let uncovered = |sql: &Arc<str>| Read {
            sql: Arc::clone(sql),
            covered: false,
        };
        match self.workload {
            Workload::Hot => self.hot.iter().map(covered).collect(),
            Workload::Adhoc => {
                // One text per template: the statistics of every table the
                // uncovered templates read get derived before timing.
                let mut rng = StdRng::seed_from_u64(0x00ad_0c00);
                let mut reads: Vec<Read> = (0..COVERED_TEMPLATES)
                    .map(|t| covered(&Arc::from(covered_sql(&mut rng, self.dims, t))))
                    .collect();
                reads.extend(
                    (0..UNCOVERED_TEMPLATES)
                        .map(|t| uncovered(&Arc::from(uncovered_sql(&mut rng, t)))),
                );
                reads
            }
            Workload::Rw => self
                .hot
                .iter()
                .map(covered)
                .chain(self.uncovered.iter().map(uncovered))
                .collect(),
        }
    }

    /// A pooled uncovered text, for probes of the conventional engine.
    pub fn pooled_uncovered(&self, i: usize) -> Read {
        Read {
            sql: Arc::clone(&self.uncovered[i % self.uncovered.len()]),
            covered: false,
        }
    }

    fn hot_read(&mut self) -> Read {
        let i = self.rng.gen_range(0..self.hot.len());
        Read {
            sql: Arc::clone(&self.hot[i]),
            covered: true,
        }
    }

    /// The next write batch of the stream's own insert/delete alternation
    /// (also used to top up write samples after the timed loop).
    pub fn next_write(&mut self) -> WriteBatch {
        self.writes.next_batch()
    }

    /// The next operation.
    pub fn next_op(&mut self) -> Op {
        match self.workload {
            Workload::Hot => Op::Read(self.hot_read()),
            Workload::Adhoc => {
                // Every 4th read is uncovered; templates take turns, so the
                // mix is the same for every seed and only parameters vary.
                let k = self.reads;
                self.reads += 1;
                let read = if k % 4 == 3 {
                    let t = (k / 4) as usize % UNCOVERED_TEMPLATES;
                    Read {
                        sql: Arc::from(uncovered_sql(&mut self.rng, t)),
                        covered: false,
                    }
                } else {
                    let t = (k - k / 4) as usize % COVERED_TEMPLATES;
                    Read {
                        sql: Arc::from(covered_sql(&mut self.rng, self.dims, t)),
                        covered: true,
                    }
                };
                Op::Read(read)
            }
            Workload::Rw => {
                if self.reads == self.next_write_at {
                    self.next_write_at += READS_PER_WRITE;
                    return Op::Write(self.next_write());
                }
                self.reads += 1;
                if self.reads.is_multiple_of(UNCOVERED_EVERY) {
                    let i = self.rng.gen_range(0..self.uncovered.len());
                    Op::Read(self.pooled_uncovered(i))
                } else {
                    Op::Read(self.hot_read())
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops(workload: Workload, seed: u64, n: usize) -> Vec<Op> {
        let mut stream = OpStream::new(workload, &TlcConfig::at_scale(1), seed);
        (0..n).map(|_| stream.next_op()).collect()
    }

    #[test]
    fn streams_are_a_function_of_the_seed() {
        for w in Workload::ALL {
            assert_eq!(ops(w, 7, 500), ops(w, 7, 500), "{w}");
            assert_ne!(ops(w, 7, 500), ops(w, 8, 500), "{w}");
        }
    }

    #[test]
    fn rw_writes_every_fifty_reads_and_alternates() {
        let all = ops(Workload::Rw, 1, 1_000);
        let writes: Vec<(usize, &WriteBatch)> = all
            .iter()
            .enumerate()
            .filter_map(|(i, op)| match op {
                Op::Write(w) => Some((i, w)),
                Op::Read(_) => None,
            })
            .collect();
        assert_eq!(writes[0].0, READS_PER_WRITE as usize);
        for pair in writes.chunks(2) {
            let (WriteBatch::Insert(rows), Some((_, WriteBatch::Delete(pnums)))) =
                (pair[0].1, pair.get(1))
            else {
                continue;
            };
            let inserted: Vec<String> = rows
                .iter()
                .map(|r| match &r[0] {
                    Value::Str(s) => s.clone(),
                    other => panic!("pnum is a string, got {other:?}"),
                })
                .collect();
            assert_eq!(&inserted, pnums, "a delete undoes the previous insert");
        }
        let reads = all.iter().filter(|op| matches!(op, Op::Read(_))).count();
        let uncovered = all
            .iter()
            .filter(|op| matches!(op, Op::Read(r) if !r.covered))
            .count();
        assert_eq!(uncovered, reads / UNCOVERED_EVERY as usize);
    }
}
