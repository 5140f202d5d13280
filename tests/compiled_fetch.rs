//! The compiled bounded path: a covered query's plan is compiled once into a
//! `FetchProgram` at prepare time and cached with it.  These tests pin the
//! compiled path against the baseline engine on the key shapes compilation
//! rewrites (duplicate and coercion-equal IN-list constants, NULL context
//! keys, a relation occurring twice), pin per-step accounting on the TLC
//! workload (exact and unlimited approximate runs alike), and check that a
//! cached program stays valid across writes to tables outside its read set.

use beas::prelude::*;
use std::sync::Arc;

fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort_by(|a, b| {
        a.iter()
            .zip(b.iter())
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| o.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    rows
}

/// Run `sql` through BEAS (asserting it is covered) and through the
/// baseline engine; the answers must agree as sets.
fn bounded_matches_baseline(system: &BeasSystem, sql: &str) -> ExecutionOutcome {
    let outcome = system.execute_sql(sql).unwrap();
    assert!(outcome.bounded, "{sql} should run bounded");
    let mut baseline = sorted(Engine::default().run(system.database(), sql).unwrap().rows);
    baseline.dedup();
    assert_eq!(sorted(outcome.rows.clone()), baseline, "{sql}");
    outcome
}

/// `item(code INT, name VARCHAR, tag VARCHAR)` with `code -> name` and
/// `tag -> code, name`.
fn item_system() -> BeasSystem {
    let mut db = Database::new();
    db.create_table(
        TableSchema::new(
            "item",
            vec![
                beas::common::ColumnDef::new("code", DataType::Int),
                beas::common::ColumnDef::new("name", DataType::Str),
                beas::common::ColumnDef::new("tag", DataType::Str),
            ],
        )
        .unwrap(),
    )
    .unwrap();
    for (code, name, tag) in [
        (7, "seven", "a"),
        (7, "siete", "a"),
        (8, "eight", "b"),
        (9, "nine", "a"),
    ] {
        db.insert(
            "item",
            vec![Value::Int(code), Value::str(name), Value::str(tag)],
        )
        .unwrap();
    }
    let schema = AccessSchema::from_constraints(vec![
        AccessConstraint::new("item", &["code"], &["name"], 10).unwrap(),
        AccessConstraint::new("item", &["tag"], &["code", "name"], 10).unwrap(),
    ]);
    BeasSystem::with_schema(db, schema).unwrap()
}

#[test]
fn duplicate_and_coercion_equal_in_list_constants_fetch_each_key_once() {
    let system = item_system();
    // `7` and `7.0` are one key once cast to INT and canonicalized: the
    // bucket (2 names) is fetched once and every answer appears once
    let coerced = bounded_matches_baseline(&system, "select name from item where code in (7, 7.0)");
    assert_eq!(coerced.rows.len(), 2);
    assert_eq!(coerced.tuples_accessed, 2);
    // the context holds each joined row once (no per-step dedupe runs)
    assert_eq!(
        fetch_steps(&coerced.metrics),
        vec![("Fetch(item(code->name))".to_string(), 2, 2)]
    );
    let repeated =
        bounded_matches_baseline(&system, "select name from item where tag in ('a', 'a')");
    assert_eq!(repeated.rows.len(), 3);
    assert_eq!(repeated.tuples_accessed, 3);
    assert_eq!(fetch_steps(&repeated.metrics)[0].1, 3);
    let mixed = bounded_matches_baseline(
        &system,
        "select name from item where code in (9, 7.0, 8, 7, 9)",
    );
    assert_eq!(mixed.tuples_accessed, 4);
}

#[test]
fn null_context_keys_join_nothing_on_the_compiled_path() {
    let mut db = Database::new();
    db.create_table(
        TableSchema::new(
            "a",
            vec![
                beas::common::ColumnDef::new("g", DataType::Str),
                beas::common::ColumnDef::nullable("r", DataType::Str),
            ],
        )
        .unwrap(),
    )
    .unwrap();
    db.create_table(
        TableSchema::new(
            "b",
            vec![
                beas::common::ColumnDef::nullable("r", DataType::Str),
                beas::common::ColumnDef::new("v", DataType::Str),
            ],
        )
        .unwrap(),
    )
    .unwrap();
    for (g, r) in [
        ("g1", Value::str("r1")),
        ("g1", Value::Null),
        ("g2", Value::str("r2")),
    ] {
        db.insert("a", vec![Value::str(g), r]).unwrap();
    }
    for (r, v) in [
        (Value::str("r1"), "v1"),
        (Value::Null, "vnull"),
        (Value::str("r2"), "v2"),
    ] {
        db.insert("b", vec![r, Value::str(v)]).unwrap();
    }
    let schema = AccessSchema::from_constraints(vec![
        AccessConstraint::new("a", &["g"], &["r"], 10).unwrap(),
        AccessConstraint::new("b", &["r"], &["v"], 10).unwrap(),
    ]);
    let system = BeasSystem::with_schema(db, schema).unwrap();
    let outcome = bounded_matches_baseline(
        &system,
        "select distinct b.v from a, b where a.g = 'g1' and a.r = b.r",
    );
    assert_eq!(outcome.rows, vec![vec![Value::str("v1")]]);
    // the NULL key is never looked up: 2 tuples of `a`, 1 of `b`
    assert_eq!(outcome.tuples_accessed, 3);
}

#[test]
fn a_relation_occurring_twice_matches_the_baseline() {
    let mut db = Database::new();
    db.create_table(
        TableSchema::new(
            "edge",
            vec![
                beas::common::ColumnDef::new("src", DataType::Str),
                beas::common::ColumnDef::new("dst", DataType::Str),
            ],
        )
        .unwrap(),
    )
    .unwrap();
    for (s, d) in [
        ("a", "b"),
        ("a", "c"),
        ("b", "c"),
        ("b", "d"),
        ("c", "d"),
        ("d", "a"),
    ] {
        db.insert("edge", vec![Value::str(s), Value::str(d)])
            .unwrap();
    }
    let schema =
        AccessSchema::from_constraints(vec![
            AccessConstraint::new("edge", &["src"], &["dst"], 10).unwrap()
        ]);
    let system = BeasSystem::with_schema(db, schema).unwrap();
    // two hops from `a`: b -> {c, d}, c -> {d}
    let two_hops = bounded_matches_baseline(
        &system,
        "select distinct e2.dst from edge e1, edge e2 where e1.src = 'a' and e1.dst = e2.src",
    );
    assert_eq!(
        sorted(two_hops.rows),
        vec![vec![Value::str("c")], vec![Value::str("d")]]
    );
    // the pair of hops, and a three-way chain back to the start
    bounded_matches_baseline(
        &system,
        "select e1.dst, e2.dst from edge e1, edge e2 where e1.src = 'a' and e1.dst = e2.src",
    );
    bounded_matches_baseline(
        &system,
        "select distinct e3.dst from edge e1, edge e2, edge e3 \
         where e1.src = 'b' and e1.dst = e2.src and e2.dst = e3.src",
    );
}

/// `(operator, rows_out, tuples_accessed)` of one fetch step.
type Step = (&'static str, u64, u64);

/// `(operator, rows_out, tuples_accessed)` of every fetch step.
fn fetch_steps(metrics: &ExecutionMetrics) -> Vec<(String, u64, u64)> {
    metrics
        .operators
        .iter()
        .filter(|op| op.operator.starts_with("Fetch("))
        .map(|op| (op.operator.clone(), op.rows_out, op.tuples_accessed))
        .collect()
}

/// Per-step rows and tuple counts of Q1–Q10 on TLC scale 4 with the default
/// seed.  Deterministic: they depend on the data, the plan and the fetch
/// semantics, never on the machine.  Q4 and Q10 fetch `customer` once.
#[test]
fn tlc_fetch_steps_are_pinned() {
    let db = beas::tlc::generate(&beas::tlc::TlcConfig::at_scale(4)).unwrap();
    let system = BeasSystem::with_schema(db, beas::tlc::tlc_access_schema()).unwrap();
    let pinned: &[(&str, &[Step])] = &[
        (
            "Q1",
            &[
                ("Fetch(business(type,region->pnum,name,vip_level))", 3, 3),
                (
                    "Fetch(package(pnum,year->pid,start_month,end_month,monthly_fee))",
                    3,
                    6,
                ),
                (
                    "Fetch(call(pnum,date->recnum,region,duration,cell_id))",
                    3,
                    3,
                ),
            ],
        ),
        (
            "Q2",
            &[(
                "Fetch(call(pnum,date->recnum,region,duration,cell_id))",
                1,
                1,
            )],
        ),
        (
            "Q3",
            &[
                ("Fetch(business(type,region->pnum,name,vip_level))", 3, 3),
                (
                    "Fetch(customer(pnum->name,region,city,segment,credit_score,join_date))",
                    3,
                    3,
                ),
                (
                    "Fetch(device(pnum->brand,model,os,five_g,purchase_year))",
                    6,
                    6,
                ),
            ],
        ),
        (
            "Q4",
            &[
                (
                    "Fetch(customer(region,segment->pnum,city,credit_score))",
                    40,
                    40,
                ),
                (
                    "Fetch(billing(pnum,year->month,total_due,paid,payment_method))",
                    28,
                    240,
                ),
            ],
        ),
        (
            "Q5",
            &[
                ("Fetch(business(type,region->pnum,name,vip_level))", 2, 2),
                (
                    "Fetch(sms(pnum,date->recnum,length,sms_type,delivered))",
                    2,
                    2,
                ),
            ],
        ),
        (
            "Q6",
            &[
                ("Fetch(business(type,region->pnum,name,vip_level))", 3, 3),
                (
                    "Fetch(data_usage(pnum,date->mb_down,mb_up,sessions,app_category,cell_id))",
                    3,
                    3,
                ),
            ],
        ),
        (
            "Q7",
            &[
                (
                    "Fetch(cell_tower(cell_id->region,city,technology,capacity))",
                    1,
                    1,
                ),
                (
                    "Fetch(region_info(region->province,population,gdp_band,tower_count))",
                    1,
                    1,
                ),
                (
                    "Fetch(call(cell_id,date->pnum,recnum,duration,region))",
                    12,
                    12,
                ),
            ],
        ),
        (
            "Q8",
            &[
                ("Fetch(business(type,region->pnum,name,vip_level))", 3, 3),
                (
                    "Fetch(complaint(pnum,date->category,severity,resolved,channel))",
                    0,
                    0,
                ),
            ],
        ),
        (
            "Q9",
            &[
                ("Fetch(business(type,region->pnum,name,vip_level))", 3, 3),
                (
                    "Fetch(package(pnum,year->pid,start_month,end_month,monthly_fee))",
                    6,
                    6,
                ),
                (
                    "Fetch(plan_catalog(pid->plan_name,monthly_fee,data_gb,voice_minutes,tier))",
                    6,
                    4,
                ),
            ],
        ),
        (
            "Q10",
            &[
                (
                    "Fetch(customer(region,segment->pnum,city,credit_score))",
                    40,
                    40,
                ),
                (
                    "Fetch(device(pnum->brand,model,os,five_g,purchase_year))",
                    17,
                    52,
                ),
            ],
        ),
    ];
    let covered: Vec<_> = beas::tlc::all_queries()
        .into_iter()
        .filter(|q| q.expect_covered)
        .collect();
    assert_eq!(covered.len(), pinned.len());
    for (q, (id, steps)) in covered.iter().zip(pinned) {
        assert_eq!(q.id, *id);
        let outcome = bounded_matches_baseline(&system, &q.sql);
        let expected: Vec<(String, u64, u64)> = steps
            .iter()
            .map(|(op, rows, tuples)| (op.to_string(), *rows, *tuples))
            .collect();
        assert_eq!(fetch_steps(&outcome.metrics), expected, "{id}");
        let total: u64 = steps.iter().map(|s| s.2).sum();
        assert_eq!(outcome.tuples_accessed, total, "{id}");
        // an unlimited approximation is the exact run: same steps, same
        // rows in the same order, same accounting
        let approx = system.approximate(&q.sql, u64::MAX).unwrap();
        assert_eq!(fetch_steps(&approx.metrics), expected, "{id} approximate");
        assert_eq!(approx.rows, outcome.rows, "{id} approximate");
        assert_eq!(approx.tuples_accessed, total, "{id} approximate");
        assert_eq!(approx.coverage, 1.0, "{id} approximate");
    }
}

/// A prepared query cached before a write to a table outside its read set
/// stays live: it is served as a cache hit and its compiled program runs on
/// the new snapshot with the same answer as a fresh prepare.
#[test]
fn cached_program_survives_an_unrelated_write() {
    let db = beas::tlc::generate(&beas::tlc::TlcConfig::at_scale(1)).unwrap();
    let mut system = BeasSystem::with_schema(db, beas::tlc::tlc_access_schema()).unwrap();
    let q1 = beas::tlc::all_queries().remove(0).sql;
    let before = system.prepare(&q1).unwrap();
    let answer_before = system.execute_prepared(&before, None).unwrap();

    // Q1 reads call, package and business; write to device
    let sample: Vec<Row> = system
        .database()
        .table("device")
        .unwrap()
        .rows_iter()
        .take(3)
        .cloned()
        .collect();
    system
        .delete_rows("device", |r| sample.contains(r))
        .unwrap();
    system.insert_rows("device", sample).unwrap();

    let cached = system.prepare(&q1).unwrap();
    assert!(
        Arc::ptr_eq(&before, &cached),
        "unrelated write must keep the entry live"
    );
    let from_cache = system.execute_prepared(&cached, None).unwrap();
    system.clear_plan_cache();
    let fresh = system.prepare(&q1).unwrap();
    assert!(!Arc::ptr_eq(&before, &fresh));
    let from_fresh = system.execute_prepared(&fresh, None).unwrap();
    assert!(from_cache.bounded && from_fresh.bounded);
    assert_eq!(from_cache.rows, from_fresh.rows);
    assert_eq!(from_cache.rows, answer_before.rows);
    assert_eq!(from_cache.tuples_accessed, from_fresh.tuples_accessed);
    assert_eq!(
        fetch_steps(&from_cache.metrics),
        fetch_steps(&from_fresh.metrics)
    );
}

/// `customer(pnum, name, region, segment)` and `business(pnum, name, type,
/// region)`: of the three `x`/`east` businesses only p1 belongs to an
/// `east`/`vip` customer.
fn customer_business_system(constraints: Vec<AccessConstraint>) -> BeasSystem {
    let mut db = Database::new();
    let str_table = |name: &str, cols: &[&str]| {
        TableSchema::new(
            name,
            cols.iter()
                .map(|c| beas::common::ColumnDef::new(*c, DataType::Str))
                .collect(),
        )
        .unwrap()
    };
    db.create_table(str_table(
        "customer",
        &["pnum", "name", "region", "segment"],
    ))
    .unwrap();
    db.create_table(str_table("business", &["pnum", "name", "type", "region"]))
        .unwrap();
    let strs = |vs: &[&str]| vs.iter().map(|v| Value::str(*v)).collect::<Row>();
    for c in [
        ["p1", "ann", "east", "vip"],
        ["p2", "bob", "west", "vip"],
        ["p4", "dee", "east", "vip"],
    ] {
        db.insert("customer", strs(&c)).unwrap();
    }
    for b in [
        ["p1", "one", "x", "east"],
        ["p2", "two", "x", "east"],
        ["p3", "three", "x", "east"],
    ] {
        db.insert("business", strs(&b)).unwrap();
    }
    BeasSystem::with_schema(db, AccessSchema::from_constraints(constraints)).unwrap()
}

#[test]
fn a_second_fetch_that_enforces_a_join_is_not_pruned() {
    // customer is fetched twice: by (region, segment) and by pnum.  The
    // plan runs business first and keys the pnum fetch by b.pnum — the only
    // check of c.pnum = b.pnum — so it stays although it adds no customer
    // attribute the query reads.
    let system = customer_business_system(vec![
        AccessConstraint::new("customer", &["region", "segment"], &["pnum"], 50).unwrap(),
        AccessConstraint::new("customer", &["pnum"], &["name", "region", "segment"], 1).unwrap(),
        AccessConstraint::new("business", &["type", "region"], &["pnum", "name"], 20).unwrap(),
    ]);
    let outcome = bounded_matches_baseline(
        &system,
        "select b.name from customer c, business b \
         where c.region = 'east' and c.segment = 'vip' \
         and b.type = 'x' and b.region = 'east' and c.pnum = b.pnum",
    );
    assert_eq!(outcome.rows, vec![vec![Value::str("one")]]);
}
