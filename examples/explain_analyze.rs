//! Explain-analyze walkthrough: the Fig. 3-style per-operator cost
//! breakdown for one *covered* TLC query (bounded fetch pipeline vs each
//! baseline profile's operator tree) and one *uncovered* query
//! (conventional on both sides), plus the per-submission admission trace a service session
//! records — trace id, plan-cache outcome, deduced bound vs budget, quota
//! spend and per-stage spans.
//!
//! ```bash
//! cargo run --release --example explain_analyze
//! ```

use beas::prelude::*;

fn main() -> Result<()> {
    // Spans in the admission trace carry real durations only under Timing.
    let previous = set_trace_level(TraceLevel::Timing);

    let db = beas::tlc::tiny_database(200);
    let system = BeasSystem::with_schema(db, beas::tlc::tlc_access_schema())?;

    // A covered query: Example 2 of the paper, boundedly evaluable.
    let (btype, region, pid, date) = beas::tlc::default_params();
    let covered = beas::tlc::example2_query(btype, region, pid, date);
    println!("== covered query ==\n");
    println!("{}", system.explain_analyze(&covered)?);

    // An uncovered aggregate: no constraint covers a full-table group-by,
    // so BEAS and the baselines all run conventional operator trees.
    let uncovered = "SELECT call.region, COUNT(*) AS n FROM call \
         WHERE call.duration > 10 \
         GROUP BY call.region ORDER BY call.region";
    println!("\n== uncovered query ==\n");
    println!("{}", system.explain_analyze(uncovered)?);

    // The same covered query through a service session: the submission
    // trace stamps admission -> plan cache -> execution with one trace id.
    let service = QueryService::new(BeasSystem::with_schema(
        beas::tlc::tiny_database(200),
        beas::tlc::tlc_access_schema(),
    )?);
    let session = service.session(ResourceQuota::unlimited().with_max_tuples(50_000_000));
    session.execute(&covered)?; // cold: plan-cache miss
    let outcome = session.execute(&covered)?; // warm: cache hit
    println!("\n== admission trace (warm submission) ==\n");
    println!("{}", outcome.trace);
    println!("{}", service.metrics());

    set_trace_level(previous);
    Ok(())
}
