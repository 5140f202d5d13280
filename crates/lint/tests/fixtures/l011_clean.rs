// Fixture: the budgeted run delegates to the executor's fetch loop; plan
// fields and functions named after fetching are not index lookups.
fn execute_with_budget(program: &FetchProgram, indexes: &AccessIndexes, budget: u64) -> u64 {
    let mut cap = KeyCap::new(budget, program.fetches.steps.len());
    let result = execute_program(program, indexes, FetchConfig::default(), None, Some(&mut cap));
    result.tuples_accessed
}

fn fetch_bounds(plan: &BoundedPlan) -> Vec<u64> {
    plan.fetches.iter().map(|fetch| fetch.bound).collect()
}
