// Fixture: worker counts come from the process-wide cached core count;
// naming `available_parallelism` in a comment or a string is fine.
fn workers_per_step(cap: usize) -> usize {
    beas_common::default_workers(cap)
}

fn describe() -> &'static str {
    "capped at available_parallelism"
}
