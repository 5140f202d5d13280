// Fixture: asking the OS for the core count outside
// beas_common::default_workers — once per call, in a hot path.
use std::thread::available_parallelism;

fn workers_per_step(cap: usize) -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(cap)
}

fn also_imported() -> usize {
    available_parallelism().map_or(1, |n| n.get())
}
