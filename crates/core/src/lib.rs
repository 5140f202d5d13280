#![forbid(unsafe_code)]
//! # beas-core
//!
//! The BEAS system itself — the paper's primary contribution: bounded
//! evaluation of SQL queries under an access schema.
//!
//! The online pipeline mirrors Fig. 1 of the paper:
//!
//! * [`graph`] — normalizes a bound query into atoms, constants, equality
//!   edges and needed attributes;
//! * [`checker`] — the **BE Checker**: the PTIME coverage test of the
//!   Feasibility Theorem's effective syntax;
//! * [`planner`] / [`plan`] — the **BE Plan Generator**: bounded plans built
//!   from `fetch` operations, each annotated with a deduced bound;
//! * [`executor`] — the **BE Plan Executor**: runs a bounded plan,
//!   compiled once per prepared query — `fetch` against the constraint
//!   indices, then the answer-level finalization over bounded
//!   intermediates;
//! * [`partial`] — the **BE Plan Optimizer**: partially bounded plans for
//!   queries that are not covered;
//! * [`approx`] — resource-bounded approximation: a covered query's
//!   compiled program run under a per-step key cap so it fetches at most a
//!   tuple budget;
//! * [`analyzer`] — the Fig. 3 report: BEAS against every baseline profile,
//!   with the BEAS breakdown and each baseline's `EXPLAIN ANALYZE` tree;
//! * [`system`] — [`BeasSystem`], the facade tying it all together on top of
//!   the storage layer and the conventional engine.

pub mod analyzer;
pub mod approx;
pub mod checker;
pub mod executor;
pub mod graph;
pub mod partial;
pub mod plan;
pub mod planner;
pub mod system;

pub use analyzer::{BaselineAnalysis, QueryAnalysis, SystemMeasurement};
pub use approx::ApproximateExecution;
pub use checker::{Checker, CoverageResult, FetchStep};
pub use executor::{
    execute_bounded_with, execute_ctx_with, BoundedExecution, CtxResult, FetchConfig,
    PARALLEL_FETCH_MIN_KEYS,
};
pub use graph::{Atom, QueryGraph};
pub use partial::{
    execute_partially_bounded, PartialExecution, PartialOptions, ReductionSaving,
    DEFAULT_REDUCTION_MIN_SAVINGS,
};
pub use plan::{BoundedPlan, KeySource, PlannedFetch};
pub use planner::{generate_bounded_plan, generate_plan_for_steps};
pub use system::{BeasSystem, CheckReport, EvaluationMode, ExecutionOutcome, PreparedQuery};
