//! Benchmark of the SuperMem simulator, built from outside the program.
//!
//! The benchmark drives each workload's phases itself through the
//! crates' public API — `System::new`, `WorkloadSpec::build`,
//! `AnyWorkload::step`/`verify`, `System::checkpoint`,
//! `kv_crash_points`, `kv_run_case`, `supermem::sweep` — so set-up,
//! steady phase, drain and verify are timed apart. It reports two kinds
//! of numbers: host time (what the simulator costs to run) and exact
//! simulated counters (what the modelled machine would take).
//!
//! * [`workload`]: the three workloads and their phase-split runs.
//! * [`spans`]: the traced run's span log and timing `PMem` adapter.
//! * [`mod@bench`]: repetitions, output checks and the metric catalogue.

pub mod bench;
pub mod spans;
pub mod stats;
pub mod workload;

/// The seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;
/// A seed kept out of tuning, to check that results hold on fresh inputs.
pub const HELD_OUT_SEED: u64 = 7919;
