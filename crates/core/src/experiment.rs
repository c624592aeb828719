//! Experiment sessions: validated configuration, pluggable observers,
//! and the two run drivers.
//!
//! [`Experiment`] is the one way to run a workload. It validates a
//! [`RunConfig`] up front (returning [`ConfigError`] instead of panicking
//! mid-run), optionally attaches probe-layer collectors, and runs one of
//! two drivers:
//!
//! * **Closed loop** — [`Experiment::run`] (also named
//!   [`Experiment::run_multicore`]) for the configured `programs`, and
//!   [`Experiment::run_single`] for one. The driver
//!   1. builds and initializes one workload per program,
//!   2. checkpoints and resets statistics (figures measure the steady
//!      phase),
//!   3. runs every program's transactions, the core with the smallest
//!      clock next, recording per-transaction latency,
//!   4. drains everything so write counts are complete, and snapshots
//!      the statistics,
//!   5. **verifies each persistent structure against its shadow model**
//!      — so every data point in every figure doubles as an end-to-end
//!      correctness test of the encryption/persistence stack. The
//!      snapshot comes first, so verification traffic is never counted.
//! * **Trace** — [`Experiment::replay`] for one recorded trace (see
//!   [`Experiment::record_trace`]) and [`Experiment::run_multicore_trace`]
//!   for one trace per program. The driver replays the traces on a fresh
//!   machine, the core with the smallest clock executing its next memory
//!   operation, then drains. It verifies nothing: a trace carries no
//!   workload to check.
//!
//! # Examples
//!
//! ```
//! use supermem::{Experiment, RunConfig, Scheme};
//! use supermem::workloads::WorkloadKind;
//!
//! let rc = RunConfig::new(Scheme::SuperMem, WorkloadKind::Array)
//!     .with_txns(10)
//!     .with_req_bytes(256)
//!     .with_array_footprint(256 << 10);
//! let result = Experiment::new(rc).unwrap().observe().run();
//! let telemetry = result.telemetry.as_ref().unwrap();
//! assert_eq!(telemetry.txn_latency.count(), result.stats.txn_commits);
//! ```

use std::fmt;

use supermem_persist::{PMem, VecMem};
use supermem_sim::{Cycle, Observer, Telemetry};
use supermem_trace::{TraceEvent, TraceRecorder};
use supermem_workloads::SpecError;

use crate::metrics::RunResult;
use crate::runner::RunConfig;
use crate::system::System;

/// Why a [`RunConfig`] was rejected by [`RunConfig::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// `programs` is zero or exceeds the configured core count.
    Programs {
        /// The requested program count.
        programs: usize,
        /// The machine's core count.
        cores: usize,
    },
    /// `hash_buckets` is not a power of two.
    HashBuckets(u64),
    /// `ycsb_read_pct` exceeds 100.
    ReadPct(u8),
    /// The derived machine [`supermem_sim::Config`] is invalid.
    Machine(supermem_sim::ConfigError),
    /// The derived [`supermem_workloads::WorkloadSpec`] is invalid.
    Spec(SpecError),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Programs { programs, cores } => {
                write!(f, "programs must be in 1..={cores}, got {programs}")
            }
            ConfigError::HashBuckets(n) => {
                write!(f, "hash_buckets must be a power of two, got {n}")
            }
            ConfigError::ReadPct(p) => {
                write!(f, "ycsb_read_pct must be in 0..=100, got {p}")
            }
            ConfigError::Machine(err) => write!(f, "invalid machine configuration: {err}"),
            ConfigError::Spec(err) => write!(f, "invalid workload spec: {err}"),
        }
    }
}

impl std::error::Error for ConfigError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ConfigError::Machine(err) => Some(err),
            ConfigError::Spec(err) => Some(err),
            _ => None,
        }
    }
}

impl From<SpecError> for ConfigError {
    fn from(err: SpecError) -> Self {
        ConfigError::Spec(err)
    }
}

/// One validated, instrumentable experiment session.
///
/// Construction validates the configuration; `observe`/`observe_with`
/// attach collectors; the `run*` methods execute. A session can run
/// multiple times (e.g. replaying one trace under several schemes by
/// rebuilding sessions) — each run attaches the session's observers for
/// the measured window only, so verification traffic is never counted.
#[derive(Debug)]
pub struct Experiment {
    rc: RunConfig,
    telemetry: bool,
    observers: Vec<Box<dyn Observer>>,
}

impl Experiment {
    /// Creates a session from `rc`, validating it first.
    pub fn new(rc: RunConfig) -> Result<Self, ConfigError> {
        rc.validate()?;
        Ok(Self {
            rc,
            telemetry: false,
            observers: Vec::new(),
        })
    }

    /// The session's configuration.
    pub fn config(&self) -> &RunConfig {
        &self.rc
    }

    /// Enables the standard [`Telemetry`] collector; the result's
    /// [`RunResult::telemetry`] field will be populated.
    pub fn observe(mut self) -> Self {
        self.telemetry = true;
        self
    }

    /// Attaches a custom observer for the next run; retrieve it
    /// afterwards with [`Experiment::take_observers`].
    pub fn observe_with(mut self, obs: Box<dyn Observer>) -> Self {
        self.observers.push(obs);
        self
    }

    /// Detaches and returns the custom observers collected back from the
    /// last run.
    pub fn take_observers(&mut self) -> Vec<Box<dyn Observer>> {
        std::mem::take(&mut self.observers)
    }

    /// Runs the experiment: `programs` copies of the workload on
    /// separate cores, interleaved in simulated-time order (the core with
    /// the smallest clock executes its next transaction).
    ///
    /// # Panics
    ///
    /// Panics if a transaction fails to commit or the final verification
    /// finds a divergence — either indicates a simulator bug, not a
    /// recoverable condition.
    pub fn run(&mut self) -> RunResult {
        self.run_programs(self.rc.programs)
    }

    /// Runs one workload on core 0, whatever the configured `programs`.
    ///
    /// # Panics
    ///
    /// As [`Experiment::run`].
    pub fn run_single(&mut self) -> RunResult {
        self.run_programs(1)
    }

    /// Another name for [`Experiment::run`], kept because the benchmark
    /// harness calls it.
    ///
    /// # Panics
    ///
    /// As [`Experiment::run`].
    pub fn run_multicore(&mut self) -> RunResult {
        self.run()
    }

    /// Attaches the session's observers to `sys` (start of the measured
    /// window).
    fn arm(&mut self, sys: &mut System) {
        if self.telemetry {
            sys.attach_observer(Box::new(Telemetry::default()));
        }
        for obs in self.observers.drain(..) {
            sys.attach_observer(obs);
        }
    }

    /// Detaches observers from `sys` (end of the measured window),
    /// extracting the standard telemetry and keeping custom observers
    /// for [`Experiment::take_observers`].
    fn collect(&mut self, sys: &mut System) -> Option<Telemetry> {
        let mut telemetry = None;
        for mut obs in sys.take_observers() {
            match obs.as_any_mut().downcast_mut::<Telemetry>() {
                Some(t) => telemetry = Some(std::mem::take(t)),
                None => self.observers.push(obs),
            }
        }
        telemetry
    }

    /// The closed-loop driver behind [`Experiment::run`],
    /// [`Experiment::run_single`] and [`Experiment::run_multicore`]:
    /// builds one workload per program, checkpoints and resets the
    /// statistics, runs every program's transactions in simulated-time
    /// order, drains, snapshots the statistics, then verifies each
    /// program against its shadow model.
    fn run_programs(&mut self, programs: usize) -> RunResult {
        let rc = self.rc.clone();
        let mut sys = System::new(rc.machine_config());
        let mut workloads = Vec::with_capacity(programs);
        for p in 0..programs {
            sys.set_active_core(p);
            workloads.push(
                rc.spec_for(p)
                    .build(&mut sys)
                    .expect("validated spec must build"),
            );
        }
        sys.set_active_core(0);
        sys.checkpoint();
        sys.reset_stats();
        self.arm(&mut sys);
        // The checkpoint set every core clock to the drain time.
        let measure_start = sys.max_now();

        // The core with the smallest clock executes its next transaction.
        let mut remaining: Vec<u64> = vec![rc.txns; programs];
        while let Some(core) = (0..programs)
            .filter(|&p| remaining[p] > 0)
            .min_by_key(|&p| sys.core_now(p))
        {
            sys.set_active_core(core);
            let start = sys.now();
            workloads[core]
                .step(&mut sys)
                .expect("transaction commit failed");
            let end = sys.now();
            sys.record_txn(start, end);
            remaining[core] -= 1;
        }
        sys.checkpoint(); // complete the write counts
        let result = self.result(&mut sys, measure_start, programs, "");
        // Verify *after* snapshotting: the full-structure scan would
        // otherwise swamp the measured phase's cache statistics.
        for (p, w) in workloads.iter_mut().enumerate() {
            sys.set_active_core(p);
            w.verify(&mut sys).expect("workload verification failed");
        }
        result
    }

    /// Closes the measured window on a drained `sys`: detaches the
    /// observers and snapshots statistics, cycles and wear for a run of
    /// `programs` programs. `suffix` marks a trace-driven run.
    fn result(
        &mut self,
        sys: &mut System,
        measure_start: Cycle,
        programs: usize,
        suffix: &str,
    ) -> RunResult {
        let stats = sys.stats().clone();
        let telemetry = self.collect(sys);
        RunResult {
            scheme: self.rc.scheme,
            workload: format!("{}{suffix}", self.rc.kind.name()),
            req_bytes: self.rc.req_bytes,
            programs,
            txns: self.rc.txns * programs as u64,
            stats,
            total_cycles: sys.max_now() - measure_start,
            wear: sys.controller().wear_report(),
            telemetry,
        }
    }

    /// Records the memory-operation trace of this session's workload
    /// against a functional memory (program 0, verification included) —
    /// the capture half of trace-driven simulation.
    ///
    /// # Panics
    ///
    /// Panics if a transaction fails to commit.
    pub fn record_trace(&self) -> Vec<TraceEvent> {
        record_program_trace(&self.rc, 0, true)
    }

    /// Replays a recorded trace through a timed system configured by this
    /// session (the replay half of trace-driven simulation): identical
    /// memory behavior, different machine. Per-transaction latencies come
    /// from the trace's markers.
    pub fn replay(&mut self, trace: &[TraceEvent]) -> RunResult {
        self.replay_programs(&[trace])
    }

    /// Multi-core run with *event-granularity* interleaving: per-program
    /// traces are recorded up front, then replayed concurrently — at
    /// every step the core with the smallest clock executes its next
    /// memory operation. This models bank/queue contention at the same
    /// granularity as a cycle-driven simulator, unlike
    /// [`Experiment::run`]'s transaction-granularity scheduling, at the
    /// cost of trace memory.
    ///
    /// # Panics
    ///
    /// Panics if trace recording fails.
    pub fn run_multicore_trace(&mut self) -> RunResult {
        // Record each program's trace against a private functional memory.
        let traces: Vec<Vec<TraceEvent>> = (0..self.rc.programs)
            .map(|p| record_program_trace(&self.rc, p, false))
            .collect();
        let traces: Vec<&[TraceEvent]> = traces.iter().map(Vec::as_slice).collect();
        self.replay_programs(&traces)
    }

    /// The trace driver behind [`Experiment::replay`] and
    /// [`Experiment::run_multicore_trace`]: replays trace `p` on core `p`
    /// of a fresh system (every clock starts at 0), the core with the
    /// smallest clock and events left going next, then drains. Nothing
    /// is verified: a trace carries no workload to check.
    fn replay_programs(&mut self, traces: &[&[TraceEvent]]) -> RunResult {
        let mut sys = System::new(self.rc.machine_config());
        self.arm(&mut sys);
        let mut cursors = vec![0usize; traces.len()];
        let mut txn_starts: Vec<Option<Cycle>> = vec![None; traces.len()];
        let mut scratch = Vec::new();
        while let Some(core) = (0..traces.len())
            .filter(|&p| cursors[p] < traces[p].len())
            .min_by_key(|&p| sys.core_now(p))
        {
            sys.set_active_core(core);
            let event = &traces[core][cursors[core]];
            cursors[core] += 1;
            match event {
                TraceEvent::Read { addr, len } => {
                    scratch.resize(*len as usize, 0);
                    sys.read(*addr, &mut scratch);
                }
                TraceEvent::Write { addr, bytes } => sys.write(*addr, bytes),
                TraceEvent::Clwb { addr, len } => sys.clwb(*addr, *len),
                TraceEvent::Sfence => sys.sfence(),
                TraceEvent::TxnBegin => txn_starts[core] = Some(sys.now()),
                TraceEvent::TxnEnd => {
                    if let Some(start) = txn_starts[core].take() {
                        let end = sys.now();
                        sys.record_txn(start, end);
                    }
                }
            }
        }
        sys.checkpoint();
        self.result(&mut sys, 0, traces.len(), "(trace)")
    }
}

/// Records one program's workload trace against a functional memory,
/// optionally appending the verification pass — the single recording
/// loop shared by [`Experiment::record_trace`] (verification included,
/// so replays exercise the read path) and
/// [`Experiment::run_multicore_trace`] (transactions only).
///
/// # Panics
///
/// Panics if a transaction fails to commit or verification diverges.
fn record_program_trace(rc: &RunConfig, program: usize, verify: bool) -> Vec<TraceEvent> {
    let mut mem = VecMem::new();
    let mut recorder = TraceRecorder::new(&mut mem);
    let mut w = rc
        .spec_for(program)
        .build(&mut recorder)
        .expect("validated spec must build");
    for _ in 0..rc.txns {
        recorder.txn_begin();
        w.step(&mut recorder).expect("transaction commit failed");
        recorder.txn_end();
    }
    if verify {
        w.verify(&mut recorder)
            .expect("workload verification failed");
    }
    recorder.into_trace()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::Scheme;
    use supermem_workloads::WorkloadKind;

    fn quick() -> RunConfig {
        RunConfig::new(Scheme::SuperMem, WorkloadKind::Array)
            .with_txns(20)
            .with_req_bytes(256)
            .with_array_footprint(256 << 10)
    }

    #[test]
    fn new_rejects_bad_programs() {
        let rc = quick().with_programs(99);
        let err = Experiment::new(rc).unwrap_err();
        assert!(matches!(err, ConfigError::Programs { programs: 99, .. }));
        assert!(err.to_string().contains("programs must be in"));
    }

    #[test]
    fn new_rejects_non_pow2_hash_buckets() {
        let rc = quick().with_hash_buckets(100);
        assert_eq!(
            Experiment::new(rc).unwrap_err(),
            ConfigError::HashBuckets(100)
        );
    }

    #[test]
    fn new_rejects_bad_read_pct() {
        let rc = quick().with_ycsb_read_pct(101);
        assert_eq!(Experiment::new(rc).unwrap_err(), ConfigError::ReadPct(101));
    }

    #[test]
    fn new_rejects_invalid_machine_config() {
        let rc = quick().with_write_queue_entries(1);
        assert!(matches!(
            Experiment::new(rc).unwrap_err(),
            ConfigError::Machine(_)
        ));
    }

    #[test]
    fn observed_run_populates_telemetry() {
        let mut exp = Experiment::new(quick()).unwrap().observe();
        let r = exp.run();
        let t = r.telemetry.expect("telemetry requested");
        assert_eq!(t.txn_latency.count(), r.stats.txn_commits);
        assert!(t.breakdown.flushes > 0);
    }

    #[test]
    fn unobserved_run_has_no_telemetry() {
        let r = Experiment::new(quick()).unwrap().run();
        assert!(r.telemetry.is_none());
    }

    #[test]
    fn run_dispatches_to_multicore() {
        let mut exp = Experiment::new(quick().with_programs(2).with_txns(5))
            .unwrap()
            .observe();
        let r = exp.run();
        assert_eq!(r.programs, 2);
        assert_eq!(r.stats.txn_commits, 10);
        assert_eq!(
            r.telemetry.unwrap().txn_latency.count(),
            r.stats.txn_commits
        );
    }

    #[test]
    fn replay_carries_telemetry() {
        let rc = quick();
        let trace = Experiment::new(rc.clone()).unwrap().record_trace();
        let mut exp = Experiment::new(rc).unwrap().observe();
        let r = exp.replay(&trace);
        assert_eq!(r.telemetry.unwrap().txn_latency.count(), 20);
    }
}
