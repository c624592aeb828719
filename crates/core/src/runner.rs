//! Experiment configuration.
//!
//! [`RunConfig`] describes one experiment; [`RunConfig::validate`]
//! rejects bad parameter combinations with a typed [`ConfigError`]
//! instead of a mid-run panic, and [`RunConfig::machine_config`]
//! derives the machine it runs on. [`crate::Experiment`] runs it; its
//! module documents what each run driver does and in which order.

use supermem_sim::{Config, CounterPlacement, Mutation};
use supermem_workloads::{WorkloadKind, WorkloadSpec};

use crate::experiment::ConfigError;
use crate::scheme::Scheme;

/// Parameters of one experiment run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunConfig {
    /// Scheme under test.
    pub scheme: Scheme,
    /// Workload kind.
    pub kind: WorkloadKind,
    /// Transactions per program.
    pub txns: u64,
    /// Transaction request size in bytes.
    pub req_bytes: u64,
    /// Write-queue entries (Figure 16 sweeps this).
    pub write_queue_entries: usize,
    /// Counter-cache bytes (Figure 17 sweeps this).
    pub counter_cache_bytes: u64,
    /// Interleaved memory channels (power of two; the paper's single
    /// controller is `1`).
    pub channels: usize,
    /// Concurrent programs for multi-core runs.
    pub programs: usize,
    /// Master seed.
    pub seed: u64,
    /// Array workload footprint in bytes.
    pub array_footprint: u64,
    /// Hash workload bucket count (power of two).
    pub hash_buckets: u64,
    /// YCSB workload read percentage (0..=100).
    pub ycsb_read_pct: u8,
    /// Start-Gap wear leveling interval (None = off).
    pub wear_psi: Option<u64>,
    /// Bonsai-Merkle-Tree authentication of the counter region.
    pub integrity_tree: bool,
    /// Streaming-tree persistence frontier: tree levels strictly below
    /// this persist through the write queue; levels at or above it are
    /// volatile and rebuilt at recovery. `None` (or the tree height)
    /// keeps the fully-lazy eager tree. Only meaningful with
    /// `integrity_tree` on.
    pub persisted_levels: Option<u32>,
    /// Ablation override: counter-line placement (None = scheme default).
    pub placement_override: Option<CounterPlacement>,
    /// Ablation override: CWC on/off (None = scheme default).
    pub cwc_override: Option<bool>,
    /// Fault injection for the persistency-ordering checker (None = none).
    pub mutation: Option<Mutation>,
    /// Host worker threads advancing channels within this run (an
    /// execution knob, not a machine parameter: results are identical
    /// at every setting). Defaults to `SUPERMEM_RUN_THREADS` or 1; only
    /// multi-channel configs have sibling work to parallelize.
    pub run_threads: usize,
}

/// The intra-run worker-thread count requested via the
/// `SUPERMEM_RUN_THREADS` environment variable, or 1 (sequential) when
/// unset or unparsable. [`RunConfig::default`] starts from this, and the
/// sweep engine divides its own worker budget by it so that
/// `run_threads × sweep workers` never oversubscribes the host.
pub fn env_run_threads() -> usize {
    std::env::var("SUPERMEM_RUN_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1)
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            scheme: Scheme::SuperMem,
            kind: WorkloadKind::Array,
            txns: 200,
            req_bytes: 1024,
            write_queue_entries: 32,
            counter_cache_bytes: 256 * 1024,
            channels: 1,
            programs: 1,
            seed: 1,
            array_footprint: 8 << 20,
            hash_buckets: 4096,
            ycsb_read_pct: 50,
            wear_psi: None,
            integrity_tree: false,
            persisted_levels: None,
            placement_override: None,
            cwc_override: None,
            mutation: None,
            run_threads: env_run_threads(),
        }
    }
}

impl RunConfig {
    /// A default run of `scheme` on `kind`.
    pub fn new(scheme: Scheme, kind: WorkloadKind) -> Self {
        Self {
            scheme,
            kind,
            ..Self::default()
        }
    }

    /// Sets the transaction count per program.
    pub fn with_txns(mut self, txns: u64) -> Self {
        self.txns = txns;
        self
    }

    /// Sets the transaction request size in bytes.
    pub fn with_req_bytes(mut self, req_bytes: u64) -> Self {
        self.req_bytes = req_bytes;
        self
    }

    /// Sets the write-queue capacity (Figure 16 sweeps this).
    pub fn with_write_queue_entries(mut self, entries: usize) -> Self {
        self.write_queue_entries = entries;
        self
    }

    /// Sets the counter-cache size in bytes (Figure 17 sweeps this).
    pub fn with_counter_cache_bytes(mut self, bytes: u64) -> Self {
        self.counter_cache_bytes = bytes;
        self
    }

    /// Sets the interleaved memory channel count (power of two).
    pub fn with_channels(mut self, channels: usize) -> Self {
        self.channels = channels;
        self
    }

    /// Sets the intra-run worker-thread count (values below 1 mean the
    /// sequential path). Results are identical at every setting.
    pub fn with_run_threads(mut self, run_threads: usize) -> Self {
        self.run_threads = run_threads.max(1);
        self
    }

    /// Sets the concurrent program count for multi-core runs.
    pub fn with_programs(mut self, programs: usize) -> Self {
        self.programs = programs;
        self
    }

    /// Sets the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the array workload footprint in bytes.
    pub fn with_array_footprint(mut self, bytes: u64) -> Self {
        self.array_footprint = bytes;
        self
    }

    /// Sets the hash workload bucket count (must be a power of two).
    pub fn with_hash_buckets(mut self, buckets: u64) -> Self {
        self.hash_buckets = buckets;
        self
    }

    /// Sets the YCSB workload read percentage (0..=100).
    pub fn with_ycsb_read_pct(mut self, pct: u8) -> Self {
        self.ycsb_read_pct = pct;
        self
    }

    /// Enables Start-Gap wear leveling with interval `psi`.
    pub fn with_wear_psi(mut self, psi: Option<u64>) -> Self {
        self.wear_psi = psi;
        self
    }

    /// Enables Bonsai-Merkle-Tree authentication of the counter region.
    pub fn with_integrity_tree(mut self, on: bool) -> Self {
        self.integrity_tree = on;
        self
    }

    /// Sets the streaming-tree persistence frontier (None = eager tree).
    pub fn with_persisted_levels(mut self, levels: Option<u32>) -> Self {
        self.persisted_levels = levels;
        self
    }

    /// Overrides the counter-line placement (None = scheme default).
    pub fn with_placement_override(mut self, placement: Option<CounterPlacement>) -> Self {
        self.placement_override = placement;
        self
    }

    /// Overrides CWC on/off (None = scheme default).
    pub fn with_cwc_override(mut self, cwc: Option<bool>) -> Self {
        self.cwc_override = cwc;
        self
    }

    /// Injects a known-bad behavior into the memory controller for the
    /// persistency-ordering checker's mutant harness (None = none).
    pub fn with_mutation(mut self, mutation: Option<Mutation>) -> Self {
        self.mutation = mutation;
        self
    }

    /// Checks this configuration without running it: program/core
    /// bounds, power-of-two bucket counts, and the derived machine
    /// configuration.
    ///
    /// # Examples
    ///
    /// ```
    /// use supermem::{RunConfig, Scheme};
    /// use supermem::workloads::WorkloadKind;
    ///
    /// let rc = RunConfig::new(Scheme::SuperMem, WorkloadKind::Array);
    /// assert!(rc.validate().is_ok());
    /// assert!(rc.with_programs(99).validate().is_err());
    /// ```
    pub fn validate(&self) -> Result<(), ConfigError> {
        let cfg = self.machine_config();
        if self.programs < 1 || self.programs > cfg.cores {
            return Err(ConfigError::Programs {
                programs: self.programs,
                cores: cfg.cores,
            });
        }
        if !self.hash_buckets.is_power_of_two() {
            return Err(ConfigError::HashBuckets(self.hash_buckets));
        }
        if self.ycsb_read_pct > 100 {
            return Err(ConfigError::ReadPct(self.ycsb_read_pct));
        }
        // The remaining workload parameters (request-size floors, ...)
        // are owned by the spec's own typed validation.
        self.spec_for(0).validate().map_err(ConfigError::Spec)?;
        cfg.validate().map_err(ConfigError::Machine)
    }

    /// The machine [`Config`] this run derives — scheme knobs, sweep
    /// parameters, and overrides applied. This is exactly the
    /// configuration [`crate::System`] is built with.
    pub fn machine_config(&self) -> Config {
        let mut cfg = self.scheme.apply(Config::default());
        cfg.write_queue_entries = self.write_queue_entries;
        cfg.counter_cache_bytes = self.counter_cache_bytes;
        cfg.channels = self.channels;
        cfg.seed = self.seed;
        if let Some(p) = self.placement_override {
            cfg.counter_placement = p;
        }
        if let Some(c) = self.cwc_override {
            cfg.cwc = c;
        }
        cfg.wear_psi = self.wear_psi;
        cfg.integrity_tree = self.integrity_tree;
        cfg.persisted_levels = self.persisted_levels;
        cfg.mutation = self.mutation;
        cfg.run_threads = self.run_threads.max(1);
        cfg
    }

    pub(crate) fn spec_for(&self, program: usize) -> WorkloadSpec {
        // Each program gets a private 256 MiB slice of the 8 GB space.
        let region = 1u64 << 28;
        WorkloadSpec::new(self.kind)
            .with_txns(self.txns)
            .with_req_bytes(self.req_bytes)
            .with_seed(self.seed.wrapping_add(program as u64 * 0x9E37))
            .with_region(program as u64 * region, region)
            .with_array_footprint(self.array_footprint)
            .with_hash_buckets(self.hash_buckets)
            .with_ycsb_read_pct(self.ycsb_read_pct)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Experiment;
    use supermem_workloads::spec::ALL_KINDS;

    fn quick(scheme: Scheme, kind: WorkloadKind) -> RunConfig {
        let mut rc = RunConfig::new(scheme, kind);
        rc.txns = 40;
        rc.req_bytes = 256;
        rc.array_footprint = 256 << 10;
        rc
    }

    #[test]
    fn single_core_all_schemes_on_array() {
        for scheme in crate::scheme::FIGURE_SCHEMES {
            let r = Experiment::new(quick(scheme, WorkloadKind::Array))
                .unwrap()
                .run_single();
            assert_eq!(r.stats.txn_commits, 40, "{scheme}");
            assert!(r.mean_txn_latency() > 0.0);
        }
    }

    #[test]
    fn single_core_all_workloads_on_supermem() {
        for kind in ALL_KINDS {
            let r = Experiment::new(quick(Scheme::SuperMem, kind))
                .unwrap()
                .run_single();
            assert_eq!(r.stats.txn_commits, 40, "{kind}");
        }
    }

    #[test]
    fn wt_costs_more_than_unsec_and_supermem_recovers_most() {
        let unsec = Experiment::new(quick(Scheme::Unsec, WorkloadKind::Queue))
            .unwrap()
            .run_single();
        let wt = Experiment::new(quick(Scheme::WriteThrough, WorkloadKind::Queue))
            .unwrap()
            .run_single();
        let sm = Experiment::new(quick(Scheme::SuperMem, WorkloadKind::Queue))
            .unwrap()
            .run_single();
        let u = unsec.mean_txn_latency();
        let w = wt.mean_txn_latency();
        let s = sm.mean_txn_latency();
        assert!(
            w > u * 1.2,
            "WT ({w:.0}) must clearly exceed Unsec ({u:.0})"
        );
        assert!(s < w, "SuperMem ({s:.0}) must beat WT ({w:.0})");
    }

    #[test]
    fn wt_doubles_writes_supermem_reduces_them() {
        let unsec = Experiment::new(quick(Scheme::Unsec, WorkloadKind::Queue))
            .unwrap()
            .run_single();
        let wt = Experiment::new(quick(Scheme::WriteThrough, WorkloadKind::Queue))
            .unwrap()
            .run_single();
        let sm = Experiment::new(quick(Scheme::SuperMem, WorkloadKind::Queue))
            .unwrap()
            .run_single();
        let base = unsec.nvm_writes() as f64;
        assert!(
            (wt.nvm_writes() as f64 / base - 2.0).abs() < 0.15,
            "WT ~2x writes"
        );
        assert!(
            (sm.nvm_writes() as f64) < wt.nvm_writes() as f64 * 0.9,
            "CWC must remove counter writes"
        );
    }

    #[test]
    fn multicore_runs_and_interleaves() {
        let mut rc = quick(Scheme::SuperMem, WorkloadKind::Queue);
        rc.programs = 4;
        rc.txns = 15;
        let r = Experiment::new(rc.clone()).unwrap().run_multicore();
        assert_eq!(r.stats.txn_commits, 60);
        assert_eq!(r.programs, 4);
    }

    #[test]
    fn multicore_contention_slows_transactions() {
        let mut one = quick(Scheme::WriteThrough, WorkloadKind::Queue);
        one.txns = 25;
        let mut eight = one.clone();
        eight.programs = 8;
        let r1 = Experiment::new(one.clone()).unwrap().run_multicore();
        let r8 = Experiment::new(eight.clone()).unwrap().run_multicore();
        assert!(
            r8.mean_txn_latency() > r1.mean_txn_latency(),
            "8 programs sharing banks must see longer transactions"
        );
    }

    #[test]
    fn multicore_trace_interleaves_at_event_granularity() {
        let mut rc = quick(Scheme::SuperMem, WorkloadKind::Queue);
        rc.txns = 15;
        rc.programs = 4;
        let r = Experiment::new(rc.clone()).unwrap().run_multicore_trace();
        assert_eq!(r.stats.txn_commits, 60);
        // Contention must be visible relative to a single program.
        let mut one = rc.clone();
        one.programs = 1;
        let r1 = Experiment::new(one.clone()).unwrap().run_multicore_trace();
        assert!(r.mean_txn_latency() > r1.mean_txn_latency());
    }

    #[test]
    fn trace_replay_matches_live_run_shape() {
        // Record once, replay per scheme: the trace-driven latencies must
        // preserve the live ordering Unsec < SuperMem < WT.
        let rc = quick(Scheme::SuperMem, WorkloadKind::Queue);
        let trace = Experiment::new(rc.clone()).unwrap().record_trace();
        assert!(trace.iter().filter(|e| e.is_marker()).count() as u64 == 2 * rc.txns);
        let lat = |scheme: Scheme| {
            let mut rc = rc.clone();
            rc.scheme = scheme;
            Experiment::new(rc.clone())
                .unwrap()
                .replay(&trace)
                .mean_txn_latency()
        };
        let unsec = lat(Scheme::Unsec);
        let wt = lat(Scheme::WriteThrough);
        let sm = lat(Scheme::SuperMem);
        assert!(wt > unsec * 1.2, "WT {wt:.0} vs Unsec {unsec:.0}");
        assert!(sm < wt, "SuperMem {sm:.0} vs WT {wt:.0}");
    }

    #[test]
    fn trace_replay_reproduces_contents() {
        use crate::system::System;
        use supermem_persist::{PMem, RecoveredMemory, VecMem};
        let rc = quick(Scheme::SuperMem, WorkloadKind::HashTable);
        let trace = Experiment::new(rc.clone()).unwrap().record_trace();
        // Functional reference of the final bytes.
        let mut reference = VecMem::new();
        supermem_trace::replay(&trace, &mut reference);
        // Timed encrypted replay, then decrypt through a crash image.
        // Pre-zero the compared region: encrypted NVM merges partial-line
        // writes with garbage (uninitialized lines), VecMem with zeros.
        let mut sys = System::new(rc.machine_config());
        sys.write(0, &vec![0u8; 8192]);
        sys.checkpoint();
        {
            use supermem_trace::replay as rp;
            rp(&trace, &mut sys);
        }
        sys.checkpoint();
        let cfg = sys.config().clone();
        let mut rec = RecoveredMemory::from_image(&cfg, sys.crash_now());
        let mut a = vec![0u8; 4096];
        let mut b = vec![0u8; 4096];
        // Compare the log+bucket region head (written bytes only).
        reference.read(0, &mut a);
        rec.read(0, &mut b);
        assert_eq!(
            a, b,
            "replayed ciphertext must decrypt to the reference bytes"
        );
    }

    #[test]
    fn streaming_tree_run_commits_and_streams_node_writes() {
        let rc = quick(Scheme::SuperMem, WorkloadKind::Queue)
            .with_integrity_tree(true)
            .with_persisted_levels(Some(1));
        assert!(rc.validate().is_ok());
        let r = Experiment::new(rc.clone()).unwrap().run_single();
        assert_eq!(r.stats.txn_commits, 40);
        assert!(
            r.stats.nvm_tree_writes > 0,
            "persisted-frontier node writes must reach the media"
        );
        assert!(r.stats.tree_propagations > 0);
        // The knob reaches the machine config unchanged.
        assert_eq!(rc.machine_config().persisted_levels, Some(1));
    }

    #[test]
    #[should_panic(expected = "programs must be in")]
    fn rejects_too_many_programs() {
        let mut rc = quick(Scheme::Unsec, WorkloadKind::Array);
        rc.programs = 9;
        Experiment::new(rc)
            .unwrap_or_else(|e| panic!("{e}"))
            .run_multicore();
    }
}
