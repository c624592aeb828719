//! The three benchmark workloads and their phase-split runs.
//!
//! [`run_system`] makes the same calls, in the same order, as
//! `Experiment::run_single` / `Experiment::run_multicore`, and
//! [`run_kv`] the same as `kv_run_torture`; the only difference is that
//! set-up, steady phase, drain and verify are timed apart. The load is
//! closed-loop: each transaction or crash case starts when the previous
//! one has finished.

use supermem::persist::{DirectMem, RecoveredMemory, TxnError};
use supermem::sim::{Config, Cycle, Stats, Telemetry};
use supermem::workloads::{AnyWorkload, SpecError, WorkloadKind, WorkloadSpec};
use supermem::{RunConfig, Scheme, System};
use supermem_kv::torture::{
    kv_torture_layout, KV_TORTURE_KEYSPACE, KV_TORTURE_MAX_VAL, KV_TORTURE_SNAPSHOT_EVERY,
};
use supermem_kv::{
    op_stream, KvCaseResult, KvClassification, KvOp, KvStore, KvTortureCase, KvTortureConfig,
    RecoveryOptions,
};

use crate::spans::{Layer, SpanLog};
use crate::stats::{Digest, HostTime, Mark};

/// How the phase-split runs call into the layers: directly ([`Direct`]) or
/// through the span-recording adapter ([`SpanLog`]).
pub trait Probe {
    /// `WorkloadSpec::build` for program `op`.
    fn build(
        &mut self,
        sys: &mut System,
        spec: &WorkloadSpec,
        op: u64,
    ) -> Result<AnyWorkload, SpecError>;
    /// `AnyWorkload::step` for transaction `op`.
    fn step(&mut self, sys: &mut System, w: &mut AnyWorkload, op: u64) -> Result<(), TxnError>;
    /// `AnyWorkload::verify` for program `op`.
    fn verify(&mut self, sys: &mut System, w: &mut AnyWorkload, op: u64) -> Result<(), String>;
    /// `System::checkpoint`.
    fn checkpoint(&mut self, sys: &mut System);
    /// `kv_crash_points`.
    fn crash_points(&mut self, scheme: Scheme, channels: usize, seed: u64, ops: u64) -> u64;
    /// `kv_run_case` over every case on `workers` sweep threads, results
    /// in input order; a case's op id is its index.
    fn cases(&mut self, workers: usize, cases: &[KvTortureCase]) -> Vec<KvCaseResult>;
}

/// Untraced calls: the end-to-end runs use this.
#[derive(Debug, Default, Clone, Copy)]
pub struct Direct;

impl Probe for Direct {
    fn build(
        &mut self,
        sys: &mut System,
        spec: &WorkloadSpec,
        _op: u64,
    ) -> Result<AnyWorkload, SpecError> {
        spec.build(sys)
    }

    fn step(&mut self, sys: &mut System, w: &mut AnyWorkload, _op: u64) -> Result<(), TxnError> {
        w.step(sys)
    }

    fn verify(&mut self, sys: &mut System, w: &mut AnyWorkload, _op: u64) -> Result<(), String> {
        w.verify(sys)
    }

    fn checkpoint(&mut self, sys: &mut System) {
        sys.checkpoint();
    }

    fn crash_points(&mut self, scheme: Scheme, channels: usize, seed: u64, ops: u64) -> u64 {
        supermem_kv::kv_crash_points(scheme, channels, seed, ops)
    }

    fn cases(&mut self, workers: usize, cases: &[KvTortureCase]) -> Vec<KvCaseResult> {
        supermem::sweep::sweep_on(workers, cases, supermem_kv::kv_run_case)
    }
}

/// Host time of each phase of one repetition.
#[derive(Debug, Clone, Default)]
pub struct Phases {
    /// Machine construction to the start of the measured window.
    pub setup: HostTime,
    /// The measured window: transactions or crash cases.
    pub steady: HostTime,
    /// Final drain (`System::checkpoint`).
    pub drain: HostTime,
    /// Shadow verify, or the SILENT gate for crash torture.
    pub verify: HostTime,
    /// The whole repetition, including tear-down.
    pub total: HostTime,
}

/// The three benchmark workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Array swaps over the default 8 MiB footprint: set-up heavy, L3
    /// misses on the read path.
    Array8m,
    /// B-tree inserts from 4 cores on 2 channels with the streaming
    /// integrity tree (`persisted_levels = 1`): write and fence heavy.
    BtreeTree4p,
    /// The KV crash-torture campaign on `DirectMem`.
    KvCrash,
}

/// Every workload, in reporting order.
pub const WORKLOADS: [Workload; 3] = [Workload::Array8m, Workload::BtreeTree4p, Workload::KvCrash];

/// Transactions per repetition of array-8m (p99 needs ≥ 1000 samples).
pub(crate) const ARRAY_TXNS: u64 = 2000;
/// Transactions per program per repetition of btree-tree-4p.
pub(crate) const BTREE_TXNS_PER_PROGRAM: u64 = 2000;
/// KV torture seeds per repetition of kv-crash.
pub(crate) const KV_CASE_SEEDS: u64 = 8;
/// KV op streams profiled for kv-crash's simulated per-op metrics.
pub(crate) const KV_PROFILE_SEEDS: u64 = 256;

impl Workload {
    /// The name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Array8m => "array-8m",
            Workload::BtreeTree4p => "btree-tree-4p",
            Workload::KvCrash => "kv-crash",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Self> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// The run configuration of a `System` workload at `seed`
    /// (`None` for kv-crash).
    pub fn run_config(self, seed: u64) -> Option<RunConfig> {
        match self {
            Workload::Array8m => Some(array_8m(seed, ARRAY_TXNS)),
            Workload::BtreeTree4p => Some(btree_tree_4p(seed, BTREE_TXNS_PER_PROGRAM)),
            Workload::KvCrash => None,
        }
    }
}

/// array-8m: SuperMem, 8 MiB footprint, 1 KiB requests, one program,
/// one channel, no tree.
pub fn array_8m(seed: u64, txns: u64) -> RunConfig {
    RunConfig::new(Scheme::SuperMem, WorkloadKind::Array)
        .with_txns(txns)
        .with_req_bytes(1024)
        .with_array_footprint(8 << 20)
        .with_seed(seed)
        .with_run_threads(1)
}

/// btree-tree-4p: SuperMem, four programs on four cores, two channels,
/// integrity tree with the persistence frontier at level 1.
pub fn btree_tree_4p(seed: u64, txns_per_program: u64) -> RunConfig {
    RunConfig::new(Scheme::SuperMem, WorkloadKind::BTree)
        .with_txns(txns_per_program)
        .with_programs(4)
        .with_channels(2)
        .with_integrity_tree(true)
        .with_persisted_levels(Some(1))
        .with_seed(seed)
        .with_run_threads(1)
}

/// kv-crash: the default KV campaign (both `KV_TORTURE_SCHEMES`,
/// crash-only plus every fault class, every append point) over the
/// torture seeds derived from `seed`.
pub fn kv_crash(seed: u64, seeds: u64) -> KvTortureConfig {
    KvTortureConfig {
        seeds: kv_seeds(seed, seeds),
        ..KvTortureConfig::default()
    }
}

/// `n` KV torture seeds derived from the workload seed; disjoint for
/// distinct workload seeds below 2^32.
pub(crate) fn kv_seeds(seed: u64, n: u64) -> Vec<u64> {
    let base = seed.wrapping_mul(1 << 32);
    (1..=n).map(|i| base.wrapping_add(i)).collect()
}

/// The workload spec of program `program`, built exactly as
/// `RunConfig` builds it for `Experiment` (each program owns a private
/// 256 MiB slice of the address space).
pub(crate) fn spec_for(rc: &RunConfig, program: usize) -> WorkloadSpec {
    let region = 1u64 << 28;
    WorkloadSpec::new(rc.kind)
        .with_txns(rc.txns)
        .with_req_bytes(rc.req_bytes)
        .with_seed(rc.seed.wrapping_add(program as u64 * 0x9E37))
        .with_region(program as u64 * region, region)
        .with_array_footprint(rc.array_footprint)
        .with_hash_buckets(rc.hash_buckets)
        .with_ycsb_read_pct(rc.ycsb_read_pct)
}

/// One repetition of a `System` workload.
#[derive(Debug, Clone)]
pub struct SystemRun {
    /// Host time per phase.
    pub phases: Phases,
    /// Statistics of the measured window, drain included (what
    /// `Experiment` reports).
    pub stats: Stats,
    /// Simulated cycles of the measured window.
    pub total_cycles: Cycle,
    /// Simulated cycles of every transaction, in execution order, from
    /// the benchmark's own `System::now` deltas.
    pub txn_cycles: Vec<Cycle>,
    /// Telemetry of the measured window, when requested.
    pub telemetry: Option<Telemetry>,
    /// Failed transactions: those whose commit failed, and every
    /// transaction of a program whose shadow verify failed.
    pub failed_txns: u64,
    /// Commit errors and shadow-verify divergences, one line each.
    pub failures: Vec<String>,
}

impl SystemRun {
    /// Exact fingerprint of everything simulated.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::default();
        d.bytes(format!("{:?}", self.stats).as_bytes());
        d.u64(self.total_cycles);
        for &c in &self.txn_cycles {
            d.u64(c);
        }
        d.value()
    }
}

/// Runs `rc` once, phase by phase: build every program, checkpoint and
/// reset statistics (set-up); run every transaction, the core with the
/// smallest clock first (steady); checkpoint (drain); verify every
/// program against its shadow model (verify).
///
/// # Errors
///
/// Returns a message when a workload cannot be built.
pub fn run_system<P: Probe>(
    rc: &RunConfig,
    probe: &mut P,
    telemetry: bool,
) -> Result<SystemRun, String> {
    let single = rc.programs == 1;
    let t0 = Mark::now();
    let mut sys = System::new(rc.machine_config());
    let mut workloads = Vec::with_capacity(rc.programs);
    for p in 0..rc.programs {
        sys.set_active_core(p);
        let w = probe
            .build(&mut sys, &spec_for(rc, p), p as u64)
            .map_err(|e| format!("program {p} failed to build: {e}"))?;
        workloads.push(w);
    }
    sys.set_active_core(0);
    probe.checkpoint(&mut sys);
    sys.reset_stats();
    if telemetry {
        sys.attach_observer(Box::new(Telemetry::default()));
    }
    let clock = |sys: &System| if single { sys.now() } else { sys.max_now() };
    let measure_start = clock(&sys);
    let setup = t0.elapsed();

    let t1 = Mark::now();
    let units = rc.txns * rc.programs as u64;
    let mut failures = Vec::new();
    let mut failed = vec![0u64; rc.programs];
    let mut txn_cycles = Vec::with_capacity(units as usize);
    let mut remaining = vec![rc.txns; rc.programs];
    let mut op = 0u64;
    while let Some(core) = (0..rc.programs)
        .filter(|&p| remaining[p] > 0)
        .min_by_key(|&p| sys.core_now(p))
    {
        sys.set_active_core(core);
        let start = sys.now();
        match probe.step(&mut sys, &mut workloads[core], op) {
            Ok(()) => {
                let end = sys.now();
                sys.record_txn(start, end);
                txn_cycles.push(end - start);
            }
            Err(e) => {
                failed[core] += 1;
                failures.push(format!("core {core} transaction {op} failed: {e}"));
            }
        }
        remaining[core] -= 1;
        op += 1;
    }
    let steady = t1.elapsed();

    let t2 = Mark::now();
    probe.checkpoint(&mut sys);
    let total_cycles = clock(&sys) - measure_start;
    let drain = t2.elapsed();
    let stats = sys.stats().clone();
    let telemetry = sys.take_observers().into_iter().find_map(|mut obs| {
        obs.as_any_mut()
            .downcast_mut::<Telemetry>()
            .map(std::mem::take)
    });

    let t3 = Mark::now();
    for (p, w) in workloads.iter_mut().enumerate() {
        sys.set_active_core(p);
        if let Err(e) = probe.verify(&mut sys, w, p as u64) {
            failed[p] = rc.txns;
            failures.push(format!("program {p} shadow verify failed: {e}"));
        }
    }
    let verify = t3.elapsed();
    drop(workloads);
    drop(sys);
    let phases = Phases {
        setup,
        steady,
        drain,
        verify,
        total: t0.elapsed(),
    };
    Ok(SystemRun {
        phases,
        stats,
        total_cycles,
        txn_cycles,
        telemetry,
        failed_txns: failed.iter().sum(),
        failures,
    })
}

/// One repetition of the KV crash campaign.
#[derive(Debug, Clone)]
pub struct KvRun {
    /// Host time per phase (drain is zero: every case drains itself).
    pub phases: Phases,
    /// Every case's outcome, in enumeration order.
    pub results: Vec<KvCaseResult>,
    /// The SILENT cases, as reproducer lines.
    pub failures: Vec<String>,
}

impl KvRun {
    /// Cases with classification `c`.
    pub fn count(&self, c: KvClassification) -> u64 {
        self.results
            .iter()
            .filter(|r| r.classification == c)
            .count() as u64
    }

    /// Exact fingerprint of every case and its classification.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::default();
        for r in &self.results {
            d.bytes(r.case.repro().as_bytes());
            d.bytes(r.classification.name().as_bytes());
        }
        d.value()
    }
}

/// Runs the campaign `cfg` once: enumerate crash points per (channels,
/// scheme, seed) in `kv_run_torture`'s order (set-up), run every (class,
/// point) case on `workers` sweep threads (steady), and gate on zero
/// SILENT cases (verify). Every append point is a case; `cfg.point`,
/// which pins one, must be `None`.
pub fn run_kv<P: Probe>(cfg: &KvTortureConfig, workers: usize, probe: &mut P) -> KvRun {
    assert!(cfg.point.is_none(), "the benchmark runs every crash point");
    let t0 = Mark::now();
    let mut cases = Vec::new();
    for &channels in &cfg.channels {
        for &scheme in &cfg.schemes {
            for &seed in &cfg.seeds {
                let total = probe.crash_points(scheme, channels, seed, cfg.ops);
                for &class in &cfg.classes {
                    for point in 1..=total {
                        cases.push(KvTortureCase {
                            scheme,
                            class,
                            point,
                            seed,
                            channels,
                        });
                    }
                }
            }
        }
    }
    let setup = t0.elapsed();

    let t1 = Mark::now();
    let results = probe.cases(workers, &cases);
    let steady = t1.elapsed();

    let t2 = Mark::now();
    let failures = results
        .iter()
        .filter(|r| r.classification == KvClassification::Silent)
        .map(|r| format!("SILENT: {} ({})", r.case.repro(), r.detail))
        .collect();
    let verify = t2.elapsed();
    drop(cases);
    KvRun {
        phases: Phases {
            setup,
            steady,
            drain: HostTime::default(),
            verify,
            total: t0.elapsed(),
        },
        results,
        failures,
    }
}

/// Simulated cost of the KV op streams on `DirectMem`, per operation.
#[derive(Debug, Clone, Default)]
pub struct KvProfile {
    /// Simulated cycles of every op, stream after stream.
    pub op_cycles: Vec<Cycle>,
    /// Statistics of the op streams and their shutdown drains.
    pub stats: Stats,
    /// Flush cycles spent fetching counters.
    pub counter_fetch_cycles: u64,
    /// Flush cycles spent on AES pads.
    pub crypto_cycles: u64,
    /// Cycles sfences waited.
    pub sfence_stall_cycles: u64,
    /// Highest bank utilization seen in any stream.
    pub bank_util_max: f64,
}

impl KvProfile {
    /// Exact fingerprint of the profile.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::default();
        d.bytes(format!("{:?}", self.stats).as_bytes());
        for &c in &self.op_cycles {
            d.u64(c);
        }
        d.value()
    }
}

fn kv_machine(scheme: Scheme, channels: usize) -> Config {
    scheme.apply(Config::default()).with_channels(channels)
}

/// The formatted, cleanly shut-down store every torture case starts
/// from, as `kv_run_case` builds it.
fn kv_base(cfg: &Config) -> Result<(DirectMem, KvStore), String> {
    let mut mem = DirectMem::new(cfg);
    let store = KvStore::format(&mut mem, kv_torture_layout(), KV_TORTURE_SNAPSHOT_EVERY)
        .map_err(|e| format!("format torture store: {e}"))?;
    mem.shutdown();
    Ok((mem, store))
}

fn kv_apply(store: &mut KvStore, mem: &mut DirectMem, op: &KvOp) -> Result<(), String> {
    match op {
        KvOp::Put(k, v) => store.put(mem, k, v),
        KvOp::Del(k) => store.delete(mem, k),
    }
    .map_err(|e| format!("kv op failed: {e}"))
}

fn kv_stream(seed: u64, ops: u64) -> Vec<KvOp> {
    op_stream(seed, ops, KV_TORTURE_KEYSPACE, KV_TORTURE_MAX_VAL)
}

/// Runs every (scheme, seed) op stream of `cfg` from the torture base
/// state and measures each op's simulated cycles and the streams' NVM
/// traffic, drain included.
///
/// # Errors
///
/// Returns a message when a store operation fails.
pub fn kv_profile(cfg: &KvTortureConfig, seeds: &[u64]) -> Result<KvProfile, String> {
    let mut out = KvProfile::default();
    for &channels in &cfg.channels {
        for &scheme in &cfg.schemes {
            let machine = kv_machine(scheme, channels);
            for &seed in seeds {
                let (mut mem, mut store) = kv_base(&machine)?;
                *mem.controller_mut().stats_mut() = Stats::new(machine.banks * channels);
                mem.controller_mut()
                    .attach_observer(Box::new(Telemetry::default()));
                let start = mem.now();
                for op in kv_stream(seed, cfg.ops) {
                    let before = mem.now();
                    kv_apply(&mut store, &mut mem, &op)?;
                    out.op_cycles.push(mem.now() - before);
                }
                let end = mem.shutdown();
                out.stats.merge(mem.controller().stats());
                for mut obs in mem.controller_mut().take_observers() {
                    if let Some(t) = obs.as_any_mut().downcast_mut::<Telemetry>() {
                        out.counter_fetch_cycles += t.breakdown.counter_fetch_cycles;
                        out.crypto_cycles += t.breakdown.crypto_cycles;
                        out.sfence_stall_cycles += t.breakdown.sfence_stall_cycles;
                        let busy = (0..t.banks.banks().len())
                            .map(|b| t.banks.utilization(b, end - start))
                            .fold(0.0, f64::max);
                        out.bank_util_max = out.bank_util_max.max(busy);
                    }
                }
            }
        }
    }
    Ok(out)
}

/// Takes crash-only images of the op stream of every (scheme, seed) at
/// every append point, and times the two recovery layers on each: the
/// image rebuild and the KV store's own recovery.
///
/// # Errors
///
/// Returns a message when a store operation fails or an unfaulted
/// image does not recover.
pub fn kv_recover_samples(
    cfg: &KvTortureConfig,
    seeds: &[u64],
    log: &mut SpanLog,
) -> Result<u64, String> {
    let opts = RecoveryOptions {
        paranoid: true,
        ..RecoveryOptions::default()
    };
    let mut samples = 0;
    for &channels in &cfg.channels {
        for &scheme in &cfg.schemes {
            let machine = kv_machine(scheme, channels);
            for &seed in seeds {
                let total = supermem_kv::kv_crash_points(scheme, channels, seed, cfg.ops);
                for point in 1..=total {
                    let (mut mem, mut store) = kv_base(&machine)?;
                    mem.controller_mut().arm_crash_after_appends(point);
                    for op in kv_stream(seed, cfg.ops) {
                        kv_apply(&mut store, &mut mem, &op)?;
                    }
                    let image = if let Some(image) = mem.controller_mut().take_machine_crash_image()
                    {
                        image
                    } else {
                        mem.shutdown();
                        mem.machine_crash_now()
                    };
                    let idx = log.open(Layer::RecoverImage, Some(samples));
                    let rebuilt = RecoveredMemory::from_machine_image_checked(&machine, image);
                    log.close(idx);
                    let mut rec = rebuilt.map_err(|e| {
                        format!("{scheme} seed {seed} point {point}: image rebuild refused: {e}")
                    })?;
                    let idx = log.open(Layer::KvRecover, Some(samples));
                    let recovered = supermem_kv::recover(&mut rec, kv_torture_layout(), &opts);
                    log.close(idx);
                    recovered.map_err(|e| {
                        format!("{scheme} seed {seed} point {point}: kv recovery refused: {e}")
                    })?;
                    samples += 1;
                }
            }
        }
    }
    Ok(samples)
}
