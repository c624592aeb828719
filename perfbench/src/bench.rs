//! Repetitions, output checks and the metric catalogue.
//!
//! One run repeats its workload at one seed a fixed number of times
//! (see [`repetitions`]), so every run of a workload does the same work
//! whatever the speed of the code. Host time is the benchmark thread's
//! on-CPU time (see [`crate::stats::thread_cpu`]). Set-up time is the
//! median over the repetitions; throughput and wall time use the mean,
//! which tracks the share of the run the host spent at each of the
//! speeds it switches between, where a median jumps from one to the
//! next. Simulated metrics are exact and must repeat bit for bit, which the run checks
//! through a digest of every simulated number. With tracing on, the run
//! alternates untraced and traced repetitions: the traced ones give the
//! per-layer numbers, and the two sets of host times give the tracing
//! overhead.

use std::time::Duration;

use supermem::sim::Stats;
use supermem::RunConfig;
use supermem_kv::{KvClassification, KvTortureConfig};

use crate::spans::{Layer, SpanLog};
use crate::stats::{mean, median, peak_rss_mb, quantile, ratio, HostTime};
use crate::workload::{
    kv_crash, kv_profile, kv_recover_samples, kv_seeds, run_kv, run_system, Direct, KvProfile,
    Phases, SystemRun, Workload, KV_CASE_SEEDS, KV_PROFILE_SEEDS,
};

/// Repetitions every run makes, however short its `seconds`.
pub const MIN_REPS: usize = 3;

/// Repetitions of `workload` in a run of `seconds`: `seconds` over the
/// workload's nominal repetition time (on-CPU time of one untraced
/// repetition on a 2.1 GHz Xeon core), at least [`MIN_REPS`]. The count
/// depends only on the arguments, never on how fast the code runs, so
/// two versions of the code are compared over equally many samples.
pub fn repetitions(workload: Workload, seconds: f64) -> usize {
    let nominal = match workload {
        Workload::Array8m => 0.70,
        Workload::BtreeTree4p => 1.40,
        Workload::KvCrash => 0.65,
    };
    ((seconds.max(0.0) / nominal).round() as usize).max(MIN_REPS)
}

/// End-to-end metrics: name, unit, and which direction is better.
pub const END_TO_END: [(&str, &str, &str); 7] = [
    ("setup_s", "s", "lower"),
    ("host_ops_per_s", "1/s", "higher"),
    ("wall_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("sim_cycles_p50", "cycles", "lower"),
    ("sim_cycles_p99", "cycles", "lower"),
    ("nvm_writes_per_op", "count", "lower"),
];

/// Host-time layers of the traced run: metric stem, span layer, unit
/// (a power of ten of seconds), and whether the stem is self time.
pub const HOST_LAYERS: [(&str, Layer, &str, bool); 12] = [
    ("workloads.build_ms", Layer::Build, "ms", false),
    ("system.write_ns", Layer::Write, "ns", false),
    ("system.clwb_ns", Layer::Clwb, "ns", false),
    ("system.sfence_ns", Layer::Sfence, "ns", false),
    ("system.read_ns", Layer::Read, "ns", false),
    ("workloads.step_self_ns", Layer::Step, "ns", true),
    ("workloads.verify_ms", Layer::Verify, "ms", false),
    ("system.checkpoint_ms", Layer::Checkpoint, "ms", false),
    ("kv.crash_points_ms", Layer::CrashPoints, "ms", false),
    ("torture.case_us", Layer::Case, "us", false),
    ("persist.recover_image_us", Layer::RecoverImage, "us", false),
    ("kv.recover_us", Layer::KvRecover, "us", false),
];

/// Exact simulated layers of the traced run: name, unit, better.
pub const SIM_LAYERS: [(&str, &str, &str); 18] = [
    ("cache.l3_miss_ratio", "ratio", "lower"),
    ("cache.cc_hit_ratio", "ratio", "higher"),
    ("crypto.counter_fetch_cycles_per_op", "cycles", "lower"),
    ("crypto.cycles_per_op", "cycles", "lower"),
    ("crypto.reencryptions", "count", "lower"),
    ("memctrl.cwc_ratio", "ratio", "higher"),
    ("memctrl.wq_stall_cycles_per_op", "cycles", "lower"),
    ("memctrl.sfence_stall_cycles_per_op", "cycles", "lower"),
    ("nvm.bank_util_max", "ratio", "lower"),
    ("nvm.data_writes_per_op", "count", "lower"),
    ("nvm.counter_writes_per_op", "count", "lower"),
    ("nvm.tree_writes_per_op", "count", "lower"),
    ("nvm.reads_per_op", "count", "lower"),
    ("integrity.coalesce_ratio", "ratio", "higher"),
    ("integrity.propagations_per_op", "count", "lower"),
    ("torture.silent", "count", "lower"),
    ("torture.detected", "count", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
];

/// Every per-layer metric name with its unit and better direction: three
/// per host layer (p50, p99, call count), then the simulated ones.
pub fn per_layer_catalogue() -> Vec<(String, &'static str, &'static str)> {
    let mut out = Vec::new();
    for (stem, _, unit, _) in HOST_LAYERS {
        out.push((format!("{stem}.p50"), unit, "lower"));
        out.push((format!("{stem}.p99"), unit, "lower"));
        out.push((format!("{stem}.calls"), "count", "lower"));
    }
    for (name, unit, better) in SIM_LAYERS {
        out.push((name.to_owned(), unit, better));
    }
    out
}

/// What one run executes.
#[derive(Debug, Clone)]
enum Job {
    /// A workload on the timed `System`.
    System(RunConfig),
    /// The KV crash campaign, the op streams profiled for its simulated
    /// per-op metrics, and those whose crash images time recovery.
    Kv {
        campaign: KvTortureConfig,
        profile_seeds: Vec<u64>,
    },
}

impl Job {
    fn new(workload: Workload, seed: u64) -> Self {
        match workload.run_config(seed) {
            Some(rc) => Job::System(rc),
            None => Job::Kv {
                campaign: kv_crash(seed, KV_CASE_SEEDS),
                profile_seeds: kv_seeds(seed, KV_PROFILE_SEEDS),
            },
        }
    }
}

/// Sweep workers for the crash campaign. One worker keeps kv-crash on a
/// single host thread like the other workloads: with two workers on a
/// shared 2-core host, run-to-run spread of its host metrics and peak
/// memory (per-thread allocator arenas) roughly doubled.
pub const SWEEP_WORKERS: usize = 1;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// Everything a run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Repetitions made.
    pub reps: usize,
    /// Units attempted over all repetitions (transactions or cases).
    pub attempted: u64,
    /// Units that failed: transactions whose commit failed or whose
    /// program failed its shadow verify, and SILENT crash cases.
    pub failed: u64,
    /// Every failed unit and every failed run-level check (digest
    /// repetition, commit count, span-log self-check), one line each;
    /// empty exactly when the run is correct.
    pub failures: Vec<String>,
    /// The metrics, end-to-end without tracing and per-layer with it.
    pub metrics: Vec<Metric>,
    /// Human-readable context: phases, sample counts, host.
    pub notes: Vec<String>,
    /// Span log of the last traced repetition.
    pub spans: Option<SpanLog>,
    /// The simulated digest every repetition agreed on.
    pub digest: u64,
}

/// Simulated cost of the measured window, whichever machine ran it.
#[derive(Debug, Clone, Default)]
struct SimCost {
    op_cycles: Vec<u64>,
    stats: Stats,
    counter_fetch_cycles: u64,
    crypto_cycles: u64,
    sfence_stall_cycles: u64,
    bank_util_max: f64,
}

impl SimCost {
    fn from_system(run: &SystemRun) -> Self {
        let mut out = Self {
            op_cycles: run.txn_cycles.clone(),
            stats: run.stats.clone(),
            ..Self::default()
        };
        if let Some(t) = &run.telemetry {
            out.counter_fetch_cycles = t.breakdown.counter_fetch_cycles;
            out.crypto_cycles = t.breakdown.crypto_cycles;
            out.sfence_stall_cycles = t.breakdown.sfence_stall_cycles;
            out.bank_util_max = (0..t.banks.banks().len())
                .map(|b| t.banks.utilization(b, run.total_cycles))
                .fold(0.0, f64::max);
        }
        out
    }

    fn from_kv(p: &KvProfile) -> Self {
        Self {
            op_cycles: p.op_cycles.clone(),
            stats: p.stats.clone(),
            counter_fetch_cycles: p.counter_fetch_cycles,
            crypto_cycles: p.crypto_cycles,
            sfence_stall_cycles: p.sfence_stall_cycles,
            bank_util_max: p.bank_util_max,
        }
    }

    fn per_op(&self, v: u64) -> f64 {
        ratio(v as f64, self.op_cycles.len() as f64)
    }

    fn nvm_writes(&self) -> u64 {
        self.stats.nvm_data_writes + self.stats.nvm_counter_writes + self.stats.nvm_tree_writes
    }

    fn quantile(&self, q: f64) -> f64 {
        let mut v: Vec<f64> = self.op_cycles.iter().map(|&c| c as f64).collect();
        quantile(&mut v, q)
    }

    fn layers(&self) -> Vec<f64> {
        let s = &self.stats;
        vec![
            ratio(s.mem_accesses as f64, (s.l3_hits + s.mem_accesses) as f64),
            s.counter_cache_hit_rate().unwrap_or(0.0),
            self.per_op(self.counter_fetch_cycles),
            self.per_op(self.crypto_cycles),
            s.pages_reencrypted as f64,
            ratio(
                s.counter_writes_coalesced as f64,
                (s.nvm_counter_writes + s.counter_writes_coalesced) as f64,
            ),
            self.per_op(s.wq_stall_cycles),
            self.per_op(self.sfence_stall_cycles),
            self.bank_util_max,
            self.per_op(s.nvm_data_writes),
            self.per_op(s.nvm_counter_writes),
            self.per_op(s.nvm_tree_writes),
            self.per_op(s.nvm_reads_total()),
            ratio(
                s.tree_updates_coalesced as f64,
                s.tree_updates_enqueued as f64,
            ),
            self.per_op(s.tree_propagations),
        ]
    }
}

/// One repetition's host cost and exact fingerprint.
#[derive(Debug, Clone)]
struct Rep {
    phases: Phases,
    units: u64,
    digest: u64,
    traced: bool,
}

/// A host clock's reading of a stretch of host time.
type Clock = fn(HostTime) -> Duration;

/// The on-CPU clock, which every host metric uses.
const CPU: Clock = |t| t.cpu;

/// One phase's seconds on `clock`, for every repetition in `reps`.
fn phase_secs<'a>(
    reps: impl Iterator<Item = &'a Rep>,
    phase: fn(&Phases) -> HostTime,
    clock: Clock,
) -> Vec<f64> {
    reps.map(|r| clock(phase(&r.phases)).as_secs_f64())
        .collect()
}

/// Host durations per layer, gathered from traced repetitions.
#[derive(Debug, Default)]
struct LayerTimes {
    values: Vec<Vec<f64>>,
}

impl LayerTimes {
    fn add(&mut self, log: &SpanLog) {
        if self.values.is_empty() {
            self.values = vec![Vec::new(); HOST_LAYERS.len()];
        }
        for (i, (_, layer, unit, self_time)) in HOST_LAYERS.iter().enumerate() {
            let ns = if *self_time {
                log.self_times_ns(*layer)
            } else {
                log.durations_ns(*layer)
            };
            let scale = match *unit {
                "ms" => 1e-6,
                "us" => 1e-3,
                _ => 1.0,
            };
            self.values[i].extend(ns.into_iter().map(|v| v * scale));
        }
    }
}

/// Runs `workload` at `seed` for [`repetitions`]`(workload, seconds)`
/// repetitions, untraced (`trace == false`: end-to-end metrics) or
/// alternating untraced and traced repetitions (per-layer metrics).
pub fn run(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let job = Job::new(workload, seed);
    let count = repetitions(workload, seconds);
    let mut reps: Vec<Rep> = Vec::new();
    let mut failures = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut sim: Option<SimCost> = None;
    let mut traced_sim: Option<SimCost> = None;
    let mut layer_times = LayerTimes::default();
    let mut last_log = None;
    let mut torture = (0u64, 0u64);
    let mut notes = Vec::new();

    let profile = match &job {
        Job::Kv {
            campaign,
            profile_seeds,
            ..
        } => match kv_profile(campaign, profile_seeds) {
            Ok(p) => Some(p),
            Err(e) => {
                failures.push(format!("kv profile: {e}"));
                None
            }
        },
        Job::System(_) => None,
    };

    while reps.len() < count {
        let traced = trace && reps.len() % 2 == 1;
        let mut log = SpanLog::new();
        let rep = match &job {
            Job::System(rc) => {
                let result = if traced {
                    run_system(rc, &mut log, true)
                } else {
                    run_system(rc, &mut Direct, false)
                };
                let run = match result {
                    Ok(run) => run,
                    Err(e) => {
                        attempted += 1;
                        failed += 1;
                        failures.push(e);
                        break;
                    }
                };
                attempted += rc.txns * rc.programs as u64;
                failed += run.failed_txns;
                failures.extend(run.failures.iter().cloned());
                let expected = rc.txns * rc.programs as u64;
                if run.stats.txn_commits != expected {
                    failures.push(format!(
                        "{} of {expected} transactions committed",
                        run.stats.txn_commits
                    ));
                }
                if sim.is_none() {
                    sim = Some(SimCost::from_system(&run));
                }
                if traced {
                    traced_sim = Some(SimCost::from_system(&run));
                }
                Rep {
                    units: run.txn_cycles.len() as u64,
                    digest: run.digest(),
                    phases: run.phases,
                    traced,
                }
            }
            Job::Kv { campaign, .. } => {
                let run = if traced {
                    run_kv(campaign, SWEEP_WORKERS, &mut log)
                } else {
                    run_kv(campaign, SWEEP_WORKERS, &mut Direct)
                };
                attempted += run.results.len() as u64;
                failed += run.count(KvClassification::Silent);
                failures.extend(run.failures.iter().cloned());
                if traced {
                    torture = (
                        run.count(KvClassification::Silent),
                        run.count(KvClassification::Detected),
                    );
                }
                Rep {
                    units: run.results.len() as u64,
                    digest: run.digest(),
                    phases: run.phases,
                    traced,
                }
            }
        };
        if traced {
            let errors = log.check();
            if !errors.is_empty() {
                failures.push(format!(
                    "span log self-check: {} violations, first: {}",
                    errors.len(),
                    errors[0]
                ));
            }
            layer_times.add(&log);
            last_log = Some(log);
        }
        reps.push(rep);
    }

    if let Job::Kv {
        campaign,
        profile_seeds,
    } = &job
    {
        if let Some(first) = &profile {
            match kv_profile(campaign, profile_seeds) {
                Ok(again) if again.digest() == first.digest() => {}
                Ok(_) => failures.push("kv profile digest changed between passes".to_owned()),
                Err(e) => failures.push(format!("kv profile: {e}")),
            }
            sim = Some(SimCost::from_kv(first));
            traced_sim.clone_from(&sim);
        }
        if trace {
            let mut log = SpanLog::new();
            match kv_recover_samples(campaign, &campaign.seeds, &mut log) {
                Ok(n) => notes.push(format!("recovery samples: {n} crash-only images")),
                Err(e) => failures.push(format!("recovery sample: {e}")),
            }
            let errors = log.check();
            if !errors.is_empty() {
                failures.push(format!("recovery span log self-check: {}", errors[0]));
            }
            layer_times.add(&log);
        }
    }

    let digest = reps.first().map_or(0, |r| r.digest);
    for (i, r) in reps.iter().enumerate() {
        if r.digest != digest {
            failures.push(format!(
                "repetition {i} simulated digest {:#018x} differs from {digest:#018x}",
                r.digest
            ));
        }
    }

    let plain: Vec<&Rep> = reps.iter().filter(|r| !r.traced).collect();
    let secs = |phase: fn(&Phases) -> HostTime, clock: Clock| {
        phase_secs(plain.iter().copied(), phase, clock)
    };
    for (clock_name, clock) in [("on-CPU", CPU), ("wall-clock", |t| t.wall)] {
        notes.push(format!(
            "{clock_name} phase means over {} untraced repetitions: setup {:.6} s, steady {:.6} s, drain {:.6} s, verify {:.6} s, total {:.6} s",
            plain.len(),
            mean(&secs(|p| p.setup, clock)),
            mean(&secs(|p| p.steady, clock)),
            mean(&secs(|p| p.drain, clock)),
            mean(&secs(|p| p.verify, clock)),
            mean(&secs(|p| p.total, clock)),
        ));
    }
    let total = mean(&secs(|p| p.total, CPU));

    let sim = sim.unwrap_or_default();
    let metrics = if trace {
        let traced = phase_secs(reps.iter().filter(|r| r.traced), |p| p.total, CPU);
        let traced_total = mean(&traced);
        notes.push(format!(
            "trace.overhead_ratio: mean on-CPU time of the {} traced repetitions (spans and \
             Telemetry) over that of the {} untraced ones, minus 1",
            reps.len() - plain.len(),
            plain.len()
        ));
        let overhead = ratio(traced_total, total) - 1.0;
        per_layer_metrics(
            &layer_times,
            &traced_sim.unwrap_or_default(),
            torture,
            overhead,
        )
    } else {
        let units = plain.first().map_or(0, |r| r.units);
        notes.push(format!(
            "host time is on-CPU time; over {} repetitions, setup_s is the median, \
             host_ops_per_s the units over the mean steady time, and wall_s the mean; \
             sim_cycles quantiles by nearest rank over n = {} ops, \
             nvm_writes_per_op over the same ops",
            plain.len(),
            sim.op_cycles.len()
        ));
        let values = [
            median(&secs(|p| p.setup, CPU)),
            ratio(units as f64, mean(&secs(|p| p.steady, CPU))),
            total,
            peak_rss_mb(),
            sim.quantile(0.5),
            sim.quantile(0.99),
            sim.per_op(sim.nvm_writes()),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit, _), value)| Metric {
                name: name.to_owned(),
                value,
                unit,
            })
            .collect()
    };

    Outcome {
        reps: reps.len(),
        attempted: attempted.max(1),
        failed,
        failures,
        metrics,
        notes,
        spans: last_log,
        digest,
    }
}

fn per_layer_metrics(
    times: &LayerTimes,
    sim: &SimCost,
    torture: (u64, u64),
    overhead: f64,
) -> Vec<Metric> {
    let mut values = Vec::new();
    for i in 0..HOST_LAYERS.len() {
        let mut v = times.values.get(i).cloned().unwrap_or_default();
        values.push(quantile(&mut v, 0.5));
        values.push(quantile(&mut v, 0.99));
        values.push(v.len() as f64);
    }
    values.extend(sim.layers());
    values.push(torture.0 as f64);
    values.push(torture.1 as f64);
    values.push(overhead);
    per_layer_catalogue()
        .into_iter()
        .zip(values)
        .map(|((name, unit, _), value)| Metric { name, value, unit })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repetition_count_depends_only_on_the_arguments() {
        for w in crate::workload::WORKLOADS {
            assert_eq!(repetitions(w, 0.0), MIN_REPS);
            assert!(repetitions(w, 60.0) > repetitions(w, 20.0));
        }
    }
}
