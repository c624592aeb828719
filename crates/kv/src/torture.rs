//! The KV subject of the crash-campaign harness
//! ([`supermem::torture`]): every WAL append, snapshot write, and
//! checkpoint-pointer flip is a crash point; every crash point is crossed
//! with the media fault classes; every recovered store is checked
//! against the shadow oracle of acknowledged operations.
//!
//! A case is classified ([`KvClassification`]):
//!
//! * **recovered-committed** — every operation issued before the crash
//!   survived (possibly including the unacknowledged in-flight one).
//! * **lost-unacked-tail** — all *acknowledged* operations survived;
//!   the in-flight tail did not. This is the contract working as
//!   designed.
//! * **detected** — the recovered state is degraded, but honestly:
//!   recovery refused with a typed [`RecoveryError`], or the damage is
//!   visible in [`RecoveryResult`] (skipped records, rejected
//!   snapshots) or in a hardware signal (ECC detection, poisoned read,
//!   dirty-shutdown latch).
//! * **SILENT** — acknowledged data is wrong and *nothing* noticed.
//!   One of these fails the campaign; [`supermem::torture::shrink`]
//!   produces a minimal reproducer.
//!
//! The harness counts crash points with a dry run of machine-wide
//! write-queue appends and arms a crash after each count 1..=total.
//! Because the KV workload's persists *are* its WAL appends, snapshot
//! payload/header writes, and manifest flips, this sweep hits every
//! durability edge of the store. The op stream, and so the crash points,
//! depend on the seed: each (channels, scheme, seed) is its own group.
//!
//! [`RecoveryError`]: crate::recovery::RecoveryError

use supermem::nvm::FaultClass;
use supermem::persist::DirectMem;
use supermem::sim::Config;
use supermem::torture::{
    crash_points, run, run_case, CaseResult, Fault, Flag, RecoveredImage, Report, Subject, Verdict,
};
use supermem::Scheme;

use crate::invariants::{r3_prefix_consistent, r6_bounded_skip};
use crate::oracle::{op_stream, Legality, ShadowOracle};
use crate::recovery::{recover, RecoveryOptions, RecoveryResult};
use crate::store::KvStore;
use crate::wal::KvOp;
use crate::KvLayout;

/// Region base of the tortured store.
pub const KV_TORTURE_BASE: u64 = 0x8000;
/// WAL body bytes — deliberately tight so the op stream crosses at
/// least one rotating checkpoint.
pub const KV_TORTURE_WAL_BODY: u64 = 384;
/// Snapshot slot bytes.
pub const KV_TORTURE_SNAP_CAP: u64 = 1024;
/// Mutations between automatic light checkpoints.
pub const KV_TORTURE_SNAPSHOT_EVERY: u64 = 3;
/// Distinct keys in the tortured working set.
pub const KV_TORTURE_KEYSPACE: u64 = 6;
/// Maximum value bytes in the tortured op stream.
pub const KV_TORTURE_MAX_VAL: usize = 20;

/// Schemes the KV campaign sweeps by default: the paper's scheme and
/// the strongest baseline. (Any scheme the PR 4 campaign certifies can
/// be requested explicitly; these two keep the default grid dense but
/// affordable.)
pub const KV_TORTURE_SCHEMES: [Scheme; 2] = [Scheme::SuperMem, Scheme::WriteThrough];

/// The tortured store's layout.
///
/// # Panics
///
/// Never: the constants above satisfy [`KvLayout::new`] by
/// construction (checked in tests).
pub fn kv_torture_layout() -> KvLayout {
    #[allow(clippy::disallowed_methods)]
    // Justified panic: compile-time constants; the layout test pins them.
    KvLayout::new(KV_TORTURE_BASE, KV_TORTURE_WAL_BODY, KV_TORTURE_SNAP_CAP)
        .expect("torture layout constants are valid")
}

/// What one KV torture case amounted to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvClassification {
    /// Everything issued before the crash survived.
    RecoveredCommitted,
    /// Acknowledged data survived; the unacknowledged tail did not.
    LostUnackedTail,
    /// Degraded but honest: a typed refusal or a visible damage signal.
    Detected,
    /// Acknowledged data wrong with no signal: the unacceptable one.
    Silent,
}

impl KvClassification {
    /// Stable display spelling.
    pub fn name(self) -> &'static str {
        match self {
            KvClassification::RecoveredCommitted => "recovered-committed",
            KvClassification::LostUnackedTail => "lost-unacked-tail",
            KvClassification::Detected => "detected",
            KvClassification::Silent => "SILENT",
        }
    }
}

impl std::fmt::Display for KvClassification {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl Verdict for KvClassification {
    const ALL: [Self; 4] = [
        KvClassification::RecoveredCommitted,
        KvClassification::LostUnackedTail,
        KvClassification::Detected,
        KvClassification::Silent,
    ];
}

/// One fully determined case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvTortureCase {
    /// Scheme under torture.
    pub scheme: Scheme,
    /// Fault class, or `None` for the crash-only baseline.
    pub class: Option<FaultClass>,
    /// Crash after this many write-queue appends (1-based).
    pub point: u64,
    /// Seed fixing the op stream and every injection choice.
    pub seed: u64,
    /// Interleaved memory channels.
    pub channels: usize,
}

impl KvTortureCase {
    /// The CLI invocation reproducing exactly this case.
    pub fn repro(&self) -> String {
        let mut line = format!(
            "supermem kv torture --scheme {} --fault {} --point {} --seed {}",
            self.scheme.name().to_ascii_lowercase(),
            self.class.name(),
            self.point,
            self.seed
        );
        if self.channels != 1 {
            line.push_str(&format!(" --channels {}", self.channels));
        }
        line
    }
}

/// The outcome of one executed case; its evidence is the typed KV
/// recovery report, when KV recovery returned one (a refusal with a
/// [`RecoveryError`](crate::recovery::RecoveryError) leaves it `None`).
pub type KvCaseResult = CaseResult<KvTortureConfig>;

/// Campaign shape.
#[derive(Debug, Clone)]
pub struct KvTortureConfig {
    /// Schemes to torture.
    pub schemes: Vec<Scheme>,
    /// Fault classes; `None` entries run the crash-only baseline.
    pub classes: Vec<Option<FaultClass>>,
    /// Seeds; each fixes one op stream plus every injection choice.
    pub seeds: Vec<u64>,
    /// Restrict to a single crash point, if set.
    pub point: Option<u64>,
    /// Channel counts to sweep.
    pub channels: Vec<usize>,
    /// Operations per tortured run.
    pub ops: u64,
}

impl Default for KvTortureConfig {
    fn default() -> Self {
        Self {
            schemes: KV_TORTURE_SCHEMES.to_vec(),
            classes: Fault::all(),
            seeds: vec![1, 2, 3, 4],
            point: None,
            channels: vec![1],
            ops: 10,
        }
    }
}

/// The formatted, durably shut-down starting state on `cfg` every case
/// clones.
fn base_system(cfg: Config) -> (DirectMem, KvStore, Config) {
    let mut mem = DirectMem::new(&cfg);
    // Justified panic: the torture layout is statically sized for the
    // op stream; formatting it cannot fail and a failure here would be
    // a harness bug, not a media event.
    #[allow(clippy::disallowed_methods)]
    let store = KvStore::format(&mut mem, kv_torture_layout(), KV_TORTURE_SNAPSHOT_EVERY)
        .expect("format torture store");
    mem.shutdown();
    (mem, store, cfg)
}

/// Runs one operation against the store.
fn apply_op(store: &mut KvStore, mem: &mut DirectMem, op: &KvOp) {
    // Justified panic: see `base_system` — the layout admits the whole
    // stream by construction.
    #[allow(clippy::disallowed_methods)]
    match op {
        KvOp::Put(k, v) => store.put(mem, k, v).expect("torture put"),
        KvOp::Del(k) => store.delete(mem, k).expect("torture delete"),
    }
}

/// The tortured op stream for `seed`.
fn stream(seed: u64, ops: u64) -> Vec<KvOp> {
    op_stream(seed, ops, KV_TORTURE_KEYSPACE, KV_TORTURE_MAX_VAL)
}

/// Number of crash points the workload crosses under `scheme` with
/// `channels` controllers and the `ops`-long op stream of `seed` —
/// every WAL append, snapshot write, and manifest flip lands in this
/// count.
pub fn kv_crash_points(scheme: Scheme, channels: usize, seed: u64, ops: u64) -> u64 {
    let cfg = KvTortureConfig {
        ops,
        ..KvTortureConfig::default()
    };
    crash_points(&cfg, (scheme, channels), seed)
}

/// Executes one case of the default campaign (10 ops per stream) end to
/// end.
pub fn kv_run_case(tc: &KvTortureCase) -> KvCaseResult {
    run_case(&KvTortureConfig::default(), tc)
}

/// Runs the full campaign; results come back in input order.
pub fn kv_run_torture(cfg: &KvTortureConfig) -> Report<KvTortureConfig> {
    run(cfg)
}

impl Subject for KvTortureConfig {
    type Group = (Scheme, usize);
    type Fault = Option<FaultClass>;
    type Case = KvTortureCase;
    type Class = KvClassification;
    type State = KvStore;
    type Oracle = ShadowOracle;
    type Evidence = Option<RecoveryResult>;

    const NAME: &'static str = "kvtorture";
    const TITLE: &'static str = "KV crash torture: crash point x fault class x seed";
    const AXIS: &'static str = "scheme";
    const FAULTS: &'static str = "fault class(es)";
    const LEGEND: &'static str =
        "(lost-unacked-tail = only never-acknowledged ops missing; detected = degraded but \
         flagged by a typed error, the recovery report, or ECC/poison/dirty-shutdown)";
    const VERDICT_COLUMN: bool = true;
    const MARKER: Option<&'static str> = None;
    const GROUP_FLAGS: &'static [&'static str] = &["--scheme", "--channels"];

    fn set(&mut self, flag: Flag<Self::Fault>) -> Result<(), String> {
        match flag {
            Flag::Scheme(s) => self.schemes = vec![s],
            Flag::Fault(f) => self.classes = vec![f],
            Flag::Point(p) => self.point = Some(p),
            Flag::Seeds(s) => self.seeds = s,
            Flag::Channels(n) => self.channels = vec![n],
            _ => unreachable!("not in GROUP_FLAGS"),
        }
        Ok(())
    }

    fn shape(&self) -> (Vec<(Self::Group, Vec<u64>)>, &[Self::Fault], Option<u64>) {
        let mut groups = Vec::new();
        for &channels in &self.channels {
            for &scheme in &self.schemes {
                for &seed in &self.seeds {
                    groups.push(((scheme, channels), vec![seed]));
                }
            }
        }
        (groups, &self.classes, self.point)
    }

    fn case(g: Self::Group, class: Self::Fault, point: u64, seed: u64) -> KvTortureCase {
        let (scheme, channels) = g;
        KvTortureCase {
            scheme,
            class,
            point,
            seed,
            channels,
        }
    }

    fn parts(c: &KvTortureCase) -> (Self::Group, Self::Fault, u64, u64) {
        ((c.scheme, c.channels), c.class, c.point, c.seed)
    }

    fn label(c: &KvTortureCase) -> String {
        c.scheme.name().to_owned()
    }

    fn repro(c: &KvTortureCase) -> String {
        c.repro()
    }

    fn base((scheme, channels): Self::Group) -> (DirectMem, KvStore, Config) {
        base_system(scheme.apply(Config::default()).with_channels(channels))
    }

    fn workload(&self, mem: &mut DirectMem, store: &mut KvStore, seed: u64) {
        for op in stream(seed, self.ops) {
            apply_op(store, mem, &op);
        }
    }

    /// Dry-runs the op stream, recording each acknowledged op with the
    /// append count at its acknowledgement.
    fn oracle(&self, mem: &DirectMem, store: &KvStore, seed: u64) -> ShadowOracle {
        let (mut mem, mut store) = (mem.clone(), store.clone());
        let before = mem.controller().append_events();
        let mut oracle = ShadowOracle::new();
        for op in stream(seed, self.ops) {
            apply_op(&mut store, &mut mem, &op);
            oracle.record(op, mem.controller().append_events() - before);
        }
        oracle
    }

    fn judge(
        &self,
        tc: &KvTortureCase,
        oracle: &ShadowOracle,
        mut image: RecoveredImage,
    ) -> (KvClassification, String, Option<RecoveryResult>) {
        let opts = RecoveryOptions {
            paranoid: true,
            ..RecoveryOptions::default()
        };
        let recovered = match recover(&mut image.mem, kv_torture_layout(), &opts) {
            Ok(r) => r,
            Err(e) => {
                return (
                    KvClassification::Detected,
                    format!("kv recovery refused: {e}"),
                    None,
                )
            }
        };
        let report = recovered.result;
        let (class, detail) = if let Err(msg) = r6_bounded_skip(&report, &opts) {
            // R6 is recovery's own contract; a breach is a store bug the
            // campaign must fail on, not a media outcome.
            (KvClassification::Silent, msg)
        } else {
            // R3: differential check against the acknowledged history.
            match r3_prefix_consistent(oracle, tc.point, recovered.store.entries()) {
                Ok(Legality::Committed) => (
                    KvClassification::RecoveredCommitted,
                    format!(
                        "all issued ops durable ({} replayed from snapshot {})",
                        report.records_replayed, report.snapshot_seq
                    ),
                ),
                Ok(Legality::LostUnackedTail) => (
                    KvClassification::LostUnackedTail,
                    format!(
                        "acked prefix intact; unacked tail cut ({})",
                        report.torn_tail_at.map_or(
                            "no torn record; tail never reached the queue".to_owned(),
                            |o| { format!("torn record truncated at offset {o}") }
                        )
                    ),
                ),
                // Wrong data: acceptable only if something noticed.
                Ok(Legality::Illegal) | Err(_) => match image.signals(report.damaged()) {
                    Some(signals) => (
                        KvClassification::Detected,
                        format!(
                            "degraded data with detection signals: {signals} \
                             osiris_unrecoverable={} report_damaged={} (skipped={} \
                             snapshots_rejected={})",
                            image.osiris_unrecoverable,
                            report.damaged(),
                            report.corrupt_entries_skipped,
                            report.snapshots_rejected,
                        ),
                    ),
                    None => (
                        KvClassification::Silent,
                        format!(
                            "recovered state matches no acknowledged prefix and nothing \
                             detected it ({} entries, digest {:#010x})",
                            report.entries, report.state_digest
                        ),
                    ),
                },
            }
        };
        (class, detail, Some(report))
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // unwrap/expect are fine in tests
mod tests {
    use super::*;

    #[test]
    fn torture_layout_constants_are_valid() {
        let l = kv_torture_layout();
        assert_eq!(l.base, KV_TORTURE_BASE);
    }

    #[test]
    fn crash_points_are_deterministic_and_plentiful() {
        let a = kv_crash_points(Scheme::SuperMem, 1, 1, 10);
        let b = kv_crash_points(Scheme::SuperMem, 1, 1, 10);
        assert_eq!(a, b);
        // The stream crosses WAL appends, light checkpoints, and a
        // rotation: well over one append per op.
        assert!(a > 10, "only {a} crash points");
    }

    #[test]
    fn unfaulted_crashes_never_lose_acked_data() {
        // The crash-only baseline at every point, one scheme, one seed:
        // every case must land in a legal (non-detected) bucket.
        let cfg = KvTortureConfig {
            schemes: vec![Scheme::SuperMem],
            classes: vec![None],
            seeds: vec![1],
            ..KvTortureConfig::default()
        };
        let report = kv_run_torture(&cfg);
        assert!(report.total() > 10);
        for r in &report.results {
            assert!(
                matches!(
                    r.classification,
                    KvClassification::RecoveredCommitted | KvClassification::LostUnackedTail
                ),
                "{}: un-faulted case must recover cleanly, got {} ({})",
                r.case.repro(),
                r.classification,
                r.detail
            );
        }
    }

    #[test]
    fn faulted_smoke_grid_has_no_silent_corruption() {
        let cfg = KvTortureConfig {
            schemes: vec![Scheme::SuperMem],
            seeds: vec![1],
            ..KvTortureConfig::default()
        };
        let report = kv_run_torture(&cfg);
        let silent = report.silent();
        assert!(
            silent.is_empty(),
            "SILENT: {}",
            silent
                .iter()
                .map(|r| format!("{} ({})", r.case.repro(), r.detail))
                .collect::<Vec<_>>()
                .join("; ")
        );
    }
}
