//! The data subject: one durable undo-logged transaction flipping a data
//! region from the old to the new oracle state, on any scheme and
//! channel count.

use supermem_nvm::FaultClass;
use supermem_persist::{recover_transactions, DirectMem, PMem, RecoveredMemory, TxnManager};
use supermem_sim::Config;

use super::{Classification, Fault, Flag, RecoveredImage, Subject};
use crate::scheme::Scheme;

/// Address of the data region the tortured transaction mutates.
pub const DATA_ADDR: u64 = 0x2000;
/// Address of the undo log.
pub const LOG_ADDR: u64 = 0x10_0000;
/// Bytes mutated per transaction.
pub const DATA_LEN: usize = 256;

const OLD_BYTE: u8 = 0x11;
const NEW_BYTE: u8 = 0x22;

/// Schemes the campaign sweeps by default: every evaluated configuration
/// except SCA, which by design does not persist its counters (the paper
/// pairs it with a full-memory re-encryption sweep at recovery, which
/// this harness does not model), so a differential check against live
/// data is meaningless for it.
pub const TORTURE_SCHEMES: [Scheme; 8] = [
    Scheme::Unsec,
    Scheme::WriteBackIdeal,
    Scheme::WriteThrough,
    Scheme::WtCwc,
    Scheme::WtXbank,
    Scheme::SuperMem,
    Scheme::WtSameBank,
    Scheme::Osiris,
];

/// One fully determined data-torture case: scheme, optional fault (None
/// is the no-fault baseline), crash point, and injection seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TortureCase {
    /// Scheme under torture.
    pub scheme: Scheme,
    /// Fault class to inject, or `None` for the crash-only baseline.
    pub class: Option<FaultClass>,
    /// Crash after this many write-queue appends (1-based,
    /// machine-wide across channels).
    pub point: u64,
    /// Seed fixing every choice the injection makes.
    pub seed: u64,
    /// Interleaved memory channels (power of two; 1 = the paper's
    /// single controller).
    pub channels: usize,
}

impl TortureCase {
    /// The CLI invocation reproducing exactly this case. It always names
    /// its channel count: the CLI's default sweeps both 1 and 2.
    pub fn repro(&self) -> String {
        format!(
            "supermem torture --scheme {} --fault {} --point {} --seed {} --channels {}",
            self.scheme.name().to_ascii_lowercase(),
            self.class.name(),
            self.point,
            self.seed,
            self.channels
        )
    }
}

/// Campaign shape: which schemes, which fault classes (with `None` as
/// the crash-only baseline), which seeds, and optionally a single fixed
/// crash point instead of the full sweep.
#[derive(Debug, Clone)]
pub struct TortureConfig {
    /// Schemes to torture.
    pub schemes: Vec<Scheme>,
    /// Fault classes; `None` entries run the crash-only baseline.
    pub classes: Vec<Option<FaultClass>>,
    /// Injection seeds; each (scheme, class, point) runs once per seed.
    pub seeds: Vec<u64>,
    /// Restrict the sweep to this single crash point, if set.
    pub point: Option<u64>,
    /// Channel counts to sweep. Channel counts above 1 run only the
    /// schemes whose multi-channel behavior the campaign certifies
    /// (SuperMem and WriteThrough) when more than one count is listed.
    pub channels: Vec<usize>,
}

impl Default for TortureConfig {
    fn default() -> Self {
        Self {
            schemes: TORTURE_SCHEMES.to_vec(),
            classes: Fault::all(),
            seeds: vec![1, 2],
            point: None,
            channels: vec![1, 2],
        }
    }
}

/// Builds the pre-transaction system on `cfg`: the old data durably
/// persisted, queues drained.
pub(super) fn base_system(cfg: Config) -> (DirectMem, (), Config) {
    let mut base = DirectMem::new(&cfg);
    base.persist(DATA_ADDR, &[OLD_BYTE; DATA_LEN]);
    base.shutdown();
    (base, (), cfg)
}

/// The tortured workload: one durable undo-logged transaction flipping
/// the data region from the old to the new oracle state.
pub(super) fn run_txn(mem: &mut DirectMem) {
    let mut txm = TxnManager::new(LOG_ADDR, 4096);
    let mut txn = txm.begin();
    txn.write(DATA_ADDR, vec![NEW_BYTE; DATA_LEN]);
    txn.commit(mem).expect("commit");
}

/// Which oracle state the data region of `mem` holds: `RecoveredOld`,
/// `RecoveredNew`, or `None` for neither.
pub fn oracle_state(mem: &mut RecoveredMemory) -> Option<Classification> {
    let mut buf = [0u8; DATA_LEN];
    mem.read(DATA_ADDR, &mut buf);
    if buf == [OLD_BYTE; DATA_LEN] {
        Some(Classification::RecoveredOld)
    } else if buf == [NEW_BYTE; DATA_LEN] {
        Some(Classification::RecoveredNew)
    } else {
        None
    }
}

/// The judge of the data and tree subjects: replay or roll back the
/// transaction log, then check the data against the only two legal
/// states, the pre- and post-transaction images.
pub(super) fn judge_txn(mut image: RecoveredImage) -> (Classification, String, ()) {
    let outcome = match recover_transactions(&mut image.mem, LOG_ADDR) {
        Ok(o) => o,
        Err(e) => {
            return (
                Classification::Detected,
                format!("log recovery failed: {e}"),
                (),
            )
        }
    };
    let (class, detail) = match oracle_state(&mut image.mem) {
        Some(c @ Classification::RecoveredOld) => {
            (c, format!("old state intact after {outcome:?}"))
        }
        Some(c) => (c, format!("new state intact after {outcome:?}")),
        None => match image.signals(false) {
            Some(signals) => (
                Classification::Detected,
                format!(
                    "degraded data with detection signals after {outcome:?}: {signals} \
                     osiris_unrecoverable={}",
                    image.osiris_unrecoverable
                ),
            ),
            None => (
                Classification::Silent,
                format!("data is neither oracle state and nothing detected it (after {outcome:?})"),
            ),
        },
    };
    (class, detail, ())
}

impl Subject for TortureConfig {
    type Group = (Scheme, usize);
    type Fault = Option<FaultClass>;
    type Case = TortureCase;
    type Class = Classification;
    type State = ();
    type Oracle = ();
    type Evidence = ();

    const NAME: &'static str = "torture";
    const TITLE: &'static str = "Differential crash torture: crash point x fault class x seed";
    const AXIS: &'static str = "scheme";
    const FAULTS: &'static str = "fault class(es)";
    const LEGEND: &'static str =
        "(detected = degraded but flagged by ECC/poison/dirty-shutdown or a typed error)";
    const VERDICT_COLUMN: bool = true;
    const MARKER: Option<&'static str> = None;

    fn set(&mut self, flag: Flag<Self::Fault>) -> Result<bool, String> {
        match flag {
            Flag::Scheme(s) => self.schemes = vec![s],
            Flag::Fault(f) => self.classes = vec![f],
            Flag::Point(p) => self.point = Some(p),
            Flag::Seeds(s) => self.seeds = s,
            Flag::Channels(n) => self.channels = vec![n],
            _ => return Ok(false),
        }
        Ok(true)
    }

    fn shape(&self) -> (Vec<(Self::Group, Vec<u64>)>, &[Self::Fault], Option<u64>) {
        let mut groups = Vec::new();
        for &channels in &self.channels {
            for &scheme in &self.schemes {
                // In matrix mode the multi-channel columns certify only
                // the schemes whose sharded behavior the campaign pins
                // down.
                if channels != 1
                    && self.channels.len() > 1
                    && !matches!(scheme, Scheme::SuperMem | Scheme::WriteThrough)
                {
                    continue;
                }
                groups.push(((scheme, channels), self.seeds.clone()));
            }
        }
        (groups, &self.classes, self.point)
    }

    fn case(g: Self::Group, class: Self::Fault, point: u64, seed: u64) -> TortureCase {
        let (scheme, channels) = g;
        TortureCase {
            scheme,
            class,
            point,
            seed,
            channels,
        }
    }

    fn parts(c: &TortureCase) -> (Self::Group, Self::Fault, u64, u64) {
        ((c.scheme, c.channels), c.class, c.point, c.seed)
    }

    fn label(c: &TortureCase) -> String {
        c.scheme.name().to_owned()
    }

    fn repro(c: &TortureCase) -> String {
        c.repro()
    }

    fn base((scheme, channels): Self::Group) -> (DirectMem, (), Config) {
        base_system(scheme.apply(Config::default()).with_channels(channels))
    }

    fn workload(&self, mem: &mut DirectMem, (): &mut (), _: u64) {
        run_txn(mem);
    }

    fn oracle(&self, _: &DirectMem, (): &(), _: u64) {}

    fn judge(
        &self,
        _: &TortureCase,
        (): &(),
        image: RecoveredImage,
    ) -> (Classification, String, ()) {
        judge_txn(image)
    }
}
