//! The integrity-tree subject: media faults and active tampering aimed
//! at the persisted tree-node region of a streaming-tree machine running
//! the data subject's transaction.

use supermem_memctrl::MachineCrashImage;
use supermem_nvm::{FaultClass, FaultSpec};
use supermem_persist::DirectMem;
use supermem_sim::Config;

use super::data::{base_system, judge_txn, run_txn};
use super::{Classification, Fault, Flag, RecoveredImage, Subject};
use crate::scheme::Scheme;

/// What the integrity-tree campaign injects into a crash image whose
/// machine ran with the streaming tree armed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeFault {
    /// Crash-only baseline: the streaming tree armed, nothing injected.
    None,
    /// A media fault. Power-event classes (torn drain, bank fail-stop)
    /// strike *at* the crash — a fail-stopped bank takes its settled
    /// tree-node lines with it. The others strike a seed-chosen
    /// tree-node line on the settled image through the SECDED model.
    Media(FaultClass),
    /// An ECC-clean byte rewrite of one persisted node line — active
    /// tampering that only the recovery-time tree audit can catch.
    Tamper,
}

/// The tree fault axis; node-line strikes and tampering land on
/// channel 0.
impl Fault for TreeFault {
    fn all() -> Vec<Self> {
        [TreeFault::None, TreeFault::Tamper]
            .into_iter()
            .chain(FaultClass::ALL.map(TreeFault::Media))
            .collect()
    }

    fn name(self) -> &'static str {
        match self {
            TreeFault::None => "none",
            TreeFault::Media(c) => c.name(),
            TreeFault::Tamper => "tamper",
        }
    }

    fn plan(self, seed: u64) -> Option<FaultSpec> {
        match self {
            TreeFault::Media(class) if class.is_power_event() => Some(FaultSpec { class, seed }),
            _ => None,
        }
    }

    fn strike(self, seed: u64, machine: &mut MachineCrashImage) {
        let store = &mut machine.channels[0].store;
        match self {
            TreeFault::Media(class) if !class.is_power_event() => {
                store.strike_tree_fault(FaultSpec { class, seed });
            }
            TreeFault::Tamper => {
                store.tamper_tree_line(seed);
            }
            _ => {}
        }
    }
}

/// One fully determined integrity-tree torture case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeTortureCase {
    /// Persistence frontier of the tortured machine (`1..=height`;
    /// level 0 would persist nothing and leave no tree region to hit).
    pub levels: u32,
    /// What to inject.
    pub fault: TreeFault,
    /// Crash after this many write-queue appends (1-based).
    pub point: u64,
    /// Seed fixing every choice the injection makes.
    pub seed: u64,
}

impl TreeTortureCase {
    /// The CLI invocation reproducing exactly this case.
    pub fn repro(&self) -> String {
        format!(
            "supermem torture --tree --persisted-levels {} --fault {} --point {} --seed {}",
            self.levels,
            self.fault.name(),
            self.point,
            self.seed
        )
    }
}

/// Campaign shape for the integrity-tree torture.
#[derive(Debug, Clone)]
pub struct TreeTortureConfig {
    /// Persistence frontiers to torture (each `1..=height`).
    pub levels: Vec<u32>,
    /// Faults to inject; [`TreeFault::None`] is the crash-only baseline.
    pub faults: Vec<TreeFault>,
    /// Injection seeds.
    pub seeds: Vec<u64>,
    /// Restrict the sweep to this single crash point, if set.
    pub point: Option<u64>,
}

impl Default for TreeTortureConfig {
    fn default() -> Self {
        Self {
            levels: vec![1, 2],
            faults: TreeFault::all(),
            seeds: vec![1, 2],
            point: None,
        }
    }
}

/// The machine configuration a tree torture case runs: the full SuperMem
/// scheme with the streaming integrity tree persisted to `levels`.
pub fn tree_torture_config(levels: u32) -> Config {
    let cfg = Scheme::SuperMem
        .apply(Config::default())
        .with_integrity_tree(true)
        .with_persisted_levels(Some(levels));
    #[allow(clippy::disallowed_methods)]
    cfg.validate().expect("tree torture config is valid");
    cfg
}

impl Subject for TreeTortureConfig {
    type Group = u32;
    type Fault = TreeFault;
    type Case = TreeTortureCase;
    type Class = Classification;
    type State = ();
    type Oracle = ();
    type Evidence = ();

    const NAME: &'static str = "tree-torture";
    const TITLE: &'static str =
        "Integrity-tree torture: crash point x tree fault x seed (SuperMem, streaming tree)";
    const AXIS: &'static str = "frontier";
    const FAULTS: &'static str = "fault(s)";
    const LEGEND: &'static str =
        "(tamper = ECC-clean node-line forgery; only the recovery-time tree audit can catch it)";
    const VERDICT_COLUMN: bool = true;
    const MARKER: Option<&'static str> = Some("--tree");

    fn set(&mut self, flag: Flag<TreeFault>) -> Result<bool, String> {
        match flag {
            Flag::Levels(n) => self.levels = vec![n],
            Flag::Fault(f) => self.faults = vec![f],
            Flag::Point(p) => self.point = Some(p),
            Flag::Seeds(s) => self.seeds = s,
            _ => return Ok(false),
        }
        Ok(true)
    }

    fn shape(&self) -> (Vec<(u32, Vec<u64>)>, &[TreeFault], Option<u64>) {
        let groups = self.levels.iter().map(|&l| (l, self.seeds.clone()));
        (groups.collect(), &self.faults, self.point)
    }

    fn case(levels: u32, fault: TreeFault, point: u64, seed: u64) -> TreeTortureCase {
        TreeTortureCase {
            levels,
            fault,
            point,
            seed,
        }
    }

    fn parts(c: &TreeTortureCase) -> (u32, TreeFault, u64, u64) {
        (c.levels, c.fault, c.point, c.seed)
    }

    fn label(c: &TreeTortureCase) -> String {
        format!("L{}", c.levels)
    }

    fn repro(c: &TreeTortureCase) -> String {
        c.repro()
    }

    fn base(levels: u32) -> (DirectMem, (), Config) {
        base_system(tree_torture_config(levels))
    }

    fn workload(&self, mem: &mut DirectMem, (): &mut (), _: u64) {
        run_txn(mem);
    }

    fn oracle(&self, _: &DirectMem, (): &(), _: u64) {}

    fn judge(
        &self,
        _: &TreeTortureCase,
        (): &(),
        image: RecoveredImage,
    ) -> (Classification, String, ()) {
        judge_txn(image)
    }
}
