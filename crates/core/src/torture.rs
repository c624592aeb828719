//! One differential crash-torture harness, and the subjects it attacks.
//!
//! Every scheme claims some crash-consistency story; a torture campaign
//! attacks those claims with *media faults* layered on top of the crash
//! model: torn write-queue drains, bit flips under a SECDED ECC model,
//! stuck-at cells, transient read failures, and whole-bank fail-stops
//! (see [`supermem_nvm::fault`]). The harness is shared by four
//! [`Subject`]s: the undo-logged transaction ([`TortureConfig`]), the
//! streaming integrity tree ([`TreeTortureConfig`]), the lock-free served
//! structures (`supermem_serve::torture`) and the KV store
//! (`supermem_kv::torture`). It owns everything they have in common:
//!
//! * **Enumeration.** A fault-free dry run per group counts the crash
//!   points ([`crash_points`]); `--point` clamps to one of them; points
//!   are crossed with the subject's faults and seeds ([`cases`]) and fan
//!   out over the parallel sweep engine ([`mod@crate::sweep`]), results
//!   in input order ([`run`]).
//! * **Run to crash** ([`crash_image`]). Arm the crash after N appends,
//!   plan a power-event fault, run the workload, take the machine crash
//!   image (or shut down cleanly and image that), then strike a media
//!   fault on the settled image.
//! * **Recovery and the signal gate** ([`recover_image`],
//!   [`RecoveredImage::signals`]). Osiris trial decryption where the
//!   scheme relaxes counter persistence, the integrity-checked rebuild
//!   otherwise; wrong data is *detected* only if a hardware-observable
//!   signal fired, and SILENT if not.
//! * **Reports, tallies and shrinking** ([`Report`], [`shrink`]), and the
//!   command-line grammar every campaign shares ([`parse`]).
//!
//! A subject supplies only what differs: its machine per group, its base
//! state and workload, its oracle and judge, its [`Fault`] axis, and its
//! spelling. Each case is classified by the subject's [`Verdict`];
//! [`Classification`] serves the three subjects whose oracle holds
//! exactly two legal states:
//!
//! * **recovered-old / recovered-new**: the data matches one oracle state
//!   exactly; crash consistency held.
//! * **detected**: recovery refused (a typed
//!   [`RecoveryError`](supermem_persist::RecoveryError)) or the data is
//!   wrong *and* a hardware-observable signal fired: an ECC detection, a
//!   poisoned read, an Osiris unrecoverable line, or the NVDIMM
//!   dirty-shutdown flag (real DIMMs latch a "last shutdown state" bit
//!   when the ADR drain does not complete; torn or dropped drain entries
//!   set the modeled equivalent). Degraded but honest.
//! * **silent**: the data is neither oracle state and nothing noticed.
//!   This is silent corruption, the one unacceptable outcome; the
//!   campaign fails and [`shrink`] produces a minimal reproducer.
//!
//! # Examples
//!
//! ```
//! use supermem::torture::{run, TortureConfig};
//!
//! let mut cfg = TortureConfig::default();
//! cfg.schemes = vec![supermem::Scheme::SuperMem];
//! cfg.seeds = vec![1];
//! let report = run(&cfg);
//! assert!(report.silent().is_empty(), "no silent corruption");
//! assert!(report.total() > 0);
//! ```

use std::fmt::{Debug, Display};
use std::str::FromStr;

use supermem_memctrl::MachineCrashImage;
use supermem_nvm::{FaultClass, FaultSpec};
use supermem_persist::{recover_osiris, DirectMem, RecoveredMemory};
use supermem_sim::Config;

use crate::metrics::TextTable;
use crate::scheme::Scheme;
use crate::sweep::sweep;

mod data;
mod tree;

pub use data::{
    oracle_state, TortureCase, TortureConfig, DATA_ADDR, DATA_LEN, LOG_ADDR, TORTURE_SCHEMES,
};
pub use tree::{tree_torture_config, TreeFault, TreeTortureCase, TreeTortureConfig};

/// What a case with a two-state oracle amounted to after recovery and
/// the differential check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Classification {
    /// The pre-workload state survived intact (rollback or early crash).
    RecoveredOld,
    /// The post-workload state survived intact (the workload completed).
    RecoveredNew,
    /// The state is degraded but the damage was *detected*: recovery
    /// returned a typed error, or a hardware-observable fault signal
    /// (ECC detection, poisoned read, dirty-shutdown flag) fired.
    Detected,
    /// Wrong data with no error and no detection signal: silent
    /// corruption. A campaign containing one of these fails.
    Silent,
}

impl Classification {
    /// Stable display spelling.
    pub fn name(self) -> &'static str {
        match self {
            Classification::RecoveredOld => "recovered-old",
            Classification::RecoveredNew => "recovered-new",
            Classification::Detected => "detected",
            Classification::Silent => "SILENT",
        }
    }
}

impl std::fmt::Display for Classification {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl Verdict for Classification {
    const ALL: [Self; 4] = [
        Classification::RecoveredOld,
        Classification::RecoveredNew,
        Classification::Detected,
        Classification::Silent,
    ];
}

/// A subject's classification of one case.
pub trait Verdict: Copy + Eq + Debug + Display + Send + Sync + 'static {
    /// Every classification in tally-column order: the subject's two
    /// clean outcomes, then detected (`ALL[2]`), then SILENT (`ALL[3]`).
    /// The column headings are the display spellings, lower-cased.
    const ALL: [Self; 4];
}

/// One axis of injectable faults.
pub trait Fault: Copy + PartialEq + Debug + Send + Sync + 'static {
    /// Every fault on the axis, crash-only baseline first: a campaign's
    /// default axis and the vocabulary `--fault` accepts.
    fn all() -> Vec<Self>;
    /// Stable CLI spelling.
    fn name(self) -> &'static str;
    /// The plan armed in the controller for a fault that strikes *at*
    /// the power event, inside the controller's crash snapshot.
    fn plan(self, seed: u64) -> Option<FaultSpec>;
    /// Strikes the settled crash image, for a fault that lands after the
    /// power event.
    fn strike(self, seed: u64, machine: &mut MachineCrashImage);
}

/// The data, serve and KV fault axis: `None` is the crash-only baseline.
impl Fault for Option<FaultClass> {
    fn all() -> Vec<Self> {
        std::iter::once(None)
            .chain(FaultClass::ALL.map(Some))
            .collect()
    }

    fn name(self) -> &'static str {
        self.map_or("none", FaultClass::name)
    }

    fn plan(self, seed: u64) -> Option<FaultSpec> {
        // Torn drains and bank fail-stops happen at the power event.
        self.filter(|c| c.is_power_event())
            .map(|class| FaultSpec { class, seed })
    }

    fn strike(self, seed: u64, machine: &mut MachineCrashImage) {
        // Media strikes (flips, stuck cells, transients) land on the
        // settled image, after the dust of the crash — on one
        // seed-chosen channel, mirroring the single fault plan a power
        // event leaves behind.
        if let Some(class) = self.filter(|c| !c.is_power_event()) {
            let ch = (seed as usize) % machine.channels.len();
            machine.channels[ch]
                .store
                .strike_faults(FaultSpec { class, seed });
        }
    }
}

/// One crash-torture subject: a campaign configuration that knows how to
/// build, crash, recover and judge its workload. The harness does the
/// rest.
pub trait Subject: Default + Sync + Sized {
    /// Everything a case fixes besides its fault, crash point and seed.
    type Group: Copy;
    /// The fault axis.
    type Fault: Fault;
    /// One fully determined case.
    type Case: Copy + PartialEq + Debug + Send + Sync;
    /// How the judge classifies a case.
    type Class: Verdict;
    /// The subject's own state beside the memory (a store or service
    /// handle), built afresh with it for every case.
    type State;
    /// What the judge checks a recovered image against.
    type Oracle;
    /// Evidence the judge returns beside its classification.
    type Evidence: Default + Clone + Debug + Send;

    /// Report name (the `--json` `name` field).
    const NAME: &'static str;
    /// Title of the tally table.
    const TITLE: &'static str;
    /// Heading of the tally table's group column, and the footnote's
    /// noun for the group axis.
    const AXIS: &'static str;
    /// The footnote's noun for the fault axis, plural suffix included.
    const FAULTS: &'static str;
    /// The footnote explaining the table.
    const LEGEND: &'static str;
    /// Whether the tally table ends in a verdict column.
    const VERDICT_COLUMN: bool;
    /// The valueless flag that routes a command line to this subject.
    const MARKER: Option<&'static str>;

    /// Applies one command-line flag to the campaign; `Ok(false)` if the
    /// subject takes no such flag.
    fn set(&mut self, flag: Flag<Self::Fault>) -> Result<bool, String>;
    /// The campaign: its groups in sweep order, each with the seeds it
    /// runs (innermost); the faults every crash point is crossed with;
    /// and the single crash point to run, if set.
    #[allow(clippy::type_complexity)] // three plain parts, each documented above
    fn shape(&self) -> (Vec<(Self::Group, Vec<u64>)>, &[Self::Fault], Option<u64>);

    /// Assembles a case.
    fn case(group: Self::Group, fault: Self::Fault, point: u64, seed: u64) -> Self::Case;
    /// Takes a case apart: `(group, fault, point, seed)`.
    fn parts(case: &Self::Case) -> (Self::Group, Self::Fault, u64, u64);
    /// The tally-table row a case counts toward.
    fn label(case: &Self::Case) -> String;
    /// The CLI invocation reproducing exactly this case.
    fn repro(case: &Self::Case) -> String;

    /// The durable memory and subject state every case of a group
    /// starts from, and the machine configuration they run on.
    fn base(group: Self::Group) -> (DirectMem, Self::State, Config);
    /// Runs the tortured workload of `seed`.
    fn workload(&self, mem: &mut DirectMem, state: &mut Self::State, seed: u64);
    /// The shadow oracle of `seed`'s workload from the base.
    fn oracle(&self, mem: &DirectMem, state: &Self::State, seed: u64) -> Self::Oracle;
    /// Judges a recovered image against the oracle.
    fn judge(
        &self,
        case: &Self::Case,
        oracle: &Self::Oracle,
        image: RecoveredImage,
    ) -> (Self::Class, String, Self::Evidence);
}

/// The outcome of one executed case.
#[derive(Debug, Clone)]
pub struct CaseResult<S: Subject> {
    /// The case that ran.
    pub case: S::Case,
    /// How it was classified.
    pub classification: S::Class,
    /// Human-readable evidence for the classification.
    pub detail: String,
    /// The subject's own evidence (default when recovery refused before
    /// the judge ran).
    pub evidence: S::Evidence,
}

/// Everything a campaign produced.
#[derive(Debug, Clone)]
pub struct Report<S: Subject> {
    /// Every executed case, in sweep (input) order.
    pub results: Vec<CaseResult<S>>,
}

impl<S: Subject> Report<S> {
    /// Total number of injections executed.
    pub fn total(&self) -> u64 {
        self.results.len() as u64
    }

    /// The silent-corruption cases (a passing campaign has none).
    pub fn silent(&self) -> Vec<&CaseResult<S>> {
        self.results
            .iter()
            .filter(|r| r.classification == S::Class::ALL[3])
            .collect()
    }

    /// Count of cases with the given classification.
    pub fn count(&self, c: S::Class) -> u64 {
        self.results
            .iter()
            .filter(|r| r.classification == c)
            .count() as u64
    }

    /// Per-row tallies, in first-seen order: each row's label and its
    /// cases per classification, in [`Verdict::ALL`] order.
    pub fn tallies(&self) -> Vec<(String, [u64; 4])> {
        let mut out: Vec<(String, [u64; 4])> = Vec::new();
        for r in &self.results {
            let label = S::label(&r.case);
            let row = if let Some(row) = out.iter().position(|(l, _)| *l == label) {
                row
            } else {
                out.push((label, [0; 4]));
                out.len() - 1
            };
            let col = S::Class::ALL
                .iter()
                .position(|&c| c == r.classification)
                .unwrap_or(3);
            out[row].1[col] += 1;
        }
        out
    }

    /// The tally table: one row per label, with its case count, a column
    /// per classification, and a fail-safe verdict unless a case was
    /// SILENT.
    pub fn table(&self) -> TextTable {
        let mut headers = vec![S::AXIS.to_owned(), "cases".to_owned()];
        headers.extend(S::Class::ALL.map(|c| c.to_string().to_ascii_lowercase()));
        if S::VERDICT_COLUMN {
            headers.push("verdict".to_owned());
        }
        let mut t = TextTable::new(headers);
        for (label, counts) in self.tallies() {
            let mut row = vec![label, counts.iter().sum::<u64>().to_string()];
            row.extend(counts.map(|n| n.to_string()));
            if S::VERDICT_COLUMN {
                let silent = counts[3] > 0;
                row.push(
                    if silent {
                        "SILENT CORRUPTION"
                    } else {
                        "fail-safe"
                    }
                    .to_owned(),
                );
            }
            t.row(row);
        }
        t
    }

    /// The campaign-size footnote: injections, rows, and the faults and
    /// distinct seeds of `subject`'s campaign.
    pub fn footnote(&self, subject: &S) -> String {
        let (groups, faults, _) = subject.shape();
        let mut seeds: Vec<u64> = groups.into_iter().flat_map(|(_, s)| s).collect();
        seeds.sort_unstable();
        seeds.dedup();
        format!(
            "{} injections across {} {}(s), {} {}, {} seed(s)",
            self.total(),
            self.tallies().len(),
            S::AXIS,
            faults.len(),
            S::FAULTS,
            seeds.len()
        )
    }
}

/// Number of write-queue append boundaries the workload of `seed`
/// crosses in `group` (the final shutdown drain included): the crash
/// points the sweep visits, counted by a fault-free dry run.
pub fn crash_points<S: Subject>(subject: &S, group: S::Group, seed: u64) -> u64 {
    let (mut mem, mut state, _) = S::base(group);
    let before = mem.controller().append_events();
    subject.workload(&mut mem, &mut state, seed);
    mem.shutdown();
    mem.controller().append_events() - before
}

/// Every case of the campaign, in sweep order: per group, its faults ×
/// crash points × seeds.
pub fn cases<S: Subject>(subject: &S) -> Vec<S::Case> {
    let mut cases = Vec::new();
    let (groups, faults, point) = subject.shape();
    for (group, seeds) in groups {
        let Some(&first) = seeds.first() else {
            continue;
        };
        let total = crash_points(subject, group, first);
        let points: Vec<u64> = match point {
            Some(p) => vec![p.clamp(1, total)],
            None => (1..=total).collect(),
        };
        for &fault in faults {
            for &point in &points {
                cases.extend(seeds.iter().map(|&seed| S::case(group, fault, point, seed)));
            }
        }
    }
    cases
}

/// Runs the campaign: every case fans out over the parallel sweep engine,
/// and results come back in input order.
pub fn run<S: Subject>(subject: &S) -> Report<S> {
    Report {
        results: sweep(&cases(subject), |case| run_case(subject, case)),
    }
}

/// Runs `case`'s workload from the base state to its crash and returns
/// the machine crash image with the case's fault applied, and whether
/// the armed crash fired (`false`: the workload finished first, and the
/// image is of a clean shutdown).
pub fn crash_image<S: Subject>(
    subject: &S,
    mut mem: DirectMem,
    mut state: S::State,
    case: &S::Case,
) -> (MachineCrashImage, bool) {
    let (_, fault, point, seed) = S::parts(case);
    mem.controller_mut().arm_crash_after_appends(point);
    if let Some(spec) = fault.plan(seed) {
        mem.controller_mut().set_fault_plan(spec);
    }
    subject.workload(&mut mem, &mut state, seed);
    let (mut machine, fired) = if let Some(m) = mem.controller_mut().take_machine_crash_image() {
        (m, true)
    } else {
        // The armed point lies beyond the final append: finish cleanly
        // and image that.
        mem.shutdown();
        (mem.machine_crash_now(), false)
    };
    fault.strike(seed, &mut machine);
    (machine, fired)
}

/// Executes one case end to end: build the base, take the oracle, run to
/// the crash, recover the image, and let the subject judge it.
pub fn run_case<S: Subject>(subject: &S, case: &S::Case) -> CaseResult<S> {
    let (group, _, _, seed) = S::parts(case);
    let (mem, state, cfg) = S::base(group);
    let oracle = subject.oracle(&mem, &state, seed);
    let (machine, _) = crash_image(subject, mem, state, case);
    let (classification, detail, evidence) = match recover_image(&cfg, machine) {
        Ok(image) => subject.judge(case, &oracle, image),
        Err(detail) => (S::Class::ALL[2], detail, S::Evidence::default()),
    };
    CaseResult {
        case: *case,
        classification,
        detail,
        evidence,
    }
}

/// Shrinks a case to the smallest crash point, by halving, that still
/// reproduces its classification: the minimal reproducer of a failing
/// case.
pub fn shrink<S: Subject>(subject: &S, case: &S::Case) -> S::Case {
    let target = run_case(subject, case).classification;
    let (group, fault, point, seed) = S::parts(case);
    let at = |p| S::case(group, fault, p, seed);
    at(halve(point, |p| {
        run_case(subject, &at(p)).classification == target
    }))
}

/// The halving search behind every minimal reproducer: the last of
/// `start`, `start / 2`, `start / 4`, … (down to 1) for which `keeps`
/// holds, stopping at the first that fails.
pub fn halve(start: u64, keeps: impl Fn(u64) -> bool) -> u64 {
    let mut best = start;
    let mut probe = start / 2;
    while probe >= 1 && keeps(probe) {
        best = probe;
        probe /= 2;
    }
    best
}

/// A crash image with its counters recovered, ready for the subject's
/// own recovery.
pub struct RecoveredImage {
    /// The recovered memory.
    pub mem: RecoveredMemory,
    /// Lines Osiris trial decryption could not recover (0 for schemes
    /// that persist their counters strictly).
    pub osiris_unrecoverable: u64,
}

impl RecoveredImage {
    /// The detection-signal gate for wrong data. `Some(signals)` — the
    /// case is *detected* — when a hardware-observable signal fired or the
    /// subject's own `damage` flag is set; `None`, and the case is
    /// SILENT, when nothing noticed. ECC detections, poisoned or lost
    /// reads, transient exhaustion, media failures and Osiris
    /// unrecoverable lines count; torn or dropped drain entries latch
    /// the modeled NVDIMM dirty-shutdown flag.
    pub fn signals(&self, damage: bool) -> Option<String> {
        let fc = self.mem.store().fault_counters();
        let dirty_shutdown = fc.torn_entries > 0 || fc.dropped_writes > 0;
        let media = self.mem.media_failures();
        let fired = fc.any_detected()
            || dirty_shutdown
            || media > 0
            || self.osiris_unrecoverable > 0
            || damage;
        fired.then(|| {
            format!(
                "ecc_detections={} lost_reads={} transient_failures={} torn_entries={} \
                 dropped_writes={} media_failures={media}",
                fc.ecc_detections,
                fc.lost_reads,
                fc.transient_failures,
                fc.torn_entries,
                fc.dropped_writes,
            )
        })
    }
}

/// Recovers counters from a crash image: Osiris trial decryption where
/// the scheme relaxes counter persistence, the integrity-checked rebuild
/// otherwise. A refusal is the detail of a *detected* case.
pub fn recover_image(cfg: &Config, machine: MachineCrashImage) -> Result<RecoveredImage, String> {
    if cfg.osiris_window.is_some() {
        recover_osiris(cfg, machine.merged())
            .map(|(mem, report)| RecoveredImage {
                mem,
                osiris_unrecoverable: report.unrecoverable_lines,
            })
            .map_err(|e| format!("osiris counter recovery refused: {e}"))
    } else {
        RecoveredMemory::from_machine_image_checked(cfg, machine)
            .map(|mem| RecoveredImage {
                mem,
                osiris_unrecoverable: 0,
            })
            .map_err(|e| format!("image rebuild refused: {e}"))
    }
}

/// One parsed campaign flag.
#[derive(Debug, Clone)]
pub enum Flag<F> {
    /// `--scheme S`.
    Scheme(Scheme),
    /// `--fault F`.
    Fault(F),
    /// `--point K`.
    Point(u64),
    /// `--seed N` (that seed) or `--seeds COUNT` (seeds `1..=COUNT`).
    Seeds(Vec<u64>),
    /// `--channels N`, a power of two.
    Channels(usize),
    /// `--persisted-levels L`, at least 1.
    Levels(u32),
    /// `--structure NAME`, as given.
    Structure(String),
}

/// Takes the next argument as `flag`'s value: the one value parser of
/// the `supermem` command line.
pub fn flag_value<'a, T: FromStr>(
    it: &mut impl Iterator<Item = &'a String>,
    flag: &str,
) -> Result<T, String> {
    let raw = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
    raw.parse().map_err(|_| format!("invalid {flag} `{raw}`"))
}

/// Parses a campaign command line (the arguments after the subcommand)
/// into subject `S`, over its defaults: the one grammar of
/// `supermem torture`, `torture --tree`, `serve --torture` and
/// `kv torture`.
pub fn parse<S: Subject>(argv: &[String]) -> Result<S, String> {
    let mut subject = S::default();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let flag = arg.as_str();
        // `--json` is read by the report emitter; the marker routed here.
        if flag == "--json" || S::MARKER == Some(flag) {
            continue;
        }
        let parsed = match flag {
            "--fault" => {
                let name: String = flag_value(&mut it, flag)?;
                let all = S::Fault::all();
                let fault = all.iter().find(|f| f.name().eq_ignore_ascii_case(&name));
                let names: Vec<&str> = all.iter().map(|f| f.name()).collect();
                Flag::Fault(*fault.ok_or_else(|| {
                    format!(
                        "unknown fault `{name}` (expected one of: {})",
                        names.join(" ")
                    )
                })?)
            }
            "--point" => Flag::Point(flag_value(&mut it, flag)?),
            "--seed" => Flag::Seeds(vec![flag_value(&mut it, flag)?]),
            "--seeds" => {
                let n: u64 = flag_value(&mut it, flag)?;
                if n == 0 {
                    return Err("--seeds must be at least 1".into());
                }
                Flag::Seeds((1..=n).collect())
            }
            "--scheme" => {
                let name: String = flag_value(&mut it, flag)?;
                Flag::Scheme(
                    Scheme::parse(&name)
                        .ok_or_else(|| format!("unknown scheme `{}`", name.to_ascii_lowercase()))?,
                )
            }
            "--channels" => {
                let n: usize = flag_value(&mut it, flag)?;
                if !n.is_power_of_two() {
                    return Err("--channels must be a power of two".into());
                }
                Flag::Channels(n)
            }
            "--persisted-levels" => {
                let n: u32 = flag_value(&mut it, flag)?;
                if n == 0 {
                    return Err("--persisted-levels must be at least 1 (level 0 persists \
                                nothing and leaves no tree region to torture)"
                        .into());
                }
                Flag::Levels(n)
            }
            "--structure" => Flag::Structure(flag_value(&mut it, flag)?),
            _ => return Err(format!("unknown flag `{flag}`")),
        };
        if !subject.set(parsed)? {
            return Err(format!("unknown flag `{flag}`"));
        }
    }
    Ok(subject)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn single(scheme: Scheme, class: Option<FaultClass>, seeds: &[u64]) -> Report<TortureConfig> {
        single_ch(scheme, class, seeds, 1)
    }

    fn single_ch(
        scheme: Scheme,
        class: Option<FaultClass>,
        seeds: &[u64],
        channels: usize,
    ) -> Report<TortureConfig> {
        let cfg = TortureConfig {
            schemes: vec![scheme],
            classes: vec![class],
            seeds: seeds.to_vec(),
            point: None,
            channels: vec![channels],
        };
        run(&cfg)
    }

    #[test]
    fn baseline_without_faults_always_recovers_an_oracle_state() {
        // Recovery of an un-faulted crash image must never report
        // corruption, at any crash point, under several seeds.
        for scheme in [Scheme::SuperMem, Scheme::WriteThrough, Scheme::Osiris] {
            let report = single(scheme, None, &[1, 2, 3]);
            for r in &report.results {
                assert!(
                    matches!(
                        r.classification,
                        Classification::RecoveredOld | Classification::RecoveredNew
                    ),
                    "{}: un-faulted case must recover cleanly, got {} ({})",
                    r.case.repro(),
                    r.classification,
                    r.detail
                );
            }
        }
    }

    #[test]
    fn torn_drains_never_corrupt_silently() {
        let report = single(Scheme::SuperMem, Some(FaultClass::Torn), &[1, 2, 3, 4]);
        assert!(report.silent().is_empty(), "torn drain slipped through");
        // The tear must actually bite somewhere: at least one case must
        // deviate from the clean-crash classification or carry tear
        // evidence in its detail.
        assert!(
            report
                .results
                .iter()
                .any(|r| r.classification == Classification::Detected),
            "no torn case was detected — the injection is not wired up"
        );
    }

    #[test]
    fn double_flips_are_detected_not_silent() {
        let report = single(Scheme::SuperMem, Some(FaultClass::DoubleFlip), &[1, 2, 3]);
        assert!(report.silent().is_empty());
        assert!(
            report
                .results
                .iter()
                .any(|r| r.classification == Classification::Detected),
            "an uncorrectable double flip must surface as detected"
        );
    }

    #[test]
    fn single_flips_and_stuck_cells_are_absorbed() {
        // SECDED corrects single wrong bits, so these classes should
        // leave recovery intact (and certainly never silent).
        for class in [FaultClass::BitFlip, FaultClass::StuckAt] {
            let report = single(Scheme::SuperMem, Some(class), &[1, 2]);
            assert!(report.silent().is_empty(), "{class}: silent corruption");
            assert_eq!(
                report.count(Classification::RecoveredOld)
                    + report.count(Classification::RecoveredNew)
                    + report.count(Classification::Detected),
                report.total()
            );
        }
    }

    #[test]
    fn transient_reads_are_retried_through() {
        let report = single(Scheme::SuperMem, Some(FaultClass::TransientRead), &[1, 2]);
        assert!(report.silent().is_empty());
    }

    #[test]
    fn bank_failures_degrade_but_never_lie() {
        let report = single(Scheme::SuperMem, Some(FaultClass::BankFail), &[1, 2]);
        assert!(report.silent().is_empty(), "bank loss must be detected");
        assert!(
            report
                .results
                .iter()
                .any(|r| r.classification == Classification::Detected),
            "losing a whole bank must be detected somewhere in the sweep"
        );
    }

    #[test]
    fn report_tallies_are_consistent() {
        let report = single(Scheme::WriteThrough, Some(FaultClass::BitFlip), &[7]);
        let tallies = report.tallies();
        assert_eq!(tallies.len(), 1);
        let (label, counts) = &tallies[0];
        assert_eq!(label, "WT");
        assert_eq!(counts.iter().sum::<u64>(), report.total());
        for (i, c) in Classification::ALL.into_iter().enumerate() {
            assert_eq!(counts[i], report.count(c), "{c}");
        }
        assert_eq!(counts[3], 0, "fail-safe");
    }

    #[test]
    fn repro_line_round_trips_through_the_cli_spelling() {
        let tc = TortureCase {
            scheme: Scheme::WtXbank,
            class: Some(FaultClass::DoubleFlip),
            point: 5,
            seed: 9,
            channels: 1,
        };
        assert_eq!(
            tc.repro(),
            "supermem torture --scheme wt+xbank --fault double-flip --point 5 --seed 9 --channels 1"
        );
        let tc = TortureCase {
            scheme: Scheme::SuperMem,
            class: None,
            point: 1,
            seed: 1,
            channels: 1,
        };
        assert!(tc.repro().contains("--fault none"));
        let mut tc2 = tc;
        tc2.channels = 2;
        assert!(tc2.repro().ends_with("--channels 2"));
    }

    #[test]
    fn multi_channel_baseline_recovers_an_oracle_state() {
        for scheme in [Scheme::SuperMem, Scheme::WriteThrough] {
            let report = single_ch(scheme, None, &[1, 2], 2);
            for r in &report.results {
                assert_eq!(r.case.channels, 2);
                assert!(
                    matches!(
                        r.classification,
                        Classification::RecoveredOld | Classification::RecoveredNew
                    ),
                    "{}: un-faulted 2-channel case must recover cleanly, got {} ({})",
                    r.case.repro(),
                    r.classification,
                    r.detail
                );
            }
        }
    }

    #[test]
    fn multi_channel_torn_drains_never_corrupt_silently() {
        let report = single_ch(Scheme::SuperMem, Some(FaultClass::Torn), &[1, 2], 2);
        assert!(
            report.silent().is_empty(),
            "torn drain slipped through at 2 channels"
        );
    }

    #[test]
    fn matrix_mode_limits_multi_channel_columns_to_certified_schemes() {
        let cfg = TortureConfig {
            schemes: vec![Scheme::SuperMem, Scheme::Osiris],
            classes: vec![None],
            seeds: vec![1],
            point: Some(1),
            channels: vec![1, 2],
        };
        let report = run(&cfg);
        assert!(report
            .results
            .iter()
            .any(|r| r.case.scheme == Scheme::Osiris && r.case.channels == 1));
        assert!(
            !report
                .results
                .iter()
                .any(|r| r.case.scheme == Scheme::Osiris && r.case.channels == 2),
            "Osiris must not appear in the multi-channel column"
        );
        assert!(report
            .results
            .iter()
            .any(|r| r.case.scheme == Scheme::SuperMem && r.case.channels == 2));
    }

    #[test]
    fn shrink_finds_a_smaller_point_with_the_same_outcome() {
        // Shrinking a clean case keeps its class of outcome; the exact
        // classification at the minimal point must match the original's.
        let cfg = TortureConfig::default();
        let tc = TortureCase {
            scheme: Scheme::SuperMem,
            class: None,
            point: crash_points(&cfg, (Scheme::SuperMem, 1), 1),
            seed: 1,
            channels: 1,
        };
        let min = shrink(&cfg, &tc);
        assert!(min.point >= 1 && min.point <= tc.point);
        assert_eq!(
            run_case(&cfg, &min).classification,
            run_case(&cfg, &tc).classification
        );
    }

    fn tree_single(levels: u32, fault: TreeFault, seeds: &[u64]) -> Report<TreeTortureConfig> {
        run(&TreeTortureConfig {
            levels: vec![levels],
            faults: vec![fault],
            seeds: seeds.to_vec(),
            point: None,
        })
    }

    #[test]
    fn tree_baseline_without_faults_always_recovers_an_oracle_state() {
        // The streaming tree must not *cause* recovery failures: an
        // un-faulted crash at any point recovers one oracle state.
        for levels in [1, 2] {
            let report = tree_single(levels, TreeFault::None, &[1, 2]);
            for r in &report.results {
                assert!(
                    matches!(
                        r.classification,
                        Classification::RecoveredOld | Classification::RecoveredNew
                    ),
                    "{}: un-faulted streaming-tree case must recover cleanly, got {} ({})",
                    r.case.repro(),
                    r.classification,
                    r.detail
                );
            }
        }
    }

    #[test]
    fn tree_node_double_flips_are_detected_not_silent() {
        let report = tree_single(1, TreeFault::Media(FaultClass::DoubleFlip), &[1, 2]);
        assert!(
            report.silent().is_empty(),
            "tree-node damage slipped through"
        );
        assert!(
            report.count(Classification::Detected) > 0,
            "an uncorrectable tree-node flip must surface as detected"
        );
    }

    #[test]
    fn tree_node_tampering_is_always_detected() {
        // ECC-clean forgery of a node line: only the recovery audit can
        // see it, and it must see it every time — the whole point of
        // persisting the frontier.
        for levels in [1, 2] {
            let report = tree_single(levels, TreeFault::Tamper, &[1, 2, 3]);
            for r in &report.results {
                assert_eq!(
                    r.classification,
                    Classification::Detected,
                    "{}: forged node line not detected ({})",
                    r.case.repro(),
                    r.detail
                );
            }
        }
    }

    #[test]
    fn tree_bank_failure_takes_node_lines_honestly() {
        let report = tree_single(1, TreeFault::Media(FaultClass::BankFail), &[1, 2]);
        assert!(
            report.silent().is_empty(),
            "lost tree lines must be detected"
        );
        assert!(report.count(Classification::Detected) > 0);
    }

    #[test]
    fn tree_repro_line_round_trips_through_the_cli_spelling() {
        let tc = TreeTortureCase {
            levels: 2,
            fault: TreeFault::Tamper,
            point: 5,
            seed: 9,
        };
        assert_eq!(
            tc.repro(),
            "supermem torture --tree --persisted-levels 2 --fault tamper --point 5 --seed 9"
        );
    }
}
