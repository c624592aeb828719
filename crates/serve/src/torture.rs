//! The serve subject of the crash-campaign harness
//! ([`supermem::torture`]): crashes inside the CAS windows of the served
//! structures.
//!
//! The data subject attacks an undo-logged transaction; this one
//! attacks the *lock-free* protocol: one mutating operation on a
//! warmed-up shared structure, crashed (and optionally media-faulted)
//! after every write-queue append boundary it crosses — which places
//! crash points between the descriptor announce, the node persist, the
//! linearizing pointer store, and the completion record.
//!
//! The oracle is exact: with a single tortured operation there are only
//! two legal recovered states, *before* (the op never linearized) and
//! *after* (it did). Recovery ([`crate::service::recover`]) must
//! produce one of them — cross-checked against the descriptor slot: a
//! `DONE` descriptor with a *before* structure (or vice versa for a
//! still-`PENDING` one that clearly applied... which is legal — pending
//! resolves by inspection) is classified honestly. Anything else must
//! be *detected*, never silent.

use supermem::nvm::FaultClass;
use supermem::persist::{DirectMem, SlotState};
use supermem::sim::Config;
use supermem::torture::{Classification, Fault, Flag, RecoveredImage, Subject};
use supermem::Scheme;

use crate::service::{recover, Service, ServiceLayout, StepResult, StructureKind, OP_UPDATE};
use crate::traffic::{ReqKind, Request};

const BASE: u64 = 0x10_0000;
const REGION: u64 = 1 << 16;
const CORES: usize = 2;
const BUCKETS: u64 = 4;

/// One fully determined serve-torture case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeCase {
    /// Scheme under torture.
    pub scheme: Scheme,
    /// Structure under torture.
    pub structure: StructureKind,
    /// Fault class to inject, or `None` for the crash-only baseline.
    pub class: Option<FaultClass>,
    /// Crash after this many write-queue appends into the tortured op.
    pub point: u64,
    /// Seed fixing the injection's choices.
    pub seed: u64,
}

impl ServeCase {
    /// The CLI invocation reproducing this case's campaign slice.
    pub fn repro(&self) -> String {
        format!(
            "supermem serve --torture --structure {} --scheme {} --fault {} --point {} --seed {}",
            self.structure,
            self.scheme.name().to_ascii_lowercase(),
            self.class.name(),
            self.point,
            self.seed
        )
    }
}

/// Campaign shape.
#[derive(Debug, Clone)]
pub struct ServeTortureConfig {
    /// Schemes to torture.
    pub schemes: Vec<Scheme>,
    /// Structures to torture.
    pub structures: Vec<StructureKind>,
    /// Fault classes (`None` = crash-only baseline).
    pub classes: Vec<Option<FaultClass>>,
    /// Injection seeds.
    pub seeds: Vec<u64>,
    /// Restrict to one crash point, if set.
    pub point: Option<u64>,
}

impl Default for ServeTortureConfig {
    fn default() -> Self {
        Self {
            schemes: vec![Scheme::SuperMem],
            structures: StructureKind::ALL.to_vec(),
            classes: Fault::all(),
            seeds: vec![1, 2],
            point: None,
        }
    }
}

/// The prologue ops that warm the structure before the tortured op, so
/// crash points land on a non-trivial structure (for stacks/queues the
/// tortured pop/dequeue has something to remove).
fn prologue(structure: StructureKind) -> Vec<Request> {
    let mk = |kind, key, value| Request {
        at: 0,
        kind,
        key,
        value,
    };
    match structure {
        StructureKind::Stack | StructureKind::Queue => vec![
            mk(ReqKind::Update, 1, 0x101),
            mk(ReqKind::Update, 2, 0x202),
            mk(ReqKind::Update, 3, 0x303),
            mk(ReqKind::Remove, 0, 0),
        ],
        StructureKind::Hash => vec![
            mk(ReqKind::Update, 1, 0x101),
            mk(ReqKind::Update, 5, 0x505), // same bucket as 1 (mod 4)
            mk(ReqKind::Update, 2, 0x202),
        ],
    }
}

/// The tortured mutation (always a core-0 write so the descriptor slot
/// under test is slot 0).
fn tortured_request(structure: StructureKind, seed: u64) -> Request {
    let remove = structure != StructureKind::Hash && seed.is_multiple_of(2);
    Request {
        at: 0,
        kind: if remove {
            ReqKind::Remove
        } else {
            ReqKind::Update
        },
        key: 7 + seed,
        value: 0x7000 + seed,
    }
}

fn run_op(svc: &mut Service, mem: &mut DirectMem, core: usize, req: &Request) {
    svc.start_op(mem, core, req);
    while svc.step(mem, core) == StepResult::InFlight {}
}

/// Builds the warmed, durably-shut-down base system on `cfg` and returns
/// it with the service handle (shadow included) positioned before the
/// tortured op.
fn base_system(cfg: Config, structure: StructureKind) -> (DirectMem, Service, Config) {
    let mut mem = DirectMem::new(&cfg);
    let mut svc = Service::new(&mut mem, structure, BASE, REGION, CORES, BUCKETS);
    for req in prologue(structure) {
        run_op(&mut svc, &mut mem, 1, &req);
    }
    mem.shutdown();
    (mem, svc, cfg)
}

impl Subject for ServeTortureConfig {
    type Group = (Scheme, StructureKind);
    type Fault = Option<FaultClass>;
    type Case = ServeCase;
    type Class = Classification;
    type State = Service;
    /// The service layout and the structure's entries before and after
    /// the tortured op.
    type Oracle = (ServiceLayout, Vec<(u64, u64)>, Vec<(u64, u64)>);
    type Evidence = ();

    const NAME: &'static str = "serve-torture";
    const TITLE: &'static str = "CAS-window crash torture: crash point x fault class x seed";
    const AXIS: &'static str = "structure";
    const FAULTS: &'static str = "fault class(es)";
    const LEGEND: &'static str =
        "(crash points land between announce, node persist, linearizing CAS, completion)";
    const VERDICT_COLUMN: bool = false;
    const MARKER: Option<&'static str> = Some("--torture");
    const GROUP_FLAGS: &'static [&'static str] = &["--scheme", "--structure"];

    fn set(&mut self, flag: Flag<Self::Fault>) -> Result<(), String> {
        match flag {
            Flag::Scheme(s) => self.schemes = vec![s],
            Flag::Structure(s) => self.structures = vec![StructureKind::from_flag(&s)?],
            Flag::Fault(f) => self.classes = vec![f],
            Flag::Point(p) => self.point = Some(p),
            Flag::Seeds(s) => self.seeds = s,
            _ => unreachable!("not in GROUP_FLAGS"),
        }
        Ok(())
    }

    fn shape(&self) -> (Vec<(Self::Group, Vec<u64>)>, &[Self::Fault], Option<u64>) {
        let mut groups = Vec::new();
        for &scheme in &self.schemes {
            for &structure in &self.structures {
                for &seed in &self.seeds {
                    groups.push(((scheme, structure), vec![seed]));
                }
            }
        }
        (groups, &self.classes, self.point)
    }

    fn case(g: Self::Group, class: Self::Fault, point: u64, seed: u64) -> ServeCase {
        let (scheme, structure) = g;
        ServeCase {
            scheme,
            structure,
            class,
            point,
            seed,
        }
    }

    fn parts(c: &ServeCase) -> (Self::Group, Self::Fault, u64, u64) {
        ((c.scheme, c.structure), c.class, c.point, c.seed)
    }

    fn label(c: &ServeCase) -> String {
        c.structure.to_string()
    }

    fn repro(c: &ServeCase) -> String {
        c.repro()
    }

    fn base((scheme, structure): Self::Group) -> (DirectMem, Service, Config) {
        base_system(scheme.apply(Config::default()), structure)
    }

    /// The tortured op, always on core 0 so its descriptor is slot 0.
    fn workload(&self, mem: &mut DirectMem, svc: &mut Service, seed: u64) {
        run_op(svc, mem, 0, &tortured_request(svc.layout().kind, seed));
    }

    /// *Before* is the warmed structure; *after* is the tortured op
    /// completed on an unfaulted clone.
    fn oracle(&self, mem: &DirectMem, svc: &Service, seed: u64) -> Self::Oracle {
        let (mut mem, mut after) = (mem.clone(), svc.clone());
        self.workload(&mut mem, &mut after, seed);
        (svc.layout(), svc.shadow_entries(), after.shadow_entries())
    }

    fn judge(
        &self,
        _: &ServeCase,
        (layout, before, after): &Self::Oracle,
        mut image: RecoveredImage,
    ) -> (Classification, String, ()) {
        let recovered = match recover(&mut image.mem, layout) {
            Ok(r) => r,
            Err(e) => return (Classification::Detected, format!("{e}"), ()),
        };

        // Structure-level differential check against the exact oracle.
        let matches_before = recovered.entries == *before;
        let matches_after = recovered.entries == *after;

        // Descriptor cross-check: slot 0 belongs to the tortured op. A DONE
        // descriptor for it promises the op linearized — a *before*
        // structure under that promise is a lie (the completion record
        // persisted before the linearizing store did).
        let slot0 = recovered.slots[0];
        let slot_lies = slot0.state == SlotState::Done
            && slot0.rec.seq == 1
            && matches_before
            && !matches_after
            // An update that "completed" must have published its node; an
            // empty-remove completion (result 0 on a remove) legally leaves
            // the structure unchanged.
            && !(slot0.rec.op != OP_UPDATE && slot0.result == 0);

        if (matches_before || matches_after) && !slot_lies {
            let which = if matches_after {
                Classification::RecoveredNew
            } else {
                Classification::RecoveredOld
            };
            return (
                which,
                format!(
                    "{} entries intact (slot0 {:?})",
                    if matches_after { "after" } else { "before" },
                    slot0.state
                ),
                (),
            );
        }

        // Wrong data (or a lying descriptor): acceptable only if something
        // noticed.
        match image.signals(false) {
            Some(signals) => (
                Classification::Detected,
                format!(
                    "degraded structure with detection signals: {signals} slot_lies={slot_lies}"
                ),
                (),
            ),
            None => (
                Classification::Silent,
                format!(
                    "recovered {} entries match neither oracle ({} before / {} after) \
                     or the descriptor lied (slot_lies={slot_lies}) and nothing detected it",
                    recovered.entries.len(),
                    before.len(),
                    after.len()
                ),
                (),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use supermem::torture::{run, Report};

    fn campaign(
        structure: StructureKind,
        class: Option<FaultClass>,
        seeds: &[u64],
    ) -> Report<ServeTortureConfig> {
        run(&ServeTortureConfig {
            schemes: vec![Scheme::SuperMem],
            structures: vec![structure],
            classes: vec![class],
            seeds: seeds.to_vec(),
            point: None,
        })
    }

    #[test]
    fn unfaulted_cas_window_crashes_recover_an_oracle_state() {
        for structure in StructureKind::ALL {
            let report = campaign(structure, None, &[1, 2]);
            assert!(report.total() > 0, "{structure}: no crash points");
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
            // The sweep must actually straddle the linearization point:
            // both oracle states must appear somewhere.
            assert!(
                report.count(Classification::RecoveredOld) > 0
                    && report.count(Classification::RecoveredNew) > 0,
                "{structure}: crash points never straddled the CAS"
            );
        }
    }

    #[test]
    fn torn_drains_in_cas_windows_never_corrupt_silently() {
        for structure in StructureKind::ALL {
            let report = campaign(structure, Some(FaultClass::Torn), &[1, 2]);
            assert!(
                report.silent().is_empty(),
                "{structure}: torn drain slipped through: {:?}",
                report.silent().first().map(|r| &r.detail)
            );
        }
    }

    #[test]
    fn double_flips_on_the_structure_are_detected() {
        let report = campaign(StructureKind::Stack, Some(FaultClass::DoubleFlip), &[1, 2]);
        assert!(report.silent().is_empty());
    }

    #[test]
    fn bank_failures_in_cas_windows_never_lie() {
        let report = campaign(StructureKind::Queue, Some(FaultClass::BankFail), &[1, 2]);
        assert!(report.silent().is_empty());
    }

    #[test]
    fn repro_line_names_the_case() {
        let tc = ServeCase {
            scheme: Scheme::SuperMem,
            structure: StructureKind::Hash,
            class: Some(FaultClass::Torn),
            point: 3,
            seed: 2,
        };
        assert_eq!(
            tc.repro(),
            "supermem serve --torture --structure hash --scheme supermem --fault torn --point 3 --seed 2"
        );
    }
}
