//! Shared lock-free persistent data structures with crash-recoverable
//! linearization points.
//!
//! Three classic structures — a Treiber stack, a Michael-Scott queue,
//! and a bucketed chaining hash — are laid out in persistent memory and
//! served to N simulated cores concurrently. Every mutating operation
//! follows the memento-style descriptor protocol built on
//! [`SlotArray`]:
//!
//! 1. **announce** — the full operation record is persisted `PENDING`
//!    in the core's descriptor slot (one line, one persist);
//! 2. **prepare** — the new node is written and persisted *off to the
//!    side* (unreachable), capturing the expected value of the shared
//!    pointer;
//! 3. **attempt** — the shared pointer is re-read; if it still matches,
//!    the linearizing pointer store is persisted (the "CAS"); if not,
//!    the attempt fails and the operation retries against the new
//!    value;
//! 4. **complete** — the slot is persisted `DONE` with the result.
//!
//! A crash can land between any two of these persists. Recovery
//! ([`recover`]) scans the descriptor slots (checksummed; corruption is
//! *detected*, never guessed around) and walks the structure verifying
//! per-node checksums, so the torture harness can classify every crash
//! image as recovered-old, recovered-new, or detected.
//!
//! The simulator executes one core's phase at a time (simulated time is
//! arbitrated by the engine), so each phase is atomic — but phases of
//! different cores interleave freely, which is exactly the window where
//! real CAS loops race. The cache hierarchy's write-invalidate keeps a
//! failed attempt honest: the re-read always observes the winning
//! core's store via the shared L3.

use std::collections::HashSet;
use std::collections::VecDeque;

use supermem::torture::Value;
use supermem_persist::{Arena, PMem, SlotArray, SlotError, SlotRecord, SlotState, SlotView};

use crate::schedule::{DetachedSchedule, Directive, SchedPoint, Schedule};
use crate::traffic::{ReqKind, Request};

/// Slot-record op code for insert/push/enqueue.
pub const OP_UPDATE: u64 = 1;
/// Slot-record op code for pop/dequeue.
pub const OP_REMOVE: u64 = 2;

/// Node-line word offsets (64-byte nodes, all fields 8-byte words).
const NODE_NEXT: u64 = 0;
const NODE_KEY: u64 = 8;
const NODE_VAL: u64 = 16;
const NODE_SEQ: u64 = 24;
const NODE_CSUM: u64 = 32;

/// Which shared structure a service hosts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StructureKind {
    /// Treiber stack: push/pop CAS on the head pointer.
    Stack,
    /// Michael-Scott queue: enqueue links at the tail, dequeue swings
    /// the head; lagging tails are helped forward.
    Queue,
    /// Bucketed chaining hash: insert CAS on the bucket head (no
    /// remove; lookups walk the chain).
    Hash,
}

impl StructureKind {
    /// Every structure, in display order.
    pub const ALL: [StructureKind; 3] = [
        StructureKind::Stack,
        StructureKind::Queue,
        StructureKind::Hash,
    ];

    /// Stable display spelling.
    pub fn name(self) -> &'static str {
        match self {
            StructureKind::Stack => "stack",
            StructureKind::Queue => "queue",
            StructureKind::Hash => "hash",
        }
    }

    /// Parses the CLI spelling.
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "stack" => Some(StructureKind::Stack),
            "queue" => Some(StructureKind::Queue),
            "hash" => Some(StructureKind::Hash),
            _ => None,
        }
    }

    /// Parses a `--structure` value.
    pub fn from_flag(raw: &str) -> Result<Self, String> {
        let flag = "--structure";
        Value { flag, raw }.one_of(Self::parse(raw), Self::ALL)
    }
}

impl std::fmt::Display for StructureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The persistent-memory geometry of one service instance: everything
/// recovery needs to find the structure in a crash image.
#[derive(Debug, Clone, Copy)]
pub struct ServiceLayout {
    /// Hosted structure.
    pub kind: StructureKind,
    /// Shared pointer line (stack head / queue head).
    pub meta0: u64,
    /// Second shared pointer line (queue tail; unused otherwise).
    pub meta1: u64,
    /// Per-core descriptor slots.
    pub slots: SlotArray,
    /// First bucket word (hash only).
    pub buckets_base: u64,
    /// Bucket count (hash only; 0 otherwise).
    pub nbuckets: u64,
    /// Node arena span (node pointers must fall inside it).
    pub arena_base: u64,
    /// Exclusive end of the node arena.
    pub arena_end: u64,
}

impl ServiceLayout {
    /// Computes the layout for a service at `base` spanning
    /// `region_len` bytes, serving `cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not line-aligned, `cores` is 0, or the
    /// region cannot hold the metadata plus at least one node line.
    pub fn new(
        kind: StructureKind,
        base: u64,
        region_len: u64,
        cores: usize,
        nbuckets: u64,
    ) -> Self {
        assert!(base.is_multiple_of(64), "service base must be line-aligned");
        assert!(cores > 0, "a service needs at least one core");
        let slots = SlotArray::new(base + 128, cores);
        let nbuckets = if kind == StructureKind::Hash {
            nbuckets
        } else {
            0
        };
        let buckets_base = slots.end();
        let buckets_bytes = (nbuckets * 8).div_ceil(64) * 64;
        let arena_base = buckets_base + buckets_bytes;
        let arena_end = base + region_len;
        assert!(
            arena_end >= arena_base + 64,
            "region too small: {region_len} B leaves no node space"
        );
        Self {
            kind,
            meta0: base,
            meta1: base + 64,
            slots,
            buckets_base,
            nbuckets,
            arena_base,
            arena_end,
        }
    }

    fn bucket_addr(&self, key: u64) -> u64 {
        self.buckets_base + (key % self.nbuckets) * 8
    }

    fn node_in_range(&self, addr: u64) -> bool {
        addr >= self.arena_base && addr + 64 <= self.arena_end && addr.is_multiple_of(64)
    }
}

/// Same avalanche mix as the descriptor slots: a torn mix of old and
/// new node words cannot re-checksum by accident.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn node_checksum(next: u64, key: u64, value: u64, seq: u64) -> u64 {
    let mut h = 0x10DE_CAFE_0B57_AC1Eu64;
    for w in [next, key, value, seq] {
        h = mix(h ^ w);
    }
    h
}

fn write_node<M: PMem>(mem: &mut M, addr: u64, next: u64, key: u64, value: u64, seq: u64) {
    mem.write_u64(addr + NODE_NEXT, next);
    mem.write_u64(addr + NODE_KEY, key);
    mem.write_u64(addr + NODE_VAL, value);
    mem.write_u64(addr + NODE_SEQ, seq);
    mem.write_u64(addr + NODE_CSUM, node_checksum(next, key, value, seq));
    mem.clwb(addr, 64);
    mem.sfence();
}

/// Persists one 8-byte shared-pointer store (the linearizing "CAS"
/// publication, or a tail fixup).
fn persist_ptr<M: PMem>(mem: &mut M, addr: u64, value: u64) {
    mem.write_u64(addr, value);
    mem.clwb(addr, 8);
    mem.sfence();
}

/// The linearizing pointer persist followed by the completion persist,
/// under the attached schedule's directive: `SkipPersist` leaves the
/// linearizing store volatile-only, `CompleteFirst` reorders the
/// completion persist ahead of it. Detached, this is exactly
/// `persist_ptr` + `slots.complete`.
fn linearize_and_complete<M: PMem, S: Schedule>(
    layout: &ServiceLayout,
    mem: &mut M,
    sched: &mut S,
    core: usize,
    ptr_addr: u64,
    ptr_value: u64,
    result: u64,
) {
    let dir = sched.at(core, SchedPoint::Linearize);
    if dir == Directive::CompleteFirst {
        layout.slots.complete(mem, core, result);
    }
    if dir == Directive::SkipPersist {
        mem.write_u64(ptr_addr, ptr_value);
    } else {
        persist_ptr(mem, ptr_addr, ptr_value); // linearization
    }
    sched.at(core, SchedPoint::Complete);
    if dir != Directive::CompleteFirst {
        layout.slots.complete(mem, core, result);
    }
}

/// What one [`Service::step`] call amounted to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepResult {
    /// The operation needs more steps (a failed CAS attempt, a helping
    /// step, or a pending tail fixup).
    InFlight,
    /// The operation completed. `result` is the looked-up / popped
    /// value (`None` for misses, empty removes, and updates).
    Done {
        /// Operation result value.
        result: Option<u64>,
    },
}

/// One core's in-flight operation.
#[derive(Debug, Clone, Copy)]
struct OpCtx {
    kind: ReqKind,
    key: u64,
    value: u64,
    phase: Phase,
    /// Allocated node (updates) or the node being unlinked (removes).
    node: u64,
    /// Expected shared-pointer value captured at prepare time.
    observed: u64,
    /// Result value stashed at prepare time (removes).
    result: u64,
    retries: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Announced (writes) or admitted (reads); nothing prepared yet.
    Announced,
    /// Node written / target captured; next step attempts the CAS.
    Prepared,
    /// Queue enqueue linearized; the tail fixup store remains.
    Fixup,
}

/// A concurrent persistent structure served to N cores, verified
/// against a volatile shadow model.
///
/// # Examples
///
/// ```
/// use supermem_persist::VecMem;
/// use supermem_serve::service::{Service, StepResult, StructureKind};
/// use supermem_serve::traffic::{ReqKind, Request};
///
/// let mut mem = VecMem::new();
/// let mut svc = Service::new(&mut mem, StructureKind::Stack, 0x1000, 1 << 16, 2, 0);
/// let req = Request { at: 0, kind: ReqKind::Update, key: 7, value: 99 , };
/// svc.start_op(&mut mem, 0, &req);
/// while svc.step(&mut mem, 0) == StepResult::InFlight {}
/// svc.verify(&mut mem).unwrap();
/// ```
#[derive(Debug, Clone)]
pub struct Service {
    layout: ServiceLayout,
    arena: Arena,
    seqs: Vec<u64>,
    ctx: Vec<Option<OpCtx>>,
    shadow_stack: Vec<(u64, u64)>,
    shadow_queue: VecDeque<(u64, u64)>,
    shadow_hash: Vec<Vec<(u64, u64)>>,
    strict: bool,
    completed: u64,
    retries_total: u64,
}

impl Service {
    /// Initializes the structure in `[base, base + region_len)` for
    /// `cores` cores and persists the initial state (empty structure,
    /// idle descriptor slots).
    ///
    /// # Panics
    ///
    /// Panics on a degenerate layout (see [`ServiceLayout::new`]) or,
    /// for hashes, `nbuckets == 0`.
    pub fn new<M: PMem>(
        mem: &mut M,
        kind: StructureKind,
        base: u64,
        region_len: u64,
        cores: usize,
        nbuckets: u64,
    ) -> Self {
        assert!(
            kind != StructureKind::Hash || nbuckets > 0,
            "a hash service needs at least one bucket"
        );
        let layout = ServiceLayout::new(kind, base, region_len, cores, nbuckets);
        let mut arena = Arena::new(layout.arena_base, layout.arena_end - layout.arena_base);
        layout.slots.init(mem);
        match kind {
            StructureKind::Stack => {
                persist_ptr(mem, layout.meta0, 0);
            }
            StructureKind::Queue => {
                // The sentinel is a real (empty) node; head and tail
                // both start on it. ServiceLayout::new guarantees the
                // arena holds at least one line.
                let Ok(sentinel) = arena.alloc_lines(1) else {
                    unreachable!("layout reserves node space");
                };
                write_node(mem, sentinel, 0, 0, 0, 0);
                persist_ptr(mem, layout.meta0, sentinel);
                persist_ptr(mem, layout.meta1, sentinel);
            }
            StructureKind::Hash => {
                for b in 0..nbuckets {
                    mem.write_u64(layout.buckets_base + b * 8, 0);
                }
                let bytes = (nbuckets * 8).div_ceil(64) * 64;
                mem.clwb(layout.buckets_base, bytes);
                mem.sfence();
            }
        }
        Self {
            layout,
            arena,
            seqs: vec![0; cores],
            ctx: vec![None; cores],
            shadow_stack: Vec::new(),
            shadow_queue: VecDeque::new(),
            shadow_hash: vec![Vec::new(); nbuckets as usize],
            strict: true,
            completed: 0,
            retries_total: 0,
        }
    }

    /// The persistent geometry (recovery needs it).
    pub fn layout(&self) -> ServiceLayout {
        self.layout
    }

    /// Disables inline shadow checks (degraded-mode runs, where
    /// poisoned reads legitimately diverge from the shadow).
    pub fn set_strict(&mut self, strict: bool) {
        self.strict = strict;
    }

    /// Completed operations.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Failed CAS attempts plus helping steps across all cores.
    pub fn retries(&self) -> u64 {
        self.retries_total
    }

    /// `true` while `core` has an operation in flight.
    pub fn in_flight(&self, core: usize) -> bool {
        self.ctx[core].is_some()
    }

    /// Admits a request on `core`: mutating operations durably announce
    /// their descriptor; reads are admitted without one.
    ///
    /// # Panics
    ///
    /// Panics if `core` already has an operation in flight.
    pub fn start_op<M: PMem>(&mut self, mem: &mut M, core: usize, req: &Request) {
        self.start_op_with(mem, core, req, &mut DetachedSchedule);
    }

    /// [`start_op`] with an attached [`Schedule`] hook: the announce
    /// persist reports [`SchedPoint::Announce`] before it runs.
    ///
    /// # Panics
    ///
    /// Panics if `core` already has an operation in flight.
    ///
    /// [`start_op`]: Service::start_op
    pub fn start_op_with<M: PMem, S: Schedule>(
        &mut self,
        mem: &mut M,
        core: usize,
        req: &Request,
        sched: &mut S,
    ) {
        assert!(
            self.ctx[core].is_none(),
            "core {core} already has an op in flight"
        );
        self.seqs[core] += 1;
        let seq = self.seqs[core];
        let kind = if self.layout.kind == StructureKind::Hash && req.kind == ReqKind::Remove {
            ReqKind::Update // hashes have no remove; generator shouldn't send one
        } else {
            req.kind
        };
        if kind != ReqKind::Read {
            let rec = SlotRecord {
                seq,
                op: if kind == ReqKind::Update {
                    OP_UPDATE
                } else {
                    OP_REMOVE
                },
                a: req.key,
                b: req.value,
            };
            sched.at(core, SchedPoint::Announce);
            self.layout.slots.announce(mem, core, &rec);
        }
        self.ctx[core] = Some(OpCtx {
            kind,
            key: req.key,
            value: req.value,
            phase: Phase::Announced,
            node: 0,
            observed: 0,
            result: 0,
            retries: 0,
        });
    }

    /// The node seq stamped into update nodes: globally unique so
    /// recovery can match a pending descriptor to its node.
    fn node_seq(&self, core: usize) -> u64 {
        ((core as u64) << 48) | self.seqs[core]
    }

    /// Allocates one node line, panicking with sizing guidance when the
    /// region cannot hold the request count.
    fn alloc_node(&mut self, core: usize) -> u64 {
        match self.arena.alloc_lines(1) {
            Ok(addr) => addr,
            Err(e) => panic!(
                "serve arena exhausted on core {core}: size the region for the request count ({e})"
            ),
        }
    }

    /// Advances `core`'s in-flight operation by one phase. Reads
    /// complete in a single step; mutations take at least two (prepare,
    /// then one attempt per CAS try).
    ///
    /// # Panics
    ///
    /// Panics if `core` has no operation in flight, or (in strict mode)
    /// if a linearized read disagrees with the shadow model.
    pub fn step<M: PMem>(&mut self, mem: &mut M, core: usize) -> StepResult {
        self.step_with(mem, core, &mut DetachedSchedule)
    }

    /// [`step`] with an attached [`Schedule`] hook: each protocol point
    /// reports a [`SchedPoint`] before executing, and the linearizing
    /// persist honors mutation directives. With [`DetachedSchedule`]
    /// this monomorphizes to exactly the unhooked step.
    ///
    /// # Panics
    ///
    /// Panics if `core` has no operation in flight, or (in strict mode)
    /// if a linearized read disagrees with the shadow model.
    ///
    /// [`step`]: Service::step
    pub fn step_with<M: PMem, S: Schedule>(
        &mut self,
        mem: &mut M,
        core: usize,
        sched: &mut S,
    ) -> StepResult {
        let Some(mut ctx) = self.ctx[core] else {
            panic!("core {core} has no op in flight");
        };
        let out = match (self.layout.kind, ctx.kind) {
            (_, ReqKind::Read) => self.step_read(mem, core, &mut ctx, sched),
            (StructureKind::Stack, ReqKind::Update) => self.step_push(mem, core, &mut ctx, sched),
            (StructureKind::Stack, ReqKind::Remove) => self.step_pop(mem, core, &mut ctx, sched),
            (StructureKind::Queue, ReqKind::Update) => {
                self.step_enqueue(mem, core, &mut ctx, sched)
            }
            (StructureKind::Queue, ReqKind::Remove) => {
                self.step_dequeue(mem, core, &mut ctx, sched)
            }
            (StructureKind::Hash, _) => self.step_hash_insert(mem, core, &mut ctx, sched),
        };
        match out {
            StepResult::InFlight => self.ctx[core] = Some(ctx),
            StepResult::Done { .. } => {
                self.ctx[core] = None;
                self.completed += 1;
                self.retries_total += ctx.retries;
            }
        }
        out
    }

    fn step_read<M: PMem, S: Schedule>(
        &mut self,
        mem: &mut M,
        core: usize,
        ctx: &mut OpCtx,
        sched: &mut S,
    ) -> StepResult {
        sched.at(core, SchedPoint::Read);
        let found = match self.layout.kind {
            StructureKind::Stack => {
                let head = mem.read_u64(self.layout.meta0);
                if head == 0 || !self.layout.node_in_range(head) {
                    None
                } else {
                    Some(mem.read_u64(head + NODE_VAL))
                }
            }
            StructureKind::Queue => {
                let sentinel = mem.read_u64(self.layout.meta0);
                if self.layout.node_in_range(sentinel) {
                    let first = mem.read_u64(sentinel + NODE_NEXT);
                    if first == 0 || !self.layout.node_in_range(first) {
                        None
                    } else {
                        Some(mem.read_u64(first + NODE_VAL))
                    }
                } else {
                    None
                }
            }
            StructureKind::Hash => {
                let mut cur = mem.read_u64(self.layout.bucket_addr(ctx.key));
                let mut found = None;
                let mut hops = 0u64;
                while cur != 0 && self.layout.node_in_range(cur) && hops < 1 << 20 {
                    if mem.read_u64(cur + NODE_KEY) == ctx.key {
                        found = Some(mem.read_u64(cur + NODE_VAL));
                        break;
                    }
                    cur = mem.read_u64(cur + NODE_NEXT);
                    hops += 1;
                }
                found
            }
        };
        if self.strict {
            let expect = match self.layout.kind {
                StructureKind::Stack => self.shadow_stack.last().map(|&(_, v)| v),
                StructureKind::Queue => self.shadow_queue.front().map(|&(_, v)| v),
                StructureKind::Hash => self.shadow_hash[(ctx.key % self.layout.nbuckets) as usize]
                    .iter()
                    .find(|&&(k, _)| k == ctx.key)
                    .map(|&(_, v)| v),
            };
            assert_eq!(
                found, expect,
                "linearized {} read of key {} diverged from the shadow",
                self.layout.kind, ctx.key
            );
        }
        StepResult::Done { result: found }
    }

    fn step_push<M: PMem, S: Schedule>(
        &mut self,
        mem: &mut M,
        core: usize,
        ctx: &mut OpCtx,
        sched: &mut S,
    ) -> StepResult {
        match ctx.phase {
            Phase::Announced => {
                sched.at(core, SchedPoint::Prepare);
                ctx.node = self.alloc_node(core);
                ctx.observed = mem.read_u64(self.layout.meta0);
                write_node(
                    mem,
                    ctx.node,
                    ctx.observed,
                    ctx.key,
                    ctx.value,
                    self.node_seq(core),
                );
                ctx.phase = Phase::Prepared;
                StepResult::InFlight
            }
            Phase::Prepared => {
                let cur = mem.read_u64(self.layout.meta0);
                if cur != ctx.observed {
                    // CAS failure: rebase the node on the new head.
                    sched.at(core, SchedPoint::AttemptFail);
                    ctx.observed = cur;
                    write_node(mem, ctx.node, cur, ctx.key, ctx.value, self.node_seq(core));
                    ctx.retries += 1;
                    return StepResult::InFlight;
                }
                linearize_and_complete(
                    &self.layout,
                    mem,
                    sched,
                    core,
                    self.layout.meta0,
                    ctx.node,
                    ctx.node,
                );
                self.shadow_stack.push((ctx.key, ctx.value));
                StepResult::Done { result: None }
            }
            Phase::Fixup => unreachable!("stacks have no fixup phase"),
        }
    }

    fn step_pop<M: PMem, S: Schedule>(
        &mut self,
        mem: &mut M,
        core: usize,
        ctx: &mut OpCtx,
        sched: &mut S,
    ) -> StepResult {
        match ctx.phase {
            Phase::Announced | Phase::Prepared => {
                let cur = mem.read_u64(self.layout.meta0);
                if ctx.phase == Phase::Prepared && cur != ctx.observed {
                    sched.at(core, SchedPoint::AttemptFail);
                    ctx.retries += 1;
                }
                if cur == 0 || !self.layout.node_in_range(cur) {
                    // Empty (or degraded-poisoned) stack: linearizes at
                    // this read, no pointer store needed.
                    if self.strict {
                        assert!(
                            self.shadow_stack.is_empty(),
                            "pop saw an empty stack the shadow says is non-empty"
                        );
                    }
                    sched.at(core, SchedPoint::Complete);
                    self.layout.slots.complete(mem, core, 0);
                    return StepResult::Done { result: None };
                }
                if ctx.phase == Phase::Announced || cur != ctx.observed {
                    // (Re-)capture the target and its successor.
                    sched.at(core, SchedPoint::Prepare);
                    ctx.observed = cur;
                    ctx.node = mem.read_u64(cur + NODE_NEXT);
                    ctx.result = mem.read_u64(cur + NODE_VAL);
                    ctx.phase = Phase::Prepared;
                    return StepResult::InFlight;
                }
                linearize_and_complete(
                    &self.layout,
                    mem,
                    sched,
                    core,
                    self.layout.meta0,
                    ctx.node,
                    ctx.result,
                );
                let popped = self.shadow_stack.pop();
                if self.strict {
                    assert_eq!(
                        popped.map(|(_, v)| v),
                        Some(ctx.result),
                        "pop result diverged from the shadow"
                    );
                }
                StepResult::Done {
                    result: Some(ctx.result),
                }
            }
            Phase::Fixup => unreachable!("stacks have no fixup phase"),
        }
    }

    fn step_enqueue<M: PMem, S: Schedule>(
        &mut self,
        mem: &mut M,
        core: usize,
        ctx: &mut OpCtx,
        sched: &mut S,
    ) -> StepResult {
        match ctx.phase {
            Phase::Announced => {
                sched.at(core, SchedPoint::Prepare);
                ctx.node = self.alloc_node(core);
                write_node(mem, ctx.node, 0, ctx.key, ctx.value, self.node_seq(core));
                ctx.observed = mem.read_u64(self.layout.meta1);
                ctx.phase = Phase::Prepared;
                StepResult::InFlight
            }
            Phase::Prepared => {
                let tail = mem.read_u64(self.layout.meta1);
                if !self.layout.node_in_range(tail) {
                    // Degraded-poisoned tail: serve the append through
                    // the (possibly dropped) store anyway.
                    linearize_and_complete(
                        &self.layout,
                        mem,
                        sched,
                        core,
                        self.layout.meta1,
                        ctx.node,
                        ctx.node,
                    );
                    self.shadow_queue.push_back((ctx.key, ctx.value));
                    return StepResult::Done { result: None };
                }
                let next = mem.read_u64(tail + NODE_NEXT);
                if next != 0 {
                    // Lagging tail: help it forward, then retry.
                    sched.at(core, SchedPoint::HelpTail);
                    persist_ptr(mem, self.layout.meta1, next);
                    ctx.observed = next;
                    ctx.retries += 1;
                    return StepResult::InFlight;
                }
                // Link at the true tail: the linearizing store.
                let seq = mem.read_u64(tail + NODE_SEQ);
                let key = mem.read_u64(tail + NODE_KEY);
                let val = mem.read_u64(tail + NODE_VAL);
                let dir = sched.at(core, SchedPoint::Linearize);
                if dir == Directive::CompleteFirst {
                    self.layout.slots.complete(mem, core, ctx.node);
                }
                mem.write_u64(tail + NODE_NEXT, ctx.node);
                mem.write_u64(tail + NODE_CSUM, node_checksum(ctx.node, key, val, seq));
                if dir != Directive::SkipPersist {
                    mem.clwb(tail, 64);
                    mem.sfence();
                }
                ctx.observed = tail;
                self.shadow_queue.push_back((ctx.key, ctx.value));
                sched.at(core, SchedPoint::Complete);
                if dir != Directive::CompleteFirst {
                    self.layout.slots.complete(mem, core, ctx.node);
                }
                ctx.phase = Phase::Fixup;
                StepResult::InFlight
            }
            Phase::Fixup => {
                // Swing the tail unless someone already helped past us.
                sched.at(core, SchedPoint::TailFixup);
                if mem.read_u64(self.layout.meta1) == ctx.observed {
                    persist_ptr(mem, self.layout.meta1, ctx.node);
                }
                StepResult::Done { result: None }
            }
        }
    }

    fn step_dequeue<M: PMem, S: Schedule>(
        &mut self,
        mem: &mut M,
        core: usize,
        ctx: &mut OpCtx,
        sched: &mut S,
    ) -> StepResult {
        match ctx.phase {
            Phase::Announced | Phase::Prepared => {
                let sentinel = mem.read_u64(self.layout.meta0);
                if ctx.phase == Phase::Prepared && sentinel != ctx.observed {
                    sched.at(core, SchedPoint::AttemptFail);
                    ctx.retries += 1;
                }
                if !self.layout.node_in_range(sentinel) {
                    // Degraded-poisoned head: report empty.
                    sched.at(core, SchedPoint::Complete);
                    self.layout.slots.complete(mem, core, 0);
                    return StepResult::Done { result: None };
                }
                let first = mem.read_u64(sentinel + NODE_NEXT);
                if first == 0 || !self.layout.node_in_range(first) {
                    if self.strict {
                        assert!(
                            self.shadow_queue.is_empty(),
                            "dequeue saw an empty queue the shadow says is non-empty"
                        );
                    }
                    sched.at(core, SchedPoint::Complete);
                    self.layout.slots.complete(mem, core, 0);
                    return StepResult::Done { result: None };
                }
                if ctx.phase == Phase::Announced || sentinel != ctx.observed {
                    sched.at(core, SchedPoint::Prepare);
                    ctx.observed = sentinel;
                    ctx.node = first;
                    ctx.result = mem.read_u64(first + NODE_VAL);
                    ctx.phase = Phase::Prepared;
                    return StepResult::InFlight;
                }
                // Check the captured first node is still the successor
                // (another dequeuer may have won since prepare).
                if mem.read_u64(sentinel + NODE_NEXT) != ctx.node {
                    sched.at(core, SchedPoint::AttemptFail);
                    ctx.phase = Phase::Announced;
                    ctx.retries += 1;
                    return StepResult::InFlight;
                }
                // Swing the head: the dequeued node becomes the new
                // sentinel. This is the linearization.
                linearize_and_complete(
                    &self.layout,
                    mem,
                    sched,
                    core,
                    self.layout.meta0,
                    ctx.node,
                    ctx.result,
                );
                let popped = self.shadow_queue.pop_front();
                if self.strict {
                    assert_eq!(
                        popped.map(|(_, v)| v),
                        Some(ctx.result),
                        "dequeue result diverged from the shadow"
                    );
                }
                StepResult::Done {
                    result: Some(ctx.result),
                }
            }
            Phase::Fixup => unreachable!("dequeues have no fixup phase"),
        }
    }

    fn step_hash_insert<M: PMem, S: Schedule>(
        &mut self,
        mem: &mut M,
        core: usize,
        ctx: &mut OpCtx,
        sched: &mut S,
    ) -> StepResult {
        let bucket = self.layout.bucket_addr(ctx.key);
        match ctx.phase {
            Phase::Announced => {
                sched.at(core, SchedPoint::Prepare);
                ctx.node = self.alloc_node(core);
                ctx.observed = mem.read_u64(bucket);
                write_node(
                    mem,
                    ctx.node,
                    ctx.observed,
                    ctx.key,
                    ctx.value,
                    self.node_seq(core),
                );
                ctx.phase = Phase::Prepared;
                StepResult::InFlight
            }
            Phase::Prepared => {
                let cur = mem.read_u64(bucket);
                if cur != ctx.observed {
                    sched.at(core, SchedPoint::AttemptFail);
                    ctx.observed = cur;
                    write_node(mem, ctx.node, cur, ctx.key, ctx.value, self.node_seq(core));
                    ctx.retries += 1;
                    return StepResult::InFlight;
                }
                linearize_and_complete(&self.layout, mem, sched, core, bucket, ctx.node, ctx.node);
                self.shadow_hash[(ctx.key % self.layout.nbuckets) as usize]
                    .insert(0, (ctx.key, ctx.value));
                StepResult::Done { result: None }
            }
            Phase::Fixup => unreachable!("hash inserts have no fixup phase"),
        }
    }

    /// The shadow model's entries in the structure's canonical walk
    /// order: stack top-first, queue front-first, hash buckets in order
    /// with newest-first chains.
    pub fn shadow_entries(&self) -> Vec<(u64, u64)> {
        match self.layout.kind {
            StructureKind::Stack => self.shadow_stack.iter().rev().copied().collect(),
            StructureKind::Queue => self.shadow_queue.iter().copied().collect(),
            StructureKind::Hash => self.shadow_hash.iter().flatten().copied().collect(),
        }
    }

    /// Walks the persistent structure and compares it entry-for-entry
    /// with the shadow model.
    ///
    /// # Errors
    ///
    /// Returns a description of the first divergence, bad pointer, or
    /// checksum mismatch.
    pub fn verify<M: PMem>(&self, mem: &mut M) -> Result<(), String> {
        let walked = walk(mem, &self.layout)?;
        let shadow = self.shadow_entries();
        if walked != shadow {
            return Err(format!(
                "{}: persistent walk ({} entries) != shadow ({} entries)",
                self.layout.kind,
                walked.len(),
                shadow.len()
            ));
        }
        Ok(())
    }

    /// Rebuilds a service over a recovered crash image so pending
    /// operations can be re-executed: the arena's bump pointer is
    /// advanced past every reachable node, per-core sequence counters
    /// are restored from the (checksum-verified) descriptor slots, and
    /// the shadow model is reseeded from the walked entries. Strict
    /// shadow checking is off — the caller owns the oracle after a
    /// crash.
    ///
    /// # Errors
    ///
    /// [`RecoverError::Walk`] when the structure walk refuses the
    /// image.
    pub fn from_recovered<M: PMem>(
        mem: &mut M,
        layout: ServiceLayout,
        recovered: &RecoveredServe,
    ) -> Result<Self, RecoverError> {
        let nodes = walk_nodes(mem, &layout).map_err(RecoverError::Walk)?;
        let mut arena = Arena::new(layout.arena_base, layout.arena_end - layout.arena_base);
        if let Some(top) = nodes.iter().map(|n| n.addr + 64).max() {
            arena.reserve_until(top);
        }
        let cores = layout.slots.len();
        let mut seqs = vec![0u64; cores];
        for v in &recovered.slots {
            seqs[v.slot] = v.rec.seq;
        }
        let entries = &recovered.entries;
        let mut shadow_hash = vec![Vec::new(); layout.nbuckets as usize];
        if layout.kind == StructureKind::Hash {
            // The walk visits buckets in order, chains newest-first —
            // exactly the shadow's per-bucket order.
            for &(k, v) in entries {
                shadow_hash[(k % layout.nbuckets) as usize].push((k, v));
            }
        }
        Ok(Self {
            layout,
            arena,
            seqs,
            ctx: vec![None; cores],
            shadow_stack: match layout.kind {
                // Walk order is top-first; the shadow stores bottom-first.
                StructureKind::Stack => entries.iter().rev().copied().collect(),
                _ => Vec::new(),
            },
            shadow_queue: match layout.kind {
                StructureKind::Queue => entries.iter().copied().collect(),
                _ => VecDeque::new(),
            },
            shadow_hash,
            strict: false,
            completed: 0,
            retries_total: 0,
        })
    }

    /// Re-arms `core`'s in-flight context from its `PENDING` descriptor
    /// so a recovery driver can re-execute the announced operation via
    /// [`step_with`]. The descriptor is *not* re-announced and the
    /// sequence counter is pinned to the announced seq, so the node seq
    /// stamped by the re-execution matches the original announce — the
    /// exactly-once applied-check keys on it.
    ///
    /// # Panics
    ///
    /// Panics if the view is not `PENDING`, is for a different slot, or
    /// the core already has an operation in flight.
    ///
    /// [`step_with`]: Service::step_with
    pub fn resume_op(&mut self, core: usize, view: &SlotView) {
        assert_eq!(view.state, SlotState::Pending, "resume needs a pending op");
        assert_eq!(view.slot, core, "descriptor belongs to another core");
        assert!(
            self.ctx[core].is_none(),
            "core {core} already has an op in flight"
        );
        self.seqs[core] = view.rec.seq;
        self.ctx[core] = Some(OpCtx {
            kind: if view.rec.op == OP_REMOVE {
                ReqKind::Remove
            } else {
                ReqKind::Update
            },
            key: view.rec.a,
            value: view.rec.b,
            phase: Phase::Announced,
            node: 0,
            observed: 0,
            result: 0,
            retries: 0,
        });
    }
}

/// One verified node in a structure walk: its line address, payload,
/// and the writer-stamped `(core << 48) | seq` recovery can match to a
/// pending descriptor (0 for the queue sentinel).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeView {
    /// Node line address.
    pub addr: u64,
    /// Payload key.
    pub key: u64,
    /// Payload value.
    pub value: u64,
    /// Writer-stamped node seq.
    pub seq: u64,
}

/// Walks one `next`-linked chain, verifying bounds, checksums, and
/// acyclicity, collecting every node (including a queue sentinel).
fn walk_chain<M: PMem>(
    mem: &mut M,
    layout: &ServiceLayout,
    head: u64,
    seen: &mut HashSet<u64>,
    out: &mut Vec<NodeView>,
) -> Result<(), String> {
    let mut cur = head;
    while cur != 0 {
        if !layout.node_in_range(cur) {
            return Err(format!("pointer {cur:#x} escapes the node arena"));
        }
        if !seen.insert(cur) {
            return Err(format!("cycle through node {cur:#x}"));
        }
        let next = mem.read_u64(cur + NODE_NEXT);
        let key = mem.read_u64(cur + NODE_KEY);
        let value = mem.read_u64(cur + NODE_VAL);
        let seq = mem.read_u64(cur + NODE_SEQ);
        if mem.read_u64(cur + NODE_CSUM) != node_checksum(next, key, value, seq) {
            return Err(format!("node {cur:#x} fails its checksum"));
        }
        out.push(NodeView {
            addr: cur,
            key,
            value,
            seq,
        });
        cur = next;
    }
    Ok(())
}

/// Walks every reachable node in canonical order, verifying bounds,
/// checksums, and acyclicity. The queue sentinel is included (first).
///
/// # Errors
///
/// Returns a description of the first bad pointer, checksum mismatch,
/// or cycle.
pub fn walk_nodes<M: PMem>(mem: &mut M, layout: &ServiceLayout) -> Result<Vec<NodeView>, String> {
    let mut out = Vec::new();
    let mut seen = HashSet::new();
    match layout.kind {
        StructureKind::Stack => {
            let head = mem.read_u64(layout.meta0);
            walk_chain(mem, layout, head, &mut seen, &mut out)?;
        }
        StructureKind::Queue => {
            let sentinel = mem.read_u64(layout.meta0);
            if sentinel == 0 {
                return Err("queue head pointer is null".into());
            }
            walk_chain(mem, layout, sentinel, &mut seen, &mut out)?;
        }
        StructureKind::Hash => {
            for b in 0..layout.nbuckets {
                let head = mem.read_u64(layout.buckets_base + b * 8);
                walk_chain(mem, layout, head, &mut seen, &mut out)?;
            }
        }
    }
    Ok(out)
}

/// Walks the whole structure in canonical order, verifying every node.
///
/// # Errors
///
/// Returns a description of the first bad pointer, checksum mismatch,
/// or cycle — a refusal the torture harness classifies as *detected*.
pub fn walk<M: PMem>(mem: &mut M, layout: &ServiceLayout) -> Result<Vec<(u64, u64)>, String> {
    let nodes = walk_nodes(mem, layout)?;
    let skip = usize::from(layout.kind == StructureKind::Queue);
    Ok(nodes
        .into_iter()
        .skip(skip)
        .map(|n| (n.key, n.value))
        .collect())
}

/// A recovery scan refusing to trust the crash image.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RecoverError {
    /// The descriptor-slot area failed verification.
    Slots(SlotError),
    /// The structure walk found a bad pointer, checksum, or cycle.
    Walk(String),
}

impl std::fmt::Display for RecoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoverError::Slots(e) => write!(f, "descriptor scan refused: {e}"),
            RecoverError::Walk(e) => write!(f, "structure walk refused: {e}"),
        }
    }
}

impl std::error::Error for RecoverError {}

/// What recovery reconstructed from a crash image.
#[derive(Debug, Clone)]
pub struct RecoveredServe {
    /// Per-core descriptor slots (checksum-verified).
    pub slots: Vec<SlotView>,
    /// The structure's entries in canonical walk order
    /// (checksum-verified, cycle-free).
    pub entries: Vec<(u64, u64)>,
}

/// Recovers a service from (possibly crashed) persistent memory: scans
/// the descriptor slots and walks the structure, verifying everything.
///
/// # Errors
///
/// [`RecoverError`] when the image cannot be trusted — the caller must
/// treat that as *detected* corruption, never guess.
pub fn recover<M: PMem>(
    mem: &mut M,
    layout: &ServiceLayout,
) -> Result<RecoveredServe, RecoverError> {
    let slots = layout.slots.scan(mem).map_err(RecoverError::Slots)?;
    let entries = walk(mem, layout).map_err(RecoverError::Walk)?;
    Ok(RecoveredServe { slots, entries })
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // unwrap/expect are fine in tests
mod tests {
    use super::*;
    use supermem_persist::{SlotState, VecMem};

    const BASE: u64 = 0x1000;
    const LEN: u64 = 1 << 16;

    fn req(kind: ReqKind, key: u64, value: u64) -> Request {
        Request {
            at: 0,
            kind,
            key,
            value,
        }
    }

    fn run_to_done(svc: &mut Service, mem: &mut VecMem, core: usize, r: &Request) -> Option<u64> {
        svc.start_op(mem, core, r);
        loop {
            if let StepResult::Done { result } = svc.step(mem, core) {
                return result;
            }
        }
    }

    #[test]
    fn stack_push_pop_peek_roundtrip() {
        let mut mem = VecMem::new();
        let mut svc = Service::new(&mut mem, StructureKind::Stack, BASE, LEN, 2, 0);
        for i in 1..=5u64 {
            run_to_done(&mut svc, &mut mem, 0, &req(ReqKind::Update, i, i * 10));
        }
        assert_eq!(
            run_to_done(&mut svc, &mut mem, 1, &req(ReqKind::Read, 0, 0)),
            Some(50)
        );
        assert_eq!(
            run_to_done(&mut svc, &mut mem, 0, &req(ReqKind::Remove, 0, 0)),
            Some(50)
        );
        assert_eq!(
            run_to_done(&mut svc, &mut mem, 0, &req(ReqKind::Remove, 0, 0)),
            Some(40)
        );
        svc.verify(&mut mem).unwrap();
        assert_eq!(svc.completed(), 8);
    }

    #[test]
    fn queue_preserves_fifo_order() {
        let mut mem = VecMem::new();
        let mut svc = Service::new(&mut mem, StructureKind::Queue, BASE, LEN, 2, 0);
        for i in 1..=4u64 {
            run_to_done(&mut svc, &mut mem, 0, &req(ReqKind::Update, i, i * 100));
        }
        assert_eq!(
            run_to_done(&mut svc, &mut mem, 1, &req(ReqKind::Read, 0, 0)),
            Some(100)
        );
        for i in 1..=4u64 {
            assert_eq!(
                run_to_done(&mut svc, &mut mem, 1, &req(ReqKind::Remove, 0, 0)),
                Some(i * 100)
            );
        }
        assert_eq!(
            run_to_done(&mut svc, &mut mem, 0, &req(ReqKind::Remove, 0, 0)),
            None,
            "drained queue pops empty"
        );
        svc.verify(&mut mem).unwrap();
    }

    #[test]
    fn hash_inserts_shadow_newest_first() {
        let mut mem = VecMem::new();
        let mut svc = Service::new(&mut mem, StructureKind::Hash, BASE, LEN, 2, 8);
        run_to_done(&mut svc, &mut mem, 0, &req(ReqKind::Update, 3, 111));
        run_to_done(&mut svc, &mut mem, 0, &req(ReqKind::Update, 11, 222)); // same bucket (mod 8)
        run_to_done(&mut svc, &mut mem, 0, &req(ReqKind::Update, 3, 333)); // shadowing insert
        assert_eq!(
            run_to_done(&mut svc, &mut mem, 1, &req(ReqKind::Read, 3, 0)),
            Some(333),
            "lookup must see the newest insert"
        );
        assert_eq!(
            run_to_done(&mut svc, &mut mem, 1, &req(ReqKind::Read, 11, 0)),
            Some(222)
        );
        assert_eq!(
            run_to_done(&mut svc, &mut mem, 1, &req(ReqKind::Read, 5, 0)),
            None
        );
        svc.verify(&mut mem).unwrap();
    }

    #[test]
    fn interleaved_cas_attempts_retry_and_stay_consistent() {
        // Two cores prepare against the same head; the loser must
        // observe the winner's publication and retry.
        let mut mem = VecMem::new();
        let mut svc = Service::new(&mut mem, StructureKind::Stack, BASE, LEN, 2, 0);
        svc.start_op(&mut mem, 0, &req(ReqKind::Update, 1, 10));
        svc.start_op(&mut mem, 1, &req(ReqKind::Update, 2, 20));
        assert_eq!(svc.step(&mut mem, 0), StepResult::InFlight); // prepare
        assert_eq!(svc.step(&mut mem, 1), StepResult::InFlight); // prepare (same observed)
        assert!(matches!(svc.step(&mut mem, 0), StepResult::Done { .. })); // wins
        assert_eq!(svc.step(&mut mem, 1), StepResult::InFlight); // CAS fails, rebases
        assert!(matches!(svc.step(&mut mem, 1), StepResult::Done { .. })); // wins on retry
        assert_eq!(svc.retries(), 1);
        svc.verify(&mut mem).unwrap();
        assert_eq!(svc.shadow_entries(), vec![(2, 20), (1, 10)]);
    }

    #[test]
    fn queue_helping_advances_a_lagging_tail() {
        // Core 0 links its node but crashes conceptually before the
        // tail fixup (we just don't run its fixup step); core 1's
        // enqueue must help the tail forward and still complete.
        let mut mem = VecMem::new();
        let mut svc = Service::new(&mut mem, StructureKind::Queue, BASE, LEN, 2, 0);
        svc.start_op(&mut mem, 0, &req(ReqKind::Update, 1, 10));
        assert_eq!(svc.step(&mut mem, 0), StepResult::InFlight); // prepare
        assert_eq!(svc.step(&mut mem, 0), StepResult::InFlight); // link; fixup pending
        svc.start_op(&mut mem, 1, &req(ReqKind::Update, 2, 20));
        assert_eq!(svc.step(&mut mem, 1), StepResult::InFlight); // prepare
        assert_eq!(svc.step(&mut mem, 1), StepResult::InFlight); // helps tail forward
        assert!(matches!(svc.step(&mut mem, 1), StepResult::InFlight)); // links
        assert!(matches!(svc.step(&mut mem, 1), StepResult::Done { .. })); // fixup
        assert!(matches!(svc.step(&mut mem, 0), StepResult::Done { .. })); // stale fixup skipped
        assert!(svc.retries() >= 1, "helping must count as a retry");
        svc.verify(&mut mem).unwrap();
        assert_eq!(svc.shadow_entries(), vec![(1, 10), (2, 20)]);
    }

    #[test]
    fn recovery_scan_matches_the_shadow() {
        let mut mem = VecMem::new();
        let mut svc = Service::new(&mut mem, StructureKind::Hash, BASE, LEN, 3, 4);
        for i in 0..9u64 {
            run_to_done(
                &mut svc,
                &mut mem,
                (i % 3) as usize,
                &req(ReqKind::Update, i, i + 1000),
            );
        }
        let rec = recover(&mut mem, &svc.layout()).unwrap();
        assert_eq!(rec.entries, svc.shadow_entries());
        assert_eq!(rec.slots.len(), 3);
        assert!(rec.slots.iter().all(|s| s.state == SlotState::Done));
    }

    #[test]
    fn recovery_refuses_a_corrupted_node() {
        let mut mem = VecMem::new();
        let mut svc = Service::new(&mut mem, StructureKind::Stack, BASE, LEN, 1, 0);
        run_to_done(&mut svc, &mut mem, 0, &req(ReqKind::Update, 1, 10));
        let head = mem.read_u64(svc.layout().meta0);
        mem.write_u64(head + NODE_VAL, 999); // corrupt without re-checksumming
        let err = recover(&mut mem, &svc.layout()).unwrap_err();
        assert!(matches!(err, RecoverError::Walk(_)), "got {err:?}");
    }

    #[test]
    fn structure_kind_parses_its_own_names() {
        for k in StructureKind::ALL {
            assert_eq!(StructureKind::parse(k.name()), Some(k));
        }
        assert_eq!(StructureKind::parse("treap"), None);
    }
}
