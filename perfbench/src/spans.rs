//! The traced run's span log and the timing `PMem` adapter.
//!
//! Each call into a layer's public functions becomes one [`Span`]: its
//! layer, host start and end (ns since the log was created), the span
//! that was open when it began, and the id of the operation (workload
//! transaction, program, or crash case) it belongs to. Spans stay in
//! memory until the run ends; self time is a span minus its children.

use std::fmt::Write as _;
use std::time::Instant;

use supermem::persist::{PMem, TxnError};
use supermem::workloads::{AnyWorkload, SpecError, WorkloadSpec};
use supermem::{Scheme, System};
use supermem_kv::{KvCaseResult, KvTortureCase};

use crate::workload::Probe;

/// A layer boundary the benchmark times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `WorkloadSpec::build`: structure creation and initial persist.
    Build,
    /// `AnyWorkload::step`: one durable transaction.
    Step,
    /// `AnyWorkload::verify`: the shadow-model scan.
    Verify,
    /// `System::checkpoint`: flush every dirty line and drain.
    Checkpoint,
    /// `PMem::write` on the timed machine.
    Write,
    /// `PMem::read` on the timed machine.
    Read,
    /// `PMem::clwb` on the timed machine.
    Clwb,
    /// `PMem::sfence` on the timed machine.
    Sfence,
    /// `kv_crash_points`: the dry run that enumerates crash points.
    CrashPoints,
    /// `kv_run_case`: one crash-torture case end to end.
    Case,
    /// `RecoveredMemory::from_machine_image_checked` on a crash image.
    RecoverImage,
    /// `supermem_kv::recover` on a rebuilt image.
    KvRecover,
}

impl Layer {
    /// The span's name as written to the span log.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Build => "workloads.build",
            Layer::Step => "workloads.step",
            Layer::Verify => "workloads.verify",
            Layer::Checkpoint => "system.checkpoint",
            Layer::Write => "system.write",
            Layer::Read => "system.read",
            Layer::Clwb => "system.clwb",
            Layer::Sfence => "system.sfence",
            Layer::CrashPoints => "kv.crash_points",
            Layer::Case => "torture.case",
            Layer::RecoverImage => "persist.recover_image",
            Layer::KvRecover => "kv.recover",
        }
    }
}

/// One timed call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Which boundary was crossed.
    pub layer: Layer,
    /// Host ns since the log's origin at entry.
    pub start_ns: u64,
    /// Host ns since the log's origin at exit.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation this span belongs to.
    pub op: u64,
}

/// In-memory span log of one traced repetition.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    open: Option<usize>,
}

impl Default for SpanLog {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: None,
        }
    }

    fn offset_ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span under the currently open one. `op` defaults to the
    /// parent's operation.
    pub(crate) fn open(&mut self, layer: Layer, op: Option<u64>) -> usize {
        let parent = self.open;
        let op = op.or_else(|| parent.map(|p| self.spans[p].op)).unwrap_or(0);
        let start_ns = self.offset_ns(Instant::now());
        self.spans.push(Span {
            layer,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        let idx = self.spans.len() - 1;
        self.open = Some(idx);
        idx
    }

    /// Closes span `idx`, making its parent the open span again.
    pub(crate) fn close(&mut self, idx: usize) {
        let end_ns = self.offset_ns(Instant::now());
        let span = &mut self.spans[idx];
        span.end_ns = end_ns;
        self.open = span.parent;
    }

    /// Records a span measured elsewhere (a sweep worker thread), under
    /// the currently open span.
    pub(crate) fn record(&mut self, layer: Layer, start: Instant, end: Instant, op: u64) {
        let span = Span {
            layer,
            start_ns: self.offset_ns(start),
            end_ns: self.offset_ns(end),
            parent: self.open,
            op,
        };
        self.spans.push(span);
    }

    /// Every recorded span, in the order it was opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its direct children's
    /// durations. Negative when children overrun the parent.
    pub(crate) fn self_ns(&self) -> Vec<i128> {
        let mut out: Vec<i128> = self
            .spans
            .iter()
            .map(|s| i128::from(s.end_ns) - i128::from(s.start_ns))
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                out[p] -= i128::from(s.end_ns) - i128::from(s.start_ns);
            }
        }
        out
    }

    /// Host durations in ns of every span of `layer`.
    pub(crate) fn durations_ns(&self, layer: Layer) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| s.end_ns.saturating_sub(s.start_ns) as f64)
            .collect()
    }

    /// Self times in ns of every span of `layer`.
    pub fn self_times_ns(&self, layer: Layer) -> Vec<f64> {
        self.spans
            .iter()
            .zip(self.self_ns())
            .filter(|(s, _)| s.layer == layer)
            .map(|(_, t)| t as f64)
            .collect()
    }

    /// The span-log self-check: every span ends after it starts, every
    /// child lies inside its parent, siblings do not overlap, and no
    /// self time is negative. Returns one message per violation.
    pub fn check(&self) -> Vec<String> {
        let mut errors = Vec::new();
        let mut last_child_end: Vec<Option<u64>> = vec![None; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if s.end_ns < s.start_ns {
                errors.push(format!(
                    "span {i} ({}) ends before it starts",
                    s.layer.name()
                ));
            }
            let Some(p) = s.parent else { continue };
            let parent = &self.spans[p];
            if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                errors.push(format!(
                    "span {i} ({}) exceeds its parent {p} ({})",
                    s.layer.name(),
                    parent.layer.name()
                ));
            }
            if last_child_end[p].is_some_and(|end| s.start_ns < end) {
                errors.push(format!(
                    "span {i} ({}) overlaps its sibling",
                    s.layer.name()
                ));
            }
            last_child_end[p] = Some(s.end_ns);
        }
        for (i, t) in self.self_ns().into_iter().enumerate() {
            if t < 0 {
                errors.push(format!(
                    "span {i} ({}) has negative self time {t} ns",
                    self.spans[i].layer.name()
                ));
            }
        }
        errors
    }

    /// The log as tab-separated text: index, name, start, end, parent
    /// (`-` for none), op id.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("idx\tname\tstart_ns\tend_ns\tparent\top\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.layer.name(),
                s.start_ns,
                s.end_ns,
                s.op
            );
        }
        out
    }

    fn timed<T>(&mut self, layer: Layer, op: Option<u64>, f: impl FnOnce(&mut Self) -> T) -> T {
        let idx = self.open(layer, op);
        let out = f(self);
        self.close(idx);
        out
    }
}

/// `PMem` over the timed machine that records a span per call.
pub struct TimedMem<'a> {
    sys: &'a mut System,
    log: &'a mut SpanLog,
}

impl PMem for TimedMem<'_> {
    fn read(&mut self, addr: u64, buf: &mut [u8]) {
        let idx = self.log.open(Layer::Read, None);
        self.sys.read(addr, buf);
        self.log.close(idx);
    }

    fn write(&mut self, addr: u64, bytes: &[u8]) {
        let idx = self.log.open(Layer::Write, None);
        self.sys.write(addr, bytes);
        self.log.close(idx);
    }

    fn clwb(&mut self, addr: u64, len: u64) {
        let idx = self.log.open(Layer::Clwb, None);
        self.sys.clwb(addr, len);
        self.log.close(idx);
    }

    fn sfence(&mut self) {
        let idx = self.log.open(Layer::Sfence, None);
        self.sys.sfence();
        self.log.close(idx);
    }
}

impl Probe for SpanLog {
    fn build(
        &mut self,
        sys: &mut System,
        spec: &WorkloadSpec,
        op: u64,
    ) -> Result<AnyWorkload, SpecError> {
        self.timed(Layer::Build, Some(op), |log| {
            spec.build(&mut TimedMem { sys, log })
        })
    }

    fn step(&mut self, sys: &mut System, w: &mut AnyWorkload, op: u64) -> Result<(), TxnError> {
        self.timed(Layer::Step, Some(op), |log| {
            w.step(&mut TimedMem { sys, log })
        })
    }

    fn verify(&mut self, sys: &mut System, w: &mut AnyWorkload, op: u64) -> Result<(), String> {
        self.timed(Layer::Verify, Some(op), |log| {
            w.verify(&mut TimedMem { sys, log })
        })
    }

    fn checkpoint(&mut self, sys: &mut System) {
        self.timed(Layer::Checkpoint, None, |_| sys.checkpoint());
    }

    fn crash_points(&mut self, scheme: Scheme, channels: usize, seed: u64, ops: u64) -> u64 {
        self.timed(Layer::CrashPoints, Some(seed), |_| {
            supermem_kv::kv_crash_points(scheme, channels, seed, ops)
        })
    }

    fn cases(&mut self, workers: usize, cases: &[KvTortureCase]) -> Vec<KvCaseResult> {
        let timed = supermem::sweep::sweep_on(workers, cases, |c| {
            let start = Instant::now();
            let result = supermem_kv::kv_run_case(c);
            (result, start, Instant::now())
        });
        timed
            .into_iter()
            .enumerate()
            .map(|(i, (result, start, end))| {
                self.record(Layer::Case, start, end, i as u64);
                result
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            layer: Layer::Step,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut log = SpanLog::new();
        log.spans.push(span(0, 100, None));
        log.spans.push(span(10, 40, Some(0)));
        log.spans.push(span(15, 20, Some(1)));
        log.spans.push(span(50, 90, Some(0)));
        assert_eq!(log.self_ns(), vec![30, 25, 5, 40]);
        assert!(log.check().is_empty());
    }

    #[test]
    fn check_flags_overrun_overlap_and_negative_self_time() {
        let mut log = SpanLog::new();
        log.spans.push(span(0, 100, None));
        log.spans.push(span(10, 80, Some(0)));
        log.spans.push(span(60, 120, Some(0)));
        let errors = log.check();
        assert!(errors.iter().any(|e| e.contains("exceeds its parent")));
        assert!(errors.iter().any(|e| e.contains("overlaps")));
        assert!(errors.iter().any(|e| e.contains("negative self time")));
    }
}
