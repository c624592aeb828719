//! Trace-driven scheme comparison.
//!
//! Captures each workload's memory-operation trace *once* on a
//! functional memory, then replays the identical trace through every
//! scheme's timed machine — the classic decoupled methodology of
//! trace-driven architecture simulation (gem5/NVMain studies work the
//! same way). Because every scheme sees byte-identical traffic, the
//! comparison isolates the memory system completely.

use supermem::metrics::TextTable;
use supermem::scheme::FIGURE_SCHEMES;
use supermem::trace::encode;
use supermem::workloads::spec::ALL_KINDS;
use supermem::{sweep, Experiment, RunConfig, Scheme};
use supermem_bench::{txns, Report};

fn main() {
    let n = txns();
    // One job per workload: record the trace, then replay it through
    // every scheme. The replays share the recorded trace, so the
    // workload is the natural parallel grain.
    let rows = sweep(&ALL_KINDS, |kind| {
        let mut rc = RunConfig::new(Scheme::SuperMem, *kind);
        rc.txns = n;
        rc.req_bytes = 1024;
        rc.array_footprint = 1 << 20;
        let trace = Experiment::new(rc.clone())
            .expect("valid config")
            .record_trace();
        let encoded = encode(&trace);
        let mut cells = vec![kind.name().to_owned()];
        let mut base = None;
        for scheme in FIGURE_SCHEMES {
            let mut rc = rc.clone();
            rc.scheme = scheme;
            let lat = Experiment::new(rc)
                .expect("valid config")
                .replay(&trace)
                .mean_txn_latency();
            let b = *base.get_or_insert(lat);
            cells.push(format!("{:.2}", lat / b));
        }
        cells.push(format!("{} KiB", encoded.len() / 1024));
        cells
    });

    let mut table = TextTable::new(
        std::iter::once("workload".to_owned())
            .chain(FIGURE_SCHEMES.iter().map(|s| s.name().to_owned()))
            .chain(std::iter::once("trace size".to_owned()))
            .collect(),
    );
    for cells in rows {
        table.row(cells);
    }
    let mut rep = Report::new("tracebench");
    rep.section(
        "Trace-driven replay: one recorded trace per workload, every scheme\n(txn latency normalized to Unsec; identical traffic everywhere)",
        table,
    );
    rep.emit();
}
