//! End-to-end scheme benchmarks: one full workload run per scheme,
//! reporting host wall time. The *simulated* results (the paper's
//! figures) come from the `fig13`..`fig17` binaries; this bench tracks
//! the cost of producing them.

use std::hint::black_box;
use supermem::workloads::WorkloadKind;
use supermem::{Experiment, RunConfig};
use supermem_bench::micro::Harness;

fn main() {
    let mut h = Harness::new("schemes");

    for scheme in supermem::scheme::FIGURE_SCHEMES {
        h.bench(&format!("run_single/queue/{}", scheme.name()), || {
            let mut rc = RunConfig::new(scheme, WorkloadKind::Queue);
            rc.txns = 50;
            rc.req_bytes = 1024;
            black_box(Experiment::new(rc).unwrap().run_single())
        });
    }

    for kind in supermem::workloads::spec::ALL_KINDS {
        h.bench(&format!("run_single/supermem/{}", kind.name()), || {
            let mut rc = RunConfig::new(supermem::Scheme::SuperMem, kind);
            rc.txns = 50;
            rc.req_bytes = 1024;
            rc.array_footprint = 1 << 20;
            black_box(Experiment::new(rc).unwrap().run_single())
        });
    }

    h.finish();
}
