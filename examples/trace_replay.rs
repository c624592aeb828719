//! Trace-driven what-if analysis.
//!
//! Records the B-tree workload's memory trace once, serializes it,
//! and replays the identical traffic through three machine
//! configurations — the methodology behind the `tracebench` harness.
//!
//! Run with: `cargo run --release --example trace_replay`

use supermem::trace::{decode, encode};
use supermem::workloads::WorkloadKind;
use supermem::{Experiment, RunConfig, Scheme};

fn main() {
    let mut rc = RunConfig::new(Scheme::SuperMem, WorkloadKind::BTree);
    rc.txns = 100;
    rc.req_bytes = 1024;

    // Capture once, against a purely functional memory (fast).
    let trace = Experiment::new(rc.clone()).unwrap().record_trace();
    let bytes = encode(&trace);
    println!(
        "recorded {} events ({} KiB serialized) for {} transactions",
        trace.len(),
        bytes.len() / 1024,
        rc.txns
    );

    // The serialized form round-trips (a trace can be shipped to disk).
    let trace = decode(&bytes).expect("self-produced trace decodes");

    // Replay through three machines.
    for scheme in [Scheme::Unsec, Scheme::WriteThrough, Scheme::SuperMem] {
        let mut rc = rc.clone();
        rc.scheme = scheme;
        let r = Experiment::new(rc).unwrap().replay(&trace);
        println!(
            "{:<10} mean txn latency {:>7.0} cycles, {} NVM writes, {} coalesced",
            scheme.name(),
            r.mean_txn_latency(),
            r.nvm_writes(),
            r.stats.counter_writes_coalesced
        );
    }
    println!("\nIdentical traffic, different memory systems: the gap is pure");
    println!("counter-handling overhead — what SuperMem eliminates.");
}
