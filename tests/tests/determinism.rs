//! Determinism: identical configurations must produce bit-identical
//! results — the property that makes the figures reproducible.

use supermem::workloads::spec::ALL_KINDS;
use supermem::{Experiment, RunConfig, Scheme};

#[test]
fn identical_seeds_produce_identical_runs() {
    for kind in ALL_KINDS {
        let mut rc = RunConfig::new(Scheme::SuperMem, kind);
        rc.txns = 40;
        rc.req_bytes = 256;
        rc.array_footprint = 512 << 10;
        let a = Experiment::new(rc.clone()).unwrap().run_single();
        let b = Experiment::new(rc.clone()).unwrap().run_single();
        assert_eq!(a.total_cycles, b.total_cycles, "{kind}");
        assert_eq!(a.stats, b.stats, "{kind}");
    }
}

#[test]
fn different_seeds_produce_different_runs() {
    let mut rc = RunConfig::new(Scheme::SuperMem, supermem::workloads::WorkloadKind::Array);
    rc.txns = 40;
    rc.array_footprint = 512 << 10;
    let a = Experiment::new(rc.clone()).unwrap().run_single();
    rc.seed = 999;
    let b = Experiment::new(rc.clone()).unwrap().run_single();
    assert_ne!(
        a.stats.txn_latencies, b.stats.txn_latencies,
        "different seeds must change the access pattern"
    );
}

#[test]
fn multicore_is_deterministic_too() {
    let mut rc = RunConfig::new(
        Scheme::WriteThrough,
        supermem::workloads::WorkloadKind::Queue,
    );
    rc.txns = 15;
    rc.programs = 4;
    let a = Experiment::new(rc.clone()).unwrap().run_multicore();
    let b = Experiment::new(rc.clone()).unwrap().run_multicore();
    assert_eq!(a.total_cycles, b.total_cycles);
    assert_eq!(a.stats, b.stats);
}

#[test]
fn encryption_key_is_seed_stable() {
    use supermem::sim::Config;
    let a = Config::default().with_seed(5).encryption_key();
    let b = Config::default().with_seed(5).encryption_key();
    let c = Config::default().with_seed(6).encryption_key();
    assert_eq!(a, b);
    assert_ne!(a, c);
}

/// FNV-1a over everything a run reports: its `Stats` (every counter and
/// every per-transaction latency), measured cycles, program and
/// transaction counts, workload name and the telemetry JSON.
fn run_digest(r: &supermem::RunResult) -> u64 {
    let telemetry = r.telemetry.as_ref().expect("observed run");
    let parts = [
        format!("{:?}", r.stats),
        r.total_cycles.to_string(),
        r.programs.to_string(),
        r.txns.to_string(),
        r.workload.clone(),
        telemetry.to_json(r.total_cycles),
    ];
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in &parts {
        for &b in part.as_bytes().iter().chain(&[0xff]) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[test]
fn every_run_driver_matches_its_golden_digests() {
    use supermem::scheme::FIGURE_SCHEMES;
    use supermem::workloads::WorkloadKind;

    let queue = |scheme: Scheme, txns: u64| {
        RunConfig::new(scheme, WorkloadKind::Queue)
            .with_txns(txns)
            .with_req_bytes(256)
    };
    let session = |rc: RunConfig| Experiment::new(rc).unwrap().observe();
    let mut got = Vec::new();
    for scheme in FIGURE_SCHEMES {
        got.push(run_digest(&session(queue(scheme, 30)).run()));
    }
    for scheme in [Scheme::WriteThrough, Scheme::SuperMem] {
        let rc = queue(scheme, 10).with_programs(4);
        got.push(run_digest(&session(rc).run_multicore()));
    }
    let trace = session(queue(Scheme::SuperMem, 30)).record_trace();
    for scheme in [Scheme::Unsec, Scheme::WriteThrough, Scheme::SuperMem] {
        got.push(run_digest(&session(queue(scheme, 30)).replay(&trace)));
    }
    let rc = queue(Scheme::SuperMem, 10).with_programs(2);
    got.push(run_digest(&session(rc).run_multicore_trace()));
    // Pinned run by run: the closed-loop, multi-program, replay and
    // event-interleaved drivers must keep every reported number.
    assert_eq!(
        got,
        [
            0xf569_d31a_1c72_3b0a,
            0xfae8_ae49_34a0_496b,
            0x09a0_caf7_d331_2a42,
            0xc952_7a4d_986c_dd7f,
            0x319d_3eba_7ccf_b309,
            0xa365_673e_692a_eb59,
            0x0dfa_fb15_919b_e3a0,
            0x9a6f_c205_70b9_92f1,
            0x8d00_b07a_f1d8_2672,
            0x1a86_c5c3_d621_7454,
            0x1439_faf1_b4c0_644f,
            0xf250_3f53_3537_414c,
        ],
        "{got:#018x?}"
    );
}
