//! The benchmark measures the same program the figures run: on reduced
//! configurations of each workload, the phase-split runs reproduce
//! `Experiment` and `kv_run_torture` exactly, traced or not.

use supermem::sim::Telemetry;
use supermem::{Experiment, RunConfig};
use supermem_kv::{kv_run_torture, KvClassification, KvTortureConfig};
use supermem_perfbench::bench::{per_layer_catalogue, END_TO_END};
use supermem_perfbench::spans::{Layer, SpanLog};
use supermem_perfbench::workload::{
    array_8m, btree_tree_4p, kv_crash, kv_profile, run_kv, run_system, Direct, KvRun, SystemRun,
};
use supermem_perfbench::{DEFAULT_SEED, HELD_OUT_SEED};

fn small_array(seed: u64) -> RunConfig {
    array_8m(seed, 60).with_array_footprint(256 << 10)
}

fn small_btree(seed: u64) -> RunConfig {
    btree_tree_4p(seed, 25)
}

fn small_kv(seed: u64) -> KvTortureConfig {
    kv_crash(seed, 1)
}

fn system_runs(rc: &RunConfig) -> (SystemRun, SystemRun, SpanLog) {
    let direct = run_system(rc, &mut Direct, true).expect("builds");
    let mut log = SpanLog::new();
    let traced = run_system(rc, &mut log, true).expect("builds");
    (direct, traced, log)
}

fn telemetry_json(t: Option<&Telemetry>, total_cycles: u64) -> String {
    t.expect("telemetry requested").to_json(total_cycles)
}

fn assert_matches_experiment(rc: &RunConfig) {
    let mut exp = Experiment::new(rc.clone()).expect("valid config").observe();
    let reference = if rc.programs == 1 {
        exp.run_single()
    } else {
        exp.run_multicore()
    };
    let (direct, traced, _) = system_runs(rc);
    for run in [&direct, &traced] {
        assert!(run.failures.is_empty(), "{:?}", run.failures);
        assert_eq!(run.stats, reference.stats);
        assert_eq!(run.total_cycles, reference.total_cycles);
        assert_eq!(run.txn_cycles, reference.stats.txn_latencies);
        assert_eq!(
            telemetry_json(run.telemetry.as_ref(), run.total_cycles),
            telemetry_json(reference.telemetry.as_ref(), reference.total_cycles)
        );
    }
}

#[test]
fn array_run_reproduces_experiment_run_single() {
    assert_matches_experiment(&small_array(DEFAULT_SEED));
}

#[test]
fn btree_run_reproduces_experiment_run_multicore() {
    assert_matches_experiment(&small_btree(DEFAULT_SEED));
}

fn outcomes(run: &KvRun) -> Vec<(supermem_kv::KvTortureCase, KvClassification)> {
    run.results
        .iter()
        .map(|r| (r.case, r.classification))
        .collect()
}

#[test]
fn kv_run_reproduces_kv_run_torture() {
    let cfg = small_kv(DEFAULT_SEED);
    let reference = kv_run_torture(&cfg);
    let expected: Vec<_> = reference
        .results
        .iter()
        .map(|r| (r.case, r.classification))
        .collect();
    let direct = run_kv(&cfg, 2, &mut Direct);
    let traced = run_kv(&cfg, 1, &mut SpanLog::new());
    for run in [&direct, &traced] {
        assert_eq!(outcomes(run), expected);
        for c in [
            KvClassification::RecoveredCommitted,
            KvClassification::LostUnackedTail,
            KvClassification::Detected,
            KvClassification::Silent,
        ] {
            assert_eq!(run.count(c), reference.count(c), "{c}");
        }
        assert!(run.failures.is_empty(), "{:?}", run.failures);
    }
    assert_eq!(direct.digest(), traced.digest());
}

#[test]
fn same_seed_repeats_the_digest_and_held_out_seed_changes_it() {
    for rc in [small_array as fn(u64) -> RunConfig, small_btree] {
        let a = run_system(&rc(DEFAULT_SEED), &mut Direct, false).expect("builds");
        let b = run_system(&rc(DEFAULT_SEED), &mut Direct, false).expect("builds");
        let c = run_system(&rc(HELD_OUT_SEED), &mut Direct, false).expect("builds");
        assert_eq!(a.digest(), b.digest());
        assert_ne!(a.digest(), c.digest());
    }
    let a = run_kv(&small_kv(DEFAULT_SEED), 1, &mut Direct);
    let b = run_kv(&small_kv(DEFAULT_SEED), 2, &mut Direct);
    let c = run_kv(&small_kv(HELD_OUT_SEED), 1, &mut Direct);
    assert_eq!(a.digest(), b.digest());
    assert_ne!(a.digest(), c.digest());
    let cfg = small_kv(DEFAULT_SEED);
    let p = kv_profile(&cfg, &cfg.seeds).expect("profile");
    let q = kv_profile(&cfg, &cfg.seeds).expect("profile");
    let held_out = small_kv(HELD_OUT_SEED);
    let r = kv_profile(&held_out, &held_out.seeds).expect("profile");
    assert_eq!(p.digest(), q.digest());
    assert_ne!(p.digest(), r.digest());
}

#[test]
fn metadata_records_the_default_and_held_out_seeds() {
    let meta = include_str!("../meta.json");
    assert!(meta.contains(&format!("\"default_seed\": {DEFAULT_SEED},")));
    assert!(meta.contains(&format!("\"held_out_seed\": {HELD_OUT_SEED},")));
}

#[test]
fn traced_span_log_passes_its_self_check() {
    let (_, _, log) = system_runs(&small_btree(DEFAULT_SEED));
    assert!(log.check().is_empty(), "{:?}", log.check());
    let spans = log.spans();
    let steps = spans.iter().filter(|s| s.layer == Layer::Step).count();
    assert_eq!(steps, 4 * 25);
    for s in spans {
        if let Some(p) = s.parent {
            assert_eq!(s.op, spans[p].op, "children carry their parent's op id");
        }
    }
    assert!(log.self_times_ns(Layer::Step).iter().all(|&t| t >= 0.0));
}

#[test]
fn benchmark_json_lists_every_reported_metric() {
    let spec = include_str!("../../BENCHMARK.json");
    let entries = END_TO_END
        .iter()
        .map(|&(n, u, b)| (n.to_owned(), u, b))
        .chain(per_layer_catalogue());
    for (name, unit, better) in entries {
        let entry =
            format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"");
        assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
}
