//! Integration smoke for the KV differential crash-torture campaign:
//! a reduced grid (one seed per scheme, every fault class, plus a
//! multi-channel slice) that must classify every injection without a
//! single SILENT case. The full 1,764-injection grid is the
//! `kvtorture` figure binary; this is the CI-sized certificate that
//! the machinery itself — crash arming, fault planning, image capture,
//! recovery, oracle classification — holds together across crates.

use supermem::nvm::FaultClass;
use supermem::torture::shrink;
use supermem::Scheme;
use supermem_kv::torture::{KV_TORTURE_KEYSPACE, KV_TORTURE_MAX_VAL};
use supermem_kv::{
    kv_crash_points, kv_run_case, kv_run_torture, op_stream, KvClassification, KvOp, KvTortureCase,
    KvTortureConfig,
};

fn classes_with_baseline() -> Vec<Option<FaultClass>> {
    let mut classes: Vec<Option<FaultClass>> = vec![None];
    classes.extend(FaultClass::ALL.into_iter().map(Some));
    classes
}

#[test]
fn reduced_campaign_has_zero_silent_cases() {
    let cfg = KvTortureConfig {
        schemes: vec![Scheme::SuperMem, Scheme::WriteThrough],
        classes: classes_with_baseline(),
        seeds: vec![1],
        point: None,
        channels: vec![1],
        ops: 10,
    };
    let report = kv_run_torture(&cfg);

    let expected: u64 = cfg
        .schemes
        .iter()
        .map(|&s| kv_crash_points(s, 1, 1, cfg.ops) * cfg.classes.len() as u64)
        .sum();
    assert_eq!(report.total(), expected, "every grid cell executed");
    assert!(
        report.silent().is_empty(),
        "SILENT cases: {:?}",
        report
            .silent()
            .iter()
            .map(|r| r.case.repro())
            .collect::<Vec<_>>()
    );
    // The campaign must see all three benign outcomes, or the oracle
    // is vacuous.
    assert!(report.count(KvClassification::RecoveredCommitted) > 0);
    assert!(report.count(KvClassification::LostUnackedTail) > 0);
    assert!(report.count(KvClassification::Detected) > 0);
    // Crash-only cases never involve media damage, so nothing there
    // may be degraded to "detected": the WAL contract handles a bare
    // crash at any append without data loss beyond the unacked tail.
    for r in &report.results {
        assert!(
            r.case.class.is_some() || r.classification != KvClassification::Detected,
            "{}: a bare crash must never need a damage signal",
            r.case.repro()
        );
    }
    let tallies = report.tallies();
    assert_eq!(tallies.len(), cfg.schemes.len());
    for (scheme, counts) in &tallies {
        assert_eq!(counts[3], 0, "{scheme}: SILENT cases");
    }
    assert_eq!(
        tallies
            .iter()
            .map(|(_, counts)| counts.iter().sum::<u64>())
            .sum::<u64>(),
        report.total(),
        "tallies add up"
    );
}

#[test]
fn multichannel_slice_is_fail_safe_too() {
    let cfg = KvTortureConfig {
        schemes: vec![Scheme::SuperMem],
        classes: vec![None, Some(FaultClass::Torn), Some(FaultClass::BankFail)],
        seeds: vec![2],
        point: None,
        channels: vec![2],
        ops: 8,
    };
    let report = kv_run_torture(&cfg);
    assert!(report.total() > 0);
    assert!(report.silent().is_empty());
}

#[test]
fn campaign_is_deterministic() {
    let cfg = KvTortureConfig {
        schemes: vec![Scheme::SuperMem],
        classes: vec![None, Some(FaultClass::Torn)],
        seeds: vec![3],
        point: None,
        channels: vec![1],
        ops: 8,
    };
    let a = kv_run_torture(&cfg);
    let b = kv_run_torture(&cfg);
    assert_eq!(a.total(), b.total());
    for (ra, rb) in a.results.iter().zip(&b.results) {
        assert_eq!(ra.case, rb.case);
        assert_eq!(ra.classification, rb.classification);
        assert_eq!(ra.detail, rb.detail);
    }
}

#[test]
fn shrink_finds_an_equally_classified_earlier_point() {
    // Pick a detected case from a small sweep and shrink it: the
    // minimized point must reproduce the same classification.
    let cfg = KvTortureConfig {
        schemes: vec![Scheme::SuperMem],
        classes: vec![Some(FaultClass::Torn)],
        seeds: vec![1],
        point: None,
        channels: vec![1],
        ops: 10,
    };
    let report = kv_run_torture(&cfg);
    let Some(detected) = report
        .results
        .iter()
        .find(|r| r.classification == KvClassification::Detected)
    else {
        panic!("torn-write sweep produced no detected case to shrink");
    };
    let min = shrink(&cfg, &detected.case);
    assert!(min.point <= detected.case.point);
    let replay = kv_run_case(&KvTortureCase {
        point: min.point,
        ..detected.case
    });
    assert_eq!(replay.classification, KvClassification::Detected);
}

#[test]
fn campaign_ops_reach_the_case_runner() {
    // A 4-op campaign's final crash point is the clean shutdown after all
    // four ops: everything issued is durable.
    let cfg = KvTortureConfig {
        schemes: vec![Scheme::SuperMem],
        classes: vec![None],
        seeds: vec![1],
        point: None,
        channels: vec![1],
        ops: 4,
    };
    let report = kv_run_torture(&cfg);
    let last = report.results.last().expect("cases ran");
    assert_eq!(last.case.point, kv_crash_points(Scheme::SuperMem, 1, 1, 4));
    assert_eq!(
        last.classification,
        KvClassification::RecoveredCommitted,
        "{}: {}",
        last.case.repro(),
        last.detail
    );
    // A longer stream replays all of its ops, not the default ten: the
    // final case recovers the 16-op stream's key set.
    let longer = kv_run_torture(&KvTortureConfig { ops: 16, ..cfg });
    let last = longer.results.last().expect("cases ran");
    let mut model = std::collections::BTreeMap::new();
    for op in op_stream(1, 16, KV_TORTURE_KEYSPACE, KV_TORTURE_MAX_VAL) {
        match op {
            KvOp::Put(k, v) => {
                model.insert(k, v);
            }
            KvOp::Del(k) => {
                model.remove(&k);
            }
        }
    }
    assert_eq!(last.classification, KvClassification::RecoveredCommitted);
    let recovered = last.evidence.expect("recovery report");
    assert_eq!(recovered.entries as usize, model.len(), "{}", last.detail);
}
