//! End-to-end differential crash torture: the full campaign must
//! classify every injection, and no injection may corrupt silently.
//!
//! These tests exercise the whole stack — fault plan (`supermem-nvm`),
//! degraded controller (`supermem-memctrl`), hardened recovery
//! (`supermem-persist`), and the campaign engine (`supermem::torture`) —
//! at the scale the CI torture job runs.

use supermem::torture::{
    cases, crash_points, parse, run, run_case, Classification, Subject, TortureCase, TortureConfig,
    TORTURE_SCHEMES,
};
use supermem::Scheme;
use supermem_nvm::FaultClass;

#[test]
fn full_campaign_classifies_everything_with_zero_silent_corruption() {
    let cfg = TortureConfig::default();
    let report = run(&cfg);
    assert!(
        report.total() >= 1000,
        "the campaign must run at least 1000 injections, got {}",
        report.total()
    );
    let classified = report.count(Classification::RecoveredOld)
        + report.count(Classification::RecoveredNew)
        + report.count(Classification::Detected)
        + report.count(Classification::Silent);
    assert_eq!(classified, report.total(), "every outcome is classified");
    if let Some(r) = report.silent().first() {
        panic!("silent corruption: {} — {}", r.case.repro(), r.detail);
    }
    // Per-scheme tallies cover every default scheme and agree in total.
    let by_scheme = report.tallies();
    assert_eq!(by_scheme.len(), TORTURE_SCHEMES.len());
    assert_eq!(
        by_scheme
            .iter()
            .map(|(_, counts)| counts.iter().sum::<u64>())
            .sum::<u64>(),
        report.total()
    );
    for (scheme, counts) in &by_scheme {
        assert_eq!(counts[3], 0, "{scheme}: {counts:?}");
    }
}

#[test]
fn every_fault_class_leaves_a_trace_somewhere_in_the_sweep() {
    // Mutation-style pin: for each class there must exist a case whose
    // detail carries the class's evidence — otherwise the injection is
    // wired to a dead path and the campaign proves nothing.
    let evidence = |class: FaultClass| -> bool {
        let cfg = TortureConfig {
            schemes: vec![Scheme::SuperMem, Scheme::WriteThrough],
            classes: vec![Some(class)],
            seeds: vec![1, 2, 3],
            point: None,
            channels: vec![1],
        };
        let report = run(&cfg);
        assert!(report.silent().is_empty(), "{class}: silent corruption");
        match class {
            // Destructive classes must surface as detected somewhere.
            FaultClass::Torn | FaultClass::DoubleFlip | FaultClass::BankFail => report
                .results
                .iter()
                .any(|r| r.classification == Classification::Detected),
            // Benign-under-ECC classes must still recover everywhere
            // (their traces are counted on the recovery side, which the
            // unit tests pin); here the pin is "no degradation at all".
            FaultClass::BitFlip | FaultClass::StuckAt | FaultClass::TransientRead => {
                report.results.iter().all(|r| {
                    matches!(
                        r.classification,
                        Classification::RecoveredOld
                            | Classification::RecoveredNew
                            | Classification::Detected
                    )
                })
            }
        }
    };
    for class in FaultClass::ALL {
        assert!(evidence(class), "{class}: no trace of the injection");
    }
}

#[test]
fn seeded_cases_are_deterministic() {
    let tc = TortureCase {
        scheme: Scheme::SuperMem,
        class: Some(FaultClass::Torn),
        point: crash_points(&TortureConfig::default(), (Scheme::SuperMem, 1), 42) / 2,
        seed: 42,
        channels: 1,
    };
    let a = run_case(&TortureConfig::default(), &tc);
    let b = run_case(&TortureConfig::default(), &tc);
    assert_eq!(a.classification, b.classification);
    assert_eq!(a.detail, b.detail);
}

#[test]
fn osiris_scheme_survives_torture_through_trial_decryption_recovery() {
    // Osiris takes the counter-reconstruction recovery path; torture it
    // separately so a regression there cannot hide behind the strict
    // schemes' aggregate.
    let cfg = TortureConfig {
        schemes: vec![Scheme::Osiris],
        classes: vec![None, Some(FaultClass::Torn), Some(FaultClass::DoubleFlip)],
        seeds: vec![1, 2],
        point: None,
        channels: vec![1],
    };
    let report = run(&cfg);
    assert!(report.silent().is_empty());
    assert!(report.count(Classification::RecoveredOld) > 0);
}

/// FNV-1a over every case's (repro, classification, detail), in sweep
/// order: a case-by-case fingerprint of a campaign, not just its tally.
fn golden_digest<'a>(cases: impl Iterator<Item = (String, &'a str, &'a str)>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (repro, class, detail) in cases {
        for part in [repro.as_bytes(), class.as_bytes(), detail.as_bytes()] {
            for &b in part.iter().chain(&[0xff]) {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

#[test]
fn reduced_grids_match_their_golden_digests() {
    use supermem::torture::TreeTortureConfig;
    use supermem_kv::{kv_run_torture, KvTortureConfig};
    use supermem_serve::ServeTortureConfig;

    let mut data = Vec::new();
    for channels in [1, 2] {
        let report = run(&TortureConfig {
            schemes: vec![Scheme::SuperMem, Scheme::Osiris],
            seeds: vec![1],
            channels: vec![channels],
            ..TortureConfig::default()
        });
        data.push(golden_digest(report.results.iter().map(|r| {
            (r.case.repro(), r.classification.name(), r.detail.as_str())
        })));
    }
    let tree = run(&TreeTortureConfig {
        levels: vec![1],
        seeds: vec![1],
        ..TreeTortureConfig::default()
    });
    let serve = run(&ServeTortureConfig {
        seeds: vec![1],
        ..ServeTortureConfig::default()
    });
    let kv = kv_run_torture(&KvTortureConfig {
        schemes: vec![Scheme::SuperMem],
        seeds: vec![1],
        ..KvTortureConfig::default()
    });
    let got = [
        data[0],
        data[1],
        golden_digest(
            tree.results
                .iter()
                .map(|r| (r.case.repro(), r.classification.name(), r.detail.as_str())),
        ),
        golden_digest(
            serve
                .results
                .iter()
                .map(|r| (r.case.repro(), r.classification.name(), r.detail.as_str())),
        ),
        golden_digest(
            kv.results
                .iter()
                .map(|r| (r.case.repro(), r.classification.name(), r.detail.as_str())),
        ),
    ];
    // Pinned case by case: any change to a case's spelling, verdict or
    // evidence, or to the sweep order, moves these. (The first moved
    // once, when data repro lines began naming `--channels 1`.)
    assert_eq!(
        got,
        [
            0xb330_43ea_0d88_a1d5,
            0x7f1c_d558_65b8_f5bb,
            0x6d8f_abab_4109_94b7,
            0x3351_5382_02f2_1a98,
            0x9268_8fe9_7aa8_cfeb,
        ],
        "{got:#018x?}"
    );
}

/// Feeds a repro line through the one campaign parser and enumerates
/// the campaign it describes.
fn reparse<S: Subject>(repro: &str) -> Vec<S::Case> {
    let args: Vec<String> = repro
        .split_whitespace()
        .skip_while(|w| !w.starts_with("--"))
        .map(str::to_owned)
        .collect();
    let subject: S = parse(&args).unwrap_or_else(|e| panic!("{repro}: {e}"));
    cases(&subject)
}

/// Every case of `subject` reproduces exactly itself through its repro
/// line.
fn assert_repros_round_trip<S: Subject>(subject: &S) {
    let all = cases(subject);
    assert!(!all.is_empty());
    for case in all {
        let repro = S::repro(&case);
        assert_eq!(reparse::<S>(&repro), vec![case], "{repro}");
    }
}

#[test]
fn every_repro_line_enumerates_exactly_its_case() {
    use supermem::torture::TreeTortureConfig;
    use supermem_kv::KvTortureConfig;
    use supermem_serve::ServeTortureConfig;

    for channels in [1, 2] {
        assert_repros_round_trip(&TortureConfig {
            schemes: vec![Scheme::SuperMem, Scheme::WtXbank],
            classes: vec![None, Some(FaultClass::DoubleFlip)],
            seeds: vec![9],
            point: None,
            channels: vec![channels],
        });
    }
    assert_repros_round_trip(&TreeTortureConfig {
        levels: vec![2],
        seeds: vec![3],
        ..TreeTortureConfig::default()
    });
    assert_repros_round_trip(&ServeTortureConfig {
        classes: vec![Some(FaultClass::Torn)],
        seeds: vec![2],
        ..ServeTortureConfig::default()
    });
    assert_repros_round_trip(&KvTortureConfig {
        schemes: vec![Scheme::WriteThrough],
        classes: vec![None, Some(FaultClass::BankFail)],
        seeds: vec![5],
        channels: vec![2],
        ..KvTortureConfig::default()
    });
    // The spelling the CLI used to print for a one-channel data case
    // sweeps the default [1, 2] channels: two injections, not one.
    let bare = "supermem torture --scheme supermem --fault torn --point 5 --seed 9";
    assert_eq!(reparse::<TortureConfig>(bare).len(), 2);
}
