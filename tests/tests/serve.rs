//! Serving-engine integration: open-loop determinism across thread
//! counts and channel widths, persistency-ordering cleanliness of the
//! shared-structure protocols, and the CAS-window torture campaign,
//! exercised across crate boundaries the way `supermem serve` wires
//! them.

use supermem::nvm::FaultClass;
use supermem::torture::{run, Classification};
use supermem::Scheme;
use supermem_check::Checker;
use supermem_serve::{
    run_serve, run_serve_observed, ServeConfig, ServeTortureConfig, StructureKind,
};

fn quick(structure: StructureKind) -> ServeConfig {
    ServeConfig {
        structure,
        cores: 4,
        requests: 48,
        mean_gap: 150,
        region_len: 1 << 18,
        ..ServeConfig::default()
    }
}

#[test]
fn open_loop_runs_are_deterministic_at_any_thread_count() {
    for structure in StructureKind::ALL {
        let cfg = quick(structure);
        let a = run_serve(&cfg).unwrap();
        let b = run_serve(&cfg).unwrap();
        assert_eq!(a.digest, b.digest, "{structure}: same seed, same op stream");
        assert_eq!(
            (a.p50, a.p99, a.p999, a.max),
            (b.p50, b.p99, b.p999, b.max),
            "{structure}: same seed, same tail table"
        );

        for threads in [2, 4] {
            let mut cfg = quick(structure);
            cfg.run_threads = threads;
            let t = run_serve(&cfg).unwrap();
            assert_eq!(
                a.digest, t.digest,
                "{structure}: {threads} run-threads changed the op stream"
            );
            assert_eq!(
                (a.p50, a.p99, a.p999, a.total_cycles),
                (t.p50, t.p99, t.p999, t.total_cycles),
                "{structure}: {threads} run-threads changed the timing"
            );
        }
    }
}

#[test]
fn multi_channel_serving_is_deterministic_and_verified() {
    for channels in [2, 4] {
        let mut cfg = quick(StructureKind::Queue);
        cfg.channels = channels;
        let a = run_serve(&cfg).unwrap();
        let b = run_serve(&cfg).unwrap();
        assert_eq!(a.digest, b.digest, "channels={channels}");
        assert!(a.verified, "channels={channels}");
        assert_eq!(a.completed, 48, "channels={channels}");
    }
}

#[test]
fn shared_structure_protocols_are_checker_clean() {
    // The recoverable-CAS protocols persist from several cores into one
    // region; every data line must still ride with its counter
    // (write-through P-rules), and any core's fence may be the one that
    // exposes a violation. A clean report here is the cross-core
    // arming guarantee.
    for structure in StructureKind::ALL {
        let cfg = quick(structure);
        let checker = Checker::for_config(&cfg.machine_config());
        let (report, observers) = run_serve_observed(&cfg, vec![Box::new(checker)]).unwrap();
        assert_eq!(report.completed, 48, "{structure}");

        let mut found = false;
        for mut obs in observers {
            if let Some(c) = obs.as_any_mut().downcast_mut::<Checker>() {
                let rep = c.take_report();
                assert!(
                    rep.is_clean(),
                    "{structure}: persistency-ordering violation under serving: {rep}"
                );
                assert!(rep.events_seen > 0, "{structure}: checker saw no events");
                found = true;
            }
        }
        assert!(found, "{structure}: checker observer was not returned");
    }
}

#[test]
fn degraded_serving_stays_deterministic() {
    let cfg = ServeConfig {
        degraded_bank: Some(0),
        ..quick(StructureKind::Stack)
    };
    let a = run_serve(&cfg).unwrap();
    let b = run_serve(&cfg).unwrap();
    assert_eq!(a.digest, b.digest);
    assert!(!a.verified);
    assert_eq!(a.completed, 48);
    assert!(a.poisoned_reads + a.dropped_writes > 0);
}

#[test]
fn cas_window_torture_has_no_silent_corruption() {
    // Cross-crate smoke of the full campaign shape: every structure,
    // crash-only plus one power-event and one media fault class.
    let report = run(&ServeTortureConfig {
        schemes: vec![Scheme::SuperMem],
        structures: StructureKind::ALL.to_vec(),
        classes: vec![None, Some(FaultClass::Torn), Some(FaultClass::DoubleFlip)],
        seeds: vec![1],
        point: None,
    });
    assert!(report.total() > 0);
    assert!(
        report.silent().is_empty(),
        "silent corruption: {}",
        report.silent()[0].case.repro()
    );
    // The crash-only slice must recover an oracle state on both sides
    // of the linearization point.
    assert!(report.count(Classification::RecoveredOld) > 0);
    assert!(report.count(Classification::RecoveredNew) > 0);
}

#[test]
fn osiris_cas_window_crashes_recover_through_counter_recovery() {
    // Osiris relaxes counter persistence: its crash images need trial
    // decryption before the descriptor scan, or every case is refused.
    let report = run(&ServeTortureConfig {
        schemes: vec![Scheme::Osiris],
        classes: vec![None],
        seeds: vec![1, 2],
        ..ServeTortureConfig::default()
    });
    assert!(report.total() > 0);
    for r in &report.results {
        assert!(
            matches!(
                r.classification,
                Classification::RecoveredOld | Classification::RecoveredNew
            ),
            "{}: {} ({})",
            r.case.repro(),
            r.classification,
            r.detail
        );
    }
}
