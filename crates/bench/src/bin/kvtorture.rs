//! KV crash-torture figure (extension beyond the paper): the
//! recoverable KV store — checksummed WAL plus rotating validated
//! snapshots on the secure machine — crashed at **every** write-queue
//! append it performs, crossed with every media fault class, recovered,
//! and differentially judged against the in-DRAM oracle of
//! acknowledged operations.
//!
//! Reading the tables:
//!
//! * **recovered-committed** — every operation issued before the crash
//!   survived (the in-flight one happened to reach the media).
//! * **lost-unacked-tail** — acknowledged operations all survived; only
//!   the never-acknowledged in-flight tail is gone. This is the WAL
//!   contract working as designed, not a failure.
//! * **detected** — the recovered state is degraded but *honestly* so:
//!   a typed `RecoveryError`, damage visible in the recovery report
//!   (rejected snapshots, skipped records), or a hardware signal (ECC
//!   detection, poisoned read, dirty-shutdown latch).
//! * **silent** — acknowledged data wrong with no signal. The whole
//!   figure exists to show this column is zero everywhere.
//!
//! Every cell is deterministic in the seed set: re-running this binary
//! reproduces the table byte for byte, at any `SUPERMEM_THREADS` or
//! `SUPERMEM_RUN_THREADS`.

use supermem::metrics::TextTable;
use supermem::nvm::FaultClass;
use supermem::torture;
use supermem_bench::Report;
use supermem_kv::torture::KV_TORTURE_SCHEMES;
use supermem_kv::{kv_crash_points, kv_run_torture, KvTortureConfig};

fn main() {
    let cfg = KvTortureConfig::default();
    let report = kv_run_torture(&cfg);

    let by_scheme = report.table();

    // The per-scheme table's columns, minus the verdict, one row per
    // (fault class, scheme).
    let mut headers = vec!["fault".to_owned()];
    headers.extend_from_slice(&by_scheme.headers()[..6]);
    let mut by_class = TextTable::new(headers);
    for class in cfg.classes.iter().copied() {
        let slice = torture::Report::<KvTortureConfig> {
            results: report
                .results
                .iter()
                .filter(|r| r.case.class == class)
                .cloned()
                .collect(),
        };
        for (scheme, counts) in slice.tallies() {
            let fault = class.map_or("none (crash only)", FaultClass::name);
            let mut row = vec![fault.to_owned(), scheme];
            row.push(counts.iter().sum::<u64>().to_string());
            row.extend(counts.map(|n| n.to_string()));
            by_class.row(row);
        }
    }

    let points: Vec<String> = cfg
        .seeds
        .iter()
        .map(|&seed| {
            format!(
                "seed {seed}: {}",
                kv_crash_points(KV_TORTURE_SCHEMES[0], 1, seed, cfg.ops)
            )
        })
        .collect();

    let mut rep = Report::new("kvtorture");
    rep.section(
        "KV store under differential crash torture, per scheme (crash point x fault class x seed)",
        by_scheme,
    );
    rep.section(
        "Per fault class: how each crash landed (SuperMem and the write-through baseline)",
        by_class,
    );
    rep.footnote(&format!(
        "{} injections: every write-queue append of a {}-op WAL+snapshot workload ({} keys, light \
         checkpoint every {} mutations, one epoch rotation) is a crash point; crash points per \
         dry run ({}); {} fault classes + crash-only; seeds {:?}",
        report.total(),
        cfg.ops,
        supermem_kv::torture::KV_TORTURE_KEYSPACE,
        supermem_kv::torture::KV_TORTURE_SNAPSHOT_EVERY,
        points.join(", "),
        cfg.classes.len() - 1,
        cfg.seeds,
    ));
    rep.footnote(
        "(silent = acknowledged data wrong with no typed error, no damage in the recovery \
         report, and no hardware signal; the campaign's pass criterion is zero)",
    );
    rep.emit();

    assert!(
        report.silent().is_empty(),
        "silent corruption in the committed figure campaign"
    );
}
