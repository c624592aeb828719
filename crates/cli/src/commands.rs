//! Command implementations.

use supermem::metrics::TextTable;
use supermem::persist::{recover_osiris, recover_transactions, DirectMem, RecoveredMemory};
use supermem::scheme::FIGURE_SCHEMES;
use supermem::sim::{CounterPlacement, Mutation};
use supermem::torture::{self, parse_flags, Classification, Opt, Subject, TortureConfig};
use supermem::verify::{check_run, check_run_trace, run_mutant_sharded, CheckReport};
use supermem::workloads::spec::ALL_KINDS;
use supermem::workloads::Workload;
use supermem::workloads::WorkloadKind;
use supermem::{sweep, Experiment, RunConfig, RunResult, Scheme};
use supermem_bench::Report;
use supermem_kv::{
    kv_crash_points, kv_run_case, KvLayout, KvTortureCase, KvTortureConfig, KvWorkload,
};
use supermem_lincheck::{find_minimal, lincheck, CrashMode, LincheckConfig, Mutant};
use supermem_serve::{run_serve, ServeConfig, StructureKind, TrafficSpec};

use crate::args::{parse_run, PROFILE_CMD, RUN_CMD, SWEEP_CMD};

/// Validates `rc` up front so the free-run path below cannot panic.
fn validated(rc: &RunConfig) -> Result<(), String> {
    rc.validate().map_err(|e| e.to_string())
}

fn execute(rc: &RunConfig) -> RunResult {
    Experiment::new(rc.clone())
        .expect("config validated before execute")
        .run()
}

fn result_row(r: &RunResult) -> Vec<String> {
    vec![
        r.scheme.name().to_owned(),
        r.workload.clone(),
        r.txns.to_string(),
        format!("{:.0}", r.mean_txn_latency()),
        r.nvm_writes().to_string(),
        r.stats.counter_writes_coalesced.to_string(),
        r.counter_cache_hit_rate()
            .map_or_else(|| "-".to_owned(), |h| format!("{:.1}%", h * 100.0)),
        r.total_cycles.to_string(),
    ]
}

fn result_headers() -> Vec<String> {
    [
        "scheme",
        "workload",
        "txns",
        "cyc/txn",
        "nvm writes",
        "coalesced",
        "cc hit",
        "cycles",
    ]
    .map(str::to_owned)
    .to_vec()
}

/// `supermem run`
pub fn cmd_run(argv: &[String]) -> Result<(), String> {
    let p = parse_run(RUN_CMD, argv)?;
    validated(&p.rc)?;
    let r = execute(&p.rc);
    let mut t = TextTable::new(result_headers());
    t.row(result_row(&r));
    print!("{}", if p.csv { t.to_csv() } else { t.render() });
    Ok(())
}

/// `supermem sweep`
pub fn cmd_sweep(argv: &[String]) -> Result<(), String> {
    let p = parse_run(SWEEP_CMD, argv)?;
    let (param, set) = p.param.ok_or("--param needs a value".to_owned())?;
    let points = p.values.ok_or("--values needs a value".to_owned())?;
    let jobs: Vec<RunConfig> = points
        .iter()
        .map(|&v| {
            let mut rc = p.rc.clone();
            set(&mut rc, v);
            rc
        })
        .collect();
    for rc in &jobs {
        validated(rc)?;
    }
    // All points run through the parallel sweep engine; results come
    // back in input order, so the table matches the sequential output.
    let results = sweep(&jobs, execute);

    let mut t = TextTable::new(
        std::iter::once(param.to_owned())
            .chain(result_headers())
            .collect(),
    );
    for (&v, r) in points.iter().zip(&results) {
        let mut row = vec![v.to_string()];
        row.extend(result_row(r));
        t.row(row);
    }
    print!("{}", if p.csv { t.to_csv() } else { t.render() });
    Ok(())
}

/// `supermem profile`: run once with the built-in telemetry observer
/// attached and print the latency attribution.
pub fn cmd_profile(argv: &[String]) -> Result<(), String> {
    let p = parse_run(PROFILE_CMD, argv)?;
    let mut exp = Experiment::new(p.rc.clone())
        .map_err(|e| e.to_string())?
        .observe();
    let r = exp.run();
    let t = r
        .telemetry
        .as_ref()
        .expect("observed run returns telemetry");
    if p.json {
        println!("{}", t.to_json(r.total_cycles));
        return Ok(());
    }

    let b = &t.breakdown;
    let flush_total = b.counter_fetch_cycles + b.crypto_cycles + b.queue_admission_cycles;
    let share = |c: u64| {
        if flush_total == 0 {
            "-".to_owned()
        } else {
            format!("{:.1}%", 100.0 * c as f64 / flush_total as f64)
        }
    };
    let mut attribution = TextTable::new(
        ["flush phase", "cycles", "share"]
            .map(str::to_owned)
            .to_vec(),
    );
    attribution.row(vec![
        "counter fetch".into(),
        b.counter_fetch_cycles.to_string(),
        share(b.counter_fetch_cycles),
    ]);
    attribution.row(vec![
        "crypto".into(),
        b.crypto_cycles.to_string(),
        share(b.crypto_cycles),
    ]);
    attribution.row(vec![
        "queue admission".into(),
        b.queue_admission_cycles.to_string(),
        share(b.queue_admission_cycles),
    ]);
    println!(
        "{} / {} — {} txns, {} cycles",
        r.scheme, r.workload, r.txns, r.total_cycles
    );
    println!();
    print!("{}", attribution.render());

    let mut hist = TextTable::new(
        [
            "latency", "count", "mean cyc", "p50", "p99", "p999", "max cyc",
        ]
        .map(str::to_owned)
        .to_vec(),
    );
    for (name, h) in [
        ("txn", &t.txn_latency),
        ("flush", &t.flush_latency),
        ("read", &t.read_latency),
    ] {
        hist.row(vec![
            name.into(),
            h.count().to_string(),
            format!("{:.1}", h.mean()),
            h.p50().to_string(),
            h.p99().to_string(),
            h.p999().to_string(),
            h.max().to_string(),
        ]);
    }
    println!();
    print!("{}", hist.render());

    println!();
    println!(
        "write queue: {} enqueues, {} coalesced, {} stalls ({} cycles), \
         occupancy mean {:.2} max {}",
        t.wq_occupancy.enqueues,
        b.coalesced,
        b.wq_stalls,
        b.wq_stall_cycles,
        t.wq_occupancy.histogram.mean(),
        t.wq_occupancy.max,
    );
    // Bank ids are machine-global (`channel * banks + bank`); with more
    // than one channel the table splits the id into its two coordinates.
    let banks_per_channel = p.rc.machine_config().banks;
    let multi = p.rc.channels > 1;
    println!(
        "channels: {} × {} banks, {} intra-run worker thread{}",
        p.rc.channels,
        banks_per_channel,
        p.rc.run_threads,
        if p.rc.run_threads == 1 { "" } else { "s" },
    );
    let headers: &[&str] = if multi {
        &["ch", "bank", "reads", "writes", "busy cyc", "util"]
    } else {
        &["bank", "reads", "writes", "busy cyc", "util"]
    };
    let mut banks = TextTable::new(headers.iter().map(|s| (*s).to_owned()).collect());
    for (i, bank) in t.banks.banks().iter().enumerate() {
        let mut row = if multi {
            vec![
                (i / banks_per_channel).to_string(),
                (i % banks_per_channel).to_string(),
            ]
        } else {
            vec![i.to_string()]
        };
        row.extend([
            bank.reads.to_string(),
            bank.writes.to_string(),
            bank.busy_cycles.to_string(),
            format!("{:.1}%", 100.0 * t.banks.utilization(i, r.total_cycles)),
        ]);
        banks.row(row);
    }
    println!();
    print!("{}", banks.render());
    Ok(())
}

/// Sweeps a crash over every append boundary of the data torture
/// subject's transaction under `scheme`, classifying each recovery.
/// Returns `(total, rolled_back, committed, unrecoverable)`.
fn crash_sweep_scheme(scheme: Scheme, channels: usize) -> Result<(u64, u64, u64, u64), String> {
    let data = TortureConfig::default();
    let group = (scheme, channels);
    let (mem, (), cfg) = TortureConfig::base(group);
    let total = torture::crash_points(&data, group, 1);

    let (mut old, mut new, mut bad) = (0u64, 0u64, 0u64);
    for k in 1..=total {
        let case = TortureConfig::case(group, None, k, 1);
        let (machine, fired) = torture::crash_image(&data, mem.clone(), (), &case);
        if !fired {
            return Err(format!(
                "{scheme}: crash armed after {k} appends never fired \
                 (the transaction issued only {total})"
            ));
        }
        // Osiris-style schemes reconstruct stale counters from ECC tags
        // before the log scan; strict schemes go straight to recovery.
        // On this clean (un-faulted) media a recovery error still means
        // the scheme lost state it needed — count it as unrecoverable.
        let rec = if cfg.osiris_window.is_some() {
            recover_osiris(&cfg, machine.merged())
                .map(|(rec, _)| rec)
                .ok()
        } else {
            Some(RecoveredMemory::from_machine_image(&cfg, machine))
        };
        let Some(mut rec) = rec else {
            bad += 1;
            continue;
        };
        if recover_transactions(&mut rec, torture::LOG_ADDR).is_err() {
            bad += 1;
            continue;
        }
        match torture::oracle_state(&mut rec) {
            Some(Classification::RecoveredOld) => old += 1,
            Some(_) => new += 1,
            None => bad += 1,
        }
    }
    Ok((total, old, new, bad))
}

/// `supermem crash`'s flags.
pub const CRASH: &[Opt<(Vec<Scheme>, usize)>] = &[
    Opt("--scheme", "SCHEME", |a, v| {
        v.scheme().map(|s| a.0 = vec![s])
    }),
    Opt("--channels", "N", |a, v| v.pow2().map(|n| a.1 = n)),
    Opt::json(),
];

/// `supermem crash`: sweep a crash over every append boundary of one
/// durable transaction — under every scheme by default, or just the
/// named one.
pub fn cmd_crash(argv: &[String]) -> Result<(), String> {
    // Every scheme unless one is named, on one channel.
    let (schemes, channels) = parse_flags((Scheme::ALL.to_vec(), 1), &[CRASH], argv)?;

    // Each scheme's crash-point sweep is independent: fan out.
    let rows = sweep(&schemes, |&scheme| crash_sweep_scheme(scheme, channels));

    let mut t = TextTable::new(
        [
            "scheme",
            "crash points",
            "rolled back",
            "committed",
            "unrecoverable",
            "verdict",
        ]
        .map(str::to_owned)
        .to_vec(),
    );
    for (scheme, row) in schemes.iter().zip(rows) {
        let (total, old, new, bad) = row?;
        t.row(vec![
            scheme.name().to_owned(),
            total.to_string(),
            old.to_string(),
            new.to_string(),
            bad.to_string(),
            if bad == 0 {
                "recoverable at every crash point"
            } else {
                "UNRECOVERABLE windows"
            }
            .to_owned(),
        ]);
    }
    let mut rep = Report::new("crash");
    rep.section(
        "Crash-point sweep: one durable undo-logged transaction per scheme",
        t,
    );
    rep.footnote("(rolled back = old state restored; committed = new state durable)");
    rep.emit();
    Ok(())
}

/// Runs one crash-torture campaign (`torture`, `torture --tree`,
/// `serve --torture`, `kv torture`) from its command line: the shared
/// flags, the per-group tally table and footnotes, and — if any case
/// corrupted silently — its reproducer, a shrunk minimal reproducer,
/// and a non-zero exit.
pub fn campaign<S: Subject>(argv: &[String]) -> Result<(), String> {
    let subject: S = torture::parse(argv)?;
    let report = torture::run(&subject);
    let mut rep = Report::new(S::NAME);
    rep.section(S::TITLE, report.table());
    rep.footnote(&report.footnote(&subject));
    rep.footnote(S::LEGEND);
    rep.emit();

    let silent = report.silent();
    if silent.is_empty() {
        return Ok(());
    }
    for r in &silent {
        eprintln!();
        eprintln!("silent corruption: {}", S::repro(&r.case));
        eprintln!("  {}", r.detail);
        let min = torture::shrink(&subject, &r.case);
        eprintln!("  minimal repro: {}", S::repro(&min));
    }
    Err(format!(
        "silent corruption in {} of {} injections",
        silent.len(),
        report.total()
    ))
}

/// `supermem serve`'s flags (without `--torture`).
pub const SERVE: &[Opt<ServeConfig>] = &[
    Opt("--structure", "STRUCTURE", |c, v| {
        StructureKind::from_flag(v.raw).map(|s| c.structure = s)
    }),
    Opt("--scheme", "SCHEME", |c, v| {
        v.scheme().map(|s| c.scheme = s)
    }),
    Opt("--cores", "N", |c, v| v.store(&mut c.cores)),
    Opt("--requests", "N", |c, v| v.store(&mut c.requests)),
    Opt("--read-pct", "P", |c, v| v.store(&mut c.read_pct)),
    Opt("--mean-gap", "CYC", |c, v| v.store(&mut c.mean_gap)),
    Opt("--zipf", "T", |c, v| v.store(&mut c.zipf_theta)),
    Opt("--keyspace", "K", |c, v| v.store(&mut c.keyspace)),
    Opt("--buckets", "B", |c, v| v.store(&mut c.hash_buckets)),
    Opt("--seed", "X", |c, v| v.store(&mut c.seed)),
    Opt("--channels", "N", |c, v| v.pow2().map(|n| c.channels = n)),
    Opt("--run-threads", "N", |c, v| {
        v.at_least_1().map(|n| c.run_threads = n)
    }),
    Opt("--degraded", "BANK", |c, v| {
        v.parse().map(|n| c.degraded_bank = Some(n))
    }),
    Opt::json(),
];

/// `supermem serve`: drive a shared lock-free structure open-loop and
/// print the tail table.
pub fn cmd_serve(argv: &[String]) -> Result<(), String> {
    let cfg = parse_flags(ServeConfig::default(), &[SERVE], argv)?;
    cfg.validate().map_err(|e| e.to_string())?;
    let r = run_serve(&cfg).map_err(|e| e.to_string())?;

    let mut t = TextTable::new(
        [
            "structure",
            "cores",
            "reqs",
            "p50",
            "p99",
            "p999",
            "mean",
            "max",
            "retries",
            "reenc",
        ]
        .map(str::to_owned)
        .to_vec(),
    );
    t.row(vec![
        r.structure.to_string(),
        r.cores.to_string(),
        r.completed.to_string(),
        r.p50.to_string(),
        r.p99.to_string(),
        r.p999.to_string(),
        format!("{:.0}", r.mean),
        r.max.to_string(),
        r.retries.to_string(),
        r.reencryptions.to_string(),
    ]);
    let mut rep = Report::new("serve");
    rep.section(
        &format!(
            "Open-loop serving: {} cores on one shared {} under {} \
             (sojourn latency, cycles)",
            r.cores, r.structure, r.scheme
        ),
        t,
    );
    let mut per_core = TextTable::new(["core", "completed"].map(str::to_owned).to_vec());
    for (c, n) in r.per_core.iter().enumerate() {
        per_core.row(vec![c.to_string(), n.to_string()]);
    }
    rep.section("Per-core completions", per_core);
    if cfg.degraded_bank.is_some() {
        rep.footnote(&format!(
            "degraded mode: bank {} failed at time zero — {} poisoned reads, \
             {} dropped writes, shadow verification skipped",
            cfg.degraded_bank.unwrap_or_default(),
            r.poisoned_reads,
            r.dropped_writes
        ));
    } else {
        rep.footnote("persistent structure verified against the shadow model");
    }
    rep.footnote(&format!(
        "digest {:#018x} — identical across reruns of the same (config, seed)",
        r.digest
    ));
    rep.emit();
    Ok(())
}

/// One named figure configuration the checker sweeps: a batch of runs
/// (mirroring the corresponding bench binary's parameter points) and
/// whether they replay through the event-granularity trace pipeline.
struct CheckConfig {
    name: &'static str,
    runs: Vec<RunConfig>,
    trace: bool,
}

/// The 17 figure configurations, one per bench binary, with `txns`
/// transactions per run. Each mirrors its binary's distinctive knobs at
/// checker-sweep scale.
fn check_configs(txns: u64) -> Vec<CheckConfig> {
    let base = |scheme, kind| {
        RunConfig::new(scheme, kind)
            .with_txns(txns)
            .with_req_bytes(1024)
            .with_array_footprint(1 << 20)
    };
    let plain = |name, runs| CheckConfig {
        name,
        runs,
        trace: false,
    };
    vec![
        plain(
            "fig13",
            FIGURE_SCHEMES
                .iter()
                .map(|&s| base(s, WorkloadKind::Array))
                .collect(),
        ),
        plain(
            "fig14",
            [Scheme::WriteThrough, Scheme::SuperMem]
                .iter()
                .map(|&s| base(s, WorkloadKind::Queue).with_programs(4))
                .collect(),
        ),
        CheckConfig {
            name: "fig14t",
            runs: [Scheme::WriteThrough, Scheme::SuperMem]
                .iter()
                .map(|&s| base(s, WorkloadKind::Queue).with_programs(4))
                .collect(),
            trace: true,
        },
        plain(
            "fig15",
            [Scheme::WriteThrough, Scheme::SuperMem]
                .iter()
                .map(|&s| base(s, WorkloadKind::HashTable))
                .collect(),
        ),
        plain(
            "fig16",
            [16usize, 64]
                .iter()
                .map(|&wq| base(Scheme::SuperMem, WorkloadKind::Queue).with_write_queue_entries(wq))
                .collect(),
        ),
        plain(
            "fig17",
            [64u64 << 10, 1 << 20]
                .iter()
                .map(|&cc| base(Scheme::SuperMem, WorkloadKind::BTree).with_counter_cache_bytes(cc))
                .collect(),
        ),
        plain(
            "table1",
            vec![
                base(Scheme::SuperMem, WorkloadKind::Array),
                base(Scheme::WriteThrough, WorkloadKind::Array),
            ],
        ),
        plain(
            "headline",
            vec![
                base(Scheme::SuperMem, WorkloadKind::Queue),
                base(Scheme::WriteBackIdeal, WorkloadKind::Queue),
            ],
        ),
        plain(
            "ablation",
            vec![
                base(Scheme::WriteThrough, WorkloadKind::Queue)
                    .with_placement_override(Some(CounterPlacement::SameBank))
                    .with_cwc_override(Some(false)),
                base(Scheme::WriteThrough, WorkloadKind::Queue)
                    .with_placement_override(Some(CounterPlacement::CrossBank))
                    .with_cwc_override(Some(true)),
            ],
        ),
        plain(
            "osiris",
            vec![
                base(Scheme::Osiris, WorkloadKind::Array),
                base(Scheme::SuperMem, WorkloadKind::Array),
            ],
        ),
        plain(
            "endurance",
            vec![
                base(Scheme::WriteThrough, WorkloadKind::BTree),
                base(Scheme::SuperMem, WorkloadKind::BTree),
            ],
        ),
        CheckConfig {
            name: "tracebench",
            runs: vec![base(Scheme::SuperMem, WorkloadKind::Array)],
            trace: true,
        },
        plain(
            "battery",
            vec![base(Scheme::WriteBackIdeal, WorkloadKind::Queue)],
        ),
        plain(
            "mixed",
            [10u8, 90]
                .iter()
                .map(|&pct| base(Scheme::SuperMem, WorkloadKind::Ycsb).with_ycsb_read_pct(pct))
                .collect(),
        ),
        plain("sca", vec![base(Scheme::Sca, WorkloadKind::Array)]),
        plain(
            "bitwrites",
            vec![base(Scheme::Unsec, WorkloadKind::BTree).with_req_bytes(256)],
        ),
        plain(
            "authenticated",
            vec![base(Scheme::SuperMem, WorkloadKind::Queue).with_integrity_tree(true)],
        ),
        plain(
            "treesweep",
            vec![base(Scheme::SuperMem, WorkloadKind::Queue)
                .with_integrity_tree(true)
                .with_persisted_levels(Some(1))],
        ),
    ]
}

/// Checks one figure configuration, merging all of its runs' reports.
fn check_one(cc: &CheckConfig) -> Result<CheckReport, String> {
    let mut merged = CheckReport::default();
    for rc in &cc.runs {
        let report = if cc.trace {
            check_run_trace(rc)
        } else {
            check_run(rc)
        }
        .map_err(|e| format!("{}: {e}", cc.name))?;
        merged.events_seen += report.events_seen;
        merged.violations.extend(report.violations);
    }
    Ok(merged)
}

/// Finds the smallest transaction count (halving from `txns`) at which
/// `cc` still reports a violation — the minimal reproducer.
fn shrink_repro(cc: &CheckConfig, txns: u64) -> u64 {
    torture::halve(txns, |t| {
        let smaller = CheckConfig {
            name: cc.name,
            runs: cc.runs.iter().map(|rc| rc.clone().with_txns(t)).collect(),
            trace: cc.trace,
        };
        matches!(check_one(&smaller), Ok(r) if !r.is_clean())
    })
}

/// The settings of `supermem check`.
#[derive(Default)]
pub struct CheckArgs {
    json: bool,
    txns: u64,
    channels: usize,
    /// The one figure configuration to check.
    only: Option<&'static str>,
    mutate: Option<Mutation>,
}

/// `supermem check`'s flags.
pub const CHECK: &[Opt<CheckArgs>] = &[
    Opt("--json", "", |a, v| v.on(&mut a.json)),
    Opt("--txns", "N", |a, v| v.store(&mut a.txns)),
    Opt("--channels", "N", |a, v| v.pow2().map(|n| a.channels = n)),
    Opt("--config", "NAME", |a, v| {
        let names: Vec<&'static str> = check_configs(0).iter().map(|c| c.name).collect();
        let name = names.iter().copied().find(|&n| n == v.raw);
        v.one_of(name, &names).map(|n| a.only = Some(n))
    }),
    Opt("--mutate", "MUTATION", |a, v| {
        let names = Mutation::ALL.map(Mutation::name);
        v.one_of(Mutation::parse(v.raw), names)
            .map(|m| a.mutate = Some(m))
    }),
];

/// `supermem check`: run the persistency-ordering checker over the
/// figure configurations (or prove a rule fires under an injected
/// mutation).
pub fn cmd_check(argv: &[String]) -> Result<(), String> {
    let start = CheckArgs {
        txns: 25,
        channels: 1,
        ..CheckArgs::default()
    };
    let a = parse_flags(start, &[CHECK], argv)?;
    if let Some(m) = a.mutate {
        let report = run_mutant_sharded(Some(m), a.channels);
        if a.json {
            println!("{}", report.to_json());
        } else {
            println!("mutation {}: {report}", m.name());
        }
        return if report.is_clean() {
            Err(format!(
                "mutation `{}` injected but no invariant fired",
                m.name()
            ))
        } else {
            Ok(())
        };
    }

    let mut configs: Vec<CheckConfig> = check_configs(a.txns)
        .into_iter()
        .filter(|c| a.only.is_none_or(|n| n == c.name))
        .collect();
    // Every figure configuration runs unchanged at any interleaving
    // width; the checker shards its shadow state to match.
    for cc in &mut configs {
        for rc in &mut cc.runs {
            rc.channels = a.channels;
        }
    }

    let mut t = TextTable::new(
        ["config", "runs", "events", "violations", "status"]
            .map(str::to_owned)
            .to_vec(),
    );
    let mut dirty = Vec::new();
    let mut json_rows = Vec::new();
    for cc in &configs {
        let report = check_one(cc)?;
        t.row(vec![
            cc.name.to_owned(),
            cc.runs.len().to_string(),
            report.events_seen.to_string(),
            report.violations.len().to_string(),
            if report.is_clean() { "ok" } else { "FAIL" }.to_owned(),
        ]);
        if a.json {
            json_rows.push(format!("\"{}\":{}", cc.name, report.to_json()));
        }
        if !report.is_clean() {
            dirty.push((cc, report));
        }
    }
    if a.json {
        println!("{{{}}}", json_rows.join(","));
    } else {
        print!("{}", t.render());
    }

    if dirty.is_empty() {
        return Ok(());
    }
    for (cc, report) in &dirty {
        eprintln!();
        eprintln!("{}:", cc.name);
        for v in &report.violations {
            eprintln!("  {v}");
            for (ord, ev) in &v.window {
                eprintln!("    #{ord} {ev}");
            }
        }
        let min = shrink_repro(cc, a.txns);
        let ch = if a.channels == 1 {
            String::new()
        } else {
            format!(" --channels {}", a.channels)
        };
        eprintln!(
            "  minimal repro: supermem check --config {} --txns {min}{ch}",
            cc.name
        );
    }
    Err(format!(
        "persistency-ordering violations in {} configuration(s)",
        dirty.len()
    ))
}

/// The settings of `supermem lincheck`.
pub struct LincheckArgs {
    structures: Vec<StructureKind>,
    cores: usize,
    ops: usize,
    depth: u64,
    crash: CrashMode,
    reduce: bool,
    mutate: Option<Mutant>,
    json: bool,
}

/// `supermem lincheck`'s flags.
pub const LINCHECK: &[Opt<LincheckArgs>] = &[
    Opt("--structure", "{STRUCTURE|all}", |a, v| {
        a.structures = match v.raw {
            "all" => StructureKind::ALL.to_vec(),
            raw => vec![StructureKind::from_flag(raw)?],
        };
        Ok(())
    }),
    Opt("--cores", "N", |a, v| v.within(1, 4).map(|n| a.cores = n)),
    Opt("--ops", "N", |a, v| v.within(1, 8).map(|n| a.ops = n)),
    Opt("--depth", "N", |a, v| v.at_least_1().map(|n| a.depth = n)),
    Opt("--crash", "{all|none|K}", |a, v| {
        a.crash = match v.raw {
            "all" => CrashMode::All,
            "none" => CrashMode::Final,
            k => CrashMode::AfterPersist(
                k.parse()
                    .map_err(|_| v.invalid(" (all, none, or a persist index)"))?,
            ),
        };
        Ok(())
    }),
    Opt("--reduce", "", |a, v| v.on(&mut a.reduce)),
    Opt("--json", "", |a, v| v.on(&mut a.json)),
    Opt("--mutate", "MUTANT", |a, v| {
        let names = Mutant::ALL.map(Mutant::name);
        v.one_of(Mutant::parse(v.raw), names)
            .map(|m| a.mutate = Some(m))
    }),
];

/// `supermem lincheck`: model-check the serving protocols for durable
/// linearizability.
pub fn cmd_lincheck(argv: &[String]) -> Result<(), String> {
    let start = LincheckArgs {
        structures: StructureKind::ALL.to_vec(),
        cores: 2,
        ops: 3,
        depth: 96,
        crash: CrashMode::All,
        reduce: false,
        mutate: None,
        json: false,
    };
    let a = parse_flags(start, &[LINCHECK], argv)?;

    let mut t = TextTable::new(
        [
            "structure",
            "schedules",
            "crash points",
            "dedup",
            "pruned",
            "ms",
            "verdict",
        ]
        .map(str::to_owned)
        .to_vec(),
    );
    let mut json_rows = Vec::new();
    let mut violations = Vec::new();
    let mut missed = Vec::new();
    for s in &a.structures {
        let mut cfg = LincheckConfig::mixed(*s, a.cores, a.ops);
        cfg.crash = a.crash;
        cfg.reduce = a.reduce;
        cfg.mutant = a.mutate;
        cfg.max_actions = a.depth;
        let t0 = std::time::Instant::now();
        let report = lincheck(&cfg);
        let ms = t0.elapsed().as_millis();
        let caught = report.violation.is_some();
        let verdict = match (a.mutate.is_some(), caught) {
            (false, false) => "ok",
            (false, true) => "VIOLATION",
            (true, true) => "caught",
            (true, false) => "MISSED",
        };
        t.row(vec![
            s.name().to_owned(),
            report.stats.schedules.to_string(),
            report.stats.crash_points.to_string(),
            report.stats.dedup_hits.to_string(),
            report.stats.sleep_pruned.to_string(),
            ms.to_string(),
            verdict.to_owned(),
        ]);
        if a.json {
            let viol = report
                .violation
                .as_ref()
                .map_or_else(|| "null".to_owned(), |v| format!("{:?}", v.to_string()));
            json_rows.push(format!(
                "\"{}\":{{\"schedules\":{},\"crash_points\":{},\"dedup_hits\":{},\
                 \"sleep_pruned\":{},\"ms\":{ms},\"violation\":{viol}}}",
                s.name(),
                report.stats.schedules,
                report.stats.crash_points,
                report.stats.dedup_hits,
                report.stats.sleep_pruned,
            ));
        }
        match (a.mutate.is_some(), caught) {
            (true, false) => missed.push(*s),
            (_, true) => violations.push((*s, cfg)),
            _ => {}
        }
    }
    if a.json {
        println!("{{{}}}", json_rows.join(","));
    } else {
        print!("{}", t.render());
    }

    // Shrink every violation to a minimal replayable witness.
    for (s, cfg) in &violations {
        if let Some(repro) = find_minimal(cfg) {
            eprintln!();
            eprintln!("{s}: minimal repro: {}", repro.summary());
        }
    }
    if let Some(m) = a.mutate {
        return if missed.is_empty() {
            Ok(())
        } else {
            let names: Vec<&str> = missed.iter().map(|s| s.name()).collect();
            Err(format!(
                "mutant `{m}` injected but not caught on: {}",
                names.join(", ")
            ))
        };
    }
    if violations.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "durable-linearizability violations in {} structure(s)",
            violations.len()
        ))
    }
}

/// `supermem list`
pub fn cmd_list() {
    println!("schemes:");
    for s in Scheme::ALL {
        println!("  {s}");
    }
    println!("workloads:");
    for k in ALL_KINDS {
        println!("  {k}");
    }
}

/// The settings of `supermem kv run`.
pub struct KvRunArgs {
    scheme: Scheme,
    requests: u64,
    spec: TrafficSpec,
    snapshot_every: u64,
}

/// `supermem kv run`'s flags.
pub const KV_RUN: &[Opt<KvRunArgs>] = &[
    Opt("--scheme", "SCHEME", |a, v| {
        v.scheme().map(|s| a.scheme = s)
    }),
    Opt("--requests", "N", |a, v| v.store(&mut a.requests)),
    Opt("--read-pct", "P", |a, v| {
        v.within(0, 100).map(|n| a.spec.read_pct = n)
    }),
    Opt("--zipf", "T", |a, v| v.store(&mut a.spec.zipf_theta)),
    Opt("--keyspace", "K", |a, v| {
        v.at_least_1().map(|n| a.spec.keyspace = n)
    }),
    Opt("--snapshot-every", "N", |a, v| {
        v.store(&mut a.snapshot_every)
    }),
    Opt("--seed", "X", |a, v| v.store(&mut a.spec.seed)),
    Opt::json(),
];

/// `supermem kv run`: drive the recoverable KV store with Zipfian
/// traffic.
pub fn cmd_kv_run(argv: &[String]) -> Result<(), String> {
    let start = KvRunArgs {
        scheme: Scheme::SuperMem,
        requests: 2000,
        spec: TrafficSpec::default(),
        snapshot_every: 64,
    };
    let a = parse_flags(start, &[KV_RUN], argv)?;

    let cfg = a.scheme.apply(supermem::sim::Config::default());
    let mut mem = DirectMem::new(&cfg);
    // Size the snapshot slots for the whole keyspace (8 B keys and
    // values, 16 B record framing) with headroom, 64-aligned.
    let snap_cap =
        (supermem_kv::layout::SNAP_HEADER_LEN + a.spec.keyspace * 24 + 64).next_multiple_of(64);
    let layout = KvLayout::new(0x8000, 1 << 16, snap_cap).map_err(|e| format!("kv layout: {e}"))?;
    let mut w = KvWorkload::new(&mut mem, layout, a.snapshot_every, a.spec)
        .map_err(|e| format!("kv format: {e}"))?;
    for _ in 0..a.requests {
        Workload::step(&mut w, &mut mem).map_err(|e| format!("kv step: {e}"))?;
    }
    let verify = Workload::verify(&mut w, &mut mem);
    let stats = w.store().stats();

    let mut t = TextTable::new(
        [
            "scheme",
            "requests",
            "acked",
            "reads",
            "puts",
            "dels",
            "snapshots",
            "rotations",
            "wal-bytes",
            "entries",
            "verify",
        ]
        .map(str::to_owned)
        .to_vec(),
    );
    t.row(vec![
        a.scheme.name().to_owned(),
        a.requests.to_string(),
        stats.acked.to_string(),
        w.reads().to_string(),
        stats.puts.to_string(),
        stats.dels.to_string(),
        stats.snapshots.to_string(),
        stats.rotations.to_string(),
        stats.wal_bytes.to_string(),
        w.store().len().to_string(),
        match &verify {
            Ok(()) => "ok".to_owned(),
            Err(e) => format!("FAIL: {e}"),
        },
    ]);
    let mut rep = Report::new("kv");
    rep.section("Recoverable KV store under open-loop Zipfian traffic", t);
    rep.footnote(
        "(verify = recover from the persistent image and compare against the in-DRAM shadow)",
    );
    rep.emit();
    verify.map_err(|e| format!("kv verify failed: {e}"))
}

/// `supermem kv recover`'s flags, over `(scheme, seed, crash point)`.
pub const KV_RECOVER: &[Opt<(Scheme, u64, Option<u64>)>] = &[
    Opt("--scheme", "SCHEME", |a, v| v.scheme().map(|s| a.0 = s)),
    Opt("--seed", "N", |a, v| v.store(&mut a.1)),
    Opt("--point", "K", |a, v| v.parse().map(|n| a.2 = Some(n))),
    Opt::json(),
];

/// `supermem kv recover`: crash one KV run at a chosen point and print
/// the typed recovery report.
pub fn cmd_kv_recover(argv: &[String]) -> Result<(), String> {
    let (scheme, seed, point) = parse_flags((Scheme::SuperMem, 1, None), &[KV_RECOVER], argv)?;

    let total = kv_crash_points(scheme, 1, seed, KvTortureConfig::default().ops);
    let point = point.unwrap_or(total / 2).clamp(1, total);
    let case = KvTortureCase {
        scheme,
        class: None,
        point,
        seed,
        channels: 1,
    };
    let r = kv_run_case(&case);

    let mut t = TextTable::new(["field", "value"].map(str::to_owned).to_vec());
    t.row(vec!["crash point".into(), format!("{point} of {total}")]);
    t.row(vec!["classification".into(), r.classification.to_string()]);
    match &r.evidence {
        Some(rec) => {
            t.row(vec![
                "snapshot".into(),
                format!("slot {} seq {}", rec.snapshot_slot, rec.snapshot_seq),
            ]);
            t.row(vec![
                "snapshots rejected".into(),
                rec.snapshots_rejected.to_string(),
            ]);
            t.row(vec!["manifest ok".into(), rec.manifest_ok.to_string()]);
            t.row(vec!["wal header ok".into(), rec.wal_header_ok.to_string()]);
            t.row(vec!["wal epoch".into(), rec.wal_seq.to_string()]);
            t.row(vec![
                "records replayed".into(),
                rec.records_replayed.to_string(),
            ]);
            t.row(vec![
                "corrupt entries skipped".into(),
                rec.corrupt_entries_skipped.to_string(),
            ]);
            t.row(vec![
                "torn tail".into(),
                rec.torn_tail_at
                    .map_or("none".to_owned(), |o| format!("at offset {o}")),
            ]);
            t.row(vec!["resume offset".into(), rec.resume_offset.to_string()]);
            t.row(vec!["entries".into(), rec.entries.to_string()]);
            t.row(vec![
                "state digest".into(),
                format!("{:#010x}", rec.state_digest),
            ]);
        }
        None => t.row(vec!["recovery".into(), r.detail.clone()]),
    }
    let mut rep = Report::new("kvrecover");
    rep.section(
        &format!("KV recovery after a crash at append {point} ({scheme})"),
        t,
    );
    rep.footnote(&r.detail);
    rep.emit();
    Ok(())
}
