//! Command implementations.

use supermem::metrics::TextTable;
use supermem::persist::{recover_osiris, recover_transactions, DirectMem, RecoveredMemory};
use supermem::scheme::FIGURE_SCHEMES;
use supermem::sim::{CounterPlacement, Mutation};
use supermem::torture::{self, flag_value, Classification, Subject, TortureConfig};
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
use supermem_serve::{run_serve, ServeConfig, ServeTortureConfig, StructureKind, TrafficSpec};

use crate::args::{parse_run_flags, parse_scheme, ArgError, Parsed};

/// Every scheme: the ones `supermem crash` sweeps when none is named,
/// and `supermem list` prints.
const ALL_SCHEMES: [Scheme; 9] = [
    Scheme::Unsec,
    Scheme::WriteBackIdeal,
    Scheme::WriteThrough,
    Scheme::WtCwc,
    Scheme::WtXbank,
    Scheme::SuperMem,
    Scheme::WtSameBank,
    Scheme::Osiris,
    Scheme::Sca,
];

/// Validates `rc` up front so the free-run path below cannot panic.
fn validated(rc: &RunConfig) -> Result<(), ArgError> {
    rc.validate().map_err(|e| ArgError(e.to_string()))
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
pub fn cmd_run(p: Parsed) -> Result<(), ArgError> {
    if let Some(flag) = p.leftover.first() {
        return Err(ArgError(format!("unknown flag `{flag}`")));
    }
    validated(&p.rc)?;
    let r = execute(&p.rc);
    let mut t = TextTable::new(result_headers());
    t.row(result_row(&r));
    print!("{}", if p.csv { t.to_csv() } else { t.render() });
    Ok(())
}

/// `supermem sweep --param P --values a,b,c [run flags]`
pub fn cmd_sweep(argv: &[String]) -> Result<(), ArgError> {
    let p = parse_run_flags(argv)?;
    let mut param = None;
    let mut values = None;
    let mut it = p.leftover.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--param" => param = it.next().cloned(),
            "--values" => values = it.next().cloned(),
            other => return Err(ArgError(format!("unknown flag `{other}`"))),
        }
    }
    let param = param.ok_or_else(|| ArgError("sweep needs --param".into()))?;
    let values = values.ok_or_else(|| ArgError("sweep needs --values".into()))?;
    let points: Vec<u64> = values
        .split(',')
        .map(crate::args::parse_size)
        .collect::<Result<_, _>>()?;
    if points.is_empty() {
        return Err(ArgError("--values must list at least one point".into()));
    }

    let mut jobs = Vec::with_capacity(points.len());
    for &v in &points {
        let mut rc = p.rc.clone();
        match param.as_str() {
            "wq" => rc.write_queue_entries = v as usize,
            "cc" => rc.counter_cache_bytes = v,
            "req" => rc.req_bytes = v,
            "programs" => rc.programs = v as usize,
            other => return Err(ArgError(format!("unknown sweep param `{other}`"))),
        }
        jobs.push(rc);
    }
    for rc in &jobs {
        validated(rc)?;
    }
    // All points run through the parallel sweep engine; results come
    // back in input order, so the table matches the sequential output.
    let results = sweep(&jobs, execute);

    let mut t = TextTable::new(
        std::iter::once(param.clone())
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

/// `supermem profile [run flags] [--json]`: run once with the built-in
/// telemetry observer attached and print the latency attribution.
pub fn cmd_profile(argv: &[String]) -> Result<(), ArgError> {
    let p = parse_run_flags(argv)?;
    let mut json = false;
    for flag in &p.leftover {
        match flag.as_str() {
            "--json" => json = true,
            other => return Err(ArgError(format!("unknown flag `{other}`"))),
        }
    }
    let mut exp = Experiment::new(p.rc.clone())
        .map_err(|e| ArgError(e.to_string()))?
        .observe();
    let r = exp.run();
    let t = r
        .telemetry
        .as_ref()
        .expect("observed run returns telemetry");
    if json {
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

/// `supermem crash [--scheme S] [--channels N] [--json]`: sweep a
/// crash over every append boundary of one durable transaction — under
/// every scheme by default, or just the named one.
pub fn cmd_crash(argv: &[String]) -> Result<(), ArgError> {
    let mut only: Option<Scheme> = None;
    let mut channels = 1usize;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let flag = arg.as_str();
        match flag {
            "--scheme" => only = Some(parse_scheme(&flag_value::<String>(&mut it, flag)?)?),
            "--channels" => {
                channels = flag_value(&mut it, flag)?;
                if !channels.is_power_of_two() {
                    return Err(ArgError("--channels must be a power of two".into()));
                }
            }
            "--json" => {} // Report::emit picks this up from the process args.
            other => return Err(ArgError(format!("unknown flag `{other}`"))),
        }
    }
    let schemes: Vec<Scheme> = match only {
        Some(s) => vec![s],
        None => ALL_SCHEMES.to_vec(),
    };

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
        let (total, old, new, bad) = row.map_err(ArgError)?;
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

/// `supermem torture [--scheme S] [--fault F|none] [--point K]
/// [--seed N] [--seeds COUNT] [--channels N] [--json]`: the differential
/// crash-torture campaign on the data subject — media faults injected at
/// crash time, every recovered image checked against the shadow oracle;
/// or, with `--tree [--persisted-levels L] [--fault F|tamper|none]`, on
/// the integrity-tree subject.
pub fn cmd_torture(argv: &[String]) -> Result<(), ArgError> {
    if argv.iter().any(|a| a == "--tree") {
        campaign::<torture::TreeTortureConfig>(argv)
    } else {
        campaign::<TortureConfig>(argv)
    }
}

/// Runs one crash-torture campaign from its command line: the shared
/// flags, the per-group tally table and footnotes, and — if any case
/// corrupted silently — its reproducer, a shrunk minimal reproducer,
/// and a non-zero exit.
fn campaign<S: Subject>(argv: &[String]) -> Result<(), ArgError> {
    let subject: S = torture::parse(argv).map_err(ArgError)?;
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
    Err(ArgError(format!(
        "silent corruption in {} of {} injections",
        silent.len(),
        report.total()
    )))
}

/// `supermem serve [--structure S] [--scheme S] [--cores N] [--requests N]
/// [--read-pct P] [--mean-gap G] [--zipf T] [--keyspace K] [--buckets B]
/// [--seed X] [--channels N] [--run-threads N] [--degraded BANK] [--json]`
/// — drive a shared lock-free structure open-loop and print the tail
/// table; or `supermem serve --torture [--structure S] [--scheme S]
/// [--fault F|none] [--point K] [--seed N] [--seeds COUNT] [--json]` —
/// the CAS-window crash campaign on the serve torture subject.
pub fn cmd_serve(argv: &[String]) -> Result<(), ArgError> {
    if argv.iter().any(|a| a == "--torture") {
        return campaign::<ServeTortureConfig>(argv);
    }
    let mut cfg = ServeConfig::default();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let flag = arg.as_str();
        match flag {
            "--structure" => {
                let s: String = flag_value(&mut it, flag)?;
                cfg.structure = StructureKind::parse(&s).ok_or_else(|| {
                    ArgError(format!(
                        "unknown structure `{s}` (expected stack|queue|hash)"
                    ))
                })?;
            }
            "--scheme" => cfg.scheme = parse_scheme(&flag_value::<String>(&mut it, flag)?)?,
            "--cores" => cfg.cores = flag_value(&mut it, flag)?,
            "--requests" => cfg.requests = flag_value(&mut it, flag)?,
            "--read-pct" => cfg.read_pct = flag_value(&mut it, flag)?,
            "--mean-gap" => cfg.mean_gap = flag_value(&mut it, flag)?,
            "--zipf" => cfg.zipf_theta = flag_value(&mut it, flag)?,
            "--keyspace" => cfg.keyspace = flag_value(&mut it, flag)?,
            "--buckets" => cfg.hash_buckets = flag_value(&mut it, flag)?,
            "--seed" => cfg.seed = flag_value(&mut it, flag)?,
            "--channels" => {
                cfg.channels = flag_value(&mut it, flag)?;
                if !cfg.channels.is_power_of_two() {
                    return Err(ArgError("--channels must be a power of two".into()));
                }
            }
            "--run-threads" => {
                cfg.run_threads = flag_value(&mut it, flag)?;
                if cfg.run_threads == 0 {
                    return Err(ArgError("--run-threads must be at least 1".into()));
                }
            }
            "--degraded" => cfg.degraded_bank = Some(flag_value(&mut it, flag)?),
            "--json" => {} // Report::emit picks this up from the process args.
            other => return Err(ArgError(format!("unknown flag `{other}`"))),
        }
    }

    cfg.validate().map_err(|e| ArgError(e.to_string()))?;
    let r = run_serve(&cfg).map_err(|e| ArgError(e.to_string()))?;

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
fn check_one(cc: &CheckConfig) -> Result<CheckReport, ArgError> {
    let mut merged = CheckReport::default();
    for rc in &cc.runs {
        let report = if cc.trace {
            check_run_trace(rc)
        } else {
            check_run(rc)
        }
        .map_err(|e| ArgError(format!("{}: {e}", cc.name)))?;
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

/// `supermem check [--json] [--txns N] [--config NAME] [--channels N]
/// [--mutate M]`: run the persistency-ordering checker over the figure
/// configurations (or prove a rule fires under an injected mutation).
pub fn cmd_check(argv: &[String]) -> Result<(), ArgError> {
    let mut json = false;
    let mut txns = 25u64;
    let mut channels = 1usize;
    let mut only: Option<String> = None;
    let mut mutate: Option<Mutation> = None;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let flag = arg.as_str();
        match flag {
            "--json" => json = true,
            "--txns" => txns = flag_value(&mut it, flag)?,
            "--channels" => {
                channels = flag_value(&mut it, flag)?;
                if !channels.is_power_of_two() {
                    return Err(ArgError("--channels must be a power of two".into()));
                }
            }
            "--config" => only = it.next().cloned(),
            "--mutate" => {
                let m: String = flag_value(&mut it, flag)?;
                mutate = Some(Mutation::parse(&m).ok_or_else(|| {
                    ArgError(format!(
                        "unknown mutation `{m}` (expected one of: wt-off pair-split \
                         cwc-newest rsr-skip tree-skip tree-late tree-double-root)"
                    ))
                })?);
            }
            other => return Err(ArgError(format!("unknown flag `{other}`"))),
        }
    }

    if let Some(m) = mutate {
        let report = run_mutant_sharded(Some(m), channels);
        if json {
            println!("{}", report.to_json());
        } else {
            println!("mutation {}: {report}", m.name());
        }
        return if report.is_clean() {
            Err(ArgError(format!(
                "mutation `{}` injected but no invariant fired",
                m.name()
            )))
        } else {
            Ok(())
        };
    }

    let mut configs: Vec<CheckConfig> = check_configs(txns)
        .into_iter()
        .filter(|c| only.as_deref().is_none_or(|n| n == c.name))
        .collect();
    // Every figure configuration runs unchanged at any interleaving
    // width; the checker shards its shadow state to match.
    for cc in &mut configs {
        for rc in &mut cc.runs {
            rc.channels = channels;
        }
    }
    if configs.is_empty() {
        return Err(ArgError(format!(
            "unknown config `{}`",
            only.unwrap_or_default()
        )));
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
        if json {
            json_rows.push(format!("\"{}\":{}", cc.name, report.to_json()));
        }
        if !report.is_clean() {
            dirty.push((cc, report));
        }
    }
    if json {
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
        let min = shrink_repro(cc, txns);
        let ch = if channels == 1 {
            String::new()
        } else {
            format!(" --channels {channels}")
        };
        eprintln!(
            "  minimal repro: supermem check --config {} --txns {min}{ch}",
            cc.name
        );
    }
    Err(ArgError(format!(
        "persistency-ordering violations in {} configuration(s)",
        dirty.len()
    )))
}

/// `supermem lincheck [--structure S|all] [--cores N] [--ops N]
/// [--depth N] [--crash {all|none|K}] [--reduce] [--mutate M] [--json]`
pub fn cmd_lincheck(argv: &[String]) -> Result<(), ArgError> {
    let mut structure: Option<StructureKind> = None;
    let mut cores = 2usize;
    let mut ops = 3usize;
    let mut depth = 96u64;
    let mut crash = CrashMode::All;
    let mut reduce = false;
    let mut mutate: Option<Mutant> = None;
    let mut json = false;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let flag = arg.as_str();
        match flag {
            "--structure" => {
                let s: String = flag_value(&mut it, flag)?;
                if s != "all" {
                    structure = Some(StructureKind::parse(&s).ok_or_else(|| {
                        ArgError(format!("unknown structure `{s}` (stack queue hash all)"))
                    })?);
                }
            }
            "--cores" => {
                cores = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|c| (1..=4).contains(c))
                    .ok_or_else(|| ArgError("invalid --cores (1..=4)".into()))?;
            }
            "--ops" => {
                ops = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|o| (1..=8).contains(o))
                    .ok_or_else(|| ArgError("invalid --ops (1..=8)".into()))?;
            }
            "--depth" => {
                depth = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|d| *d > 0)
                    .ok_or_else(|| ArgError("invalid --depth".into()))?;
            }
            "--crash" => {
                let c: String = flag_value(&mut it, flag)?;
                crash = match c.as_str() {
                    "all" => CrashMode::All,
                    "none" => CrashMode::Final,
                    k => CrashMode::AfterPersist(k.parse().map_err(|_| {
                        ArgError(format!(
                            "invalid --crash `{k}` (all, none, or a persist index)"
                        ))
                    })?),
                };
            }
            "--reduce" => reduce = true,
            "--json" => json = true,
            "--mutate" => {
                let m: String = flag_value(&mut it, flag)?;
                mutate = Some(Mutant::parse(&m).ok_or_else(|| {
                    ArgError(format!(
                        "unknown mutant `{m}` (expected one of: skip-linearize \
                         complete-first drop-invalidate skip-scan)"
                    ))
                })?);
            }
            other => return Err(ArgError(format!("unknown flag `{other}`"))),
        }
    }
    let structures: Vec<StructureKind> =
        structure.map_or_else(|| StructureKind::ALL.to_vec(), |s| vec![s]);

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
    for s in &structures {
        let mut cfg = LincheckConfig::mixed(*s, cores, ops);
        cfg.crash = crash;
        cfg.reduce = reduce;
        cfg.mutant = mutate;
        cfg.max_actions = depth;
        let t0 = std::time::Instant::now();
        let report = lincheck(&cfg);
        let ms = t0.elapsed().as_millis();
        let caught = report.violation.is_some();
        let verdict = match (mutate.is_some(), caught) {
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
        if json {
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
        match (mutate.is_some(), caught) {
            (true, false) => missed.push(*s),
            (_, true) => violations.push((*s, cfg)),
            _ => {}
        }
    }
    if json {
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
    if let Some(m) = mutate {
        return if missed.is_empty() {
            Ok(())
        } else {
            let names: Vec<&str> = missed.iter().map(|s| s.name()).collect();
            Err(ArgError(format!(
                "mutant `{m}` injected but not caught on: {}",
                names.join(", ")
            )))
        };
    }
    if violations.is_empty() {
        Ok(())
    } else {
        Err(ArgError(format!(
            "durable-linearizability violations in {} structure(s)",
            violations.len()
        )))
    }
}

/// `supermem list`
pub fn cmd_list() {
    println!("schemes:");
    for s in ALL_SCHEMES {
        println!("  {s}");
    }
    println!("workloads:");
    for k in ALL_KINDS {
        println!("  {k}");
    }
}

/// `supermem kv {run|torture|recover}` — the recoverable KV store:
/// drive it with Zipfian traffic (`run`), sweep the differential
/// crash-torture campaign (`torture`), or crash one run at a chosen
/// point and print the typed recovery report (`recover`).
pub fn cmd_kv(argv: &[String]) -> Result<(), ArgError> {
    match argv.first().map(String::as_str) {
        Some("run") => cmd_kv_run(&argv[1..]),
        Some("torture") => campaign::<KvTortureConfig>(&argv[1..]),
        Some("recover") => cmd_kv_recover(&argv[1..]),
        Some(other) => Err(ArgError(format!(
            "unknown kv subcommand `{other}` (expected run, torture, or recover)"
        ))),
        None => Err(ArgError(
            "kv needs a subcommand: run, torture, or recover".into(),
        )),
    }
}

fn cmd_kv_run(argv: &[String]) -> Result<(), ArgError> {
    let mut scheme = Scheme::SuperMem;
    let mut requests: u64 = 2000;
    let mut spec = TrafficSpec::default();
    let mut snapshot_every: u64 = 64;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let flag = arg.as_str();
        match flag {
            "--scheme" => scheme = parse_scheme(&flag_value::<String>(&mut it, flag)?)?,
            "--requests" => requests = flag_value(&mut it, flag)?,
            "--read-pct" => {
                spec.read_pct = flag_value(&mut it, flag)?;
                if spec.read_pct > 100 {
                    return Err(ArgError("--read-pct must be 0..=100".into()));
                }
            }
            "--zipf" => spec.zipf_theta = flag_value(&mut it, flag)?,
            "--keyspace" => {
                spec.keyspace = flag_value(&mut it, flag)?;
                if spec.keyspace == 0 {
                    return Err(ArgError("--keyspace must be at least 1".into()));
                }
            }
            "--snapshot-every" => snapshot_every = flag_value(&mut it, flag)?,
            "--seed" => spec.seed = flag_value(&mut it, flag)?,
            "--json" => {}
            other => return Err(ArgError(format!("unknown flag `{other}`"))),
        }
    }

    let cfg = scheme.apply(supermem::sim::Config::default());
    let mut mem = DirectMem::new(&cfg);
    // Size the snapshot slots for the whole keyspace (8 B keys and
    // values, 16 B record framing) with headroom, 64-aligned.
    let snap_cap =
        (supermem_kv::layout::SNAP_HEADER_LEN + spec.keyspace * 24 + 64).next_multiple_of(64);
    let layout = KvLayout::new(0x8000, 1 << 16, snap_cap)
        .map_err(|e| ArgError(format!("kv layout: {e}")))?;
    let mut w = KvWorkload::new(&mut mem, layout, snapshot_every, spec)
        .map_err(|e| ArgError(format!("kv format: {e}")))?;
    for _ in 0..requests {
        Workload::step(&mut w, &mut mem).map_err(|e| ArgError(format!("kv step: {e}")))?;
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
        scheme.name().to_owned(),
        requests.to_string(),
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
    verify.map_err(|e| ArgError(format!("kv verify failed: {e}")))
}

fn cmd_kv_recover(argv: &[String]) -> Result<(), ArgError> {
    let mut scheme = Scheme::SuperMem;
    let mut seed: u64 = 1;
    let mut point: Option<u64> = None;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let flag = arg.as_str();
        match flag {
            "--scheme" => scheme = parse_scheme(&flag_value::<String>(&mut it, flag)?)?,
            "--seed" => seed = flag_value(&mut it, flag)?,
            "--point" => point = Some(flag_value(&mut it, flag)?),
            "--json" => {}
            other => return Err(ArgError(format!("unknown flag `{other}`"))),
        }
    }

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
