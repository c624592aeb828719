//! The flags `run`, `sweep` and `profile` share, and what each adds.
//!
//! Every subcommand declares its flags as tables of [`Opt`] entries,
//! parsed by the one flag parser ([`parse_flags`]); the usage text is
//! generated from the same tables.

use supermem::torture::{parse_flags, Opt, Value};
use supermem::workloads::WorkloadKind;
use supermem::RunConfig;

/// A knob `sweep --param` varies: its name and how a point sets it.
pub type SweepParam = (&'static str, fn(&mut RunConfig, u64));

/// The knobs `sweep --param` can vary.
pub const SWEEP_PARAMS: [SweepParam; 4] = [
    ("wq", |rc, v| rc.write_queue_entries = v as usize),
    ("cc", |rc, v| rc.counter_cache_bytes = v),
    ("req", |rc, v| rc.req_bytes = v),
    ("programs", |rc, v| rc.programs = v as usize),
];

/// Every workload `--workload` names, in `supermem list` order.
pub const WORKLOADS: [WorkloadKind; 6] = {
    use WorkloadKind::{Array, BTree, HashTable, Queue, RbTree, Ycsb};
    [Array, Queue, BTree, HashTable, RbTree, Ycsb]
};

/// The settings of `run`, `sweep` and `profile`.
#[derive(Default)]
pub struct RunArgs {
    /// The assembled run configuration.
    pub rc: RunConfig,
    /// Emit CSV instead of an aligned table (`run`, `sweep`).
    pub csv: bool,
    /// Emit JSON (`profile`).
    pub json: bool,
    /// The knob `sweep` varies.
    pub param: Option<SweepParam>,
    /// The points `sweep` visits.
    pub values: Option<Vec<u64>>,
}

/// The run flags `run`, `sweep` and `profile` share.
pub const RUN: &[Opt<RunArgs>] = &[
    Opt("--scheme", "SCHEME", |a, v| {
        v.scheme().map(|s| a.rc.scheme = s)
    }),
    Opt("--workload", "WORKLOAD", |a, v| {
        let kind = WorkloadKind::from_name(v.raw);
        v.one_of(kind, WORKLOADS).map(|k| a.rc.kind = k)
    }),
    Opt("--txns", "N", |a, v| v.store(&mut a.rc.txns)),
    Opt("--req", "BYTES", |a, v| {
        v.size().map(|n| a.rc.req_bytes = n)
    }),
    Opt("--wq", "ENTRIES", |a, v| {
        v.store(&mut a.rc.write_queue_entries)
    }),
    Opt("--cc", "BYTES", |a, v| {
        v.size().map(|n| a.rc.counter_cache_bytes = n)
    }),
    Opt("--channels", "N", |a, v| {
        v.pow2().map(|n| a.rc.channels = n)
    }),
    Opt("--programs", "P", |a, v| v.store(&mut a.rc.programs)),
    Opt("--seed", "X", |a, v| v.store(&mut a.rc.seed)),
    Opt("--read-pct", "P", |a, v| {
        v.within(0, 100).map(|n| a.rc.ycsb_read_pct = n)
    }),
    Opt("--integrity-tree", "", |a, v| {
        v.on(&mut a.rc.integrity_tree)
    }),
    Opt("--persisted-levels", "L", |a, v| {
        // The frontier only means anything with the tree armed.
        a.rc.integrity_tree = true;
        v.parse().map(|n| a.rc.persisted_levels = Some(n))
    }),
    Opt("--run-threads", "N", |a, v| {
        v.at_least_1().map(|n| a.rc.run_threads = n)
    }),
];

/// `--csv`, for `run` and `sweep`.
pub const CSV: &[Opt<RunArgs>] = &[Opt("--csv", "", |a, v| v.on(&mut a.csv))];

/// The flags `sweep` adds.
pub const SWEEP: &[Opt<RunArgs>] = &[
    Opt("--param", "PARAM", |a, v| {
        let param = SWEEP_PARAMS.into_iter().find(|(name, _)| *name == v.raw);
        let names = SWEEP_PARAMS.map(|(name, _)| name);
        v.one_of(param, names).map(|p| a.param = Some(p))
    }),
    Opt("--values", "a,b,c", |a, v| {
        let points = v.raw.split(',').map(|raw| Value { raw, ..v }.size());
        points.collect::<Result<_, _>>().map(|p| a.values = Some(p))
    }),
];

/// The flag `profile` adds.
pub const PROFILE: &[Opt<RunArgs>] = &[Opt("--json", "", |a, v| v.on(&mut a.json))];

/// The flag tables of `run`, `sweep` and `profile`.
pub const RUN_CMD: &[&[Opt<RunArgs>]] = &[RUN, CSV];
/// See [`RUN_CMD`].
pub const SWEEP_CMD: &[&[Opt<RunArgs>]] = &[SWEEP, RUN, CSV];
/// See [`RUN_CMD`].
pub const PROFILE_CMD: &[&[Opt<RunArgs>]] = &[RUN, PROFILE];

/// Parses the flags of `tables` over the defaults (150 transactions).
pub fn parse_run(tables: &[&[Opt<RunArgs>]], argv: &[String]) -> Result<RunArgs, String> {
    let mut start = RunArgs::default();
    start.rc.txns = 150;
    parse_flags(start, tables, argv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use supermem::Scheme;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| (*s).to_owned()).collect()
    }

    fn parse_run_flags(argv: &[String]) -> Result<RunArgs, String> {
        parse_run(RUN_CMD, argv)
    }

    fn value(raw: &str) -> Value<'_> {
        Value { flag: "--x", raw }
    }

    #[test]
    fn parses_full_flag_set() {
        let p = parse_run_flags(&strs(&[
            "--scheme",
            "wt+cwc",
            "--workload",
            "btree",
            "--txns",
            "42",
            "--req",
            "4K",
            "--wq",
            "64",
            "--cc",
            "1M",
            "--programs",
            "4",
            "--seed",
            "9",
            "--csv",
        ]))
        .unwrap();
        assert_eq!(p.rc.scheme, Scheme::WtCwc);
        assert_eq!(p.rc.kind, WorkloadKind::BTree);
        assert_eq!(p.rc.txns, 42);
        assert_eq!(p.rc.req_bytes, 4096);
        assert_eq!(p.rc.write_queue_entries, 64);
        assert_eq!(p.rc.counter_cache_bytes, 1 << 20);
        assert_eq!(p.rc.programs, 4);
        assert_eq!(p.rc.seed, 9);
        assert!(p.csv);
    }

    #[test]
    fn sweep_flags_compose_with_run_flags() {
        let argv = strs(&["--param", "wq", "--scheme", "unsec", "--values", "8,1K"]);
        let p = parse_run(SWEEP_CMD, &argv).unwrap();
        assert_eq!(p.param.map(|(name, _)| name), Some("wq"));
        assert_eq!(p.values, Some(vec![8, 1024]));
        assert_eq!(p.rc.scheme, Scheme::Unsec);
        // `run` alone does not take the sweep flags.
        assert!(parse_run_flags(&argv).is_err());
    }

    #[test]
    fn channels_flag_parses_and_validates() {
        let p = parse_run_flags(&strs(&["--channels", "4"])).unwrap();
        assert_eq!(p.rc.channels, 4);
        assert!(parse_run_flags(&strs(&["--channels", "3"])).is_err());
        assert!(parse_run_flags(&strs(&["--channels", "0"])).is_err());
    }

    #[test]
    fn persisted_levels_flag_arms_the_tree() {
        let p = parse_run_flags(&strs(&["--persisted-levels", "2"])).unwrap();
        assert!(p.rc.integrity_tree);
        assert_eq!(p.rc.persisted_levels, Some(2));
        let p = parse_run_flags(&strs(&["--integrity-tree"])).unwrap();
        assert!(p.rc.integrity_tree);
        assert_eq!(p.rc.persisted_levels, None);
        assert!(parse_run_flags(&strs(&["--persisted-levels", "x"])).is_err());
    }

    #[test]
    fn run_threads_flag_parses_and_validates() {
        let p = parse_run_flags(&strs(&["--run-threads", "4"])).unwrap();
        assert_eq!(p.rc.run_threads, 4);
        assert!(parse_run_flags(&strs(&["--run-threads", "0"])).is_err());
        assert!(parse_run_flags(&strs(&["--run-threads", "x"])).is_err());
    }

    #[test]
    fn size_suffixes() {
        assert_eq!(value("256K").size().unwrap(), 256 * 1024);
        assert_eq!(value("4M").size().unwrap(), 4 << 20);
        assert_eq!(value("512").size().unwrap(), 512);
        assert!(value("x").size().is_err());
    }

    #[test]
    fn scheme_aliases() {
        assert_eq!(value("SuperMem").scheme().unwrap(), Scheme::SuperMem);
        assert_eq!(value("xbank").scheme().unwrap(), Scheme::WtXbank);
        assert_eq!(value("osiris").scheme().unwrap(), Scheme::Osiris);
        assert!(value("nope").scheme().is_err());
    }

    #[test]
    fn read_pct_parses_and_validates() {
        let p = parse_run_flags(&strs(&["--workload", "ycsb", "--read-pct", "95"])).unwrap();
        assert_eq!(p.rc.kind, WorkloadKind::Ycsb);
        assert_eq!(p.rc.ycsb_read_pct, 95);
        assert!(parse_run_flags(&strs(&["--read-pct", "101"])).is_err());
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(parse_run_flags(&strs(&["--scheme"])).is_err());
        assert!(parse_run_flags(&strs(&["--txns", "abc"])).is_err());
    }
}
