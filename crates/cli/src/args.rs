//! Flag parsing (dependency-free).

use supermem::torture::flag_value;
use supermem::workloads::WorkloadKind;
use supermem::{RunConfig, Scheme};

/// A human-readable argument error.
#[derive(Debug)]
pub struct ArgError(pub String);

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ArgError {}

impl From<String> for ArgError {
    fn from(msg: String) -> Self {
        ArgError(msg)
    }
}

/// Parsed `run`-style flags.
#[derive(Debug, Clone)]
pub struct Parsed {
    /// The assembled run configuration.
    pub rc: RunConfig,
    /// Emit CSV instead of an aligned table.
    pub csv: bool,
    /// Flags the parser did not consume (for `sweep`'s own flags).
    pub leftover: Vec<String>,
}

/// Parses a scheme name (paper labels, case-insensitive).
pub fn parse_scheme(s: &str) -> Result<Scheme, ArgError> {
    Scheme::parse(s).ok_or_else(|| ArgError(format!("unknown scheme `{}`", s.to_ascii_lowercase())))
}

/// Parses a size with optional `K`/`M` suffix.
pub fn parse_size(s: &str) -> Result<u64, ArgError> {
    let (digits, mult) = match s.as_bytes().last() {
        Some(b'K' | b'k') => (&s[..s.len() - 1], 1024),
        Some(b'M' | b'm') => (&s[..s.len() - 1], 1024 * 1024),
        _ => (s, 1),
    };
    digits
        .parse::<u64>()
        .map(|v| v * mult)
        .map_err(|_| ArgError(format!("invalid size `{s}`")))
}

/// Parses the shared run flags, collecting unknown flags into
/// [`Parsed::leftover`].
pub fn parse_run_flags(argv: &[String]) -> Result<Parsed, ArgError> {
    let mut rc = RunConfig {
        txns: 150,
        ..RunConfig::default()
    };
    let mut csv = false;
    let mut leftover = Vec::new();
    let mut it = argv.iter().peekable();
    while let Some(arg) = it.next() {
        let flag = arg.as_str();
        match flag {
            "--scheme" => rc.scheme = parse_scheme(&flag_value::<String>(&mut it, flag)?)?,
            "--workload" => {
                let w: String = flag_value(&mut it, flag)?;
                rc.kind = WorkloadKind::from_name(&w)
                    .ok_or_else(|| ArgError(format!("unknown workload `{w}`")))?;
            }
            "--txns" => rc.txns = flag_value(&mut it, flag)?,
            "--req" => rc.req_bytes = parse_size(&flag_value::<String>(&mut it, flag)?)?,
            "--wq" => rc.write_queue_entries = flag_value(&mut it, flag)?,
            "--cc" => rc.counter_cache_bytes = parse_size(&flag_value::<String>(&mut it, flag)?)?,
            "--channels" => {
                rc.channels = flag_value(&mut it, flag)?;
                if !rc.channels.is_power_of_two() {
                    return Err(ArgError("--channels must be a power of two".into()));
                }
            }
            "--programs" => rc.programs = flag_value(&mut it, flag)?,
            "--seed" => rc.seed = flag_value(&mut it, flag)?,
            "--read-pct" => {
                rc.ycsb_read_pct = flag_value(&mut it, flag)?;
                if rc.ycsb_read_pct > 100 {
                    return Err(ArgError("--read-pct must be 0..=100".into()));
                }
            }
            "--integrity-tree" => rc.integrity_tree = true,
            "--persisted-levels" => {
                // The frontier only means anything with the tree armed.
                rc.integrity_tree = true;
                rc.persisted_levels = Some(flag_value(&mut it, flag)?);
            }
            "--run-threads" => {
                rc.run_threads = flag_value(&mut it, flag)?;
                if rc.run_threads == 0 {
                    return Err(ArgError("--run-threads must be at least 1".into()));
                }
            }
            "--csv" => csv = true,
            other => {
                leftover.push(other.to_owned());
                if let Some(next) = it.peek() {
                    if !next.starts_with("--") {
                        leftover.push(it.next().expect("peeked").clone());
                    }
                }
            }
        }
    }
    Ok(Parsed { rc, csv, leftover })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| (*s).to_owned()).collect()
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
        assert!(p.leftover.is_empty());
    }

    #[test]
    fn unknown_flags_go_to_leftover_with_values() {
        let p = parse_run_flags(&strs(&["--param", "wq", "--scheme", "unsec"])).unwrap();
        assert_eq!(p.leftover, strs(&["--param", "wq"]));
        assert_eq!(p.rc.scheme, Scheme::Unsec);
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
        assert_eq!(parse_size("256K").unwrap(), 256 * 1024);
        assert_eq!(parse_size("4M").unwrap(), 4 << 20);
        assert_eq!(parse_size("512").unwrap(), 512);
        assert!(parse_size("x").is_err());
    }

    #[test]
    fn scheme_aliases() {
        assert_eq!(parse_scheme("SuperMem").unwrap(), Scheme::SuperMem);
        assert_eq!(parse_scheme("xbank").unwrap(), Scheme::WtXbank);
        assert_eq!(parse_scheme("osiris").unwrap(), Scheme::Osiris);
        assert!(parse_scheme("nope").is_err());
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
