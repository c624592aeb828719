//! Channel-scaling sweep (journal extension of the paper): transaction
//! throughput for WT and SuperMem as the memory system is sharded over
//! address-interleaved channels (default sweep 1 → 8, or any list given
//! via `--channels-list`).
//!
//! The conference paper evaluates a single memory channel; the journal
//! version (*A Secure and Persistent Memory System for NVM*) and
//! Triad-NVM both use multi-channel configurations. Each channel owns a
//! full controller — write queue, counter cache port, staging register,
//! banks — so flushes to different channels overlap completely. Cells
//! are throughput normalized to the first channel count of the same
//! scheme and workload (higher is better); scaling should be monotonic
//! but sub-linear, since same-channel dependences (counter and data of
//! one line share a channel) and core-side serialization remain.

use supermem::metrics::TextTable;
use supermem::torture::{parse_flags, Opt, Value};
use supermem::workloads::spec::ALL_KINDS;
use supermem::{run_batch, RunConfig, Scheme};
use supermem_bench::{txns, Report};

const SCHEMES: [Scheme; 2] = [Scheme::WriteThrough, Scheme::SuperMem];

/// The flags: `--channels-list 1,2,4,8` (the default sweep) and `--json`.
const FLAGS: &[Opt<Vec<usize>>] = &[
    Opt("--channels-list", "N,N,...", |list, v| {
        let counts = v.raw.split(',').map(|raw| Value { raw, ..v }.pow2());
        *list = counts.collect::<Result<_, _>>()?;
        Ok(())
    }),
    Opt::json(),
];

/// The channel counts to sweep, parsed from `argv`.
fn channels_list(argv: &[String]) -> Result<Vec<usize>, String> {
    parse_flags(vec![1, 2, 4, 8], &[FLAGS], argv)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let channels = channels_list(&argv).unwrap_or_else(|e| {
        eprintln!("channelsweep: {e}");
        std::process::exit(2);
    });
    let n = txns();
    let mut jobs = Vec::new();
    for scheme in SCHEMES {
        for kind in ALL_KINDS {
            for &ch in &channels {
                let mut rc = RunConfig::new(scheme, kind);
                rc.txns = n;
                rc.req_bytes = 1024;
                rc.channels = ch;
                jobs.push(rc);
            }
        }
    }
    let results = run_batch(&jobs);

    let headers: Vec<String> = std::iter::once("workload".to_owned())
        .chain(channels.iter().map(|c| format!("ch={c}")))
        .collect();
    let first = channels[0];
    let plural = if first == 1 { "" } else { "s" };
    let mut rep = Report::new("channelsweep");
    let mut chunks = results.chunks(channels.len());
    for scheme in SCHEMES {
        let mut t = TextTable::new(headers.clone());
        for kind in ALL_KINDS {
            let row = chunks.next().expect("one chunk per (scheme, workload)");
            let base = row[0].total_cycles;
            let mut cells = vec![kind.name().to_owned()];
            for r in row {
                cells.push(format!("{:.2}", base as f64 / r.total_cycles as f64));
            }
            t.row(cells);
        }
        rep.section(
            &format!("Channel scaling: {scheme} throughput, normalized to {first} channel{plural}"),
            t,
        );
    }
    rep.footnote(&format!(
        "(cells = cycles({first} channel{plural}) / cycles(N channels); higher is better)"
    ));
    rep.emit();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Vec<usize>, String> {
        let argv: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
        channels_list(&argv)
    }

    #[test]
    fn json_and_channel_lists_parse() {
        assert_eq!(parse(""), Ok(vec![1, 2, 4, 8]));
        assert_eq!(parse("--json --channels-list 1,2"), Ok(vec![1, 2]));
        assert_eq!(parse("--channels-list 1,2 --json"), Ok(vec![1, 2]));
        assert_eq!(
            parse("--channels-list 3"),
            Err("invalid --channels-list `3` (a power of two)".to_owned())
        );
        assert_eq!(
            parse("--channels-list 1,0"),
            Err("invalid --channels-list `0` (a power of two)".to_owned())
        );
        assert_eq!(
            parse("--channels-list"),
            Err("--channels-list needs a value".to_owned())
        );
    }
}
