//! `supermem` — command-line experiment driver.
//!
//! `supermem help` prints every subcommand with its flags, generated from
//! the flag tables the parser reads. Sizes accept `K`/`M` suffixes
//! (`--cc 256K`). Everything is deterministic in `--seed`.

use std::fmt::Display;
use std::process::ExitCode;

use supermem::nvm::FaultClass;
use supermem::sim::Mutation;
use supermem::torture::{
    flags, usage as command, Fault, TortureConfig, TreeFault, TreeTortureConfig,
};
use supermem::Scheme;
use supermem_kv::KvTortureConfig;
use supermem_lincheck::Mutant;
use supermem_serve::{ServeTortureConfig, StructureKind};

mod args;
mod commands;

use args::{PROFILE_CMD, RUN_CMD, SWEEP_CMD, SWEEP_PARAMS, WORKLOADS};
use commands::{campaign, CHECK, CRASH, KV_RECOVER, KV_RUN, LINCHECK, SERVE};

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{}", usage());
            ExitCode::FAILURE
        }
    }
}

/// The usage text: every subcommand with the flags of its tables, then
/// the names the metavars stand for.
fn usage() -> String {
    let commands = [
        command("run", RUN_CMD),
        command("sweep", SWEEP_CMD),
        command("profile", PROFILE_CMD),
        command("crash", &[CRASH]),
        command("torture", &[&flags::<TortureConfig>()]),
        command("torture --tree", &[&flags::<TreeTortureConfig>()]),
        command("serve", &[SERVE]),
        command("serve --torture", &[&flags::<ServeTortureConfig>()]),
        command("kv run", &[KV_RUN]),
        command("kv torture", &[&flags::<KvTortureConfig>()]),
        command("kv recover", &[KV_RECOVER]),
        command("check", &[CHECK]),
        command("lincheck", &[LINCHECK]),
        "  supermem list".to_owned(),
    ];
    let schemes = Scheme::ALL.map(|s| s.name().to_ascii_lowercase());
    let faults = Option::<FaultClass>::all().into_iter().map(Fault::name);
    let tree_faults = TreeFault::all().into_iter().map(Fault::name);
    format!(
        "usage:\n{}\n{}{}{}{}{}{}{}{}\nsizes accept K/M suffixes (e.g. --cc 256K)",
        commands.join("\n"),
        names("PARAM:", SWEEP_PARAMS.map(|(name, _)| name)),
        names("SCHEME:", schemes),
        names("WORKLOAD:", WORKLOADS),
        names("FAULT:", faults),
        names("FAULT (--tree):", tree_faults),
        names("STRUCTURE:", StructureKind::ALL),
        names("MUTATION:", Mutation::ALL.map(Mutation::name)),
        names("MUTANT:", Mutant::ALL),
    )
}

/// One usage line naming what `label` stands for.
fn names<N: Display>(label: &str, names: impl IntoIterator<Item = N>) -> String {
    let names: Vec<String> = names.into_iter().map(|n| n.to_string()).collect();
    format!("\n{label:<16}{}", names.join(" "))
}

fn dispatch(argv: &[String]) -> Result<(), String> {
    let word = |i: usize| argv.get(i).map(String::as_str);
    let marked = |marker: &str| argv.iter().any(|a| a == marker);
    let rest = argv.get(1..).unwrap_or_default();
    let kv = argv.get(2..).unwrap_or_default();
    match (word(0), word(1)) {
        (Some("run"), _) => commands::cmd_run(rest),
        (Some("sweep"), _) => commands::cmd_sweep(rest),
        (Some("profile"), _) => commands::cmd_profile(rest),
        (Some("crash"), _) => commands::cmd_crash(rest),
        (Some("torture"), _) if marked("--tree") => campaign::<TreeTortureConfig>(rest),
        (Some("torture"), _) => campaign::<TortureConfig>(rest),
        (Some("serve"), _) if marked("--torture") => campaign::<ServeTortureConfig>(rest),
        (Some("serve"), _) => commands::cmd_serve(rest),
        (Some("kv"), Some("run")) => commands::cmd_kv_run(kv),
        (Some("kv"), Some("torture")) => campaign::<KvTortureConfig>(kv),
        (Some("kv"), Some("recover")) => commands::cmd_kv_recover(kv),
        (Some("kv"), Some(other)) => Err(format!(
            "unknown kv subcommand `{other}` (expected run, torture, or recover)"
        )),
        (Some("kv"), None) => Err("kv needs a subcommand: run, torture, or recover".into()),
        (Some("check"), _) => commands::cmd_check(rest),
        (Some("lincheck"), _) => commands::cmd_lincheck(rest),
        (Some("list"), _) => {
            commands::cmd_list();
            Ok(())
        }
        (Some("help" | "--help" | "-h") | None, _) => {
            println!("{}", usage());
            Ok(())
        }
        (Some(other), _) => Err(format!("unknown command `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each command line must fail to parse with exactly its message.
    fn rejects(rows: &[(&str, &str)]) {
        for (line, want) in rows {
            let argv: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
            match dispatch(&argv) {
                Err(e) => assert_eq!(e, *want, "supermem {line}"),
                Ok(()) => panic!("supermem {line} was accepted"),
            }
        }
    }

    #[test]
    fn power_of_two_is_checked_in_every_subcommand() {
        let want = "invalid --channels `3` (a power of two)";
        rejects(&[
            ("run --channels 3", want),
            ("sweep --channels 3", want),
            ("profile --channels 3", want),
            ("crash --channels 3", want),
            ("serve --channels 3", want),
            ("check --channels 3", want),
            ("torture --channels 3", want),
            ("kv torture --channels 3", want),
        ]);
    }

    #[test]
    fn at_least_one_is_checked_in_every_subcommand() {
        rejects(&[
            (
                "run --run-threads 0",
                "invalid --run-threads `0` (at least 1)",
            ),
            (
                "sweep --run-threads 0",
                "invalid --run-threads `0` (at least 1)",
            ),
            (
                "profile --run-threads 0",
                "invalid --run-threads `0` (at least 1)",
            ),
            (
                "serve --run-threads 0",
                "invalid --run-threads `0` (at least 1)",
            ),
            ("torture --seeds 0", "invalid --seeds `0` (at least 1)"),
            (
                "torture --tree --seeds 0",
                "invalid --seeds `0` (at least 1)",
            ),
            (
                "serve --torture --seeds 0",
                "invalid --seeds `0` (at least 1)",
            ),
            ("kv torture --seeds 0", "invalid --seeds `0` (at least 1)"),
            (
                "torture --tree --persisted-levels 0",
                "invalid --persisted-levels `0` (at least 1)",
            ),
            ("kv run --keyspace 0", "invalid --keyspace `0` (at least 1)"),
            ("lincheck --depth 0", "invalid --depth `0` (at least 1)"),
        ]);
    }

    #[test]
    fn ranges_are_checked_in_every_subcommand() {
        rejects(&[
            ("run --read-pct 101", "invalid --read-pct `101` (0..=100)"),
            ("sweep --read-pct 101", "invalid --read-pct `101` (0..=100)"),
            (
                "profile --read-pct 101",
                "invalid --read-pct `101` (0..=100)",
            ),
            (
                "kv run --read-pct 101",
                "invalid --read-pct `101` (0..=100)",
            ),
            ("lincheck --cores 5", "invalid --cores `5` (1..=4)"),
            ("lincheck --ops 9", "invalid --ops `9` (1..=8)"),
        ]);
    }

    #[test]
    fn sizes_are_checked_in_every_subcommand() {
        rejects(&[
            ("run --req 4X", "invalid --req `4X`"),
            ("sweep --values 8,x", "invalid --values `x`"),
            ("profile --cc 1G", "invalid --cc `1G`"),
        ]);
    }

    #[test]
    fn names_are_checked_in_every_subcommand() {
        let scheme = "invalid --scheme `foo` (expected one of: unsec wb wt wt+cwc wt+xbank \
                      supermem wt+samebank osiris sca)";
        let fault = "invalid --fault `foo` (expected one of: none torn bit-flip double-flip \
                     stuck-at transient-read bank-fail)";
        let structure = "invalid --structure `foo` (expected one of: stack queue hash)";
        rejects(&[
            ("run --scheme foo", scheme),
            ("sweep --scheme foo", scheme),
            ("profile --scheme foo", scheme),
            ("crash --scheme foo", scheme),
            ("torture --scheme foo", scheme),
            ("serve --scheme foo", scheme),
            ("serve --torture --scheme foo", scheme),
            ("kv run --scheme foo", scheme),
            ("kv torture --scheme foo", scheme),
            ("kv recover --scheme foo", scheme),
            (
                "run --workload foo",
                "invalid --workload `foo` (expected one of: array queue btree hash rbtree ycsb)",
            ),
            ("serve --structure foo", structure),
            ("serve --torture --structure foo", structure),
            ("lincheck --structure foo", structure),
            ("torture --fault foo", fault),
            ("serve --torture --fault foo", fault),
            ("kv torture --fault foo", fault),
            (
                "torture --tree --fault foo",
                "invalid --fault `foo` (expected one of: none tamper torn bit-flip \
                 double-flip stuck-at transient-read bank-fail)",
            ),
            (
                "check --mutate foo",
                "invalid --mutate `foo` (expected one of: wt-off pair-split cwc-newest \
                 rsr-skip tree-skip tree-late tree-double-root)",
            ),
            (
                "lincheck --mutate foo",
                "invalid --mutate `foo` (expected one of: skip-linearize complete-first \
                 drop-invalidate skip-scan)",
            ),
            (
                "sweep --param foo",
                "invalid --param `foo` (expected one of: wq cc req programs)",
            ),
        ]);
    }

    #[test]
    fn flags_outside_a_subcommands_tables_are_unknown() {
        rejects(&[
            ("profile --csv", "unknown flag `--csv`"),
            ("run --param wq", "unknown flag `--param`"),
            ("torture --tree --channels 2", "unknown flag `--channels`"),
            ("serve --torture --cores 2", "unknown flag `--cores`"),
            ("check --config", "--config needs a value"),
        ]);
    }
}
