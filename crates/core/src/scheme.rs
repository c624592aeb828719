//! The evaluated secure-PM configurations (paper §4).
//!
//! Each [`Scheme`] is a named bundle of [`Config`] knobs:
//!
//! | Scheme | Encryption | Counter cache | Placement | CWC |
//! |--------|-----------|---------------|-----------|-----|
//! | `Unsec` | off | — | — | — |
//! | `WriteBackIdeal` | on | write-back, battery | SingleBank | off |
//! | `WriteThrough` | on | write-through | SingleBank | off |
//! | `WtCwc` | on | write-through | SingleBank | on |
//! | `WtXbank` | on | write-through | XBank | off |
//! | `SuperMem` | on | write-through | XBank | on |
//! | `WtSameBank` | on | write-through | SameBank | off |
//!
//! `WriteBackIdeal` is the paper's "ideal secure NVM": a battery-backed
//! write-back counter cache with zero counter-atomicity overhead — the
//! performance ceiling SuperMem is compared against. `WtSameBank`
//! implements Figure 8b for the bank-placement ablation.

use supermem_sim::{Config, CounterCacheBacking, CounterCacheMode, CounterPlacement};

/// A named secure-PM configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Un-encrypted NVM (the paper's `Unsec` baseline).
    Unsec,
    /// Ideal battery-backed write-back counter cache (`WB`).
    WriteBackIdeal,
    /// Baseline write-through counter cache (`WT`).
    WriteThrough,
    /// Write-through + counter write coalescing (`WT+CWC`).
    WtCwc,
    /// Write-through + cross-bank counter storage (`WT+XBank`).
    WtXbank,
    /// The full design: write-through + CWC + XBank (`SuperMem`).
    SuperMem,
    /// Ablation: counters co-located with their data bank (Figure 8b).
    WtSameBank,
    /// Osiris baseline (Ye et al., §6 related work): write-back counter
    /// cache without battery, relaxed persistence (every 4th update),
    /// ECC tags, and trial-decryption counter recovery after a crash.
    Osiris,
    /// SCA baseline (Liu et al., §2.3/§6): write-back counter cache
    /// without battery; crash consistency via explicit software
    /// `counter_cache_writeback()` calls (drive it through
    /// [`crate::sca::ScaSystem`]).
    Sca,
}

/// The six schemes of the paper's figures, in plotting order.
pub const FIGURE_SCHEMES: [Scheme; 6] = [
    Scheme::Unsec,
    Scheme::WriteBackIdeal,
    Scheme::WriteThrough,
    Scheme::WtCwc,
    Scheme::WtXbank,
    Scheme::SuperMem,
];

impl Scheme {
    /// Every scheme, in `supermem list` order.
    pub const ALL: [Scheme; 9] = [
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

    /// The label used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Scheme::Unsec => "Unsec",
            Scheme::WriteBackIdeal => "WB",
            Scheme::WriteThrough => "WT",
            Scheme::WtCwc => "WT+CWC",
            Scheme::WtXbank => "WT+XBank",
            Scheme::SuperMem => "SuperMem",
            Scheme::WtSameBank => "WT+SameBank",
            Scheme::Osiris => "Osiris",
            Scheme::Sca => "SCA",
        }
    }

    /// Parses a scheme name (paper labels and their aliases,
    /// case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "unsec" => Some(Scheme::Unsec),
            "wb" | "writeback" | "ideal" => Some(Scheme::WriteBackIdeal),
            "wt" | "writethrough" => Some(Scheme::WriteThrough),
            "wt+cwc" | "cwc" => Some(Scheme::WtCwc),
            "wt+xbank" | "xbank" => Some(Scheme::WtXbank),
            "supermem" => Some(Scheme::SuperMem),
            "wt+samebank" | "samebank" => Some(Scheme::WtSameBank),
            "osiris" => Some(Scheme::Osiris),
            "sca" => Some(Scheme::Sca),
            _ => None,
        }
    }

    /// Applies the scheme's knobs to a configuration.
    pub fn apply(self, mut cfg: Config) -> Config {
        match self {
            Scheme::Unsec => {
                cfg.encryption = false;
            }
            Scheme::WriteBackIdeal => {
                cfg.encryption = true;
                cfg.counter_cache_mode = CounterCacheMode::WriteBack;
                cfg.counter_cache_backing = CounterCacheBacking::Battery;
                cfg.counter_placement = CounterPlacement::SingleBank;
                cfg.cwc = false;
            }
            Scheme::WriteThrough => {
                cfg.encryption = true;
                cfg.counter_cache_mode = CounterCacheMode::WriteThrough;
                cfg.counter_cache_backing = CounterCacheBacking::None;
                cfg.counter_placement = CounterPlacement::SingleBank;
                cfg.cwc = false;
            }
            Scheme::WtCwc => {
                cfg = Scheme::WriteThrough.apply(cfg);
                cfg.cwc = true;
            }
            Scheme::WtXbank => {
                cfg = Scheme::WriteThrough.apply(cfg);
                cfg.counter_placement = CounterPlacement::CrossBank;
            }
            Scheme::SuperMem => {
                cfg = Scheme::WriteThrough.apply(cfg);
                cfg.cwc = true;
                cfg.counter_placement = CounterPlacement::CrossBank;
            }
            Scheme::WtSameBank => {
                cfg = Scheme::WriteThrough.apply(cfg);
                cfg.counter_placement = CounterPlacement::SameBank;
            }
            Scheme::Osiris => {
                cfg.encryption = true;
                cfg.counter_cache_mode = CounterCacheMode::WriteBack;
                cfg.counter_cache_backing = CounterCacheBacking::None;
                cfg.counter_placement = CounterPlacement::SingleBank;
                cfg.cwc = false;
                cfg.osiris_window = Some(4);
            }
            Scheme::Sca => {
                cfg.encryption = true;
                cfg.counter_cache_mode = CounterCacheMode::WriteBack;
                cfg.counter_cache_backing = CounterCacheBacking::None;
                cfg.counter_placement = CounterPlacement::SingleBank;
                cfg.cwc = false;
            }
        }
        cfg
    }

    /// Whether this scheme guarantees counter atomicity across a crash
    /// (i.e. the Table 1 "recoverable at every stage" property) without
    /// post-crash counter reconstruction.
    pub fn counter_atomic(self) -> bool {
        // Arms stay separate: each scheme is atomic (or not) for a
        // different reason, recorded per-arm.
        #[allow(clippy::match_same_arms)]
        match self {
            Scheme::Unsec => true,          // no counters to lose
            Scheme::WriteBackIdeal => true, // battery persists the cache
            Scheme::WriteThrough
            | Scheme::WtCwc
            | Scheme::WtXbank
            | Scheme::SuperMem
            | Scheme::WtSameBank => true, // write-through + atomic register
            Scheme::Osiris => false,        // recoverable, but only via ECC search
            Scheme::Sca => false,           // atomic only at software-inserted points
        }
    }
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unsec_disables_encryption() {
        let cfg = Scheme::Unsec.apply(Config::default());
        assert!(!cfg.encryption);
    }

    #[test]
    fn supermem_enables_everything() {
        let cfg = Scheme::SuperMem.apply(Config::default());
        assert!(cfg.encryption);
        assert!(cfg.cwc);
        assert_eq!(cfg.counter_cache_mode, CounterCacheMode::WriteThrough);
        assert_eq!(cfg.counter_placement, CounterPlacement::CrossBank);
        assert!(cfg.atomic_pair_append);
    }

    #[test]
    fn wb_is_battery_backed_write_back() {
        let cfg = Scheme::WriteBackIdeal.apply(Config::default());
        assert_eq!(cfg.counter_cache_mode, CounterCacheMode::WriteBack);
        assert_eq!(cfg.counter_cache_backing, CounterCacheBacking::Battery);
    }

    #[test]
    fn wt_variants_differ_only_in_their_feature() {
        let wt = Scheme::WriteThrough.apply(Config::default());
        let cwc = Scheme::WtCwc.apply(Config::default());
        let xbank = Scheme::WtXbank.apply(Config::default());
        assert!(!wt.cwc && cwc.cwc);
        assert_eq!(wt.counter_placement, CounterPlacement::SingleBank);
        assert_eq!(xbank.counter_placement, CounterPlacement::CrossBank);
        assert!(!xbank.cwc);
    }

    #[test]
    fn samebank_ablation() {
        let cfg = Scheme::WtSameBank.apply(Config::default());
        assert_eq!(cfg.counter_placement, CounterPlacement::SameBank);
    }

    #[test]
    fn names_are_paper_labels() {
        let names: Vec<&str> = FIGURE_SCHEMES.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            ["Unsec", "WB", "WT", "WT+CWC", "WT+XBank", "SuperMem"]
        );
    }

    #[test]
    fn all_figure_schemes_validate() {
        for s in FIGURE_SCHEMES {
            assert!(s.apply(Config::default()).validate().is_ok(), "{s}");
        }
    }

    #[test]
    fn all_schemes_counter_atomic() {
        for s in FIGURE_SCHEMES {
            assert!(s.counter_atomic());
        }
    }

    #[test]
    fn osiris_relaxes_counter_persistence() {
        let cfg = Scheme::Osiris.apply(Config::default());
        assert_eq!(cfg.counter_cache_mode, CounterCacheMode::WriteBack);
        assert_eq!(cfg.counter_cache_backing, CounterCacheBacking::None);
        assert_eq!(cfg.osiris_window, Some(4));
        assert!(!Scheme::Osiris.counter_atomic());
        assert!(cfg.validate().is_ok());
    }
}
