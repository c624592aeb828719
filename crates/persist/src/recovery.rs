//! Post-crash recovery.
//!
//! Takes the [`CrashImage`] a power failure left behind and rebuilds a
//! consistent view:
//!
//! 1. If a page re-encryption was in flight, finish it from the
//!    ADR-preserved RSR (paper §3.4.4): lines with a set done bit are
//!    already under `(old_major + 1, 0)`; the rest still decrypt with
//!    the *old* counter line, which the controller deliberately left
//!    untouched in NVM.
//! 2. Serve byte reads by decrypting through the stored counters —
//!    succeeding exactly when counter and data were persisted
//!    atomically, and yielding garbage otherwise (Figure 4).
//! 3. Scan the transaction log and roll back an uncommitted transaction
//!    ([`recover_transactions`]).
//!
//! Recovery runs against an *imperfect* DIMM: every media access goes
//! through the store's checked read path, so a [`FaultPlan`] attached to
//! the image surfaces as retried transients, ECC corrections, or — for
//! uncorrectable damage — a typed [`RecoveryError`] instead of a panic
//! or silently wrong bytes.
//!
//! [`FaultPlan`]: supermem_nvm::FaultPlan

use supermem_crypto::{CounterLine, EncryptionEngine};
use supermem_memctrl::{CrashImage, MachineCrashImage};
use supermem_nvm::addr::{AddressMap, LineAddr, PageId};
use supermem_nvm::{LineData, MediaError, NvmStore};
use supermem_sim::Config;

use crate::log::{
    decode_records, log_checksum, read_header, LOG_MAGIC, STATE_COMMITTED, STATE_EMPTY, STATE_VALID,
};
use crate::pmem::PMem;

/// Transient reads are re-issued this many times before the line is
/// declared failed (mirrors the controller's live-path retry budget).
const READ_RETRY_LIMIT: u32 = 3;

/// Recovery-time cost charged per persisted line (counter or tree node)
/// read back from the media, in cycles: one NVM array read.
const RECOVERY_LINE_READ_CYCLES: u64 = 126;

/// Recovery-time cost charged per node hash recomputed or audited.
const RECOVERY_NODE_HASH_CYCLES: u64 = 40;

/// What the log scan found and did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryOutcome {
    /// No recognizable log header at the given address (fresh memory —
    /// or a log whose counters were lost, rendering it undecryptable).
    NoLog,
    /// The last transaction committed; nothing to do.
    CleanCommitted {
        /// Sequence number of the committed transaction.
        seq: u64,
    },
    /// An uncommitted transaction was rolled back from its undo records.
    RolledBack {
        /// Sequence number of the rolled-back transaction.
        seq: u64,
        /// Number of undo records applied.
        records: usize,
    },
}

/// Why a recovery pass could not produce a trusted state.
///
/// The taxonomy matters to the caller: `TornLog` means the *log* is
/// unusable but the data region may simply be pre-transaction;
/// `DetectedCorrupt` means the media itself reported damage the ECC
/// could not correct; `Unrecoverable` means the damage reaches state
/// the recovery algorithm has no second copy of.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryError {
    /// The configuration cannot drive this recovery flavor (e.g.
    /// [`recover_osiris`] without `Config::osiris_window`).
    Config(String),
    /// An uncorrectable media error was detected (ECC detection, a lost
    /// line, retry exhaustion, or an integrity-root mismatch) — the
    /// damage is *known*, not silent.
    DetectedCorrupt(String),
    /// The log header or payload is internally inconsistent (bad state
    /// word, bad checksum, undecodable records): a torn log write.
    TornLog(String),
    /// Damage reaches state with no redundant copy; the image cannot be
    /// rebuilt.
    Unrecoverable(String),
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Config(s) => write!(f, "configuration error: {s}"),
            Self::DetectedCorrupt(s) => write!(f, "detected media corruption: {s}"),
            Self::TornLog(s) => write!(f, "torn log: {s}"),
            Self::Unrecoverable(s) => write!(f, "unrecoverable: {s}"),
        }
    }
}

impl std::error::Error for RecoveryError {}

/// A functional, decrypted view of a post-crash NVM image.
///
/// Implements [`PMem`] (flush/fence are no-ops — recovery runs against
/// durable state) so the log machinery can operate on it directly.
///
/// All media accesses go through the store's checked read path:
/// transient failures are retried (counted in
/// [`RecoveredMemory::read_retries`]); uncorrectable errors poison the
/// line to zeroes and count in [`RecoveredMemory::media_failures`], so
/// callers can distinguish "clean read" from "the DIMM lied".
///
/// # Examples
///
/// ```
/// use supermem_memctrl::MemoryController;
/// use supermem_nvm::addr::LineAddr;
/// use supermem_persist::{pmem::PMem, RecoveredMemory};
/// use supermem_sim::Config;
///
/// let cfg = Config::default();
/// let mut mc = MemoryController::new(&cfg);
/// mc.flush_line(LineAddr(0x1000), [7u8; 64], 0);
/// let image = mc.crash_now();
/// let mut rec = RecoveredMemory::from_image(&cfg, image);
/// let mut buf = [0u8; 4];
/// rec.read(0x1000, &mut buf);
/// assert_eq!(buf, [7, 7, 7, 7]);
/// ```
#[derive(Debug, Clone)]
pub struct RecoveredMemory {
    store: NvmStore,
    map: AddressMap,
    engine: EncryptionEngine,
    encryption: bool,
    read_retries: u64,
    media_failures: u64,
    recovery_cycles: u64,
}

impl RecoveredMemory {
    /// Builds the view, completing any interrupted page re-encryption
    /// recorded in the RSR.
    pub fn from_image(cfg: &Config, image: CrashImage) -> Self {
        let map = AddressMap::with_channels(
            cfg.nvm_bytes,
            cfg.line_bytes,
            cfg.page_bytes,
            cfg.banks,
            cfg.channels,
        );
        let engine = EncryptionEngine::new(cfg.encryption_key());
        let CrashImage { mut store, rsr, .. } = image;
        if cfg.encryption {
            if let Some(rsr) = rsr {
                Self::complete_rsr(&map, &engine, &mut store, &rsr);
            }
        }
        Self {
            store,
            map,
            engine,
            encryption: cfg.encryption,
            read_retries: 0,
            media_failures: 0,
            recovery_cycles: 0,
        }
    }

    /// Builds the view from a multi-channel crash image: each channel's
    /// interrupted page re-encryption (the per-channel RSR) is completed
    /// against that channel's own store first, then the disjoint
    /// per-channel stores are merged into one address space.
    pub fn from_machine_image(cfg: &Config, mut machine: MachineCrashImage) -> Self {
        let map = AddressMap::with_channels(
            cfg.nvm_bytes,
            cfg.line_bytes,
            cfg.page_bytes,
            cfg.banks,
            cfg.channels,
        );
        let engine = EncryptionEngine::new(cfg.encryption_key());
        if cfg.encryption {
            for image in &mut machine.channels {
                if let Some(rsr) = image.rsr.take() {
                    Self::complete_rsr(&map, &engine, &mut image.store, &rsr);
                }
            }
        }
        Self::from_image(cfg, machine.merged())
    }

    /// Finishes the page re-encryption an RSR recorded as in flight:
    /// done lines already decrypt under `(old_major + 1, 0)`, the rest
    /// still decrypt with the old counter line the controller left
    /// untouched; everything is rewritten under the new epoch and the
    /// counter line reset (paper §3.4.4).
    fn complete_rsr(
        map: &AddressMap,
        engine: &EncryptionEngine,
        store: &mut NvmStore,
        rsr: &supermem_memctrl::Rsr,
    ) {
        let page = rsr.page();
        let old = CounterLine::decode(&store.read_counter(page));
        let new_major = rsr.old_major() + 1;
        for idx in 0..map.lines_per_page() as usize {
            let line = map.line_in_page(page, idx);
            let cipher = store.read_data(line);
            let plain = if rsr.is_done(idx) {
                engine.decrypt_line(&cipher, line.0, new_major, 0)
            } else {
                engine.decrypt_line(&cipher, line.0, old.major(), old.minor(idx))
            };
            store.write_data(line, engine.encrypt_line(&plain, line.0, new_major, 0));
        }
        store.write_counter(page, CounterLine::with_major(new_major).encode());
    }

    /// Like [`RecoveredMemory::from_image`], but first re-verifies the
    /// integrity tree over the image's counter region *through the
    /// checked media path*, so both active tampering and uncorrectable
    /// media damage on counter lines surface before any data is trusted.
    ///
    /// Images without an integrity root (the system ran without
    /// `Config::integrity_tree`) skip the tree check and build normally.
    ///
    /// # Errors
    ///
    /// [`RecoveryError::DetectedCorrupt`] when a counter line is
    /// unreadable (uncorrectable ECC error, lost line, retry
    /// exhaustion) or the recomputed root diverges from the trusted
    /// root register.
    pub fn from_image_checked(cfg: &Config, mut image: CrashImage) -> Result<Self, RecoveryError> {
        let rebuild = Self::verify_image_integrity(cfg, &mut image)?;
        let mut rec = Self::from_image(cfg, image);
        rec.read_retries += rebuild.read_retries;
        rec.recovery_cycles += rebuild.recovery_cycles;
        Ok(rec)
    }

    /// [`RecoveredMemory::from_machine_image`] with the per-channel
    /// integrity verification of [`RecoveredMemory::from_image_checked`]:
    /// each channel maintains its own tree over the counter lines it
    /// owns, so each per-channel root is re-verified against that
    /// channel's store before any merging or re-encryption happens.
    ///
    /// # Errors
    ///
    /// [`RecoveryError::DetectedCorrupt`] when any channel's counter
    /// region is unreadable or fails its root check.
    pub fn from_machine_image_checked(
        cfg: &Config,
        mut machine: MachineCrashImage,
    ) -> Result<Self, RecoveryError> {
        let mut retries = 0u64;
        let mut cycles = 0u64;
        for image in &mut machine.channels {
            let rebuild = Self::verify_image_integrity(cfg, image)?;
            retries += rebuild.read_retries;
            cycles += rebuild.recovery_cycles;
        }
        let mut rec = Self::from_machine_image(cfg, machine);
        rec.read_retries += retries;
        rec.recovery_cycles += cycles;
        Ok(rec)
    }

    /// Rebuilds one image's tree via [`rebuild_image_tree`] and lifts a
    /// mismatch into the typed error the checked constructors report.
    fn verify_image_integrity(
        cfg: &Config,
        image: &mut CrashImage,
    ) -> Result<TreeRebuild, RecoveryError> {
        let Some(root) = image.bmt_root else {
            return Ok(TreeRebuild::default());
        };
        let rebuild = rebuild_image_tree(cfg, image, root)?;
        if let Some(level) = rebuild.level_mismatch {
            return Err(RecoveryError::DetectedCorrupt(format!(
                "persisted tree level {level} does not match its children"
            )));
        }
        if !rebuild.root_matches {
            return Err(RecoveryError::DetectedCorrupt(
                "integrity root mismatch: counter region does not match the trusted root".into(),
            ));
        }
        Ok(rebuild)
    }

    /// Transient-read retries performed so far.
    pub fn read_retries(&self) -> u64 {
        self.read_retries
    }

    /// Modeled recovery-time cost, in cycles, of the integrity-tree
    /// rebuild the checked constructors performed (0 for unchecked
    /// builds or images without a root): persisted lines read at
    /// 126 cycles each plus node hashes at 40 cycles each.
    pub fn recovery_cycles(&self) -> u64 {
        self.recovery_cycles
    }

    /// Reads answered with poison (or writes skipped) because the media
    /// reported an uncorrectable error.
    pub fn media_failures(&self) -> u64 {
        self.media_failures
    }

    /// Checked data-line read: retries transients, returns `None` after
    /// an uncorrectable error (counted in `media_failures`).
    fn checked_data_read(&mut self, line: LineAddr) -> Option<LineData> {
        let mut attempt = 0u32;
        loop {
            match self.store.read_data_checked(line) {
                Ok(d) => return Some(d),
                Err(MediaError::Transient) if attempt < READ_RETRY_LIMIT => {
                    attempt += 1;
                    self.read_retries += 1;
                }
                Err(_) => {
                    self.media_failures += 1;
                    return None;
                }
            }
        }
    }

    /// Checked counter-line read; same policy as data lines.
    fn checked_counter_read(&mut self, page: PageId) -> Option<LineData> {
        let mut attempt = 0u32;
        loop {
            match self.store.read_counter_checked(page) {
                Ok(d) => return Some(d),
                Err(MediaError::Transient) if attempt < READ_RETRY_LIMIT => {
                    attempt += 1;
                    self.read_retries += 1;
                }
                Err(_) => {
                    self.media_failures += 1;
                    return None;
                }
            }
        }
    }

    fn read_line_plain(&mut self, line: LineAddr) -> LineData {
        let Some(cipher) = self.checked_data_read(line) else {
            return [0; 64];
        };
        if !self.encryption {
            return cipher;
        }
        let page = self.map.page_of_line(line);
        let idx = self.map.line_index_in_page(line);
        let Some(raw) = self.checked_counter_read(page) else {
            return [0; 64];
        };
        let ctr = CounterLine::decode(&raw);
        self.engine
            .decrypt_line(&cipher, line.0, ctr.major(), ctr.minor(idx))
    }

    fn write_line_plain(&mut self, line: LineAddr, plain: LineData) {
        if !self.encryption {
            self.store.write_data(line, plain);
            return;
        }
        let page = self.map.page_of_line(line);
        let idx = self.map.line_index_in_page(line);
        let Some(raw) = self.checked_counter_read(page) else {
            return; // counter unreadable: cannot re-encrypt, skip the write
        };
        let mut ctr = CounterLine::decode(&raw);
        if ctr.increment(idx) == supermem_crypto::IncrementOutcome::Overflow {
            self.reencrypt_page_functional(page, &mut ctr);
            assert!(matches!(
                ctr.increment(idx),
                supermem_crypto::IncrementOutcome::Incremented(_)
            ));
        }
        let cipher = self
            .engine
            .encrypt_line(&plain, line.0, ctr.major(), ctr.minor(idx));
        self.store.write_data(line, cipher);
        self.store.write_counter(page, ctr.encode());
    }

    fn reencrypt_page_functional(&mut self, page: PageId, ctr: &mut CounterLine) {
        let old = ctr.clone();
        ctr.bump_major();
        for idx in 0..self.map.lines_per_page() as usize {
            let line = self.map.line_in_page(page, idx);
            let cipher = self.store.read_data(line);
            let plain = self
                .engine
                .decrypt_line(&cipher, line.0, old.major(), old.minor(idx));
            self.store.write_data(
                line,
                self.engine.encrypt_line(&plain, line.0, ctr.major(), 0),
            );
        }
    }

    /// Consumes the view and returns the (re-encrypted, consistent)
    /// store, e.g. to restart a [`supermem_memctrl::MemoryController`]
    /// on it.
    pub fn into_store(self) -> NvmStore {
        self.store
    }

    /// Borrow of the underlying store (verification).
    pub fn store(&self) -> &NvmStore {
        &self.store
    }
}

impl PMem for RecoveredMemory {
    fn read(&mut self, addr: u64, buf: &mut [u8]) {
        let line_bytes = 64u64;
        let mut i = 0usize;
        while i < buf.len() {
            let a = addr + i as u64;
            let line = LineAddr(a & !(line_bytes - 1));
            let off = (a % line_bytes) as usize;
            let n = ((line_bytes as usize) - off).min(buf.len() - i);
            let data = self.read_line_plain(line);
            buf[i..i + n].copy_from_slice(&data[off..off + n]);
            i += n;
        }
    }

    fn write(&mut self, addr: u64, bytes: &[u8]) {
        let line_bytes = 64u64;
        let mut i = 0usize;
        while i < bytes.len() {
            let a = addr + i as u64;
            let line = LineAddr(a & !(line_bytes - 1));
            let off = (a % line_bytes) as usize;
            let n = ((line_bytes as usize) - off).min(bytes.len() - i);
            let mut data = self.read_line_plain(line);
            data[off..off + n].copy_from_slice(&bytes[i..i + n]);
            self.write_line_plain(line, data);
            i += n;
        }
    }

    fn clwb(&mut self, _addr: u64, _len: u64) {}

    fn sfence(&mut self) {}
}

/// Result of an Osiris-style counter reconstruction pass.
///
/// The interesting cost metric is `trial_decryptions`: real hardware
/// performs one AES + ECC check per trial, and the scan visits every
/// written line — so recovery time grows linearly with the memory
/// footprint, which is precisely the drawback the SuperMem paper's §6
/// cites. SuperMem itself needs none of this (strict counter
/// persistence), so its equivalent report is all zeros.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OsirisReport {
    /// Data lines visited by the scan.
    pub lines_scanned: u64,
    /// Trial decryptions performed.
    pub trial_decryptions: u64,
    /// Minor counters found stale and corrected.
    pub counters_corrected: u64,
    /// Lines whose counter could not be re-derived within the window.
    pub unrecoverable_lines: u64,
}

/// Checked read with the standard retry budget; `None` marks the line
/// as lost to the Osiris scan.
fn scan_read<F>(mut read: F) -> Option<LineData>
where
    F: FnMut() -> Result<LineData, MediaError>,
{
    let mut attempt = 0u32;
    loop {
        match read() {
            Ok(d) => return Some(d),
            Err(MediaError::Transient) if attempt < READ_RETRY_LIMIT => attempt += 1,
            Err(_) => return None,
        }
    }
}

/// Reconstructs stale counters after a crash of an Osiris-style system
/// (`Config::osiris_window` must be set): for every written data line,
/// trial-decrypts under candidate minors `stored..stored + window` and
/// accepts the one matching the line's ECC tag, then rewrites the
/// corrected counter lines into the image.
///
/// All scan reads go through the checked media path: a data line the
/// media cannot produce counts as unrecoverable; an unreadable counter
/// line makes every trial for its page fail, with the same effect.
///
/// Returns the consistent [`RecoveredMemory`] plus the cost report.
///
/// # Errors
///
/// [`RecoveryError::Config`] if the configuration has no Osiris window
/// (nothing to recover — use [`RecoveredMemory::from_image`] directly).
pub fn recover_osiris(
    cfg: &Config,
    image: CrashImage,
) -> Result<(RecoveredMemory, OsirisReport), RecoveryError> {
    let Some(window) = cfg.osiris_window else {
        return Err(RecoveryError::Config(
            "recover_osiris requires Config::osiris_window".into(),
        ));
    };
    let map = AddressMap::new(cfg.nvm_bytes, cfg.line_bytes, cfg.page_bytes, cfg.banks);
    let engine = EncryptionEngine::new(cfg.encryption_key());
    let CrashImage { mut store, rsr, .. } = image;
    let mut report = OsirisReport::default();

    // Group written lines by page so each counter line is decoded and
    // rewritten once.
    let lines: Vec<LineAddr> = store.data_lines();
    let mut current_page: Option<(PageId, CounterLine, bool)> = None;
    for line in lines {
        let page = map.page_of_line(line);
        let needs_load = match &current_page {
            Some((p, _, _)) => *p != page,
            None => true,
        };
        if needs_load {
            if let Some((p, ctr, true)) = current_page.take() {
                store.write_counter(p, ctr.encode());
            }
            // An unreadable counter line decodes as zeroes: every trial
            // for this page misses its tag and counts unrecoverable.
            let raw = scan_read(|| store.read_counter_checked(page)).unwrap_or([0; 64]);
            current_page = Some((page, CounterLine::decode(&raw), false));
        }
        let Some((_, ctr, changed)) = current_page.as_mut() else {
            unreachable!("page context set by the needs_load branch above");
        };
        report.lines_scanned += 1;
        let tag = store.read_tag(line);
        if tag == 0 {
            continue; // never written through the Osiris path
        }
        let idx = map.line_index_in_page(line);
        let Some(cipher) = scan_read(|| store.read_data_checked(line)) else {
            report.unrecoverable_lines += 1;
            continue;
        };
        let stored = ctr.minor(idx);
        let mut found = false;
        for delta in 0..=window {
            let candidate = stored.saturating_add(delta);
            if candidate >= 128 {
                break;
            }
            report.trial_decryptions += 1;
            let plain = engine.decrypt_line(&cipher, line.0, ctr.major(), candidate);
            if supermem_crypto::line_tag(&plain) == tag {
                if candidate != stored {
                    ctr.set_minor(idx, candidate);
                    *changed = true;
                    report.counters_corrected += 1;
                }
                found = true;
                break;
            }
        }
        if !found {
            report.unrecoverable_lines += 1;
        }
    }
    if let Some((p, ctr, true)) = current_page {
        store.write_counter(p, ctr.encode());
    }
    let rec = RecoveredMemory::from_image(
        cfg,
        CrashImage {
            store,
            rsr,
            bmt_root: None,
        },
    );
    Ok((rec, report))
}

/// Cost and outcome report of one crash-image tree rebuild — the typed
/// result both the checked constructors and [`verify_image_integrity`]
/// share (see `rebuild_image_tree`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TreeRebuild {
    /// Counter lines read back to reconstruct leaf digests (0 when the
    /// leaf-digest level itself was persisted).
    pub counter_lines_checked: u64,
    /// Persisted tree-node lines read back from the tree region.
    pub persisted_lines_installed: u64,
    /// Node hashes performed: leaf digests, per-level audits, and the
    /// volatile-level recompute.
    pub nodes_recomputed: u64,
    /// Transient-read retries spent on the rebuild's media reads.
    pub read_retries: u64,
    /// Modeled rebuild cost: lines read at
    /// `RECOVERY_LINE_READ_CYCLES`, hashes at
    /// `RECOVERY_NODE_HASH_CYCLES`.
    pub recovery_cycles: u64,
    /// Whether the recomputed root equals the trusted root register.
    pub root_matches: bool,
    /// A persisted level whose stored digests do not hash from the
    /// level below (streaming frontier audit), if any.
    pub level_mismatch: Option<usize>,
}

/// Checked media read with the standard retry budget; counts retries
/// and maps an uncorrectable error into [`RecoveryError::DetectedCorrupt`]
/// with `what` naming the victim.
fn rebuild_read<F>(
    mut read: F,
    retries: &mut u64,
    what: impl Fn() -> String,
) -> Result<LineData, RecoveryError>
where
    F: FnMut() -> Result<LineData, MediaError>,
{
    let mut attempt = 0u32;
    loop {
        match read() {
            Ok(d) => return Ok(d),
            Err(MediaError::Transient) if attempt < READ_RETRY_LIMIT => {
                attempt += 1;
                *retries += 1;
            }
            Err(e) => {
                return Err(RecoveryError::DetectedCorrupt(format!(
                    "{} unreadable during integrity verification: {e}",
                    what()
                )))
            }
        }
    }
}

/// The shared rebuild-and-compare core: reconstructs the integrity tree
/// over one crash image through the checked media path and compares the
/// result against the trusted root register.
///
/// In eager mode (and at `persisted_levels = 0`) every leaf digest is
/// rebuilt from its persisted counter line and the whole tree is
/// recomputed bottom-up — the Phoenix-style full rebuild. With a
/// streaming frontier the persisted node levels are *read back* from
/// the tree region instead, audited level-against-level, and only the
/// volatile levels above the frontier are recomputed — the Triad-NVM
/// recovery-time saving the `treesweep` figure quantifies.
///
/// # Errors
///
/// [`RecoveryError::DetectedCorrupt`] when a counter or tree-node line
/// is unreadable (uncorrectable ECC damage, lost line, retry
/// exhaustion); [`RecoveryError::Config`] when the configuration cannot
/// host a tree at all.
fn rebuild_image_tree(
    cfg: &Config,
    image: &mut CrashImage,
    root: u64,
) -> Result<TreeRebuild, RecoveryError> {
    let mut rep = TreeRebuild::default();
    let mut bmt = match supermem_integrity::Bmt::new(cfg.encryption_key(), cfg.integrity_pages) {
        Ok(b) => b,
        Err(e) => return Err(RecoveryError::Config(format!("integrity tree: {e}"))),
    };
    let frontier = if cfg.streaming_tree() {
        cfg.persisted_levels.unwrap_or(0) as usize
    } else {
        0
    };
    if frontier == 0 {
        // Leaves from the (always-persisted) counter lines themselves.
        let pages: Vec<PageId> = image
            .store
            .counter_lines()
            .into_iter()
            .filter(|p| p.0 < cfg.integrity_pages)
            .collect();
        for page in pages {
            let raw = rebuild_read(
                || image.store.read_counter_checked(page),
                &mut rep.read_retries,
                || format!("counter line of page {}", page.0),
            )?;
            bmt.set_leaf(page.0, &raw);
            rep.counter_lines_checked += 1;
            rep.nodes_recomputed += 1; // the leaf digest hash
        }
    } else {
        // Persisted levels come back from the tree region.
        for id in image.store.tree_lines() {
            let level = supermem_integrity::tree_line_level(id) as usize;
            if level >= frontier {
                continue; // stale line from a deeper former frontier
            }
            let raw = rebuild_read(
                || image.store.read_tree_checked(id),
                &mut rep.read_retries,
                || format!("tree node line {id:#x}"),
            )?;
            bmt.install_node_line(level, supermem_integrity::tree_line_group(id), &raw);
            rep.persisted_lines_installed += 1;
        }
        // Audit the persisted region level-against-level: a recomputed
        // root only reads the frontier's top array, so damage below it
        // must be caught here.
        for level in 1..frontier {
            let (hashes, clean) = bmt.audit_level(level);
            rep.nodes_recomputed += hashes;
            if !clean && rep.level_mismatch.is_none() {
                rep.level_mismatch = Some(level);
            }
        }
    }
    rep.nodes_recomputed += bmt.recompute_from_level(frontier.max(1));
    rep.root_matches = rep.level_mismatch.is_none() && bmt.root() == root;
    rep.recovery_cycles = (rep.counter_lines_checked + rep.persisted_lines_installed)
        * RECOVERY_LINE_READ_CYCLES
        + rep.nodes_recomputed * RECOVERY_NODE_HASH_CYCLES;
    Ok(rep)
}

/// Active-tampering verdict for a crash image (see
/// [`verify_image_integrity`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IntegrityVerdict {
    /// The image's counter region matches the trusted root register.
    Clean {
        /// The rebuild's cost report.
        rebuild: TreeRebuild,
    },
    /// The recomputed root diverges: the DIMM was modified behind the
    /// controller's back (or rolled back to stale contents).
    Tampered,
}

/// Rebuilds the integrity tree over a crash image through the checked
/// media path (`rebuild_image_tree`) and compares it with the trusted
/// root register that survived the crash.
///
/// # Errors
///
/// Returns `Err` if the image carries no root (the system ran without
/// `Config::integrity_tree`) or a rebuild read hit uncorrectable media
/// damage.
pub fn verify_image_integrity(
    cfg: &Config,
    image: &mut CrashImage,
) -> Result<IntegrityVerdict, String> {
    let Some(root) = image.bmt_root else {
        return Err("image has no integrity root: enable Config::integrity_tree".into());
    };
    let rebuild = rebuild_image_tree(cfg, image, root).map_err(|e| e.to_string())?;
    if rebuild.root_matches {
        Ok(IntegrityVerdict::Clean { rebuild })
    } else {
        Ok(IntegrityVerdict::Tampered)
    }
}

/// Scans the log region at `log_base` and rolls back an uncommitted
/// transaction. Returns what was found; on [`RecoveryOutcome::RolledBack`]
/// the undo records have been applied to `mem`.
///
/// # Errors
///
/// [`RecoveryError::DetectedCorrupt`] when reading the header or payload
/// hit an uncorrectable media error; [`RecoveryError::TornLog`] when the
/// log is internally inconsistent (bad checksum, undecodable records, or
/// a state word no protocol stage writes).
pub fn recover_transactions(
    mem: &mut RecoveredMemory,
    log_base: u64,
) -> Result<RecoveryOutcome, RecoveryError> {
    let failures_before = mem.media_failures();
    let h = read_header(mem, log_base);
    if mem.media_failures() > failures_before {
        return Err(RecoveryError::DetectedCorrupt(
            "log header read hit an uncorrectable media error".into(),
        ));
    }
    if h.magic != LOG_MAGIC {
        return Ok(RecoveryOutcome::NoLog);
    }
    match h.state {
        STATE_COMMITTED => Ok(RecoveryOutcome::CleanCommitted { seq: h.seq }),
        STATE_EMPTY => Ok(RecoveryOutcome::NoLog),
        STATE_VALID => {
            let mut payload = vec![0u8; h.len as usize];
            mem.read(log_base + crate::log::LOG_HEADER_BYTES, &mut payload);
            if mem.media_failures() > failures_before {
                return Err(RecoveryError::DetectedCorrupt(
                    "log payload read hit an uncorrectable media error".into(),
                ));
            }
            if log_checksum(h.seq, &payload) != h.checksum {
                return Err(RecoveryError::TornLog(format!(
                    "log seq {} fails its checksum",
                    h.seq
                )));
            }
            match decode_records(&payload) {
                Some(records) => {
                    for r in &records {
                        mem.write(r.addr, &r.data);
                    }
                    // Retire the log so a second recovery is a no-op.
                    mem.write_u64(log_base + 16, STATE_COMMITTED);
                    Ok(RecoveryOutcome::RolledBack {
                        seq: h.seq,
                        records: records.len(),
                    })
                }
                None => Err(RecoveryError::TornLog(format!(
                    "log seq {} payload does not decode",
                    h.seq
                ))),
            }
        }
        other => Err(RecoveryError::TornLog(format!(
            "log state word {other} matches no protocol stage"
        ))),
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // unwrap/expect are fine in tests
mod tests {
    use super::*;
    use supermem_memctrl::MemoryController;

    fn cfg() -> Config {
        Config::default()
    }

    #[test]
    fn reads_decrypt_flushed_data() {
        let mut mc = MemoryController::new(&cfg());
        let t = mc.flush_line(LineAddr(0x40), [0xAB; 64], 0);
        mc.flush_line(LineAddr(0x80), [0xCD; 64], t);
        let mut rec = RecoveredMemory::from_image(&cfg(), mc.crash_now());
        let mut buf = [0u8; 128];
        rec.read(0x40, &mut buf);
        assert_eq!(&buf[..64], &[0xAB; 64]);
        assert_eq!(&buf[64..], &[0xCD; 64]);
    }

    #[test]
    fn writes_reencrypt_consistently() {
        let mut mc = MemoryController::new(&cfg());
        mc.flush_line(LineAddr(0x100), [1; 64], 0);
        let mut rec = RecoveredMemory::from_image(&cfg(), mc.crash_now());
        rec.write(0x110, &[9, 9, 9]);
        let mut buf = [0u8; 64];
        rec.read(0x100, &mut buf);
        assert_eq!(buf[0x10..0x13], [9, 9, 9]);
        assert_eq!(buf[0], 1);
        // The store still holds ciphertext.
        assert_ne!(rec.store().read_data(LineAddr(0x100))[0], buf[0]);
    }

    #[test]
    fn functional_write_handles_minor_overflow() {
        let cfg = cfg();
        let mut rec = RecoveredMemory::from_image(&cfg, MemoryController::new(&cfg).crash_now());
        // Initialize the neighbor so we can check it survives re-keying.
        rec.write(64, &[5u8; 8]);
        for i in 0..200u32 {
            rec.write(0, &i.to_le_bytes());
        }
        let mut buf = [0u8; 4];
        rec.read(0, &mut buf);
        assert_eq!(u32::from_le_bytes(buf), 199);
        let mut buf = [0u8; 8];
        rec.read(64, &mut buf);
        assert_eq!(buf, [5u8; 8]);
    }

    #[test]
    fn unencrypted_mode_passthrough() {
        let mut c = cfg();
        c.encryption = false;
        let mut mc = MemoryController::new(&c);
        mc.flush_line(LineAddr(0), [3; 64], 0);
        let mut rec = RecoveredMemory::from_image(&c, mc.crash_now());
        let mut buf = [0u8; 8];
        rec.read(0, &mut buf);
        assert_eq!(buf, [3; 8]);
        rec.write(0, &[4; 8]);
        assert_eq!(rec.store().read_data(LineAddr(0))[0], 4, "plaintext store");
    }

    #[test]
    fn completes_interrupted_reencryption_via_rsr() {
        let cfg = cfg();
        let mut mc = MemoryController::new(&cfg);
        // Seed two lines, then overflow line 0's minor counter with an
        // armed crash in the middle of the page rewrite.
        let mut t = mc.flush_line(LineAddr(64), [0x77; 64], 0);
        for i in 0..127u64 {
            t = mc.flush_line(LineAddr(0), [i as u8; 64], t);
        }
        // Next flush overflows and starts re-encryption; crash after a
        // handful of the 64 rewrites.
        mc.arm_crash_after_appends(10);
        mc.flush_line(LineAddr(0), [0xFF; 64], t);
        let image = mc.take_crash_image().expect("crash fired mid-reencryption");
        assert!(image.rsr.is_some(), "RSR must be live in the image");
        let mut rec = RecoveredMemory::from_image(&cfg, image);
        let mut buf = [0u8; 64];
        rec.read(64, &mut buf);
        assert_eq!(buf, [0x77; 64], "bystander line survives the crash");
        rec.read(0, &mut buf);
        // Line 0 is either the pre-overflow value (126) or the new one.
        assert!(
            buf == [126; 64] || buf == [0xFF; 64],
            "hot line must be one of its two consistent versions"
        );
    }

    fn osiris_cfg() -> Config {
        Config {
            counter_cache_mode: supermem_sim::CounterCacheMode::WriteBack,
            counter_cache_backing: supermem_sim::CounterCacheBacking::None,
            osiris_window: Some(4),
            ..Config::default()
        }
    }

    #[test]
    fn osiris_recovers_stale_counters_by_trial_decryption() {
        let cfg = osiris_cfg();
        let mut mc = MemoryController::new(&cfg);
        // Write the same line three times: minors advance to 3 but in
        // write-back mode only the increment hitting `minor % 4 == 0`
        // (none here) persists the counter line — the NVM counter is
        // stale at the crash.
        let mut t = 0;
        for i in 1..=3u8 {
            t = mc.flush_line(LineAddr(0x40), [i; 64], t);
        }
        let image = mc.crash_now();
        // Without reconstruction the line is garbage...
        let mut naive = RecoveredMemory::from_image(&cfg, image.clone());
        let mut buf = [0u8; 64];
        naive.read(0x40, &mut buf);
        assert_ne!(buf, [3u8; 64], "stale counter must not decrypt");
        // ...with Osiris reconstruction it comes back.
        let (mut rec, report) = super::recover_osiris(&cfg, image).expect("window is set");
        rec.read(0x40, &mut buf);
        assert_eq!(buf, [3u8; 64]);
        assert_eq!(report.counters_corrected, 1);
        assert_eq!(report.unrecoverable_lines, 0);
        assert!(report.trial_decryptions >= 4, "search cost must show up");
        let _ = t;
    }

    #[test]
    fn osiris_scan_cost_scales_with_footprint() {
        let cfg = osiris_cfg();
        let lines_written = |n: u64| {
            let mut mc = MemoryController::new(&cfg);
            let mut t = 0;
            for i in 0..n {
                t = mc.flush_line(LineAddr(i * 64), [i as u8; 64], t);
            }
            let (_, report) = super::recover_osiris(&cfg, mc.crash_now()).expect("window is set");
            report.lines_scanned
        };
        assert_eq!(lines_written(16), 16);
        assert_eq!(lines_written(64), 64);
    }

    #[test]
    fn osiris_report_is_clean_when_counters_are_fresh() {
        // A checkpointed (fully drained) Osiris system has current
        // counters: recovery corrects nothing.
        let cfg = osiris_cfg();
        let mut mc = MemoryController::new(&cfg);
        let t = mc.flush_line(LineAddr(0x80), [9; 64], 0);
        mc.finish(t);
        let (mut rec, report) = super::recover_osiris(&cfg, mc.crash_now()).expect("window is set");
        assert_eq!(report.counters_corrected, 0);
        assert_eq!(report.unrecoverable_lines, 0);
        let mut buf = [0u8; 64];
        rec.read(0x80, &mut buf);
        assert_eq!(buf, [9; 64]);
    }

    #[test]
    fn osiris_recovery_without_window_is_a_config_error() {
        let cfg = Config::default();
        let mc = MemoryController::new(&cfg);
        let err = super::recover_osiris(&cfg, mc.crash_now()).unwrap_err();
        assert!(matches!(err, RecoveryError::Config(_)), "got {err:?}");
        assert!(err.to_string().contains("osiris_window"));
    }

    #[test]
    fn recovery_of_fresh_memory_reports_nolog() {
        let cfg = cfg();
        let mut rec = RecoveredMemory::from_image(&cfg, MemoryController::new(&cfg).crash_now());
        assert_eq!(
            recover_transactions(&mut rec, 0x10000),
            Ok(RecoveryOutcome::NoLog)
        );
    }

    #[test]
    fn rollback_restores_old_data_and_is_idempotent() {
        use crate::log::{
            encode_records, log_checksum as ck, UndoRecord, LOG_HEADER_BYTES, LOG_MAGIC,
            STATE_VALID,
        };
        let cfg = cfg();
        let mut rec = RecoveredMemory::from_image(&cfg, MemoryController::new(&cfg).crash_now());
        let log = 0x20000u64;
        // Data was "mutated" to 9s; the log says it used to be 1s.
        rec.write(0x100, &[9; 16]);
        let payload = encode_records(&[UndoRecord {
            addr: 0x100,
            data: vec![1; 16],
        }]);
        rec.write(log + LOG_HEADER_BYTES, &payload);
        rec.write_u64(log, LOG_MAGIC);
        rec.write_u64(log + 8, 5);
        rec.write_u64(log + 16, STATE_VALID);
        rec.write_u64(log + 24, payload.len() as u64);
        rec.write_u64(log + 32, ck(5, &payload));

        let out = recover_transactions(&mut rec, log).expect("clean media");
        assert_eq!(out, RecoveryOutcome::RolledBack { seq: 5, records: 1 });
        let mut buf = [0u8; 16];
        rec.read(0x100, &mut buf);
        assert_eq!(buf, [1; 16]);
        // Second scan finds a committed (retired) log: recovering twice
        // is a no-op and the rolled-back data is untouched.
        assert_eq!(
            recover_transactions(&mut rec, log),
            Ok(RecoveryOutcome::CleanCommitted { seq: 5 })
        );
        rec.read(0x100, &mut buf);
        assert_eq!(buf, [1; 16], "second recovery must not reapply records");
    }

    #[test]
    fn bad_checksum_is_a_torn_log() {
        use crate::log::{LOG_MAGIC, STATE_VALID};
        let cfg = cfg();
        let mut rec = RecoveredMemory::from_image(&cfg, MemoryController::new(&cfg).crash_now());
        let log = 0x30000u64;
        rec.write_u64(log, LOG_MAGIC);
        rec.write_u64(log + 8, 1);
        rec.write_u64(log + 16, STATE_VALID);
        rec.write_u64(log + 24, 8);
        rec.write_u64(log + 32, 0xBAD);
        let err = recover_transactions(&mut rec, log).unwrap_err();
        assert!(matches!(err, RecoveryError::TornLog(_)), "got {err:?}");
        assert!(err.to_string().contains("checksum"));
    }

    #[test]
    fn insane_state_is_a_torn_log() {
        use crate::log::LOG_MAGIC;
        let cfg = cfg();
        let mut rec = RecoveredMemory::from_image(&cfg, MemoryController::new(&cfg).crash_now());
        let log = 0x40000u64;
        rec.write_u64(log, LOG_MAGIC);
        rec.write_u64(log + 16, 77);
        let err = recover_transactions(&mut rec, log).unwrap_err();
        assert!(matches!(err, RecoveryError::TornLog(_)), "got {err:?}");
    }

    #[test]
    fn recovery_error_displays_its_taxonomy() {
        let cases = [
            (RecoveryError::Config("c".into()), "configuration error"),
            (
                RecoveryError::DetectedCorrupt("d".into()),
                "detected media corruption",
            ),
            (RecoveryError::TornLog("t".into()), "torn log"),
            (RecoveryError::Unrecoverable("u".into()), "unrecoverable"),
        ];
        for (err, needle) in cases {
            assert!(err.to_string().contains(needle), "{err}");
        }
    }

    fn integrity_cfg() -> Config {
        Config {
            integrity_tree: true,
            ..Config::default()
        }
    }

    #[test]
    fn checked_build_accepts_a_clean_image() {
        let cfg = integrity_cfg();
        let mut mc = MemoryController::new(&cfg);
        let t = mc.flush_line(LineAddr(0x40), [0xAA; 64], 0);
        mc.finish(t);
        let image = mc.crash_now();
        let mut rec = RecoveredMemory::from_image_checked(&cfg, image).expect("clean image");
        let mut buf = [0u8; 8];
        rec.read(0x40, &mut buf);
        assert_eq!(buf, [0xAA; 8]);
        assert_eq!(rec.media_failures(), 0);
    }

    #[test]
    fn checked_build_detects_counter_tampering() {
        let cfg = integrity_cfg();
        let mut mc = MemoryController::new(&cfg);
        let t = mc.flush_line(LineAddr(0x40), [0xAA; 64], 0);
        mc.finish(t);
        let mut image = mc.crash_now();
        // Flip stored counter bytes behind the controller's back.
        let page = image
            .store
            .counter_lines()
            .into_iter()
            .next()
            .expect("a counter line");
        let mut raw = image.store.read_counter(page);
        raw[0] ^= 0xFF;
        image.store.write_counter(page, raw);
        let err = RecoveredMemory::from_image_checked(&cfg, image).unwrap_err();
        assert!(
            matches!(err, RecoveryError::DetectedCorrupt(_)),
            "got {err:?}"
        );
        assert!(err.to_string().contains("integrity root mismatch"));
    }

    #[test]
    fn checked_build_detects_uncorrectable_counter_flips() {
        use supermem_nvm::{FaultClass, FaultPlan, FaultSpec};
        let cfg = integrity_cfg();
        let mut mc = MemoryController::new(&cfg);
        let t = mc.flush_line(LineAddr(0x40), [0xAA; 64], 0);
        mc.finish(t);
        let mut image = mc.crash_now();
        // Force a double-bit flip onto the image's only counter line.
        let page = image
            .store
            .counter_lines()
            .into_iter()
            .next()
            .expect("a counter line");
        let mut plan = FaultPlan::new(FaultSpec {
            class: FaultClass::DoubleFlip,
            seed: 1,
        });
        plan.flip_counter_bit(page, 3);
        plan.flip_counter_bit(page, 200);
        image.store.attach_faults(plan);
        let err = RecoveredMemory::from_image_checked(&cfg, image).unwrap_err();
        assert!(
            matches!(err, RecoveryError::DetectedCorrupt(_)),
            "got {err:?}"
        );
        assert!(err.to_string().contains("unreadable"));
    }

    #[test]
    fn recovery_retries_transient_reads_and_succeeds() {
        use supermem_nvm::{FaultClass, FaultPlan, FaultSpec};
        let cfg = cfg();
        let mut mc = MemoryController::new(&cfg);
        let t = mc.flush_line(LineAddr(0x40), [0x5A; 64], 0);
        mc.finish(t);
        let mut image = mc.crash_now();
        let mut plan = FaultPlan::new(FaultSpec {
            class: FaultClass::TransientRead,
            seed: 1,
        });
        plan.fail_data_reads(LineAddr(0x40), 2);
        image.store.attach_faults(plan);
        let mut rec = RecoveredMemory::from_image(&cfg, image);
        let mut buf = [0u8; 8];
        rec.read(0x40, &mut buf);
        assert_eq!(buf, [0x5A; 8], "retries must recover the line");
        assert!(rec.read_retries() >= 2);
        assert_eq!(rec.media_failures(), 0);
    }

    #[test]
    fn recovery_poisons_lost_lines_and_counts_the_failure() {
        use supermem_nvm::{FaultClass, FaultPlan, FaultSpec};
        let cfg = cfg();
        let mut mc = MemoryController::new(&cfg);
        let t = mc.flush_line(LineAddr(0x40), [0x5A; 64], 0);
        mc.finish(t);
        let mut image = mc.crash_now();
        let mut plan = FaultPlan::new(FaultSpec {
            class: FaultClass::BankFail,
            seed: 1,
        });
        plan.note_lost_data(LineAddr(0x40));
        image.store.attach_faults(plan);
        let mut rec = RecoveredMemory::from_image(&cfg, image);
        let mut buf = [0u8; 8];
        rec.read(0x40, &mut buf);
        assert_eq!(buf, [0; 8], "lost lines read as poison");
        assert!(rec.media_failures() > 0, "the failure must be counted");
    }

    fn streaming_cfg(levels: u32) -> Config {
        Config {
            integrity_tree: true,
            persisted_levels: Some(levels),
            ..Config::default()
        }
    }

    fn streaming_image(levels: u32) -> (Config, supermem_memctrl::CrashImage) {
        let cfg = streaming_cfg(levels);
        let mut mc = MemoryController::new(&cfg);
        let mut t = 0;
        for i in 0..12u64 {
            t = mc.flush_line(LineAddr(i * 4096), [i as u8 + 1; 64], t);
        }
        mc.finish(t);
        (cfg, mc.crash_now())
    }

    #[test]
    fn streaming_recovery_rebuilds_from_the_persisted_frontier() {
        let (cfg, image) = streaming_image(2);
        let mut rec =
            RecoveredMemory::from_image_checked(&cfg, image).expect("clean streaming image");
        assert!(rec.recovery_cycles() > 0, "rebuild cost must be accounted");
        let mut buf = [0u8; 8];
        rec.read(5 * 4096, &mut buf);
        assert_eq!(buf, [6; 8]);
    }

    #[test]
    fn streaming_verdict_reads_node_lines_not_counter_lines() {
        let (cfg, mut image) = streaming_image(2);
        let v = verify_image_integrity(&cfg, &mut image).expect("image has a root");
        let IntegrityVerdict::Clean { rebuild } = v else {
            panic!("clean image must verify, got {v:?}");
        };
        assert!(rebuild.persisted_lines_installed > 0);
        assert_eq!(
            rebuild.counter_lines_checked, 0,
            "a persisted leaf-digest level replaces the counter scan"
        );
        assert!(rebuild.root_matches);
    }

    #[test]
    fn deeper_frontier_cuts_recovery_cycles() {
        // The Triad-NVM trade: persisting the leaf-digest level skips
        // hashing every counter line at rebuild time.
        let (cfg0, mut i0) = streaming_image(0);
        let (cfg2, mut i2) = streaming_image(2);
        let cost =
            |cfg: &Config, image: &mut supermem_memctrl::CrashImage| match verify_image_integrity(
                cfg, image,
            )
            .expect("root present")
            {
                IntegrityVerdict::Clean { rebuild } => rebuild.recovery_cycles,
                IntegrityVerdict::Tampered => panic!("clean image"),
            };
        assert!(cost(&cfg2, &mut i2) < cost(&cfg0, &mut i0));
    }

    #[test]
    fn tampered_tree_node_line_is_detected() {
        let (cfg, mut image) = streaming_image(2);
        let id = image.store.tree_lines()[0];
        let mut raw = image.store.read_tree(id);
        raw[3] ^= 0x40;
        image.store.write_tree(id, raw);
        let err = RecoveredMemory::from_image_checked(&cfg, image).unwrap_err();
        assert!(
            matches!(err, RecoveryError::DetectedCorrupt(_)),
            "got {err:?}"
        );
    }

    #[test]
    fn uncorrectable_tree_line_damage_is_detected() {
        use supermem_nvm::{FaultClass, FaultSpec};
        let (cfg, mut image) = streaming_image(1);
        let struck = image.store.strike_tree_fault(FaultSpec {
            class: FaultClass::DoubleFlip,
            seed: 7,
        });
        assert!(struck.is_some(), "image must hold tree lines to strike");
        let err = RecoveredMemory::from_image_checked(&cfg, image).unwrap_err();
        assert!(
            matches!(err, RecoveryError::DetectedCorrupt(_)),
            "got {err:?}"
        );
        assert!(err.to_string().contains("unreadable"));
    }

    #[test]
    fn machine_image_recovers_lines_from_every_channel() {
        use supermem_memctrl::ChannelSet;
        let cfg = cfg().with_channels(4);
        let mut set = ChannelSet::new(&cfg);
        let mut t = 0;
        // One line per channel: pages 0..4 interleave round-robin.
        for ch in 0..4u64 {
            let addr = ch * cfg.page_bytes + 0x40;
            t = set.flush_line(LineAddr(addr), [ch as u8 + 1; 64], t);
        }
        set.finish(t);
        let mut rec = RecoveredMemory::from_machine_image(&cfg, set.machine_crash_now());
        for ch in 0..4u64 {
            let mut buf = [0u8; 8];
            rec.read(ch * cfg.page_bytes + 0x40, &mut buf);
            assert_eq!(buf, [ch as u8 + 1; 8], "channel {ch} line lost");
        }
    }

    #[test]
    fn machine_image_completes_each_channels_rsr() {
        use supermem_memctrl::ChannelSet;
        let cfg = cfg().with_channels(2);
        let mut set = ChannelSet::new(&cfg);
        // Overflow the minor counter of page 0 (channel 0) while page 1
        // (channel 1) holds steady data, then crash mid-re-encryption.
        let mut t = set.flush_line(LineAddr(cfg.page_bytes + 0x40), [0x77; 64], 0);
        for i in 0..127u64 {
            t = set.flush_line(LineAddr(0x40), [i as u8; 64], t);
        }
        set.arm_crash_after_appends(10);
        set.flush_line(LineAddr(0x40), [0xEE; 64], t);
        let machine = set
            .take_machine_crash_image()
            .expect("crash fired mid-reencryption");
        assert!(
            machine.channels.iter().any(|c| c.rsr.is_some()),
            "the overflow must leave an RSR in some channel"
        );
        let mut rec = RecoveredMemory::from_machine_image(&cfg, machine);
        let mut buf = [0u8; 8];
        rec.read(cfg.page_bytes + 0x40, &mut buf);
        assert_eq!(buf, [0x77; 8], "the other channel's data must survive");
        rec.read(0x40, &mut buf);
        assert!(
            buf == [126; 8] || buf == [0xEE; 8],
            "re-encrypted line must decrypt to old or new value, got {buf:?}"
        );
    }

    #[test]
    fn machine_image_checked_verifies_each_channel_root() {
        use supermem_memctrl::ChannelSet;
        let mut cfg = cfg().with_channels(2);
        cfg.integrity_tree = true;
        let mut set = ChannelSet::new(&cfg);
        let mut t = 0;
        for ch in 0..2u64 {
            t = set.flush_line(LineAddr(ch * cfg.page_bytes + 0x40), [9; 64], t);
        }
        set.finish(t);

        // Clean machine image verifies and recovers.
        let mut rec = RecoveredMemory::from_machine_image_checked(&cfg, set.machine_crash_now())
            .expect("clean image must verify");
        let mut buf = [0u8; 8];
        rec.read(cfg.page_bytes + 0x40, &mut buf);
        assert_eq!(buf, [9; 8]);

        // Tamper with one channel's counter line: that channel's root
        // check must reject the whole recovery.
        let mut machine = set.machine_crash_now();
        let victim = machine
            .channels
            .iter_mut()
            .find(|c| !c.store.counter_lines().is_empty())
            .expect("some channel holds counters");
        let page = victim.store.counter_lines()[0];
        let mut raw = victim.store.read_counter(page);
        raw[0] ^= 0xFF;
        victim.store.write_counter(page, raw);
        assert!(matches!(
            RecoveredMemory::from_machine_image_checked(&cfg, machine),
            Err(RecoveryError::DetectedCorrupt(_))
        ));
    }
}
