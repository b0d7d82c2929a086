//! Sharded multi-process campaign farm (DESIGN.md § 8i).
//!
//! A *farm* runs one campaign across many worker **processes**: a
//! coordinator splits the fault list into contiguous shards and publishes
//! a manifest in a farm directory; workers claim shards through
//! lease-based atomic claims (create-exclusive lease files refreshed by a
//! heartbeat), stream each shard into its own checksummed JSONL segment
//! using the ordinary [`crate::store`] machinery, and mark it done; a
//! merge step folds the completed segments into one canonical store that
//! is byte-identical to a single-process run of the same configuration.
//!
//! The single-process campaign plane already survives thread death (the
//! supervisor) and process death (the durable store + `--resume`); the
//! farm extends the same guarantee to a *fleet*: any worker may be
//! SIGKILLed at any instant. Its lease then expires, another worker (or
//! the coordinator's tend loop) reclaims the shard, torn-tail-recovers
//! the partial segment exactly as `--resume` would, and re-runs only the
//! missing faults. Byte-identity of the merged result rests on
//! [`crate::campaign::PreparedCampaign::run_shard`]: every record is a
//! function of its own fault and the golden run alone, so it is the same
//! bytes (outcome, deviation, *and* provenance) no matter which process
//! produced it.
//!
//! Single ownership is enforced by the lease protocol: a claim is an
//! `O_CREAT|O_EXCL` lease-file creation (atomic on every filesystem we
//! target), ownership is kept alive by rewriting the lease every
//! heartbeat interval (refreshing its mtime), and a lease whose mtime is
//! older than the expiry is taken over by an atomic rename-aside — the
//! previous owner's next heartbeat then fails with `NotFound`, which
//! fences its store appends. The expiry must be comfortably larger than
//! the heartbeat (enforced ≥ 2×) so a live-but-slow worker is not
//! usurped.

use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, SystemTime};

use serde::{Deserialize, Serialize};

use crate::campaign::{prepare_campaign, CampaignConfig};
use crate::experiment::ExperimentRecord;
use crate::observer::{CampaignObserver, ObserverSet, Telemetry, TelemetrySnapshot};
use crate::store::{
    headerless_remnant, load_store, telemetry_sidecar_path, write_telemetry_sidecar, JsonlStore,
    LoadedCampaign, Reattached, StoreError, StoreHeader,
};
use crate::workload::Workload;

/// First line of `manifest.json`; distinguishes a farm directory from any
/// other directory full of JSON.
pub const FARM_MAGIC: &str = "bera-campaign-farm";

/// Manifest format version; bumped on incompatible layout changes.
pub const FARM_VERSION: u32 = 1;

/// Lease timing: how often owners prove liveness and how stale a lease
/// must be before it is declared abandoned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LeasePolicy {
    /// Interval between lease refreshes by the owning worker.
    pub heartbeat_ms: u64,
    /// Lease age (since last refresh) after which the owner is presumed
    /// dead and the shard may be reclaimed. Must be at least twice the
    /// heartbeat so one delayed refresh cannot cost a live worker its
    /// shard.
    pub expiry_ms: u64,
    /// Initial back-off after a contested claim sweep found nothing to
    /// run.
    pub backoff_base_ms: u64,
    /// Back-off ceiling (exponential doubling stops here).
    pub backoff_max_ms: u64,
}

impl Default for LeasePolicy {
    fn default() -> Self {
        LeasePolicy {
            heartbeat_ms: 1000,
            expiry_ms: 10_000,
            backoff_base_ms: 50,
            backoff_max_ms: 2000,
        }
    }
}

impl LeasePolicy {
    /// Checks the internal consistency of the policy.
    ///
    /// # Errors
    ///
    /// [`FarmError::Manifest`] when the heartbeat is zero or the expiry is
    /// under twice the heartbeat.
    pub fn validate(&self) -> Result<(), FarmError> {
        if self.heartbeat_ms == 0 {
            return Err(FarmError::Manifest(
                "lease heartbeat must be non-zero".to_string(),
            ));
        }
        if self.expiry_ms < 2 * self.heartbeat_ms {
            return Err(FarmError::Manifest(format!(
                "lease expiry ({} ms) must be at least twice the heartbeat ({} ms)",
                self.expiry_ms, self.heartbeat_ms
            )));
        }
        Ok(())
    }
}

/// One shard: the contiguous fault-index range `start..end`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardSpec {
    /// Shard number (also the segment/lease file number).
    pub index: usize,
    /// First fault index owned by this shard.
    pub start: usize,
    /// One past the last fault index owned by this shard.
    pub end: usize,
}

impl ShardSpec {
    /// Number of faults in the shard.
    #[must_use]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// `true` for a degenerate empty shard (never produced by
    /// [`init_farm`]).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Whether `index` belongs to this shard.
    #[must_use]
    pub fn contains(&self, index: usize) -> bool {
        self.start <= index && index < self.end
    }
}

/// The farm's identity document, published once by the coordinator at
/// init and read-only thereafter. The campaign's identity is the embedded
/// [`StoreHeader`]: every worker rebuilds its configuration from it (so
/// every worker computes the same plan, the same fault list, the same
/// records), and every segment must carry it field for field. The
/// manifest adds only what the header lacks: the workload key, the
/// checkpoint stride, the lease timing and the shard partition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FarmManifest {
    /// Always [`FARM_MAGIC`].
    pub magic: String,
    /// Always [`FARM_VERSION`] for directories this build writes.
    pub version: u32,
    /// CLI workload key (`alg1` … `alg3`); see [`Workload::by_key`].
    pub workload_key: String,
    /// Golden checkpoint stride.
    pub checkpoint_stride: usize,
    /// Lease timing for this farm.
    pub lease: LeasePolicy,
    /// The campaign's identity, and the store header every segment (and
    /// the merged store) must carry.
    pub header: StoreHeader,
    /// The shard partition, in index order, covering `0..header.faults`
    /// exactly.
    pub shards: Vec<ShardSpec>,
}

impl FarmManifest {
    /// Reconstructs the campaign configuration the manifest describes.
    /// `threads` is a per-worker execution knob (not part of the campaign
    /// identity), so the caller chooses it.
    #[must_use]
    pub fn campaign_config(&self, threads: usize) -> CampaignConfig {
        let mut cfg = self.header.campaign_config();
        cfg.loop_cfg.checkpoint_stride = self.checkpoint_stride;
        cfg.threads = threads;
        cfg
    }

    /// Resolves the manifest's workload.
    ///
    /// # Errors
    ///
    /// [`FarmError::Manifest`] when the key is not one this build knows.
    pub fn workload(&self) -> Result<Workload, FarmError> {
        Workload::by_key(&self.workload_key).ok_or_else(|| {
            FarmError::Manifest(format!("unknown workload key `{}`", self.workload_key))
        })
    }

    /// The shard owning fault index `i`, if any.
    #[must_use]
    pub fn shard_of(&self, i: usize) -> Option<&ShardSpec> {
        self.shards.iter().find(|s| s.contains(i))
    }
}

/// Errors from farm operations.
#[derive(Debug)]
pub enum FarmError {
    /// An underlying filesystem error.
    Io(std::io::Error),
    /// A segment or merged store failed to load or validate.
    Store(StoreError),
    /// The manifest is missing, malformed, or internally inconsistent.
    Manifest(String),
    /// A shard-level problem (torn done segment, bad lease, …).
    Shard {
        /// The shard in question.
        shard: usize,
        /// What went wrong.
        message: String,
    },
    /// A segment carries a record outside its shard's range.
    ForeignIndex {
        /// The out-of-range fault index.
        index: usize,
        /// Shard whose segment carries it.
        shard: usize,
        /// Shard that actually owns the index.
        owner: usize,
    },
    /// A completed-farm operation (merge) found unfinished work.
    Incomplete {
        /// Shards with no done marker.
        missing_shards: usize,
        /// Fault indices with no record across all segments.
        missing_records: usize,
    },
}

impl std::fmt::Display for FarmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FarmError::Io(e) => write!(f, "farm I/O error: {e}"),
            FarmError::Store(e) => write!(f, "{e}"),
            FarmError::Manifest(m) => write!(f, "farm manifest error: {m}"),
            FarmError::Shard { shard, message } => write!(f, "farm shard {shard}: {message}"),
            FarmError::ForeignIndex {
                index,
                shard,
                owner,
            } => write!(
                f,
                "shard {shard}'s segment carries fault index {index}, which \
                 belongs to shard {owner} (refusing a segment that crossed its range)"
            ),
            FarmError::Incomplete {
                missing_shards,
                missing_records,
            } => write!(
                f,
                "farm incomplete: {missing_shards} shard(s) unfinished, \
                 {missing_records} record(s) missing (run more workers, then merge)"
            ),
        }
    }
}

impl std::error::Error for FarmError {}

impl From<std::io::Error> for FarmError {
    fn from(e: std::io::Error) -> Self {
        FarmError::Io(e)
    }
}

impl From<StoreError> for FarmError {
    fn from(e: StoreError) -> Self {
        FarmError::Store(e)
    }
}

/// Path of the farm manifest inside `root`.
#[must_use]
pub fn manifest_path(root: &Path) -> PathBuf {
    root.join("manifest.json")
}

/// Path of shard `index`'s segment store inside `root`.
#[must_use]
pub fn segment_path(root: &Path, index: usize) -> PathBuf {
    root.join("shards")
        .join(format!("shard-{index:04}.segment.jsonl"))
}

/// Path of shard `index`'s lease file inside `root`.
#[must_use]
pub fn lease_path(root: &Path, index: usize) -> PathBuf {
    root.join("shards").join(format!("shard-{index:04}.lease"))
}

/// Path of shard `index`'s done marker inside `root`.
#[must_use]
pub fn done_path(root: &Path, index: usize) -> PathBuf {
    root.join("shards").join(format!("shard-{index:04}.done"))
}

/// Path of the canonical merged store inside `root`.
#[must_use]
pub fn merged_path(root: &Path) -> PathBuf {
    root.join("merged.jsonl")
}

/// Is this directory a farm? (Cheap check: the manifest file exists.)
#[must_use]
pub fn is_farm_dir(path: &Path) -> bool {
    path.is_dir() && manifest_path(path).is_file()
}

/// Initializes a farm directory: runs the campaign's set-up phase once to
/// compute the store header (golden run + fault-list identity), splits
/// `0..cfg.faults` into `shard_count` contiguous shards (clamped to the
/// fault count), and atomically publishes `manifest.json`.
///
/// # Errors
///
/// [`FarmError::Manifest`] when the directory already holds a farm, the
/// configuration is degenerate, or the lease policy is inconsistent;
/// [`FarmError::Io`] on filesystem failure.
pub fn init_farm(
    root: &Path,
    workload_key: &str,
    cfg: &CampaignConfig,
    shard_count: usize,
    lease: LeasePolicy,
) -> Result<FarmManifest, FarmError> {
    lease.validate()?;
    if cfg.faults == 0 {
        return Err(FarmError::Manifest(
            "a farm needs at least one fault".to_string(),
        ));
    }
    if shard_count == 0 {
        return Err(FarmError::Manifest(
            "a farm needs at least one shard".to_string(),
        ));
    }
    let workload = Workload::by_key(workload_key)
        .ok_or_else(|| FarmError::Manifest(format!("unknown workload key `{workload_key}`")))?;
    if manifest_path(root).exists() {
        return Err(FarmError::Manifest(format!(
            "{} already holds a farm manifest (refusing to re-initialize)",
            root.display()
        )));
    }

    let prepared = prepare_campaign(&workload, cfg);
    let header = StoreHeader::new(workload.name(), cfg, prepared.golden());

    // Even contiguous split; the first `faults % n` shards take the
    // remainder. Empty shards are never produced.
    let n = shard_count.min(cfg.faults);
    let base = cfg.faults / n;
    let extra = cfg.faults % n;
    let mut shards = Vec::with_capacity(n);
    let mut start = 0;
    for index in 0..n {
        let len = base + usize::from(index < extra);
        shards.push(ShardSpec {
            index,
            start,
            end: start + len,
        });
        start += len;
    }

    let manifest = FarmManifest {
        magic: FARM_MAGIC.to_string(),
        version: FARM_VERSION,
        workload_key: workload_key.to_string(),
        checkpoint_stride: cfg.loop_cfg.checkpoint_stride,
        lease,
        header,
        shards,
    };

    fs::create_dir_all(root.join("shards"))?;
    // Atomic publish: a crash mid-write can never leave a half manifest
    // that a worker might half-trust.
    let tmp = root.join("manifest.json.tmp");
    let json = serde_json::to_string_pretty(&manifest)
        .map_err(|e| FarmError::Manifest(format!("manifest does not serialize: {e}")))?;
    let mut file = File::create(&tmp)?;
    file.write_all(json.as_bytes())?;
    file.write_all(b"\n")?;
    file.sync_all()?;
    fs::rename(&tmp, manifest_path(root))?;
    Ok(manifest)
}

/// Reads and validates `root`'s manifest.
///
/// # Errors
///
/// [`FarmError::Manifest`] on a missing/unparsable/foreign manifest or an
/// inconsistent shard partition.
pub fn read_manifest(root: &Path) -> Result<FarmManifest, FarmError> {
    let path = manifest_path(root);
    let text = fs::read_to_string(&path)
        .map_err(|e| FarmError::Manifest(format!("cannot read {}: {e}", path.display())))?;
    let manifest: FarmManifest = serde_json::from_str(&text)
        .map_err(|e| FarmError::Manifest(format!("{} does not parse: {e}", path.display())))?;
    if manifest.magic != FARM_MAGIC {
        return Err(FarmError::Manifest(format!(
            "{} is not a campaign farm (magic `{}`)",
            path.display(),
            manifest.magic
        )));
    }
    if manifest.version != FARM_VERSION {
        return Err(FarmError::Manifest(format!(
            "farm version {} unsupported (this build writes {FARM_VERSION})",
            manifest.version
        )));
    }
    manifest.lease.validate()?;
    // The partition must tile 0..faults exactly, in order.
    let faults = manifest.header.faults;
    let mut expect = 0;
    for (i, s) in manifest.shards.iter().enumerate() {
        if s.index != i || s.start != expect || s.end <= s.start || s.end > faults {
            return Err(FarmError::Manifest(format!(
                "shard table is not a contiguous partition at shard {i} ({}..{})",
                s.start, s.end
            )));
        }
        expect = s.end;
    }
    if expect != faults {
        return Err(FarmError::Manifest(format!(
            "shard table covers {expect} faults but the campaign has {faults}"
        )));
    }
    Ok(manifest)
}

/// Lease-file payload. The mtime, not this content, carries liveness; the
/// content only names the owner for status displays and post-mortems.
#[derive(Debug, Serialize, Deserialize)]
struct LeaseBody {
    worker: String,
    beats: u64,
}

/// Attempts the create-exclusive claim of shard `index`.
///
/// Returns `Ok(true)` when the lease is ours, `Ok(false)` when someone
/// else holds it.
///
/// # Errors
///
/// Filesystem errors other than "already exists".
fn try_claim(root: &Path, index: usize, worker: &str) -> Result<bool, FarmError> {
    let path = lease_path(root, index);
    let file = match OpenOptions::new().write(true).create_new(true).open(&path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => return Ok(false),
        Err(e) => return Err(e.into()),
    };
    let body = LeaseBody {
        worker: worker.to_string(),
        beats: 0,
    };
    let mut file = file;
    file.write_all(
        serde_json::to_string(&body)
            .expect("lease serializes")
            .as_bytes(),
    )?;
    file.sync_all()?;
    crate::fp!("farm.lease.claim");
    Ok(true)
}

/// Refreshes an owned lease: rewrites its content, updating the mtime.
///
/// # Errors
///
/// `NotFound` (the lease was reclaimed out from under us — ownership is
/// lost) or any other filesystem error.
fn refresh_lease(root: &Path, index: usize, worker: &str, beats: u64) -> Result<(), FarmError> {
    crate::fp!("farm.lease.heartbeat");
    let path = lease_path(root, index);
    // No `create`: if the reclaim rename already took the file away, this
    // open fails with NotFound instead of resurrecting a dead lease.
    let mut file = OpenOptions::new().write(true).truncate(true).open(&path)?;
    let body = LeaseBody {
        worker: worker.to_string(),
        beats,
    };
    file.write_all(
        serde_json::to_string(&body)
            .expect("lease serializes")
            .as_bytes(),
    )?;
    file.flush()?;
    Ok(())
}

/// Age of the lease file (time since last refresh), if it exists.
fn lease_age(root: &Path, index: usize) -> Option<(LeaseBody, Duration)> {
    let path = lease_path(root, index);
    let meta = fs::metadata(&path).ok()?;
    let mtime = meta.modified().ok()?;
    let age = SystemTime::now()
        .duration_since(mtime)
        .unwrap_or(Duration::ZERO);
    let body = fs::read_to_string(&path)
        .ok()
        .and_then(|t| serde_json::from_str(&t).ok())
        .unwrap_or(LeaseBody {
            worker: "<unknown>".to_string(),
            beats: 0,
        });
    Some((body, age))
}

/// Reclaims shard `index`'s lease if it has expired: renames it aside to
/// a unique stale name (atomic takeover — the old owner's next heartbeat
/// fails) and deletes the stale file. Also sweeps stale files left by a
/// crash between the rename and the delete.
///
/// Returns `true` when an expired lease was actually reclaimed.
///
/// # Errors
///
/// Filesystem errors (a concurrently vanishing lease is not an error).
pub fn reclaim_expired(
    root: &Path,
    manifest: &FarmManifest,
    index: usize,
) -> Result<bool, FarmError> {
    sweep_stale(root, index)?;
    let Some((_, age)) = lease_age(root, index) else {
        return Ok(false);
    };
    if age < Duration::from_millis(manifest.lease.expiry_ms) {
        return Ok(false);
    }
    let path = lease_path(root, index);
    let nonce = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    let stale = path.with_file_name(format!(
        "shard-{index:04}.lease.stale-{}-{nonce}",
        std::process::id()
    ));
    match fs::rename(&path, &stale) {
        Ok(()) => {}
        // Someone else reclaimed it first, or the owner released it.
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(false),
        Err(e) => return Err(e.into()),
    }
    crate::fp!("farm.lease.reclaim");
    let _ = fs::remove_file(&stale);
    Ok(true)
}

/// Deletes leftover `.stale-*` rename targets for shard `index` (a crash
/// between rename-aside and delete leaves one; it is inert — the live
/// lease path is already free — but sweeping keeps the directory clean).
fn sweep_stale(root: &Path, index: usize) -> Result<(), FarmError> {
    let dir = root.join("shards");
    let prefix = format!("shard-{index:04}.lease.stale-");
    for entry in fs::read_dir(&dir)? {
        let entry = entry?;
        if entry.file_name().to_string_lossy().starts_with(&prefix) {
            let _ = fs::remove_file(entry.path());
        }
    }
    Ok(())
}

/// Store observer that stops appending once lease ownership is lost: the
/// worker cannot interrupt a running shard, but it can guarantee that at
/// most the records already in flight reach a segment another worker may
/// now own. Merged duplicates are byte-identical by construction and the
/// loader is last-wins, so the overlap window is harmless — fencing just
/// keeps it from growing.
struct FencedStore<'a> {
    store: &'a JsonlStore,
    lost: &'a AtomicBool,
}

impl CampaignObserver for FencedStore<'_> {
    fn experiment_classified(&self, index: usize, record: &ExperimentRecord) {
        if self.lost.load(Ordering::Relaxed) {
            return;
        }
        self.store.experiment_classified(index, record);
    }
}

/// What happened to one claimed shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardOutcome {
    /// Ran (or verified) to completion; done marker written.
    Completed,
    /// Lease ownership was lost mid-run (heartbeat failed); the shard's
    /// durable records survive and the new owner resumes them.
    LeaseLost,
}

/// Summary of one worker invocation.
#[derive(Debug, Clone, Default)]
pub struct WorkerSummary {
    /// Shards this worker completed (done marker written by us).
    pub completed: Vec<usize>,
    /// Shards whose lease we lost mid-run.
    pub lost: Vec<usize>,
}

/// Runs a worker process over the farm at `root` until every shard has a
/// done marker: claim, execute, finalize, repeat, with expired-lease
/// reclaim and exponential back-off on contested sweeps.
///
/// `threads` sizes this worker's thread pool (0 = one per core);
/// `progress` receives one human line per state change (pass
/// `|_| {}` to silence).
///
/// # Errors
///
/// Configuration mismatches ([`FarmError::Manifest`],
/// [`StoreError::HeaderMismatch`] wrapped in [`FarmError::Store`]) and
/// filesystem failures. A lost lease is **not** an error — the shard
/// belongs to someone else now; it is reported in the summary.
pub fn run_worker(
    root: &Path,
    worker_id: &str,
    threads: usize,
    progress: &mut dyn FnMut(String),
) -> Result<WorkerSummary, FarmError> {
    let manifest = read_manifest(root)?;
    let workload = manifest.workload()?;
    let cfg = manifest.campaign_config(threads);
    let prepared = prepare_campaign(&workload, &cfg);
    let computed = StoreHeader::new(workload.name(), &cfg, prepared.golden());
    // The manifest's header is the farm's identity; a worker whose build
    // computes a different campaign must refuse, not write alien records.
    manifest.header.validate_against(&computed)?;

    let mut summary = WorkerSummary::default();
    let mut backoff = Duration::from_millis(manifest.lease.backoff_base_ms);
    loop {
        let mut all_done = true;
        let mut progressed = false;
        for shard in &manifest.shards {
            if done_path(root, shard.index).exists() {
                continue;
            }
            all_done = false;
            if !try_claim(root, shard.index, worker_id)? {
                // Contested: if the holder is dead, free it for the next
                // sweep.
                if reclaim_expired(root, &manifest, shard.index)? {
                    progress(format!(
                        "worker {worker_id}: reclaimed expired lease on shard {}",
                        shard.index
                    ));
                    progressed = true;
                }
                continue;
            }
            progress(format!(
                "worker {worker_id}: claimed shard {} ({}..{})",
                shard.index, shard.start, shard.end
            ));
            match run_claimed_shard(root, &manifest, &prepared, shard, worker_id)? {
                ShardOutcome::Completed => {
                    progress(format!(
                        "worker {worker_id}: shard {} complete",
                        shard.index
                    ));
                    summary.completed.push(shard.index);
                }
                ShardOutcome::LeaseLost => {
                    progress(format!(
                        "worker {worker_id}: lost lease on shard {} (usurped); moving on",
                        shard.index
                    ));
                    summary.lost.push(shard.index);
                }
            }
            progressed = true;
        }
        if all_done {
            return Ok(summary);
        }
        if progressed {
            backoff = Duration::from_millis(manifest.lease.backoff_base_ms);
        } else {
            std::thread::sleep(backoff);
            backoff = (backoff * 2).min(Duration::from_millis(manifest.lease.backoff_max_ms));
        }
    }
}

/// Executes one shard under an owned lease: open/resume the segment,
/// heartbeat in the background, run the shard's faults, then finalize
/// (flush + telemetry sidecar + done marker + lease release).
fn run_claimed_shard(
    root: &Path,
    manifest: &FarmManifest,
    prepared: &crate::campaign::PreparedCampaign<'_>,
    shard: &ShardSpec,
    worker_id: &str,
) -> Result<ShardOutcome, FarmError> {
    let seg = segment_path(root, shard.index);

    // Attach the segment store exactly like the single-process `--resume`
    // path, refusing a segment that holds another shard's record.
    let (store, attached) = JsonlStore::reattach(&seg, &manifest.header)?;
    let mut preloaded = vec![None; manifest.header.faults];
    if let Reattached::Resumed(loaded) = attached {
        for (i, slot) in loaded.records.iter().enumerate() {
            if slot.is_some() && !shard.contains(i) {
                let owner = manifest.shard_of(i).map_or(usize::MAX, |s| s.index);
                return Err(FarmError::ForeignIndex {
                    index: i,
                    shard: shard.index,
                    owner,
                });
            }
        }
        preloaded = loaded.records;
    }
    let already = preloaded.iter().filter(|r| r.is_some()).count();

    let telemetry = Telemetry::new(shard.len());
    telemetry.note_preloaded(already);
    let lost = Arc::new(AtomicBool::new(false));
    let fenced = FencedStore {
        store: &store,
        lost: &lost,
    };
    let mut observers = ObserverSet::new();
    observers.push(&fenced);
    observers.push(&telemetry);

    // Background heartbeat: refresh the lease until told to stop. A
    // refresh failure means the lease was reclaimed (or the disk is
    // gone) — flag ownership lost so the fenced store stops appending.
    let stop = Arc::new(AtomicBool::new(false));
    let heartbeat = {
        let stop = Arc::clone(&stop);
        let lost = Arc::clone(&lost);
        let root = root.to_path_buf();
        let worker = worker_id.to_string();
        let index = shard.index;
        let interval = Duration::from_millis(manifest.lease.heartbeat_ms);
        std::thread::spawn(move || {
            let mut beats = 0u64;
            'outer: loop {
                // Sleep in short slices so shutdown is prompt even under
                // second-scale heartbeats.
                let mut slept = Duration::ZERO;
                while slept < interval {
                    if stop.load(Ordering::Relaxed) {
                        break 'outer;
                    }
                    let slice = Duration::from_millis(10).min(interval - slept);
                    std::thread::sleep(slice);
                    slept += slice;
                }
                beats += 1;
                if refresh_lease(&root, index, &worker, beats).is_err() {
                    lost.store(true, Ordering::Relaxed);
                    break;
                }
            }
        })
    };

    let records = prepared.run_shard(shard.start..shard.end, preloaded, &observers);
    drop(observers);
    stop.store(true, Ordering::Relaxed);
    let _ = heartbeat.join();

    if lost.load(Ordering::Relaxed) {
        // The shard belongs to someone else now. Everything durable in
        // the segment is still valid (byte-identical records); do NOT
        // finalize or release — the new owner does that.
        drop(store);
        return Ok(ShardOutcome::LeaseLost);
    }
    debug_assert!(
        records[shard.start..shard.end].iter().all(Option::is_some),
        "run_shard left a gap in its own range"
    );

    store.finish()?;
    write_telemetry_sidecar(&seg, &telemetry.snapshot())?;
    crate::fp!("farm.segment.finalize");
    // The done marker is the shard's commit point: forced durable so a
    // machine crash cannot leave a marker claiming an unflushed segment.
    let done = done_path(root, shard.index);
    let mut marker = File::create(&done)?;
    marker.write_all(worker_id.as_bytes())?;
    marker.write_all(b"\n")?;
    marker.sync_all()?;
    let _ = fs::remove_file(lease_path(root, shard.index));
    Ok(ShardOutcome::Completed)
}

/// A lease's externally observable state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LeaseState {
    /// No lease file (and no done marker): available.
    Unclaimed,
    /// Held with a fresh heartbeat.
    Held {
        /// Owner's worker id.
        worker: String,
        /// Time since the last heartbeat.
        age: Duration,
    },
    /// Held but stale past expiry: reclaimable.
    Expired {
        /// Last known owner.
        worker: String,
        /// Time since the last heartbeat.
        age: Duration,
    },
}

/// Point-in-time view of one shard.
#[derive(Debug)]
pub struct ShardStatus {
    /// The shard's identity and range.
    pub spec: ShardSpec,
    /// Whether the done marker exists.
    pub done: bool,
    /// Valid records currently in the segment.
    pub records: usize,
    /// Whether the segment currently ends in a torn line.
    pub torn: bool,
    /// The lease state.
    pub lease: LeaseState,
    /// The shard's telemetry sidecar, when one has been written.
    pub telemetry: Option<TelemetrySnapshot>,
}

/// Everything a farm's segments currently hold, assembled and
/// cross-validated: per-shard status plus the (possibly partial) record
/// array.
#[derive(Debug)]
pub struct FarmAssembly {
    /// The validated manifest.
    pub manifest: FarmManifest,
    /// One status per shard, in shard order.
    pub shards: Vec<ShardStatus>,
    /// One slot per fault index, populated from the segments.
    pub records: Vec<Option<ExperimentRecord>>,
}

impl FarmAssembly {
    /// Fault indices with a valid record.
    #[must_use]
    pub fn done(&self) -> usize {
        self.records.iter().filter(|r| r.is_some()).count()
    }

    /// `true` when every fault index has a record.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.records.iter().all(Option::is_some)
    }

    /// Repackages the assembly as a loaded campaign (for the report
    /// plane, which already knows how to tabulate one).
    #[must_use]
    pub fn into_loaded(self) -> LoadedCampaign {
        LoadedCampaign {
            header: self.manifest.header,
            records: self.records,
            torn_tail: false,
        }
    }
}

/// Reads every segment of the farm at `root`, validates each against the
/// manifest (field-by-field header check, range check) and assembles the
/// records. Works mid-flight: missing segments and gaps are fine;
/// *inconsistent* segments are not.
///
/// # Errors
///
/// [`FarmError::Store`] on a header mismatch or corruption,
/// [`FarmError::ForeignIndex`] on a record outside its segment's shard
/// (the shards tile the fault list, so this also refuses every
/// cross-segment duplicate), [`FarmError::Shard`] on a torn done segment.
pub fn assemble_farm(root: &Path) -> Result<FarmAssembly, FarmError> {
    let manifest = read_manifest(root)?;
    let expiry = Duration::from_millis(manifest.lease.expiry_ms);
    let mut records: Vec<Option<ExperimentRecord>> = vec![None; manifest.header.faults];
    let mut shards = Vec::with_capacity(manifest.shards.len());
    for shard in &manifest.shards {
        crate::fp!("farm.merge.segment");
        let done = done_path(root, shard.index).exists();
        let seg = segment_path(root, shard.index);
        let mut count = 0;
        let mut torn = false;
        if seg.exists() && !headerless_remnant(&seg) {
            let loaded = load_store(&seg)?;
            loaded.header.validate_against(&manifest.header)?;
            torn = loaded.torn_tail;
            if done && torn {
                return Err(FarmError::Shard {
                    shard: shard.index,
                    message: "done marker present but the segment ends in a torn line \
                              (finalize is ordered after the flush; this segment did \
                              not come from this farm's protocol)"
                        .to_string(),
                });
            }
            for (i, slot) in loaded.records.into_iter().enumerate() {
                let Some(record) = slot else { continue };
                if !shard.contains(i) {
                    let owner = manifest.shard_of(i).map_or(usize::MAX, |s| s.index);
                    return Err(FarmError::ForeignIndex {
                        index: i,
                        shard: shard.index,
                        owner,
                    });
                }
                records[i] = Some(record);
                count += 1;
            }
        }
        let lease = match lease_age(root, shard.index) {
            None => LeaseState::Unclaimed,
            Some((body, age)) if age >= expiry => LeaseState::Expired {
                worker: body.worker,
                age,
            },
            Some((body, age)) => LeaseState::Held {
                worker: body.worker,
                age,
            },
        };
        let telemetry = fs::read_to_string(telemetry_sidecar_path(&seg))
            .ok()
            .and_then(|t| serde_json::from_str(&t).ok());
        shards.push(ShardStatus {
            spec: *shard,
            done,
            records: count,
            torn,
            lease,
            telemetry,
        });
    }
    Ok(FarmAssembly {
        manifest,
        shards,
        records,
    })
}

/// Outcome of a successful merge.
#[derive(Debug)]
pub struct MergeReport {
    /// Path of the canonical merged store.
    pub path: PathBuf,
    /// Records merged (always the campaign size).
    pub records: usize,
    /// The farm-level telemetry sum, when at least one shard had a
    /// sidecar.
    pub telemetry: Option<TelemetrySnapshot>,
}

/// Folds a completed farm's segments into the canonical merged store at
/// [`merged_path`], written atomically (temp + rename) so a crash
/// mid-merge never leaves a half store at the published path. Shard
/// telemetry sidecars are summed ([`TelemetrySnapshot::accumulate`]) into
/// one farm-level sidecar next to the merged store. Idempotent: re-running
/// re-validates and rewrites.
///
/// # Errors
///
/// [`FarmError::Incomplete`] while any shard is unfinished, plus
/// everything [`assemble_farm`] can return.
pub fn merge_farm(root: &Path) -> Result<MergeReport, FarmError> {
    let assembly = assemble_farm(root)?;
    let missing_shards = assembly.shards.iter().filter(|s| !s.done).count();
    let missing_records = assembly.records.iter().filter(|r| r.is_none()).count();
    if missing_shards > 0 || missing_records > 0 {
        return Err(FarmError::Incomplete {
            missing_shards,
            missing_records,
        });
    }

    let out = merged_path(root);
    let tmp = root.join("merged.jsonl.tmp");
    let store = JsonlStore::create(&tmp, &assembly.manifest.header)?;
    for (i, record) in assembly.records.iter().enumerate() {
        let record = record.as_ref().expect("completeness checked above");
        store.append(i, record)?;
    }
    store.finish()?;
    crate::fp!("farm.merge.publish");
    fs::rename(&tmp, &out)?;

    // Farm-level telemetry: the sum of the per-shard sidecars, not the
    // last writer. A shard without a sidecar just contributes nothing.
    let mut sum: Option<TelemetrySnapshot> = None;
    for status in &assembly.shards {
        let Some(snap) = status.telemetry else {
            continue;
        };
        match &mut sum {
            None => sum = Some(snap),
            Some(acc) => acc.accumulate(&snap),
        }
    }
    if let Some(snap) = &sum {
        write_telemetry_sidecar(&out, snap)?;
    }
    Ok(MergeReport {
        path: out,
        records: assembly.records.len(),
        telemetry: sum,
    })
}

/// One pass of the coordinator's tend loop: sweep every unfinished shard
/// for an expired lease and reclaim it. Returns the number of leases
/// reclaimed.
///
/// # Errors
///
/// Filesystem failures during the sweep.
pub fn tend_once(root: &Path, manifest: &FarmManifest) -> Result<usize, FarmError> {
    let mut reclaimed = 0;
    for shard in &manifest.shards {
        if done_path(root, shard.index).exists() {
            continue;
        }
        if reclaim_expired(root, manifest, shard.index)? {
            reclaimed += 1;
        }
    }
    Ok(reclaimed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::FaultModel;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("bera-farm-unit")
            .join(format!("{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn quick_cfg(faults: usize) -> CampaignConfig {
        CampaignConfig::quick(faults, 11)
    }

    #[test]
    fn init_splits_evenly_and_round_trips() {
        let root = scratch("init");
        let m = init_farm(&root, "alg1", &quick_cfg(10), 3, LeasePolicy::default()).unwrap();
        assert_eq!(m.shards.len(), 3);
        assert_eq!(
            m.shards.iter().map(ShardSpec::len).collect::<Vec<_>>(),
            vec![4, 3, 3]
        );
        let read = read_manifest(&root).unwrap();
        assert_eq!(read, m);
        // Re-init refuses.
        assert!(matches!(
            init_farm(&root, "alg1", &quick_cfg(10), 3, LeasePolicy::default()),
            Err(FarmError::Manifest(_))
        ));
    }

    #[test]
    fn a_manifest_with_a_retired_batch_width_still_loads() {
        // Older manifests repeat six header fields at the top level, and
        // those written before the lockstep batch engine was retired also
        // carry a `batch_width`. None of these is read any more (the
        // identity is the embedded header), so such a farm must still
        // load to the same campaign.
        let root = scratch("batch-width");
        let mut cfg = quick_cfg(10);
        cfg.fault_model = FaultModel::AdjacentDoubleBit;
        cfg.loop_cfg.checkpoint_stride = 3;
        let m = init_farm(&root, "alg1", &cfg, 2, LeasePolicy::default()).unwrap();
        let path = manifest_path(&root);
        let text = fs::read_to_string(&path).unwrap();
        let h = &m.header;
        let legacy = text
            .replacen(
                "\"checkpoint_stride\":",
                &format!(
                    "\"faults\": {},\n  \"seed\": {},\n  \"iterations\": {},\n  \
                     \"parity_cache\": {},\n  \"checkpoint_stride\":",
                    h.faults, h.seed, h.iterations, h.parity_cache
                ),
                1,
            )
            .replacen(
                "\"lease\":",
                &format!(
                    "\"fault_model\": {},\n  \"batch_width\": 32,\n  \"prune\": {},\n  \"lease\":",
                    serde_json::to_string(&h.fault_model).unwrap(),
                    h.prune
                ),
                1,
            );
        for key in [
            "faults",
            "seed",
            "iterations",
            "parity_cache",
            "fault_model",
            "batch_width",
            "prune",
        ] {
            assert!(
                legacy.contains(&format!("\n  \"{key}\": ")),
                "the fixture must carry the retired top-level `{key}`: {legacy}"
            );
        }
        fs::write(&path, legacy).unwrap();
        let read = read_manifest(&root).unwrap();
        assert_eq!(read, m);
        assert_eq!(
            format!("{:?}", read.campaign_config(cfg.threads)),
            format!("{cfg:?}"),
            "the manifest rebuilds the configuration it was initialized with"
        );
    }

    #[test]
    fn shard_count_clamps_to_faults() {
        let root = scratch("clamp");
        let m = init_farm(&root, "alg1", &quick_cfg(2), 8, LeasePolicy::default()).unwrap();
        assert_eq!(m.shards.len(), 2);
    }

    #[test]
    fn lease_policy_validates() {
        assert!(LeasePolicy {
            heartbeat_ms: 100,
            expiry_ms: 150,
            ..LeasePolicy::default()
        }
        .validate()
        .is_err());
        assert!(LeasePolicy::default().validate().is_ok());
    }

    #[test]
    fn claim_is_exclusive_and_reclaim_needs_expiry() {
        let root = scratch("claim");
        let m = init_farm(
            &root,
            "alg1",
            &quick_cfg(4),
            2,
            LeasePolicy {
                heartbeat_ms: 50,
                expiry_ms: 60_000,
                ..LeasePolicy::default()
            },
        )
        .unwrap();
        assert!(try_claim(&root, 0, "a").unwrap());
        assert!(!try_claim(&root, 0, "b").unwrap());
        // Fresh lease: not reclaimable.
        assert!(!reclaim_expired(&root, &m, 0).unwrap());
        assert!(!try_claim(&root, 0, "b").unwrap());
    }

    #[test]
    fn expired_lease_is_reclaimed_and_fences_the_old_owner() {
        let root = scratch("expire");
        let m = init_farm(
            &root,
            "alg1",
            &quick_cfg(4),
            2,
            LeasePolicy {
                heartbeat_ms: 10,
                expiry_ms: 20,
                backoff_base_ms: 5,
                backoff_max_ms: 20,
            },
        )
        .unwrap();
        assert!(try_claim(&root, 0, "dead").unwrap());
        std::thread::sleep(Duration::from_millis(40));
        assert!(reclaim_expired(&root, &m, 0).unwrap());
        // Old owner's refresh now fails (NotFound): fenced.
        assert!(refresh_lease(&root, 0, "dead", 1).is_err());
        // And the shard is claimable again.
        assert!(try_claim(&root, 0, "heir").unwrap());
    }

    #[test]
    fn single_worker_farm_matches_single_process_run() {
        let root = scratch("identity");
        let cfg = quick_cfg(12);
        let workload = Workload::algorithm_one();
        init_farm(&root, "alg1", &cfg, 3, LeasePolicy::default()).unwrap();
        let summary = run_worker(&root, "w0", 1, &mut |_| {}).unwrap();
        assert_eq!(summary.completed, vec![0, 1, 2]);
        let report = merge_farm(&root).unwrap();
        assert_eq!(report.records, 12);

        // The merged store must hold byte-identical records to a
        // single-process run of the same campaign.
        let merged = load_store(&report.path).unwrap();
        let single = crate::campaign::run_scifi_campaign(&workload, &cfg);
        let merged_records: Vec<_> = merged.records.into_iter().flatten().collect();
        assert_eq!(merged_records.len(), single.records.len());
        for (i, (a, b)) in merged_records.iter().zip(&single.records).enumerate() {
            assert_eq!(
                serde_json::to_string(a).unwrap(),
                serde_json::to_string(b).unwrap(),
                "record {i} differs between farm and single-process run"
            );
        }
        // Farm-level telemetry sums the shard totals.
        let snap = report.telemetry.expect("shards wrote sidecars");
        assert_eq!(snap.total, 12);
        assert_eq!(snap.done(), 12);
    }

    #[test]
    fn merge_refuses_incomplete_and_duplicate() {
        let root = scratch("merge-guards");
        let cfg = quick_cfg(6);
        let m = init_farm(&root, "alg1", &cfg, 2, LeasePolicy::default()).unwrap();
        assert!(matches!(
            merge_farm(&root),
            Err(FarmError::Incomplete { .. })
        ));
        run_worker(&root, "w0", 1, &mut |_| {}).unwrap();
        // Forge a duplicate: append one of shard 0's records to shard 1's
        // segment. The shards tile the fault list, so the range check
        // refuses it before any record could be seen twice.
        let loaded = load_store(&segment_path(&root, 0)).unwrap();
        let record = loaded.records[0].clone().unwrap();
        let seg1 = segment_path(&root, 1);
        let mut file = OpenOptions::new().append(true).open(&seg1).unwrap();
        let line = crate::store::encode_record(0, &record);
        file.write_all(line.as_bytes()).unwrap();
        file.write_all(b"\n").unwrap();
        drop(file);
        match merge_farm(&root) {
            Err(FarmError::ForeignIndex {
                index: 0,
                shard: 1,
                owner: 0,
            }) => {}
            other => panic!("expected ForeignIndex, got {other:?}"),
        }
        let _ = m;
    }

    #[test]
    fn a_worker_refuses_to_resume_a_segment_holding_a_foreign_record() {
        // Shard 1's segment gains a record of shard 0's and is reopened
        // for work: the worker resuming it must refuse before running,
        // naming the index, the shard and the owner.
        let root = scratch("worker-foreign");
        init_farm(&root, "alg1", &quick_cfg(6), 2, LeasePolicy::default()).unwrap();
        run_worker(&root, "w0", 1, &mut |_| {}).unwrap();
        let loaded = load_store(&segment_path(&root, 0)).unwrap();
        let record = loaded.records[0].clone().unwrap();
        let mut file = OpenOptions::new()
            .append(true)
            .open(segment_path(&root, 1))
            .unwrap();
        let line = crate::store::encode_record(0, &record);
        file.write_all(line.as_bytes()).unwrap();
        file.write_all(b"\n").unwrap();
        drop(file);
        fs::remove_file(done_path(&root, 1)).unwrap();
        match run_worker(&root, "w1", 1, &mut |_| {}) {
            Err(FarmError::ForeignIndex {
                index: 0,
                shard: 1,
                owner: 0,
            }) => {}
            other => panic!("expected ForeignIndex, got {other:?}"),
        }
    }
}
