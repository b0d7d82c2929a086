//! Streaming JSONL result store: the persisted, re-analyzable campaign
//! database.
//!
//! A store file is self-describing. Line 1 is a [`StoreHeader`] carrying
//! the campaign configuration (workload, fault count, seed, fault model,
//! loop shape) plus the golden-run digest and logged golden vectors; every
//! following line is one [`crate::experiment::ExperimentRecord`] wrapped
//! with its fault-list index and an FNV-64 checksum of the serialized
//! body. Records stream out as experiments classify (the store is a
//! [`CampaignObserver`]), so a crash at fault 9 000 of 9 290 loses at most
//! the line being written — and a torn final line is detected by parse or
//! checksum failure and simply re-run on resume.
//!
//! The header is the one place a campaign's identity is written down.
//! [`StoreHeader::new`] maps a [`CampaignConfig`] to it and
//! [`StoreHeader::campaign_config`] maps it back; the farm manifest embeds
//! it rather than repeating its fields ([`crate::farm`]).
//!
//! Resume contract: [`JsonlStore::reattach`] starts a missing store or a
//! headerless remnant afresh and hands an existing one to
//! [`JsonlStore::open_resume`], which validates the stored header
//! against the header of the *current* configuration
//! ([`StoreHeader::validate_against`], over every serialized field) and
//! refuses to mix campaigns that differ in workload, fault count, seed,
//! fault model, loop shape or golden run. The checkpoint stride is
//! deliberately *not* in the header, so it is not validated:
//! checkpointing is a pure optimisation with bit-identical outcomes
//! (proven by `tests/checkpoint_equivalence.rs`), so a resume may use a
//! different stride than the interrupted run.
//!
//! Non-finite floats have no JSON representation (the serializer emits
//! `null`), so `max_deviation` — which is `+inf` when a corrupted output
//! is non-finite — additionally travels as its IEEE-754 bit pattern and is
//! restored exactly on read.

use crate::campaign::{CampaignConfig, CampaignResult};
use crate::experiment::{ExperimentRecord, FaultModel, GoldenRun};
use crate::observer::{CampaignObserver, TelemetrySnapshot};
use bera_tcpu::Fnv64;
use serde::{Deserialize, Serialize, Value};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// First bytes of every store file, guarding against feeding an arbitrary
/// JSON file to the resume path.
pub const STORE_MAGIC: &str = "bera-campaign-store";

/// Wire-format version; bumped on incompatible layout changes.
/// Version 2 added the `harness_error` record field (supervised execution
/// quarantine); version 3 added the `provenance` record field and the
/// `prune` header field (def/use fault-space pruning); version 4 added
/// the `vis` header field (EDM-visibility analytic classification), which
/// version 5 dropped again (the visibility units are always traced).
/// Older stores are refused on resume rather than misread, since the
/// vendored deserializer has no field defaults.
pub const STORE_VERSION: u32 = 5;

/// Everything needed to validate and re-interpret a stored campaign:
/// the identity of the run plus the golden vectors records are classified
/// against.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoreHeader {
    /// Always [`STORE_MAGIC`].
    pub magic: String,
    /// Always [`STORE_VERSION`] for files this build writes.
    pub version: u32,
    /// Workload name ("Algorithm I" / "Algorithm II" / ...).
    pub workload: String,
    /// Campaign size (number of faults in the sampled list).
    pub faults: usize,
    /// Fault-list RNG seed.
    pub seed: u64,
    /// The campaign's fault model.
    pub fault_model: FaultModel,
    /// Whether def/use fault-space pruning was enabled. Validated on
    /// resume: pruned and unpruned records are outcome-equivalent, but
    /// their provenance tags differ, so mixing the two in one store would
    /// make the provenance split meaningless.
    pub prune: bool,
    /// Closed-loop iterations per experiment.
    pub iterations: usize,
    /// Whether the data cache ran parity-protected.
    pub parity_cache: bool,
    /// Scannable state elements (fault location population).
    pub total_locations: usize,
    /// Dynamic instructions of the golden run (fault time population).
    pub total_instructions: u64,
    /// Digest of the golden run (outputs, speeds, end state); see
    /// [`GoldenRun::digest`].
    pub golden_digest: u64,
    /// Golden output bit patterns, one per iteration.
    pub golden_outputs: Vec<u32>,
    /// Golden plant speed trajectory (rpm).
    pub golden_speeds: Vec<f64>,
}

impl StoreHeader {
    /// Builds the header describing `cfg` run against `golden`.
    #[must_use]
    pub fn new(workload: &str, cfg: &CampaignConfig, golden: &GoldenRun) -> Self {
        StoreHeader {
            magic: STORE_MAGIC.to_string(),
            version: STORE_VERSION,
            workload: workload.to_string(),
            faults: cfg.faults,
            seed: cfg.seed,
            fault_model: cfg.fault_model,
            prune: cfg.prune,
            iterations: cfg.loop_cfg.iterations,
            parity_cache: cfg.loop_cfg.parity_cache,
            total_locations: bera_tcpu::scan::catalog().len(),
            total_instructions: golden.total_instructions,
            golden_digest: golden.digest(),
            golden_outputs: golden.outputs.clone(),
            golden_speeds: golden.speeds.clone(),
        }
    }

    /// The campaign configuration this header describes: the inverse of
    /// [`StoreHeader::new`] on the campaign's identity. Execution knobs the
    /// header does not carry (checkpoint stride, threads, supervision,
    /// paranoid audits) take [`CampaignConfig::paper`]'s values, for the
    /// caller to set.
    #[must_use]
    pub fn campaign_config(&self) -> CampaignConfig {
        let mut cfg = CampaignConfig::paper(self.faults, self.seed);
        cfg.fault_model = self.fault_model;
        cfg.prune = self.prune;
        cfg.loop_cfg.iterations = self.iterations;
        cfg.loop_cfg.parity_cache = self.parity_cache;
        cfg
    }

    /// Checks that a stored header describes the same campaign as
    /// `current` (the header freshly computed from the configuration a
    /// resume is about to run). Every serialized field is compared, in
    /// declaration order, so a field added to the header is validated
    /// without being named here.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::HeaderMismatch`] naming the first differing
    /// field — resuming must never silently mix two campaigns.
    pub fn validate_against(&self, current: &StoreHeader) -> Result<(), StoreError> {
        let (Value::Map(stored), Value::Map(now)) = (self.to_value(), current.to_value()) else {
            unreachable!("a struct serializes as a map")
        };
        match stored.into_iter().zip(now).find(|((_, s), (_, c))| s != c) {
            None => Ok(()),
            Some(((field, stored), (_, current))) => Err(StoreError::HeaderMismatch {
                field,
                stored: to_json(&stored),
                current: to_json(&current),
            }),
        }
    }
}

/// Errors from writing, reading or validating a store file.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying filesystem error.
    Io(std::io::Error),
    /// A line failed to parse or failed its checksum. `line` is 1-based
    /// (line 1 is the header).
    Corrupt {
        /// 1-based line number in the store file.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// The stored header names a different campaign than the one being
    /// resumed or reported on.
    HeaderMismatch {
        /// The first differing header field.
        field: String,
        /// Value found in the store file.
        stored: String,
        /// Value of the campaign being run now.
        current: String,
    },
    /// A completed-campaign operation (reporting) found gaps.
    Incomplete {
        /// Fault indices with no valid record.
        missing: usize,
        /// Campaign size from the header.
        total: usize,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::Corrupt { line, message } => {
                write!(f, "store line {line} is corrupt: {message}")
            }
            StoreError::HeaderMismatch {
                field,
                stored,
                current,
            } => write!(
                f,
                "stored campaign does not match the current configuration: \
                 `{field}` is {stored} in the store but {current} now \
                 (refusing to mix campaigns; delete the file or fix the flags)"
            ),
            StoreError::Incomplete { missing, total } => write!(
                f,
                "campaign incomplete: {missing} of {total} records missing \
                 (resume it with --resume, or report with --partial)"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// One record line's payload: the index ties the record to the fault list,
/// and the bit pattern restores `max_deviation` exactly even when it is
/// non-finite (JSON would flatten it to `null`).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct RecordBody {
    index: u64,
    max_deviation_bits: u64,
    record: ExperimentRecord,
}

/// One full record line: checksum plus body.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct RecordLine {
    crc: String,
    body: RecordBody,
}

fn fnv64_hex(bytes: &[u8]) -> String {
    let mut h = Fnv64::new();
    h.write_bytes(bytes);
    format!("{:016x}", h.finish())
}

fn to_json<T: Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("vendored serde_json cannot fail")
}

/// Encodes one record as a store line (no trailing newline).
#[must_use]
pub fn encode_record(index: usize, record: &ExperimentRecord) -> String {
    let body = RecordBody {
        index: index as u64,
        max_deviation_bits: record.max_deviation.to_bits(),
        record: record.clone(),
    };
    let crc = fnv64_hex(to_json(&body).as_bytes());
    to_json(&RecordLine { crc, body })
}

/// Decodes one store line back into `(index, record)`, verifying the
/// checksum and restoring the exact `max_deviation` bit pattern.
///
/// # Errors
///
/// Returns a description of the parse failure or checksum mismatch; a
/// truncated (torn) line always fails here rather than half-parsing.
pub fn decode_record(line: &str) -> Result<(usize, ExperimentRecord), String> {
    let parsed: RecordLine = serde_json::from_str(line).map_err(|e| e.to_string())?;
    let crc = fnv64_hex(to_json(&parsed.body).as_bytes());
    if crc != parsed.crc {
        return Err(format!(
            "checksum mismatch (line says {}, body hashes to {crc})",
            parsed.crc
        ));
    }
    let RecordBody {
        index,
        max_deviation_bits,
        mut record,
    } = parsed.body;
    record.max_deviation = f64::from_bits(max_deviation_bits);
    let index = usize::try_from(index).map_err(|_| format!("index {index} out of range"))?;
    Ok((index, record))
}

/// A fully parsed store file.
#[derive(Debug)]
pub struct LoadedCampaign {
    /// The validated header (magic and version already checked).
    pub header: StoreHeader,
    /// One slot per fault index; `None` where no valid record exists yet.
    pub records: Vec<Option<ExperimentRecord>>,
    /// Whether the final line was torn (truncated mid-write) and dropped.
    pub torn_tail: bool,
}

impl LoadedCampaign {
    /// Number of fault indices with a valid record.
    #[must_use]
    pub fn done(&self) -> usize {
        self.records.iter().filter(|r| r.is_some()).count()
    }

    /// `true` when every fault index has a record.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.records.iter().all(Option::is_some)
    }

    /// Reassembles the [`CampaignResult`] this store was streamed from.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Incomplete`] if any record is missing.
    pub fn into_result(self) -> Result<CampaignResult, StoreError> {
        let total = self.records.len();
        let missing = self.records.iter().filter(|r| r.is_none()).count();
        if missing > 0 {
            return Err(StoreError::Incomplete { missing, total });
        }
        Ok(self.into_partial_result())
    }

    /// Reassembles a result from however many records are present (for
    /// auditing a still-running or interrupted campaign). Record order
    /// follows the fault list, with gaps skipped.
    #[must_use]
    pub fn into_partial_result(self) -> CampaignResult {
        CampaignResult {
            workload: self.header.workload,
            seed: self.header.seed,
            total_locations: self.header.total_locations,
            total_instructions: self.header.total_instructions,
            golden_outputs: self.header.golden_outputs,
            golden_speeds: self.header.golden_speeds,
            records: self.records.into_iter().flatten().collect(),
        }
    }
}

/// Reads and verifies a store file: header line, then every record line.
///
/// A torn final line (crash mid-write) is tolerated and reported via
/// [`LoadedCampaign::torn_tail`]; its index is simply absent from
/// `records`. Corruption anywhere else is an error. When the same index
/// appears on several valid lines (e.g. a resume raced a flush), the last
/// occurrence wins.
///
/// # Errors
///
/// [`StoreError::Io`] on read failure, [`StoreError::Corrupt`] on a bad
/// header or a bad non-final line, [`StoreError::HeaderMismatch`] when the
/// magic or version is wrong.
pub fn load_store(path: &Path) -> Result<LoadedCampaign, StoreError> {
    load(path).map(|(loaded, _)| loaded)
}

/// [`load_store`], with the length of the file up to and including its
/// last newline: what a torn final line is cut back to.
fn load(path: &Path) -> Result<(LoadedCampaign, u64), StoreError> {
    let bytes = std::fs::read(path)?;
    let intact = bytes
        .iter()
        .rposition(|&b| b == b'\n')
        .map_or(0, |pos| pos + 1);
    let ends_with_newline = bytes.last() == Some(&b'\n');
    let chunks: Vec<&[u8]> = bytes
        .split(|&b| b == b'\n')
        .filter(|c| !c.is_empty())
        .collect();
    let Some(&header_bytes) = chunks.first() else {
        return Err(StoreError::Corrupt {
            line: 1,
            message: "empty file (no header line)".to_string(),
        });
    };
    let header_text = std::str::from_utf8(header_bytes).map_err(|_| StoreError::Corrupt {
        line: 1,
        message: "header is not UTF-8".to_string(),
    })?;
    let header: StoreHeader =
        serde_json::from_str(header_text).map_err(|e| StoreError::Corrupt {
            line: 1,
            message: format!("header does not parse: {e}"),
        })?;
    if header.magic != STORE_MAGIC {
        return Err(StoreError::HeaderMismatch {
            field: "magic".to_string(),
            stored: header.magic.clone(),
            current: STORE_MAGIC.to_string(),
        });
    }
    if header.version != STORE_VERSION {
        return Err(StoreError::HeaderMismatch {
            field: "version".to_string(),
            stored: header.version.to_string(),
            current: STORE_VERSION.to_string(),
        });
    }

    // The fault count sizes the record slots; a count no allocation can
    // hold is a corrupt header, not a reason to panic.
    let mut records: Vec<Option<ExperimentRecord>> = Vec::new();
    records
        .try_reserve_exact(header.faults)
        .map_err(|e| StoreError::Corrupt {
            line: 1,
            message: format!("{} faults: {e}", header.faults),
        })?;
    records.resize_with(header.faults, || None);
    let mut torn_tail = false;
    for (i, chunk) in chunks.iter().enumerate().skip(1) {
        let line_no = i + 1;
        let is_final = i + 1 == chunks.len();
        let decoded = std::str::from_utf8(chunk)
            .map_err(|_| "line is not UTF-8".to_string())
            .and_then(decode_record);
        match decoded {
            Ok((index, record)) => {
                let slot = records.get_mut(index).ok_or(StoreError::Corrupt {
                    line: line_no,
                    message: format!(
                        "fault index {index} out of range for a {}-fault campaign",
                        header.faults
                    ),
                })?;
                *slot = Some(record);
            }
            // Only an unterminated final line can legitimately be torn —
            // appends are newline-terminated and flushed under one lock.
            Err(_) if is_final && !ends_with_newline => {
                torn_tail = true;
            }
            Err(message) => {
                return Err(StoreError::Corrupt {
                    line: line_no,
                    message,
                });
            }
        }
    }
    Ok((
        LoadedCampaign {
            header,
            records,
            torn_tail,
        },
        intact as u64,
    ))
}

struct StoreInner {
    writer: BufWriter<File>,
    /// First append failure, surfaced by [`JsonlStore::finish`]. Appends
    /// run inside observer callbacks on worker threads, which have nowhere
    /// to return an error to.
    deferred_error: Option<std::io::Error>,
}

/// What [`JsonlStore::reattach`] found at the store's path.
#[derive(Debug)]
pub enum Reattached {
    /// No file: the store was created.
    Created,
    /// A headerless remnant of a crash before the header was durable: the
    /// store was created afresh over it.
    Remnant,
    /// An existing store, validated and resumed; see
    /// [`LoadedCampaign::torn_tail`].
    Resumed(LoadedCampaign),
}

/// The streaming sink: an open store file accepting record appends.
///
/// Implements [`CampaignObserver`], so threading it through a campaign
/// persists every record the moment it is classified. Appends are
/// serialized by a mutex and flushed line-at-a-time, so a crash leaves at
/// most one torn (detectable) final line.
pub struct JsonlStore {
    inner: Mutex<StoreInner>,
}

impl JsonlStore {
    /// Creates (truncating) a store file and writes the header line.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn create(path: &Path, header: &StoreHeader) -> Result<Self, StoreError> {
        let file = File::create(path)?;
        crate::fp!("store.create.before-header");
        let mut writer = BufWriter::new(file);
        writer.write_all(to_json(header).as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
        crate::fp!("store.create.after-header");
        // The header is the store's identity: force it to stable storage
        // before any record references it, so a machine crash cannot leave
        // records under a header that never made it to disk. Records
        // themselves rely on line-at-a-time flushes plus checksum
        // detection — a torn tail is re-run on resume by design.
        writer.get_ref().sync_all()?;
        Ok(JsonlStore {
            inner: Mutex::new(StoreInner {
                writer,
                deferred_error: None,
            }),
        })
    }

    /// Opens an existing store for resumption: loads and verifies it,
    /// validates its header against `current`, and returns the store (now
    /// in append mode) together with the already-completed records.
    ///
    /// # Errors
    ///
    /// Everything [`load_store`] can return, plus
    /// [`StoreError::HeaderMismatch`] when the file belongs to a different
    /// campaign than `current` describes.
    pub fn open_resume(
        path: &Path,
        current: &StoreHeader,
    ) -> Result<(Self, LoadedCampaign), StoreError> {
        let (loaded, intact) = load(path)?;
        loaded.header.validate_against(current)?;
        if loaded.torn_tail {
            // Cut the partial final line so new appends start on a fresh
            // line instead of concatenating onto the torn one.
            crate::fp!("store.resume.before-truncate");
            let file = OpenOptions::new().write(true).open(path)?;
            file.set_len(intact)?;
            file.sync_all()?;
            crate::fp!("store.resume.after-truncate");
        }
        let writer = BufWriter::new(OpenOptions::new().append(true).open(path)?);
        Ok((
            JsonlStore {
                inner: Mutex::new(StoreInner {
                    writer,
                    deferred_error: None,
                }),
            },
            loaded,
        ))
    }

    /// Attaches a resumed campaign to the store at `path`: a missing file
    /// is created, a [`headerless_remnant`] (provably no records) is
    /// created afresh over, and an existing store goes through
    /// [`open_resume`](Self::open_resume). The second value says which,
    /// with the loaded records (and whether a torn tail was cut) for an
    /// existing store.
    ///
    /// # Errors
    ///
    /// Everything [`create`](Self::create) and
    /// [`open_resume`](Self::open_resume) can return.
    pub fn reattach(path: &Path, header: &StoreHeader) -> Result<(Self, Reattached), StoreError> {
        if !path.exists() {
            return Ok((Self::create(path, header)?, Reattached::Created));
        }
        if headerless_remnant(path) {
            return Ok((Self::create(path, header)?, Reattached::Remnant));
        }
        let (store, loaded) = Self::open_resume(path, header)?;
        Ok((store, Reattached::Resumed(loaded)))
    }

    /// Writes and flushes one record line; the single append path shared
    /// by [`JsonlStore::append`] and the observer callback, so the
    /// failpoint instrumentation covers both.
    fn write_line(inner: &mut StoreInner, line: &str) -> std::io::Result<()> {
        crate::fp!("store.append.before-write");
        inner.writer.write_all(line.as_bytes())?;
        inner.writer.write_all(b"\n")?;
        crate::fp!("store.append.after-write");
        inner.writer.flush()?;
        crate::fp!("store.append.after-flush");
        Ok(())
    }

    /// Appends one record line and flushes it.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn append(&self, index: usize, record: &ExperimentRecord) -> Result<(), StoreError> {
        let line = encode_record(index, record);
        let mut inner = self.inner.lock().expect("store lock poisoned");
        Self::write_line(&mut inner, &line)?;
        Ok(())
    }

    /// Flushes and closes the store, surfacing the first append error that
    /// occurred inside observer callbacks (if any).
    ///
    /// # Errors
    ///
    /// The deferred append error, or a final flush failure.
    pub fn finish(self) -> Result<(), StoreError> {
        let mut inner = self.inner.into_inner().expect("store lock poisoned");
        if let Some(e) = inner.deferred_error.take() {
            return Err(StoreError::Io(e));
        }
        inner.writer.flush()?;
        Ok(())
    }
}

/// The conventional path of a store's telemetry sidecar:
/// `<store>.telemetry.json` next to the store file.
#[must_use]
pub fn telemetry_sidecar_path(store: &Path) -> PathBuf {
    let mut name = store
        .file_name()
        .map_or_else(Default::default, std::ffi::OsStr::to_os_string);
    name.push(".telemetry.json");
    store.with_file_name(name)
}

/// Writes the telemetry sidecar for the store at `store` atomically: the
/// snapshot is serialized to a `.tmp` sibling and renamed into place, so
/// a crash mid-write can never leave a truncated or half-JSON sidecar at
/// the published path — readers (`report`) see the old sidecar, the new
/// one, or none.
///
/// # Errors
///
/// Propagates filesystem errors; the temporary file is cleaned up on a
/// failed rename.
pub fn write_telemetry_sidecar(
    store: &Path,
    snapshot: &TelemetrySnapshot,
) -> Result<PathBuf, StoreError> {
    let side = telemetry_sidecar_path(store);
    let mut tmp_name = side
        .file_name()
        .map_or_else(Default::default, std::ffi::OsStr::to_os_string);
    tmp_name.push(".tmp");
    let tmp = side.with_file_name(tmp_name);
    crate::fp!("sidecar.before-write");
    let json = serde_json::to_string_pretty(snapshot).map_err(|e| StoreError::Corrupt {
        line: 0,
        message: format!("telemetry snapshot does not serialize: {e}"),
    })?;
    let write_tmp = || -> std::io::Result<()> {
        let mut file = File::create(&tmp)?;
        file.write_all(json.as_bytes())?;
        file.write_all(b"\n")?;
        file.sync_all()?;
        crate::fp!("sidecar.before-rename");
        std::fs::rename(&tmp, &side)
    };
    if let Err(e) = write_tmp() {
        let _ = std::fs::remove_file(&tmp);
        return Err(StoreError::Io(e));
    }
    Ok(side)
}

/// Recognizes the disk state left by a crash between store creation and a
/// durable header: an empty file, or a file containing no newline at all
/// (a torn header write — a valid store always begins with a
/// newline-terminated header line, so such a file provably holds no
/// records). A resume can safely recreate such a remnant from scratch;
/// anything else that fails to load is genuine corruption and must be
/// refused, never overwritten.
/// The file is read a chunk at a time, up to its first newline.
#[must_use]
pub fn headerless_remnant(path: &Path) -> bool {
    let Ok(mut file) = File::open(path) else {
        return false;
    };
    let mut chunk = [0; REMNANT_CHUNK];
    loop {
        match file.read(&mut chunk) {
            Ok(0) => return true,
            Ok(n) if chunk[..n].contains(&b'\n') => return false,
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
}

/// The bytes [`headerless_remnant`] reads at a time.
const REMNANT_CHUNK: usize = 8192;

impl CampaignObserver for JsonlStore {
    fn experiment_classified(&self, index: usize, record: &ExperimentRecord) {
        let line = encode_record(index, record);
        let mut inner = self.inner.lock().expect("store lock poisoned");
        if inner.deferred_error.is_some() {
            return; // already failing; don't spam
        }
        if let Err(e) = Self::write_line(&mut inner, &line) {
            eprintln!("warning: result store append failed: {e}");
            inner.deferred_error = Some(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{prepare_campaign, CampaignConfig};
    use crate::observer::NullObserver;
    use crate::workload::Workload;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn temp_path(tag: &str) -> PathBuf {
        static UNIQUE: AtomicU32 = AtomicU32::new(0);
        let n = UNIQUE.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "bera-store-test-{}-{tag}-{n}.jsonl",
            std::process::id()
        ))
    }

    #[test]
    fn record_line_roundtrips_exactly() {
        let w = Workload::algorithm_one();
        let cfg = CampaignConfig::quick(6, 2);
        let prepared = prepare_campaign(&w, &cfg);
        let result = prepared.run(&NullObserver);
        for (i, rec) in result.records.iter().enumerate() {
            let line = encode_record(i, rec);
            let (index, back) = decode_record(&line).expect("valid line decodes");
            assert_eq!(index, i);
            assert_eq!(
                serde_json::to_string(&back).unwrap(),
                serde_json::to_string(rec).unwrap()
            );
            assert_eq!(back.max_deviation.to_bits(), rec.max_deviation.to_bits());
        }
    }

    #[test]
    fn streamed_store_reloads_as_the_same_result() {
        let w = Workload::algorithm_one();
        let cfg = CampaignConfig::quick(12, 4);
        let path = temp_path("stream");
        let prepared = prepare_campaign(&w, &cfg);
        let header = StoreHeader::new(w.name(), &cfg, prepared.golden());
        let store = JsonlStore::create(&path, &header).unwrap();
        let result = prepared.run(&store);
        store.finish().unwrap();

        let loaded = load_store(&path).unwrap();
        assert!(!loaded.torn_tail);
        assert!(loaded.is_complete());
        assert_eq!(loaded.done(), 12);
        let reloaded = loaded.into_result().unwrap();
        assert_eq!(
            serde_json::to_string(&reloaded).unwrap(),
            serde_json::to_string(&result).unwrap(),
            "the store must reconstruct the in-memory result bit-for-bit"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_final_line_is_detected_not_half_parsed() {
        let w = Workload::algorithm_one();
        let cfg = CampaignConfig::quick(5, 9);
        let path = temp_path("torn");
        let prepared = prepare_campaign(&w, &cfg);
        let header = StoreHeader::new(w.name(), &cfg, prepared.golden());
        let store = JsonlStore::create(&path, &header).unwrap();
        let _ = prepared.run(&store);
        store.finish().unwrap();

        let full = std::fs::read_to_string(&path).unwrap();
        // Cut the file mid-way through the final record line.
        let cut = full.trim_end().len() - 7;
        std::fs::write(&path, &full[..cut]).unwrap();
        let loaded = load_store(&path).unwrap();
        assert!(
            loaded.torn_tail,
            "truncated final line must register as torn"
        );
        assert_eq!(loaded.done(), 4, "the torn record is absent, not invented");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_middle_line_is_an_error() {
        let w = Workload::algorithm_one();
        let cfg = CampaignConfig::quick(5, 9);
        let path = temp_path("corrupt");
        let prepared = prepare_campaign(&w, &cfg);
        let header = StoreHeader::new(w.name(), &cfg, prepared.golden());
        let store = JsonlStore::create(&path, &header).unwrap();
        let _ = prepared.run(&store);
        store.finish().unwrap();

        let full = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<&str> = full.lines().collect();
        let tampered = lines[2].replace("\"crc\":\"", "\"crc\":\"0");
        lines[2] = &tampered;
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        match load_store(&path) {
            Err(StoreError::Corrupt { line, .. }) => assert_eq!(line, 3),
            other => panic!("expected a corrupt-line error, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sidecar_path_follows_the_store_name() {
        let p = telemetry_sidecar_path(Path::new("/tmp/run/camp.jsonl"));
        assert_eq!(p, PathBuf::from("/tmp/run/camp.jsonl.telemetry.json"));
    }

    #[test]
    fn sidecar_write_is_atomic_and_reparses() {
        let store_path = temp_path("sidecar");
        let snap = crate::observer::Telemetry::new(7).snapshot();
        let side = write_telemetry_sidecar(&store_path, &snap).expect("sidecar write");
        assert_eq!(side, telemetry_sidecar_path(&store_path));
        let json = std::fs::read_to_string(&side).expect("sidecar readable");
        let back: TelemetrySnapshot = serde_json::from_str(&json).expect("sidecar parses");
        assert_eq!(back.total, 7);
        let mut tmp_name = side.file_name().unwrap().to_os_string();
        tmp_name.push(".tmp");
        assert!(
            !side.with_file_name(tmp_name).exists(),
            "temporary file must not survive a successful rename"
        );
        std::fs::remove_file(&side).ok();
    }

    #[test]
    fn headerless_remnants_are_recognized_and_real_stores_are_not() {
        let path = temp_path("remnant");
        std::fs::write(&path, b"").unwrap();
        assert!(headerless_remnant(&path), "empty file is a remnant");
        std::fs::write(&path, b"{\"magic\":\"bera-camp").unwrap();
        assert!(headerless_remnant(&path), "torn header is a remnant");
        std::fs::write(&path, b"{\"hello\":1}\nmore\n").unwrap();
        assert!(
            !headerless_remnant(&path),
            "newline-terminated content is never recreated over"
        );
        std::fs::remove_file(&path).ok();
        assert!(
            !headerless_remnant(&path),
            "a missing file is not a remnant"
        );
    }

    #[test]
    fn remnants_longer_than_a_read_chunk_are_told_apart() {
        let path = temp_path("remnant-chunks");
        std::fs::write(&path, vec![b'x'; 2 * REMNANT_CHUNK + 17]).unwrap();
        assert!(
            headerless_remnant(&path),
            "no newline in several chunks is a remnant"
        );
        let mut late = vec![b'x'; REMNANT_CHUNK + 5];
        late.extend_from_slice(b"\nmore\n");
        std::fs::write(&path, late).unwrap();
        assert!(
            !headerless_remnant(&path),
            "a first newline past the first chunk is found"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn non_campaign_file_is_rejected() {
        let path = temp_path("garbage");
        std::fs::write(&path, "{\"hello\":1}\n").unwrap();
        assert!(matches!(
            load_store(&path),
            Err(StoreError::Corrupt { line: 1, .. })
        ));
        std::fs::remove_file(&path).ok();
    }
}
