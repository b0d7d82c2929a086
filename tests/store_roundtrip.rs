//! Property tests for the JSONL result-store wire format.
//!
//! Three claims are exercised over randomized [`ExperimentRecord`]s:
//!
//! 1. **Round-trip exactness** — `decode(encode(r)) == r` for every field,
//!    including non-finite `max_deviation` values (`±inf`, `NaN`), which
//!    have no JSON number representation and travel as IEEE-754 bits;
//! 2. **No half-parses** — every proper prefix of a record line (a torn
//!    final line after a crash mid-write) fails to decode; a reader can
//!    never mistake a partial record for a complete one;
//! 3. **Corruption detection** — changing any single character of a record
//!    line makes it fail to decode (structure breaks or the checksum
//!    catches it), and a store file truncated at an arbitrary byte inside
//!    its final line loads with exactly that record dropped and flagged.
//!
//! Around them, the loader is fuzzed: arbitrary bytes and single-byte
//! mutations of a valid header line load or are refused, never panic. So
//! is the telemetry sidecar's parser: arbitrary bytes, arbitrary bytes
//! after a valid sidecar's prefix, and single-byte mutations of a written
//! sidecar parse or return an error.

use bera_goofi::campaign::{prepare_campaign, CampaignConfig};
use bera_goofi::classify::{HarnessCause, Outcome, Severity};
use bera_goofi::experiment::{ExperimentRecord, FaultSpec, Provenance};
use bera_goofi::observer::{Telemetry, TelemetrySnapshot};
use bera_goofi::store::{
    decode_record, encode_record, load_store, write_telemetry_sidecar, JsonlStore, LoadedCampaign,
    StoreError, StoreHeader,
};
use bera_goofi::table::TABLE_MECHANISMS;
use bera_goofi::workload::Workload;
use bera_tcpu::scan;
use proptest::prelude::*;
use proptest::strategy::Just;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;

fn outcome_from(tag: usize, mech: usize, severity: usize) -> Outcome {
    match tag % 7 {
        0 => Outcome::Detected(TABLE_MECHANISMS[mech % TABLE_MECHANISMS.len()]),
        1 => Outcome::Hang,
        2 => Outcome::ValueFailure(match severity % 4 {
            0 => Severity::Permanent,
            1 => Severity::SemiPermanent,
            2 => Severity::Transient,
            _ => Severity::Insignificant,
        }),
        3 => Outcome::Latent,
        4 => Outcome::Overwritten,
        5 => Outcome::HarnessFailure(HarnessCause::Panic),
        _ => Outcome::HarnessFailure(HarnessCause::Deadline),
    }
}

/// Assembles a record from independently sampled parts. The location is
/// drawn from the real scan catalog so `part` stays consistent with it.
#[allow(clippy::too_many_arguments)]
fn build_record(
    location_index: usize,
    inject_at: u64,
    tag: usize,
    mech: usize,
    severity: usize,
    max_deviation: f64,
    first_strong: Option<usize>,
    latency: Option<u64>,
    outputs: Option<Vec<u32>>,
    pruned_at: Option<usize>,
) -> ExperimentRecord {
    let catalog = scan::catalog();
    let location = catalog[location_index % catalog.len()];
    let outcome = outcome_from(tag, mech, severity);
    let harness_error = outcome
        .is_harness_failure()
        .then(|| format!("chaos detail #{tag}"));
    // `tag` ranges over 0..7, so `tag % 3` visits every provenance.
    let provenance = match tag % 3 {
        0 => Provenance::Simulated,
        1 => Provenance::Analytic,
        _ => Provenance::Replicated,
    };
    ExperimentRecord {
        fault: FaultSpec {
            location_index: location_index % catalog.len(),
            inject_at,
        },
        part: location.part(),
        location,
        outcome,
        max_deviation,
        first_strong_iteration: first_strong,
        detection_latency: latency,
        outputs,
        pruned_at,
        provenance,
        harness_error,
    }
}

fn deviation_strategy() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(f64::NAN),
        Just(0.0f64),
        any::<f64>(),
        0.0f64..200.0,
    ]
}

fn assert_records_equal(a: &ExperimentRecord, b: &ExperimentRecord) {
    // Bit-exact on the float (covers NaN and the infinities, which compare
    // unequal / equal-to-everything-else under `==`)...
    assert_eq!(a.max_deviation.to_bits(), b.max_deviation.to_bits());
    // ...and field-for-field on everything else via the canonical
    // serialization, which covers every field of the record.
    assert_eq!(
        serde_json::to_string(a).unwrap(),
        serde_json::to_string(b).unwrap()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn record_roundtrips_exactly(
        index in 0usize..100_000,
        location_index in 0usize..100_000,
        inject_at in 0u64..1_000_000,
        shape in (0usize..7, 0usize..64, 0usize..4),
        max_deviation in deviation_strategy(),
        optionals in (
            prop_oneof![Just(None), (0usize..650).prop_map(Some)],
            prop_oneof![Just(None), (0u64..1_000_000).prop_map(Some)],
            prop_oneof![
                Just(None),
                proptest::collection::vec(any::<u32>(), 0..6).prop_map(Some),
            ],
            prop_oneof![Just(None), (0usize..650).prop_map(Some)],
        ),
    ) {
        let (tag, mech, severity) = shape;
        let (first_strong, latency, outputs, pruned_at) = optionals;
        let record = build_record(
            location_index, inject_at, tag, mech, severity,
            max_deviation, first_strong, latency, outputs, pruned_at,
        );
        let line = encode_record(index, &record);
        prop_assert!(!line.contains('\n'), "a record must be a single line");
        let (decoded_index, decoded) = decode_record(&line)
            .map_err(proptest::test_runner::TestCaseError::fail)?;
        prop_assert_eq!(decoded_index, index);
        assert_records_equal(&record, &decoded);
    }

    #[test]
    fn no_prefix_of_a_record_half_parses(
        index in 0usize..10_000,
        location_index in 0usize..100_000,
        inject_at in 0u64..1_000_000,
        shape in (0usize..7, 0usize..64, 0usize..4),
        max_deviation in deviation_strategy(),
    ) {
        let (tag, mech, severity) = shape;
        let record = build_record(
            location_index, inject_at, tag, mech, severity,
            max_deviation, Some(3), Some(42), None, None,
        );
        let line = encode_record(index, &record);
        for cut in 0..line.len() {
            prop_assert!(
                decode_record(&line[..cut]).is_err(),
                "prefix of length {} of a {}-byte line must not decode",
                cut,
                line.len()
            );
        }
    }

    #[test]
    fn single_character_corruption_is_detected(
        index in 0usize..10_000,
        location_index in 0usize..100_000,
        inject_at in 0u64..1_000_000,
        shape in (0usize..7, 0usize..64, 0usize..4),
        max_deviation in deviation_strategy(),
        position in 0usize..10_000,
        replacement in 0usize..36,
    ) {
        let (tag, mech, severity) = shape;
        let record = build_record(
            location_index, inject_at, tag, mech, severity,
            max_deviation, None, None, None, Some(17),
        );
        let line = encode_record(index, &record);
        let chars: Vec<char> = line.chars().collect();
        let position = position % chars.len();
        let replacement = char::from_digit(replacement as u32, 36).unwrap();
        prop_assume!(chars[position] != replacement);
        let mut corrupted = chars;
        corrupted[position] = replacement;
        let corrupted: String = corrupted.into_iter().collect();
        prop_assert!(
            decode_record(&corrupted).is_err(),
            "corrupting byte {} must be detected",
            position
        );
    }
}

// ---------------------------------------------------------------------------
// File-level torn-line behaviour, against a real store on disk.
// ---------------------------------------------------------------------------

fn temp_path(tag: &str) -> std::path::PathBuf {
    static COUNTER: AtomicU32 = AtomicU32::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "bera-roundtrip-{}-{tag}-{n}.jsonl",
        std::process::id()
    ))
}

/// A small real store (header + 6 records) rendered once and shared.
fn reference_store_text() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        let workload = Workload::algorithm_one();
        let cfg = CampaignConfig::quick(6, 3);
        let prepared = prepare_campaign(&workload, &cfg);
        let header = StoreHeader::new(workload.name(), &cfg, prepared.golden());
        let path = temp_path("reference");
        let store = JsonlStore::create(&path, &header).expect("create");
        let _ = prepared.run(&store);
        store.finish().expect("finish");
        let text = std::fs::read_to_string(&path).expect("read back");
        let _ = std::fs::remove_file(&path);
        text
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn truncated_store_drops_exactly_the_torn_record(cut_back in 1usize..10_000) {
        let text = reference_store_text();
        let last_line_start = text[..text.len() - 1]
            .rfind('\n')
            .expect("store has multiple lines")
            + 1;
        // Cut somewhere strictly inside the final line (leaving at least
        // its first byte, removing at least its trailing newline).
        let span = text.len() - last_line_start;
        let cut = text.len() - 1 - (cut_back % (span - 1));
        let path = temp_path("cut");
        std::fs::write(&path, &text[..cut]).expect("write truncated store");
        let loaded = load_store(&path).expect("torn tail must still load");
        let _ = std::fs::remove_file(&path);
        prop_assert!(loaded.torn_tail, "cut at byte {} must be flagged torn", cut);
        prop_assert_eq!(loaded.done(), 5, "exactly the torn record is dropped");
        prop_assert!(!loaded.is_complete());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Crash-consistency property over the *whole file*: truncating the
    /// store at an arbitrary byte — inside the header, at a line
    /// boundary, mid-record, anywhere — either fails to load with a loud
    /// error (header gone) or loads exactly the records whose lines
    /// survived complete, bit-identical to the uncrashed file, with the
    /// torn-tail flag set iff a partial line remains. It is never
    /// silently misparsed: no phantom records, no altered records, no
    /// unflagged partial tail.
    #[test]
    fn truncation_at_any_byte_recovers_or_rejects_loudly(cut_seed in 0usize..1_000_000) {
        let text = reference_store_text();
        let bytes = text.as_bytes();
        let cut = cut_seed % (bytes.len() + 1);
        let prefix = &bytes[..cut];
        let path = temp_path("anycut");
        std::fs::write(&path, prefix).expect("write truncated store");
        let loaded = load_store(&path);
        let _ = std::fs::remove_file(&path);

        let newlines = prefix.iter().filter(|&&b| b == b'\n').count();
        if newlines == 0 {
            // Header line incomplete: the file holds no records and must
            // be rejected loudly, never half-parsed.
            prop_assert!(
                loaded.is_err(),
                "cut at byte {} leaves no complete header and must not load",
                cut
            );
            return Ok(());
        }

        let loaded = match loaded {
            Ok(l) => l,
            Err(e) => return Err(proptest::test_runner::TestCaseError::fail(format!(
                "cut at byte {cut} after a complete header must load, got: {e}"
            ))),
        };
        // The complete record lines of the prefix, decoded from the
        // reference text (line 0 is the header).
        let mut complete_records: Vec<(usize, String)> = text
            .lines()
            .take(newlines)
            .skip(1)
            .map(|line| {
                let (index, record) = decode_record(line).expect("reference line decodes");
                (index, serde_json::to_string(&record).unwrap())
            })
            .collect();
        // A cut that removes only a record line's trailing newline leaves
        // the record itself intact: the loader accepts the unterminated
        // tail iff it still decodes, and only flags it torn otherwise.
        let tail_start = prefix.iter().rposition(|&b| b == b'\n').map_or(0, |p| p + 1);
        let tail_record = std::str::from_utf8(&prefix[tail_start..])
            .ok()
            .filter(|t| !t.is_empty())
            .and_then(|t| decode_record(t).ok());
        if let Some((index, record)) = &tail_record {
            complete_records.push((*index, serde_json::to_string(record).unwrap()));
        }
        prop_assert_eq!(
            loaded.done(),
            complete_records.len(),
            "cut at byte {} must load exactly the complete record lines",
            cut
        );
        for (index, expected) in &complete_records {
            let got = loaded.records[*index]
                .as_ref()
                .expect("surviving record is present");
            prop_assert_eq!(
                &serde_json::to_string(got).unwrap(),
                expected,
                "record {} must survive truncation bit-identically",
                index
            );
        }
        let torn_expected = cut > 0 && bytes[cut - 1] != b'\n' && tail_record.is_none();
        prop_assert_eq!(
            loaded.torn_tail,
            torn_expected,
            "cut at byte {} must flag the torn tail iff a partial line remains",
            cut
        );
    }
}

#[test]
fn untorn_reference_store_is_complete() {
    let text = reference_store_text();
    let path = temp_path("whole");
    std::fs::write(&path, text).expect("write store");
    let loaded = load_store(&path).expect("load");
    let _ = std::fs::remove_file(&path);
    assert!(!loaded.torn_tail);
    assert_eq!(loaded.done(), 6);
    assert!(loaded.is_complete());
}

/// Writes `bytes` as a store file and loads it.
fn load_bytes(bytes: &[u8]) -> Result<LoadedCampaign, StoreError> {
    let path = temp_path("fuzz");
    std::fs::write(&path, bytes).expect("write store");
    let loaded = load_store(&path);
    let _ = std::fs::remove_file(&path);
    loaded
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes, alone or after a valid store's prefix, load or are
    /// refused; the loader never panics.
    #[test]
    fn load_store_survives_arbitrary_bytes(
        cut in any::<usize>(),
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let _ = load_bytes(&bytes);
        let valid = reference_store_text().as_bytes();
        let mut spliced = valid[..cut % (valid.len() + 1)].to_vec();
        spliced.extend_from_slice(&bytes);
        let _ = load_bytes(&spliced);
    }

    /// Any one byte of the header line changed: the store loads or is
    /// refused, never a panic, and an unchanged store loads complete.
    #[test]
    fn load_store_survives_a_single_byte_header_mutation(at in any::<usize>(), byte in any::<u8>()) {
        let text = reference_store_text();
        let header_len = text.find('\n').expect("store has a header line");
        let mut bytes = text.as_bytes().to_vec();
        let at = at % header_len;
        let unchanged = bytes[at] == byte;
        bytes[at] = byte;
        let loaded = load_bytes(&bytes);
        if unchanged {
            prop_assert!(loaded.is_ok_and(|l| l.is_complete()));
        }
    }
}

/// A header whose fault count no allocation can hold is refused as a
/// corrupt header line rather than panicking while sizing the records.
#[test]
fn an_unallocatable_fault_count_is_a_corrupt_header() {
    let text = reference_store_text();
    let huge = text.replacen("\"faults\":6,", &format!("\"faults\":{},", u64::MAX), 1);
    assert_ne!(huge, text, "the fixture must carry the huge count");
    assert!(matches!(
        load_bytes(huge.as_bytes()),
        Err(StoreError::Corrupt { line: 1, .. })
    ));
}

/// The sidecar `campaign --out` writes beside a small real campaign's
/// store, rendered once and shared, with the snapshot it holds.
fn reference_sidecar() -> &'static (String, TelemetrySnapshot) {
    static SIDECAR: OnceLock<(String, TelemetrySnapshot)> = OnceLock::new();
    SIDECAR.get_or_init(|| {
        let cfg = CampaignConfig::quick(6, 3);
        let telemetry = Telemetry::new(cfg.faults);
        let _ = prepare_campaign(&Workload::algorithm_one(), &cfg).run(&telemetry);
        let snapshot = telemetry.snapshot();
        let store = temp_path("sidecar");
        let side = write_telemetry_sidecar(&store, &snapshot).expect("write sidecar");
        let text = std::fs::read_to_string(&side).expect("read sidecar back");
        let _ = std::fs::remove_file(&side);
        (text, snapshot)
    })
}

/// Parses sidecar bytes as `report` does, which reads them as text: bytes
/// that are not UTF-8 are decoded lossily first.
fn parse_sidecar(bytes: &[u8]) -> Result<TelemetrySnapshot, serde_json::Error> {
    serde_json::from_str::<TelemetrySnapshot>(&String::from_utf8_lossy(bytes))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes parse or are refused; the parser never panics.
    #[test]
    fn sidecar_parser_survives_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let _ = parse_sidecar(&bytes);
    }

    /// Arbitrary bytes after a valid sidecar's prefix parse or are
    /// refused; the parser never panics.
    #[test]
    fn sidecar_parser_survives_arbitrary_bytes_after_a_valid_prefix(
        cut in any::<usize>(),
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let valid = reference_sidecar().0.as_bytes();
        let mut spliced = valid[..cut % (valid.len() + 1)].to_vec();
        spliced.extend_from_slice(&bytes);
        let _ = parse_sidecar(&spliced);
    }

    /// Any one byte of a written sidecar changed: it parses or is refused,
    /// never a panic, and an unchanged sidecar parses back to its snapshot.
    #[test]
    fn sidecar_parser_survives_a_single_byte_mutation(at in any::<usize>(), byte in any::<u8>()) {
        let (text, snapshot) = reference_sidecar();
        let mut bytes = text.as_bytes().to_vec();
        let at = at % bytes.len();
        let unchanged = bytes[at] == byte;
        bytes[at] = byte;
        let parsed = parse_sidecar(&bytes);
        if unchanged {
            prop_assert_eq!(parsed.ok(), Some(*snapshot));
        }
    }
}
