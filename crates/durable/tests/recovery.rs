//! Recovery-protocol integration tests (PR 9, satellite 3): the WAL
//! truncation property at *every* byte boundary, bit-flipped CRC
//! quarantine, stale-generation checkpoint fixtures and injected storage
//! faults on the append and checkpoint paths.
//!
//! The fault plan is process-global and the tests run in parallel, so
//! every test in this binary takes `PLAN_LOCK` first: one that installs a
//! plan clears it before releasing the lock, and one that does not can
//! never meet another test's armed fault.

use ghosts_durable::log::{checkpoint_file, wal_segment_file};
use ghosts_durable::{encode_frame_into, scan_frames, DurableLog, Tail, Wal, WalConfig, WalError};
use ghosts_faultinject::{clear, install, FaultPlan};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

static PLAN_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    PLAN_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ghosts-durable-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The central property: truncating a WAL segment at **every** byte
/// boundary and replaying yields exactly the longest valid frame prefix —
/// never a corrupt verdict, never a record the full log did not contain,
/// and always every record whose final byte survived the cut.
#[test]
fn truncation_at_every_byte_boundary_replays_longest_valid_prefix() {
    let _g = lock();
    let dir = tmp("every-byte");
    let config = WalConfig::new(dir.join("wal"));
    let (mut wal, _) = Wal::open(config).expect("open");
    // Varied payload sizes (including empty) so cuts land in headers,
    // payload bodies and exactly on boundaries.
    let payloads: Vec<Vec<u8>> = [0usize, 1, 3, 8, 13, 21, 34, 55, 2]
        .iter()
        .enumerate()
        .map(|(i, len)| {
            (0..*len)
                .map(|j| (i as u8).wrapping_mul(31).wrapping_add(j as u8))
                .collect()
        })
        .collect();
    for p in &payloads {
        wal.append(p).expect("append");
    }
    drop(wal);
    let segment = wal_segment_file(&dir, 0);
    let full = std::fs::read(&segment).expect("read segment");

    // Frame boundaries from the layout math alone, independent of the
    // codec under test.
    let mut boundaries = vec![0usize];
    for p in &payloads {
        let last = *boundaries.last().expect("non-empty");
        boundaries.push(last + 8 + p.len());
    }
    assert_eq!(*boundaries.last().expect("non-empty"), full.len());

    for cut in 0..=full.len() {
        let scratch = tmp("every-byte-scratch");
        std::fs::create_dir_all(scratch.join("wal")).expect("scratch wal dir");
        std::fs::write(wal_segment_file(&scratch, 0), &full[..cut]).expect("plant cut");
        let (wal, recovery) =
            Wal::open(WalConfig::new(scratch.join("wal"))).expect("recover from cut");
        let expect_records = boundaries.iter().filter(|b| **b > 0 && **b <= cut).count();
        assert_eq!(
            recovery.records.len(),
            expect_records,
            "cut at byte {cut}: wrong record count"
        );
        for (lsn, payload) in &recovery.records {
            assert_eq!(
                payload, &payloads[*lsn as usize],
                "cut at byte {cut}: lsn {lsn} replayed wrong bytes"
            );
        }
        assert!(
            recovery.quarantined.is_empty(),
            "cut at {cut} misread as corrupt"
        );
        // The recovered WAL accepts appends at the next free LSN.
        assert_eq!(wal.next_lsn(), expect_records as u64);
        drop(wal);
        let _ = std::fs::remove_dir_all(&scratch);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Scanning is pure: the same truncated bytes always classify the same
/// way, and a cut of a valid stream is never `Corrupt`.
#[test]
fn scan_classification_is_stable_across_cuts() {
    let _g = lock();
    let mut stream = Vec::new();
    for i in 0..6u8 {
        encode_frame_into(&mut stream, &vec![i; usize::from(i) * 5]);
    }
    for cut in 0..=stream.len() {
        let a = scan_frames(&stream[..cut]);
        let b = scan_frames(&stream[..cut]);
        assert_eq!(a, b);
        assert_ne!(a.tail, Tail::Corrupt);
    }
}

#[test]
fn bit_flipped_crc_quarantines_the_segment_but_keeps_the_prefix() {
    let _g = lock();
    let dir = tmp("bitflip");
    let (mut log, _) = DurableLog::open(&dir).expect("open");
    for i in 0..4u64 {
        log.append(format!("acked-{i}").as_bytes()).expect("append");
    }
    drop(log);
    let segment = wal_segment_file(&dir, 0);
    let mut bytes = std::fs::read(&segment).expect("read");
    // Flip one bit inside the CRC field of the final (complete) frame.
    let final_frame_start = bytes.len() - (8 + "acked-3".len());
    bytes[final_frame_start + 4] ^= 0x40;
    std::fs::write(&segment, &bytes).expect("flip");

    let (_, recovery) = DurableLog::open(&dir).expect("recover");
    assert_eq!(recovery.report.segments_quarantined, 1);
    assert_eq!(recovery.report.wal_records_replayed, 3, "prefix survives");
    let mut quarantined = segment.into_os_string();
    quarantined.push(".corrupt");
    assert!(PathBuf::from(quarantined).exists());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A stale checkpoint restored under a newer generation's file name must
/// not shadow genuine state (the payload carries its own generation).
#[test]
fn stale_generation_checkpoint_is_quarantined_not_loaded() {
    let _g = lock();
    let dir = tmp("stale-ckpt");
    let (mut log, _) = DurableLog::open(&dir).expect("open");
    log.append(b"one").expect("append");
    log.checkpoint(b"genuine@1").expect("checkpoint");
    drop(log);
    std::fs::copy(checkpoint_file(&dir, 1), checkpoint_file(&dir, 999)).expect("plant stale copy");
    let (log2, recovery) = DurableLog::open(&dir).expect("recover");
    let checkpoint = recovery.checkpoint.expect("genuine survives");
    assert_eq!(checkpoint.generation, 1);
    assert_eq!(checkpoint.state, b"genuine@1");
    assert_eq!(recovery.report.checkpoints_quarantined, 1);
    // The next checkpoint continues from the genuine generation.
    assert_eq!(log2.generation(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `io-error` at `durable.wal.append` (zero-based hit 0: the first probe)
/// fails the append cleanly: nothing acked, nothing on disk, no LSN
/// consumed, and the very next append succeeds.
#[test]
fn injected_io_error_fails_without_acknowledging() {
    let _g = lock();
    let dir = tmp("io-error");
    let plan = FaultPlan::parse("site=durable.wal.append kind=io-error hit=0").expect("plan");
    install(plan).expect("feature is armed in tests");
    let (mut log, _) = DurableLog::open(&dir).expect("open");
    let first = log.append(b"doomed");
    let second = log.append(b"fine");
    clear();
    assert!(
        matches!(first, Err(WalError::Io(_))),
        "first append must fail with the injected error"
    );
    assert_eq!(second.expect("second append"), 0, "no LSN was consumed");
    drop(log);
    let (_, recovery) = DurableLog::open(&dir).expect("recover");
    assert_eq!(recovery.report.wal_records_replayed, 1);
    assert_eq!(recovery.replay[0].1, b"fine");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `torn-write` (hit 1: the second append) leaves a half frame and
/// poisons the WAL; reopening truncates the tear and appends resume at
/// the unconsumed LSN.
#[test]
fn injected_torn_write_poisons_then_recovery_truncates() {
    let _g = lock();
    let dir = tmp("torn-fault");
    let plan = FaultPlan::parse("site=durable.wal.append kind=torn-write hit=1").expect("plan");
    install(plan).expect("feature is armed in tests");
    let (mut log, _) = DurableLog::open(&dir).expect("open");
    log.append(b"acked before the tear").expect("append");
    let torn = log.append(b"torn away");
    let poisoned = log.append(b"refused");
    clear();
    drop(log);
    assert!(matches!(torn, Err(WalError::Io(_))));
    assert!(matches!(poisoned, Err(WalError::Poisoned)));

    let (mut log, recovery) = DurableLog::open(&dir).expect("recover");
    assert_eq!(
        recovery.report.wal_records_replayed, 1,
        "only the acked record"
    );
    assert_eq!(recovery.replay[0].1, b"acked before the tear");
    assert!(recovery.report.torn_tail_bytes > 0, "the tear was measured");
    assert_eq!(recovery.report.segments_quarantined, 0, "torn != corrupt");
    assert_eq!(log.append(b"after recovery").expect("append"), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `io-error` at `durable.checkpoint` (hit 1: the second checkpoint)
/// leaves the previous generation authoritative and consumes no
/// generation number.
#[test]
fn injected_checkpoint_error_preserves_previous_generation() {
    let _g = lock();
    let dir = tmp("ckpt-fault");
    let plan = FaultPlan::parse("site=durable.checkpoint kind=io-error hit=1").expect("plan");
    install(plan).expect("feature is armed in tests");
    let (mut log, _) = DurableLog::open(&dir).expect("open");
    log.append(b"a").expect("append");
    let first = log.checkpoint(b"good@1");
    log.append(b"b").expect("append");
    let failed = log.checkpoint(b"never lands");
    let retried = log.checkpoint(b"good@2");
    clear();
    drop(log);
    assert_eq!(first.expect("first checkpoint"), 1);
    assert!(failed.is_err(), "second checkpoint write must fail");
    assert_eq!(retried.expect("retry"), 2, "no generation was consumed");
    let (_, recovery) = DurableLog::open(&dir).expect("recover");
    assert_eq!(recovery.checkpoint.expect("newest").state, b"good@2");
    let _ = std::fs::remove_dir_all(&dir);
}
