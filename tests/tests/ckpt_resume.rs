//! Checkpoint/resume exactness and manifest robustness, exercised at
//! the library layer (the CLI end-to-end cells live in
//! `crates/cli/tests/cli.rs` and the CI kill–resume matrix).
//!
//! Three suites:
//!
//! 1. **Spill interrupt–resume differential** — the out-of-core rung is
//!    cancelled after a seed-derived number of completed partitions and
//!    resumed via [`Supervisor::mine_out_of_core`] from the watermark a
//!    checkpointing sink would have committed. The
//!    concatenated streams must equal the uninterrupted run exactly.
//! 2. **Manifest fuzz** — seeded random truncations and byte flips of a
//!    saved manifest must either be rejected by the strict loader or
//!    round-trip to a manifest equal to the original (whitespace-only
//!    damage); never a panic, never a silently different manifest.
//! 3. **Resume-skip boundary arithmetic** — resuming at watermark 0,
//!    at the final watermark, and past the end behave as documented.

use cfp_core::ckpt::{self, Manifest};
use cfp_core::{
    CfpGrowthMiner, CkptProgress, CollectSink, MineOpts, Miner, RecoveryPolicy, Supervisor,
};
use cfp_data::rng::{Rng, StdRng};
use cfp_data::{CfpError, Item, ItemRecoder, ItemsetSink, MineProgress, TransactionDb};

/// A database large and skewed enough that the spill rung (under a tight
/// budget) produces several partitions.
fn spillable_db(seed: u64) -> TransactionDb {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = TransactionDb::new();
    for _ in 0..800 {
        let mut row = std::collections::BTreeSet::new();
        for item in 0..40u32 {
            if rng.gen::<f64>() < 1.2 / (item as f64 / 5.0 + 1.0) {
                row.insert(item);
            }
        }
        if !row.is_empty() {
            db.push(&row.into_iter().collect::<Vec<_>>());
        }
    }
    db
}

/// One recorded `SpillParts` watermark: completed partitions, surviving
/// ranges, itemsets emitted so far.
type SpillMark = (u64, Vec<(u32, u32)>, usize);

/// Collects itemsets, recording each `SpillParts` watermark and
/// cancelling once `stop_at` partitions have completed.
struct SpillInterruptSink {
    inner: CollectSink,
    token: cfp_fault::CancelToken,
    stop_at: u64,
    watermarks: Vec<SpillMark>,
}

impl ItemsetSink for SpillInterruptSink {
    fn emit(&mut self, itemset: &[Item], support: u64) {
        self.inner.emit(itemset, support);
    }

    fn progress(&mut self, progress: MineProgress<'_>) -> Result<(), CfpError> {
        if let MineProgress::SpillParts { done, remaining } = progress {
            self.watermarks.push((done, remaining.to_vec(), self.inner.itemsets.len()));
            if done >= self.stop_at {
                self.token.cancel();
            }
        }
        Ok(())
    }
}

fn spill_supervisor(dir: &std::path::Path, cancel: Option<cfp_fault::CancelToken>) -> Supervisor {
    Supervisor {
        spill_dir: Some(dir.to_path_buf()),
        mem_budget: Some(96 * 1024),
        cancel,
        ..Supervisor::new(RecoveryPolicy::Spill)
    }
}

/// Suite 1: kill the spill rung at partition watermarks across seeds and
/// resume; the joined stream must match the uninterrupted one exactly.
#[test]
fn spill_interrupt_resume_is_exact_across_seeds() {
    let mut failures = Vec::new();
    let mut interrupted_once = false;
    for seed in 0..8u64 {
        let db = spillable_db(seed);
        let minsup = 8;
        let parent =
            std::env::temp_dir().join(format!("cfp-ckpt-resume-{}-{seed}", std::process::id()));
        let _ = std::fs::remove_dir_all(&parent);

        // Uninterrupted reference (spill rung, same configuration).
        let mut reference = CollectSink::new();
        let (r, _) =
            spill_supervisor(&parent, None).mine_out_of_core(&db, minsup, &mut reference, None);
        if let Err(e) = r {
            failures.push(format!("seed {seed}: reference spill run failed with {e}"));
            continue;
        }

        let mut rng = StdRng::seed_from_u64(seed ^ 0x5713);
        let stop_at = rng.gen_range(0u64..=2);
        let token = cfp_fault::CancelToken::new();
        let mut sink = SpillInterruptSink {
            inner: CollectSink::new(),
            token: token.clone(),
            stop_at,
            watermarks: Vec::new(),
        };
        let (first, _) =
            spill_supervisor(&parent, Some(token)).mine_out_of_core(&db, minsup, &mut sink, None);
        match first {
            Ok(_) => {
                if sink.inner.itemsets != reference.itemsets {
                    failures.push(format!("seed {seed}: uninterrupted-by-luck run diverged"));
                }
            }
            Err(CfpError::Interrupted) => {
                interrupted_once = true;
                let Some((done, remaining, at_watermark)) = sink.watermarks.last().cloned() else {
                    failures.push(format!("seed {seed}: interrupted with no watermark"));
                    continue;
                };
                if sink.inner.itemsets.len() != at_watermark {
                    failures.push(format!(
                        "seed {seed}: {} itemsets emitted but watermark covered {at_watermark}",
                        sink.inner.itemsets.len()
                    ));
                    continue;
                }
                // Resume re-projects the surviving ranges from the
                // database — exactly what a post-crash run does.
                let mut resumed = CollectSink::new();
                let (second, _) = spill_supervisor(&parent, None).mine_out_of_core(
                    &db,
                    minsup,
                    &mut resumed,
                    Some((done, remaining)),
                );
                if let Err(e) = second {
                    failures.push(format!("seed {seed}: resume failed with {e}"));
                    continue;
                }
                let mut joined = sink.inner.itemsets;
                joined.extend(resumed.itemsets);
                if joined != reference.itemsets {
                    failures.push(format!(
                        "seed {seed}: interrupt at {done} part(s) + resume diverged \
                         ({} vs {} itemsets)",
                        joined.len(),
                        reference.itemsets.len()
                    ));
                }
            }
            Err(e) => failures.push(format!("seed {seed}: interrupt run failed with {e}")),
        }
        let _ = std::fs::remove_dir_all(&parent);
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
    assert!(interrupted_once, "no seed ever interrupted — spill stop_at range is too lax");
}

fn sample_manifest() -> Manifest {
    Manifest {
        input: "/data/retail.dat".into(),
        min_support: 57,
        counts: "fnv1a:00ff00ff00ff00ff".into(),
        num_items: 16470,
        output: "all".into(),
        progress: CkptProgress::Spill { parts_done: 3, remaining: vec![(12, 400), (401, 950)] },
        output_bytes: 123_456_789,
        itemsets: 54_321,
    }
}

/// Suite 2a: seeded truncation fuzz. Every prefix-truncated manifest
/// either fails to load or (when only trailing whitespace was cut)
/// loads back equal to the original.
#[test]
fn manifest_truncation_fuzz_never_accepts_a_torn_manifest() {
    let dir = std::env::temp_dir().join(format!("cfp-ckpt-trunc-fuzz-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let original = sample_manifest();
    ckpt::save(&dir, &original).unwrap();
    let full = std::fs::read(ckpt::manifest_path(&dir)).unwrap();

    let mut rng = StdRng::seed_from_u64(0xF072);
    let mut rejected = 0u32;
    for _ in 0..200 {
        let cut = rng.gen_range(0usize..full.len());
        std::fs::write(ckpt::manifest_path(&dir), &full[..cut]).unwrap();
        match ckpt::load(&dir) {
            Err(_) => rejected += 1,
            Ok(None) => panic!("a present manifest must not read as absent"),
            Ok(Some(m)) => {
                assert_eq!(m, original, "truncation at {cut} produced a different manifest");
                assert!(
                    full[cut..].iter().all(|b| b.is_ascii_whitespace()),
                    "truncation at {cut} dropped non-whitespace yet still loaded"
                );
            }
        }
    }
    assert!(rejected > 150, "only {rejected}/200 truncations rejected — checksum too lax");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Suite 2b: seeded byte-flip fuzz. A flipped byte anywhere in the
/// manifest must be rejected or produce an equal manifest — a checksum
/// collision that silently changes a field would corrupt a resume.
#[test]
fn manifest_byte_flip_fuzz_never_changes_a_field_silently() {
    let dir = std::env::temp_dir().join(format!("cfp-ckpt-flip-fuzz-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let original = sample_manifest();
    ckpt::save(&dir, &original).unwrap();
    let full = std::fs::read(ckpt::manifest_path(&dir)).unwrap();

    let mut rng = StdRng::seed_from_u64(0xB17F);
    for _ in 0..200 {
        let mut damaged = full.clone();
        let at = rng.gen_range(0usize..damaged.len());
        let bit = 1u8 << rng.gen_range(0u32..8);
        damaged[at] ^= bit;
        std::fs::write(ckpt::manifest_path(&dir), &damaged).unwrap();
        match ckpt::load(&dir) {
            Err(_) | Ok(None) => {}
            Ok(Some(m)) => assert_eq!(
                m, original,
                "bit flip at byte {at} loaded a silently different manifest"
            ),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Suite 3: resume-skip boundary arithmetic on the sequential miner.
/// `resume_skip = 0` is a plain run; skipping every top-level item
/// yields an empty stream with zero itemsets counted.
#[test]
fn resume_skip_boundaries_behave_as_documented() {
    let db = TransactionDb::from_rows(&[
        vec![1, 2, 5],
        vec![2, 4],
        vec![2, 3],
        vec![1, 2, 4],
        vec![1, 3],
        vec![2, 3],
        vec![1, 3],
        vec![1, 2, 3, 5],
        vec![1, 2, 3],
    ]);
    let minsup = 2;
    let n_items = ItemRecoder::scan(&db, minsup).num_items() as u64;
    let miner = CfpGrowthMiner::new();

    let mut plain = CollectSink::new();
    miner.mine(&db, minsup, &mut plain);

    let mut from_zero = CollectSink::new();
    let stats = miner.try_mine_with(&db, minsup, &mut from_zero, &MineOpts::default()).unwrap();
    assert_eq!(from_zero.itemsets, plain.itemsets);
    assert_eq!(stats.itemsets as usize, plain.itemsets.len());

    let mut all_skipped = CollectSink::new();
    let stats = miner
        .try_mine_with(
            &db,
            minsup,
            &mut all_skipped,
            &MineOpts { resume_skip: n_items, ..MineOpts::default() },
        )
        .unwrap();
    assert!(all_skipped.itemsets.is_empty(), "skipping every item must emit nothing");
    assert_eq!(stats.itemsets, 0);

    // Every split point reassembles the exact stream.
    for split in 1..n_items {
        let token = cfp_fault::CancelToken::new();
        let mut head = SplitSink { inner: CollectSink::new(), token: token.clone(), at: split };
        let r = miner.try_mine_with(
            &db,
            minsup,
            &mut head,
            &MineOpts { cancel: Some(token), ..MineOpts::default() },
        );
        assert!(matches!(r, Err(CfpError::Interrupted)), "split {split} did not interrupt");
        let mut tail = CollectSink::new();
        miner
            .try_mine_with(
                &db,
                minsup,
                &mut tail,
                &MineOpts { resume_skip: split, ..MineOpts::default() },
            )
            .unwrap();
        let mut joined = head.inner.itemsets;
        joined.extend(tail.itemsets);
        assert_eq!(joined, plain.itemsets, "split at watermark {split} diverged");
    }
}

/// Cancels exactly at watermark `at`.
struct SplitSink {
    inner: CollectSink,
    token: cfp_fault::CancelToken,
    at: u64,
}

impl ItemsetSink for SplitSink {
    fn emit(&mut self, itemset: &[Item], support: u64) {
        self.inner.emit(itemset, support);
    }

    fn progress(&mut self, progress: MineProgress<'_>) -> Result<(), CfpError> {
        if let MineProgress::Items { done } = progress {
            if done >= self.at {
                self.token.cancel();
            }
        }
        Ok(())
    }
}
