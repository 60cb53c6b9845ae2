//! Property-based differential testing of the full miner matrix.
//!
//! A seeded generator produces random transaction databases sweeping
//! density, Zipf item-popularity skew, and degenerate edge shapes (empty
//! database, single-item transactions, all-identical rows). On every
//! seed, every configuration of the CFP-growth pipeline — sequential,
//! parallel at 1, 2, and 8 threads, and the partitioned rung with its
//! memory and its disk store — must produce exactly the itemsets the
//! apriori and eclat oracles produce. The parallel runs must additionally
//! match the sequential miner's raw emission order, not just the same
//! set. The case is also written to a FIMI file and mined through the
//! streamed file source (sequential, two workers, and both partition
//! stores), which must repeat the in-memory source's stream exactly.
//!
//! Failures are collected across the whole seed range and reported with
//! the smallest failing seed and a diff summary, so a regression
//! reproduces with one deterministic seed instead of a shotgun rerun.
//!
//! Sizes are capped (≤ 14 distinct items, ≤ 120 transactions) to keep
//! the apriori oracle tractable; 64 seeds × 8 shapes still cover empty,
//! singleton, uniform, and heavy-tailed regimes.

use cfp_baselines::{AprioriMiner, EclatMiner};
use cfp_core::{CfpGrowthMiner, CollectSink, MineOpts, Miner, ParallelCfpGrowthMiner, Source};
use cfp_data::rng::{Rng, StdRng};
use cfp_data::zipf::Zipf;
use cfp_data::{fimi, CfpError, Item, ItemsetSink, MineProgress, ParsePolicy, TransactionDb};
use std::collections::BTreeSet;

const SEEDS: u64 = 64;

struct Case {
    db: TransactionDb,
    minsup: u64,
    shape: &'static str,
}

/// Deterministically expands `seed` into a database and support level.
/// The low bits of the seed pick the shape so every edge shape recurs
/// throughout the seed range.
fn generate(seed: u64) -> Case {
    let mut rng = StdRng::seed_from_u64(seed);
    match seed % 8 {
        0 => Case { db: TransactionDb::new(), minsup: 1, shape: "empty" },
        1 => {
            let mut db = TransactionDb::new();
            db.push(&[rng.gen_range(0u32..100)]);
            Case { db, minsup: 1, shape: "single-item" }
        }
        2 => {
            // Every transaction identical: the tree degenerates to one
            // path (the single-path shortcut's home turf).
            let k = rng.gen_range(1usize..=10);
            let copies = rng.gen_range(1usize..=12);
            let row: Vec<Item> = (0..k as u32).map(|i| i * 3 + 1).collect();
            let mut db = TransactionDb::new();
            for _ in 0..copies {
                db.push(&row);
            }
            Case { db, minsup: rng.gen_range(1..=copies as u64), shape: "all-identical" }
        }
        _ => {
            let n_items = rng.gen_range(1usize..=14);
            let n_txn = rng.gen_range(0usize..=120);
            let skewed = rng.gen_bool(0.5);
            let zipf = Zipf::new(n_items, 0.5 + rng.gen::<f64>());
            let density = 0.2 + rng.gen::<f64>() * 0.6;
            let mut db = TransactionDb::new();
            for _ in 0..n_txn {
                let target = (n_items as f64 * density).ceil() as usize;
                let mut row = BTreeSet::new();
                for _ in 0..target {
                    let item = if skewed {
                        zipf.sample(&mut rng) as Item
                    } else {
                        rng.gen_range(0..n_items as Item)
                    };
                    row.insert(item);
                }
                db.push(&row.into_iter().collect::<Vec<_>>());
            }
            let minsup = rng.gen_range(1..=(n_txn as u64 / 4).max(2));
            Case { db, minsup, shape: if skewed { "zipf-skewed" } else { "uniform" } }
        }
    }
}

fn mine_raw(miner: &dyn Miner, db: &TransactionDb, minsup: u64) -> Vec<(Vec<Item>, u64)> {
    let mut sink = CollectSink::new();
    miner.mine(db, minsup, &mut sink);
    sink.itemsets
}

/// One run's raw emission stream, or its failure.
fn mine_source<T>(
    run: impl FnOnce(&mut CollectSink) -> Result<T, CfpError>,
) -> Result<Vec<(Vec<Item>, u64)>, CfpError> {
    let mut sink = CollectSink::new();
    run(&mut sink)?;
    Ok(sink.itemsets)
}

fn sorted(mut itemsets: Vec<(Vec<Item>, u64)>) -> Vec<(Vec<Item>, u64)> {
    itemsets.sort();
    itemsets
}

/// Collects itemsets while requesting cancellation as soon as the
/// watermark reaches `stop_at` completed top-level items. Also records
/// the count of itemsets emitted at each watermark, so the caller can
/// verify the interruption guarantee: everything up to the last
/// reported watermark — and nothing later — was emitted.
struct InterruptSink {
    inner: CollectSink,
    token: cfp_fault::CancelToken,
    stop_at: u64,
    /// `(watermark, itemsets emitted so far)` per progress notification.
    watermarks: Vec<(u64, usize)>,
}

impl ItemsetSink for InterruptSink {
    fn emit(&mut self, itemset: &[Item], support: u64) {
        self.inner.emit(itemset, support);
    }

    fn progress(&mut self, progress: MineProgress<'_>) -> Result<(), CfpError> {
        if let MineProgress::Items { done } = progress {
            self.watermarks.push((done, self.inner.itemsets.len()));
            if done >= self.stop_at {
                self.token.cancel();
            }
        }
        Ok(())
    }
}

/// The interrupt-at-a-random-watermark configuration: cancel `miner`
/// after a seed-derived number of completed top-level items, resume a
/// second run with `resume_skip` at the committed watermark, and require
/// the concatenated emission streams to be byte-for-byte the reference
/// stream `seq_raw`. Exercises both the cooperative-cancellation
/// boundaries and the resume-skip arithmetic on every database shape.
fn check_interrupt_resume(
    name: &str,
    mine: &dyn Fn(&mut dyn ItemsetSink, MineOpts) -> Result<(), CfpError>,
    seq_raw: &[(Vec<Item>, u64)],
    stop_at: u64,
    problems: &mut Vec<String>,
) {
    let token = cfp_fault::CancelToken::new();
    let mut sink = InterruptSink {
        inner: CollectSink::new(),
        token: token.clone(),
        stop_at,
        watermarks: Vec::new(),
    };
    let opts = MineOpts { cancel: Some(token), ..MineOpts::default() };
    let first = mine(&mut sink, opts);
    match first {
        Ok(()) => {
            // The run finished before the target watermark (small
            // database): the stream must simply be complete and exact.
            if sink.inner.itemsets != seq_raw {
                problems.push(format!(
                    "{name}: uninterrupted-by-luck run diverged ({} vs {} itemsets)",
                    sink.inner.itemsets.len(),
                    seq_raw.len()
                ));
            }
        }
        Err(CfpError::Interrupted) => {
            let Some(&(done, at_watermark)) = sink.watermarks.last() else {
                problems.push(format!("{name}: interrupted without any watermark"));
                return;
            };
            // Interruption guarantee: the stream stands exactly at the
            // last notified watermark — nothing later leaked out.
            if sink.inner.itemsets.len() != at_watermark {
                problems.push(format!(
                    "{name}: {} itemsets emitted but the last watermark covered {at_watermark}",
                    sink.inner.itemsets.len()
                ));
                return;
            }
            let mut resumed = CollectSink::new();
            let opts = MineOpts { resume_skip: done, ..MineOpts::default() };
            if let Err(e) = mine(&mut resumed, opts) {
                problems.push(format!("{name}: resume at watermark {done} failed with {e}"));
                return;
            }
            let mut joined = sink.inner.itemsets;
            joined.extend(resumed.itemsets);
            if joined != seq_raw {
                problems.push(format!(
                    "{name}: interrupt at watermark {done} + resume diverged \
                     ({} vs {} itemsets)",
                    joined.len(),
                    seq_raw.len()
                ));
            }
        }
        Err(e) => problems.push(format!("{name}: interrupt run failed with {e}")),
    }
}

/// Summarises how `got` diverges from `oracle` (first few missing/extra
/// entries), for the failure report.
fn diff_summary(
    name: &str,
    oracle: &[(Vec<Item>, u64)],
    got: &[(Vec<Item>, u64)],
) -> Option<String> {
    if oracle == got {
        return None;
    }
    let missing: Vec<_> = oracle.iter().filter(|e| !got.contains(e)).take(4).collect();
    let extra: Vec<_> = got.iter().filter(|e| !oracle.contains(e)).take(4).collect();
    Some(format!(
        "{name}: {} itemsets vs {} expected; missing {missing:?}; extra {extra:?}",
        got.len(),
        oracle.len()
    ))
}

/// Runs every miner configuration on one seed; `Err` describes every
/// divergence found on that seed.
fn check_seed(seed: u64) -> Result<(), String> {
    let case = generate(seed);
    let oracle = sorted(mine_raw(&AprioriMiner::new(), &case.db, case.minsup));
    let mut problems: Vec<String> = Vec::new();

    let eclat = sorted(mine_raw(&EclatMiner::new(), &case.db, case.minsup));
    problems.extend(diff_summary("eclat", &oracle, &eclat));

    // The sequential CFP miner's raw emission order is the determinism
    // reference for the parallel runs.
    let seq_raw = mine_raw(&CfpGrowthMiner::new(), &case.db, case.minsup);
    problems.extend(diff_summary("cfp-sequential", &oracle, &sorted(seq_raw.clone())));

    for threads in [1usize, 2, 8] {
        let raw = mine_raw(&ParallelCfpGrowthMiner::new(threads), &case.db, case.minsup);
        let name = format!("cfp-parallel/dynamicx{threads}");
        if raw != seq_raw {
            problems.push(format!(
                "{name}: emission order diverged from sequential ({} vs {} itemsets)",
                raw.len(),
                seq_raw.len()
            ));
        }
        problems.extend(diff_summary(&name, &oracle, &sorted(raw)));
    }

    // Interrupt at a seed-derived watermark, then resume: the
    // concatenated streams must equal the uninterrupted sequential
    // emission exactly, both for the sequential miner and for the
    // parallel miner (whose ordered emitter makes the same watermark
    // guarantee).
    {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x00C0_FFEE);
        let stop_at = rng.gen_range(1u64..=6);
        let seq = CfpGrowthMiner::new();
        check_interrupt_resume(
            "cfp-sequential/interrupt",
            &|sink, opts| seq.try_mine_with(&case.db, case.minsup, sink, &opts).map(|_| ()),
            &seq_raw,
            stop_at,
            &mut problems,
        );
        check_interrupt_resume(
            "cfp-parallel/dynamicx4/interrupt",
            &|sink, opts| {
                let miner = ParallelCfpGrowthMiner {
                    cancel: opts.cancel,
                    resume_skip: opts.resume_skip,
                    ..ParallelCfpGrowthMiner::new(4)
                };
                miner.try_mine(&case.db, case.minsup, sink).map(|_| ())
            },
            &seq_raw,
            stop_at,
            &mut problems,
        );
    }

    // The file source: the case written as a FIMI file and streamed in
    // two passes must give the in-memory emission stream byte for byte,
    // sequentially and on two workers.
    let path =
        std::env::temp_dir().join(format!("cfp-differential-{}-{seed}.dat", std::process::id()));
    fimi::write_file(&case.db, &path).expect("write the case");
    let file = Source::file(&path, ParsePolicy::Strict);
    for (name, mined) in [
        (
            "cfp-file/sequential",
            mine_source(|sink| {
                CfpGrowthMiner::new().try_mine_with(&file, case.minsup, sink, &MineOpts::default())
            }),
        ),
        (
            "cfp-file/dynamicx2",
            mine_source(|sink| {
                ParallelCfpGrowthMiner::new(2).try_mine_source(&file, case.minsup, sink)
            }),
        ),
    ] {
        match mined {
            Ok(raw) if raw != seq_raw => problems.push(format!(
                "{name}: emission diverged from the in-memory source ({} vs {} itemsets)",
                raw.len(),
                seq_raw.len()
            )),
            Ok(raw) => problems.extend(diff_summary(name, &oracle, &sorted(raw))),
            Err(e) => problems.push(format!("{name}: failed with {e}")),
        }
    }

    // Partitioned: the rung run directly, with the memory store and with
    // the disk store, must produce exactly the in-memory result on every
    // shape — the store is the only difference between the two, and the
    // disk round trip is an identity transformation of each partition's
    // array. Projected from the file source, each store must repeat its
    // in-memory stream byte for byte.
    for (name, policy) in [
        ("cfp-partition", cfp_core::RecoveryPolicy::Partition),
        ("cfp-spill", cfp_core::RecoveryPolicy::Spill),
    ] {
        let parent = std::env::temp_dir()
            .join(format!("cfp-differential-{name}-{}-{seed}", std::process::id()));
        let _ = std::fs::remove_dir_all(&parent);
        let sup = cfp_core::Supervisor {
            spill_dir: Some(parent.clone()),
            ..cfp_core::Supervisor::new(policy)
        };
        let mem = mine_source(|sink| sup.mine_out_of_core(&case.db, case.minsup, sink, None).0);
        let from_file = mine_source(|sink| sup.mine_out_of_core(&file, case.minsup, sink, None).0);
        match (mem, from_file) {
            (Ok(mem), Ok(from_file)) => {
                if from_file != mem {
                    problems.push(format!(
                        "{name}/file: emission diverged from the in-memory source ({} vs {} \
                         itemsets)",
                        from_file.len(),
                        mem.len()
                    ));
                }
                problems.extend(diff_summary(name, &oracle, &sorted(mem)));
            }
            (Err(e), _) => problems.push(format!("{name}: failed with {e}")),
            (_, Err(e)) => problems.push(format!("{name}/file: failed with {e}")),
        }
        let leftovers = std::fs::read_dir(&parent).map(|it| it.count()).unwrap_or(0);
        if leftovers != 0 {
            problems.push(format!("{name}: {leftovers} stray entries left in {parent:?}"));
        }
        let _ = std::fs::remove_dir_all(&parent);
    }
    std::fs::remove_file(&path).ok();

    if problems.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "shape {} ({} txns, minsup {}): {}",
            case.shape,
            case.db.len(),
            case.minsup,
            problems.join("\n  ")
        ))
    }
}

/// The deterministic top-k oracle: the k highest-support itemsets of
/// the full frequent set, ties broken by ascending lexicographic
/// itemset — exactly the engine's drain order.
fn topk_oracle(full: &[(Vec<Item>, u64)], k: usize) -> Vec<(Vec<Item>, u64)> {
    let mut v = full.to_vec();
    v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    v.truncate(k);
    v
}

/// Mines one seed's database through the sequential engine in `output`
/// mode.
fn mine_seq_mode(
    db: &TransactionDb,
    minsup: u64,
    output: cfp_core::OutputMode,
) -> Result<Vec<(Vec<Item>, u64)>, CfpError> {
    let mut sink = CollectSink::new();
    CfpGrowthMiner::new().try_mine_with(
        db,
        minsup,
        &mut sink,
        &MineOpts { output, ..MineOpts::default() },
    )?;
    Ok(sink.itemsets)
}

/// Runs the condensed-output matrix on one seed: for each of closed,
/// maximal, and a seed-derived topk:N, the sequential engine must match
/// the post-hoc oracle (`cfp_rules::condensed` over the apriori full
/// set), and the parallel miner must reproduce the sequential emission
/// byte for byte at 1, 2, and 8 threads.
fn check_seed_condensed(seed: u64) -> Result<(), String> {
    use cfp_core::OutputMode;
    let case = generate(seed);
    let full = sorted(mine_raw(&AprioriMiner::new(), &case.db, case.minsup));
    let k = StdRng::seed_from_u64(seed ^ 0x70F0_0D5E).gen_range(1usize..=8);
    let mut problems: Vec<String> = Vec::new();

    type OracleRows = Vec<(Vec<Item>, u64)>;
    let modes: [(OutputMode, OracleRows); 3] = [
        (OutputMode::Closed, sorted(cfp_rules::closed_itemsets(&full))),
        (OutputMode::Maximal, sorted(cfp_rules::maximal_itemsets(&full))),
        (OutputMode::TopK(k), topk_oracle(&full, k)),
    ];
    for (output, oracle) in &modes {
        let name = |cfg: &str| format!("{output}/{cfg}");
        let seq_raw = match mine_seq_mode(&case.db, case.minsup, *output) {
            Ok(raw) => raw,
            Err(e) => {
                problems.push(format!("{}: failed with {e}", name("seq")));
                continue;
            }
        };
        // Top-k drains in oracle order, so its raw emission is directly
        // comparable; the condensed modes stream in recursion order and
        // are compared as sets.
        let seq_cmp = if matches!(output, OutputMode::TopK(_)) {
            seq_raw.clone()
        } else {
            sorted(seq_raw.clone())
        };
        problems.extend(diff_summary(&name("seq"), oracle, &seq_cmp));

        for threads in [1usize, 2, 8] {
            let miner =
                ParallelCfpGrowthMiner { output: *output, ..ParallelCfpGrowthMiner::new(threads) };
            let raw = mine_raw(&miner, &case.db, case.minsup);
            if raw != seq_raw {
                problems.push(format!(
                    "{}: emission order diverged from sequential ({} vs {} itemsets)",
                    name(&format!("dynamicx{threads}")),
                    raw.len(),
                    seq_raw.len()
                ));
            }
        }
        // Interrupt + resume keeps the condensed stream exact: the
        // resumed run silently re-derives the reconcile state for the
        // skipped prefix, so the concatenation must reproduce the
        // uninterrupted emission. (Top-k cannot resume — the heap has
        // no output watermark — and the CLI rejects that combination.)
        if !matches!(output, OutputMode::TopK(_)) {
            let stop_at = StdRng::seed_from_u64(seed ^ 0xC105_EDCA).gen_range(1u64..=6);
            let seq = CfpGrowthMiner::new();
            check_interrupt_resume(
                &name("seq/interrupt"),
                &|sink, opts| {
                    seq.try_mine_with(
                        &case.db,
                        case.minsup,
                        sink,
                        &MineOpts { output: *output, ..opts },
                    )
                    .map(|_| ())
                },
                &seq_raw,
                stop_at,
                &mut problems,
            );
            check_interrupt_resume(
                &name("dynamicx4/interrupt"),
                &|sink, opts| {
                    let miner = ParallelCfpGrowthMiner {
                        output: *output,
                        cancel: opts.cancel,
                        resume_skip: opts.resume_skip,
                        ..ParallelCfpGrowthMiner::new(4)
                    };
                    miner.try_mine(&case.db, case.minsup, sink).map(|_| ())
                },
                &seq_raw,
                stop_at,
                &mut problems,
            );
        }
    }

    if problems.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "shape {} ({} txns, minsup {}, k {k}): {}",
            case.shape,
            case.db.len(),
            case.minsup,
            problems.join("\n  ")
        ))
    }
}

#[test]
fn every_condensed_configuration_matches_the_oracle_on_every_seed() {
    let mut failures: Vec<(u64, String)> = Vec::new();
    for seed in 0..SEEDS {
        if let Err(detail) = check_seed_condensed(seed) {
            failures.push((seed, detail));
        }
    }
    if let Some((seed, detail)) = failures.first() {
        panic!(
            "{} of {SEEDS} seeds failed; minimal failing seed {seed}:\n  {detail}\n\
             (reproduce with check_seed_condensed({seed}))",
            failures.len()
        );
    }
}

#[test]
fn every_miner_configuration_agrees_on_every_seed() {
    let mut failures: Vec<(u64, String)> = Vec::new();
    for seed in 0..SEEDS {
        if let Err(detail) = check_seed(seed) {
            failures.push((seed, detail));
        }
    }
    if let Some((seed, detail)) = failures.first() {
        panic!(
            "{} of {SEEDS} seeds failed; minimal failing seed {seed}:\n  {detail}\n\
             (reproduce with check_seed({seed}))",
            failures.len()
        );
    }
}

/// The generator itself must be deterministic, or seed reports would be
/// unreproducible.
#[test]
fn generator_is_deterministic_per_seed() {
    for seed in [0u64, 3, 17, 63] {
        let a = generate(seed);
        let b = generate(seed);
        assert_eq!(a.minsup, b.minsup);
        assert_eq!(a.db.len(), b.db.len());
        assert!(a.db.iter().eq(b.db.iter()), "seed {seed} generated different rows");
    }
}

/// The seed range must actually exercise every edge shape at least once.
#[test]
fn seed_range_covers_all_shapes() {
    let shapes: BTreeSet<&'static str> = (0..SEEDS).map(|s| generate(s).shape).collect();
    for expected in ["empty", "single-item", "all-identical", "uniform", "zipf-skewed"] {
        assert!(shapes.contains(expected), "no seed generated the {expected} shape");
    }
}
