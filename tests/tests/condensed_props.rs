//! Structural properties of the condensed-output engine.
//!
//! The differential suite proves the engine equals the post-hoc oracle;
//! this suite proves the *relationships the theory demands* hold on the
//! engine's own output, so a bug that broke oracle and engine in the
//! same way would still be caught:
//!
//! - maximal ⊆ closed ⊆ frequent (as sets, with matching supports);
//! - every frequent itemset has a closed superset of equal support
//!   (closure soundness: nothing was condensed away irrecoverably);
//! - every frequent itemset is a subset of some maximal itemset;
//! - top-k returns exactly the k highest supports of the full set, and
//!   ties break deterministically (ascending lexicographic itemset),
//!   so two runs — and any prefix k' < k — agree byte for byte.

use cfp_core::{CfpGrowthMiner, CollectSink, MineOpts, OutputMode};
use cfp_data::rng::{Rng, StdRng};
use cfp_data::zipf::Zipf;
use cfp_data::{Item, TransactionDb};
use std::collections::BTreeSet;

const SEEDS: u64 = 32;

/// Seeded database generator: moderate sizes with heavy support ties
/// (small item universe, repeated rows) so closure and tie-break paths
/// are exercised hard.
fn generate(seed: u64) -> (TransactionDb, u64) {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let n_items = rng.gen_range(2usize..=10);
    let n_txn = rng.gen_range(4usize..=80);
    let zipf = Zipf::new(n_items, 0.5 + rng.gen::<f64>());
    let mut db = TransactionDb::new();
    for _ in 0..n_txn {
        let target = rng.gen_range(1usize..=n_items);
        let mut row = BTreeSet::new();
        for _ in 0..target {
            row.insert(zipf.sample(&mut rng) as Item);
        }
        let row: Vec<Item> = row.into_iter().collect();
        // Duplicate some rows to force support ties.
        let copies = if rng.gen_bool(0.3) { rng.gen_range(2usize..=4) } else { 1 };
        for _ in 0..copies {
            db.push(&row);
        }
    }
    let minsup = rng.gen_range(1..=(db.len() as u64 / 3).max(2));
    (db, minsup)
}

fn mine_mode(db: &TransactionDb, minsup: u64, output: OutputMode) -> Vec<(Vec<Item>, u64)> {
    let mut sink = CollectSink::new();
    CfpGrowthMiner::new()
        .try_mine_with(db, minsup, &mut sink, &MineOpts { output, ..MineOpts::default() })
        .unwrap_or_else(|e| panic!("{output} mining failed: {e}"));
    sink.itemsets
}

fn is_subset(sub: &[Item], sup: &[Item]) -> bool {
    let set: BTreeSet<&Item> = sup.iter().collect();
    sub.iter().all(|i| set.contains(i))
}

#[test]
fn maximal_is_a_subset_of_closed_is_a_subset_of_frequent() {
    for seed in 0..SEEDS {
        let (db, minsup) = generate(seed);
        let full: BTreeSet<(Vec<Item>, u64)> =
            mine_mode(&db, minsup, OutputMode::All).into_iter().collect();
        let closed: BTreeSet<(Vec<Item>, u64)> =
            mine_mode(&db, minsup, OutputMode::Closed).into_iter().collect();
        let maximal: BTreeSet<(Vec<Item>, u64)> =
            mine_mode(&db, minsup, OutputMode::Maximal).into_iter().collect();
        for entry in &maximal {
            assert!(closed.contains(entry), "seed {seed}: maximal itemset {entry:?} is not closed");
        }
        for entry in &closed {
            assert!(
                full.contains(entry),
                "seed {seed}: closed itemset {entry:?} is not frequent (or has a wrong support)"
            );
        }
        assert!(closed.len() <= full.len());
        assert!(maximal.len() <= closed.len());
    }
}

#[test]
fn every_frequent_itemset_has_a_closed_superset_of_equal_support() {
    let mut nontrivial = 0u64;
    for seed in 0..SEEDS {
        let (db, minsup) = generate(seed);
        let full = mine_mode(&db, minsup, OutputMode::All);
        let closed = mine_mode(&db, minsup, OutputMode::Closed);
        if full.len() > closed.len() {
            nontrivial += 1;
        }
        for (items, support) in &full {
            assert!(
                closed.iter().any(|(c, s)| s == support && is_subset(items, c)),
                "seed {seed}: frequent itemset {items:?} (support {support}) has no closed \
                 superset of equal support"
            );
        }
    }
    assert!(nontrivial > 0, "no seed ever condensed anything — generator too weak");
}

#[test]
fn every_frequent_itemset_is_covered_by_a_maximal_itemset() {
    for seed in 0..SEEDS {
        let (db, minsup) = generate(seed);
        let full = mine_mode(&db, minsup, OutputMode::All);
        let maximal = mine_mode(&db, minsup, OutputMode::Maximal);
        for (items, _) in &full {
            assert!(
                maximal.iter().any(|(m, _)| is_subset(items, m)),
                "seed {seed}: frequent itemset {items:?} is not covered by any maximal itemset"
            );
        }
        // Maximality is an antichain: no maximal itemset contains another.
        for (i, (a, _)) in maximal.iter().enumerate() {
            for (b, _) in maximal.iter().skip(i + 1) {
                assert!(
                    !is_subset(a, b) && !is_subset(b, a),
                    "seed {seed}: maximal itemsets {a:?} and {b:?} are nested"
                );
            }
        }
    }
}

/// Partitioned condensed mining, with the memory and the disk store:
/// the partitioned rung mines each partition with exact global
/// supports, reconciles cross-partition subsumption in descending range
/// order, and (for top-k) selects winners globally after all partitions
/// — so its result must equal the in-memory engine's on every shape.
#[test]
fn spill_rung_matches_in_memory_for_every_output_mode() {
    use cfp_core::{RecoveryPolicy, Supervisor};
    let mut multi_partition = 0u64;
    for seed in 0..12 {
        let (db, minsup) = generate(seed);
        for output in [OutputMode::Closed, OutputMode::Maximal, OutputMode::TopK(6)] {
            let want = mine_mode(&db, minsup, output);
            for policy in [RecoveryPolicy::Partition, RecoveryPolicy::Spill] {
                let parent = std::env::temp_dir().join(format!(
                    "cfp-condensed-spill-{}-{seed}-{output}-{}",
                    std::process::id(),
                    policy.name()
                ));
                let _ = std::fs::remove_dir_all(&parent);
                let sup = Supervisor {
                    spill_dir: Some(parent.clone()),
                    output,
                    ..Supervisor::new(policy)
                };
                let mut sink = CollectSink::new();
                let (r, report) = sup.mine_out_of_core(&db, minsup, &mut sink, None);
                let cell = format!("seed {seed} {output} {}", policy.name());
                r.unwrap_or_else(|e| panic!("{cell}: partitioned mining failed: {e}"));
                if report.final_partitions >= 2 {
                    multi_partition += 1;
                }
                let _ = std::fs::remove_dir_all(&parent);
                if matches!(output, OutputMode::TopK(_)) {
                    // Global top-k selection drains in deterministic order.
                    assert_eq!(sink.itemsets, want, "{cell}");
                } else {
                    let mut got = sink.itemsets;
                    let mut want = want.clone();
                    got.sort();
                    want.sort();
                    assert_eq!(got, want, "{cell}");
                }
            }
        }
    }
    assert!(
        multi_partition > 0,
        "no run ever split into multiple partitions — cross-partition reconcile untested"
    );
}

#[test]
fn topk_returns_exactly_the_k_highest_supports_with_deterministic_ties() {
    for seed in 0..SEEDS {
        let (db, minsup) = generate(seed);
        let mut full = mine_mode(&db, minsup, OutputMode::All);
        // The reference order: support descending, itemset ascending.
        full.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        for k in [1usize, 2, 5, full.len() + 3] {
            let got = mine_mode(&db, minsup, OutputMode::TopK(k));
            let want: Vec<_> = full.iter().take(k).cloned().collect();
            assert_eq!(got, want, "seed {seed}, k {k}: top-k diverged from the sorted full set");
            // Determinism: an independent run reproduces it byte for byte.
            assert_eq!(got, mine_mode(&db, minsup, OutputMode::TopK(k)), "seed {seed}, k {k}");
        }
        // Prefix coherence: top-(k-1) is a prefix of top-k, so ties can
        // never reshuffle under a different k.
        let top5 = mine_mode(&db, minsup, OutputMode::TopK(5));
        let top4 = mine_mode(&db, minsup, OutputMode::TopK(4));
        assert_eq!(&top5[..top5.len().min(4)], &top4[..], "seed {seed}: k=4 not a prefix of k=5");
    }
}
