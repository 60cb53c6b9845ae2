//! Integration tests of the extension layers: parallel mining, mining
//! images, streaming file sources, and rule generation — all cross-checked
//! against the sequential in-memory pipeline on realistic profiles.

use cfp_core::{
    CfpGrowthMiner, CollectSink, CountingSink, MineOpts, Miner, MiningImage,
    ParallelCfpGrowthMiner, Source,
};
use cfp_data::{fimi, profiles, ParsePolicy};
use cfp_integration::fingerprint;
use cfp_rules::{closed_itemsets, maximal_itemsets, RuleMiner};

#[test]
fn parallel_equals_sequential_on_profiles() {
    for name in ["retail-like", "kosarak-like"] {
        let p = profiles::by_name(name).unwrap();
        let db = p.generate();
        let minsup = p.absolute_support(&db, 1);
        let seq = fingerprint(&CfpGrowthMiner::new(), &db, minsup);
        for threads in [2, 5] {
            let par = fingerprint(&ParallelCfpGrowthMiner::new(threads), &db, minsup);
            assert_eq!(par, seq, "{name} with {threads} threads");
        }
    }
}

#[test]
fn image_round_trip_on_a_profile() {
    let p = profiles::by_name("retail-like").unwrap();
    let db = p.generate();
    let minsup = p.absolute_support(&db, 1);

    let image = MiningImage::build(&db, minsup);
    let mut bytes = Vec::new();
    image.write_to(&mut bytes).unwrap();
    let loaded = MiningImage::read_from(bytes.as_slice()).unwrap();

    let mut from_image = CountingSink::new();
    loaded.mine(minsup, &mut from_image);
    let direct = fingerprint(&CfpGrowthMiner::new(), &db, minsup);
    assert_eq!((from_image.count, from_image.support_sum, from_image.item_sum), direct);

    // The serialized image is small: well under 8 bytes per node.
    assert!((bytes.len() as u64) < 8 * loaded.array().num_nodes());
}

#[test]
fn file_mining_equals_in_memory_on_a_profile() {
    let p = profiles::by_name("kosarak-like").unwrap();
    let db = p.generate();
    let minsup = p.absolute_support(&db, 0);

    let dir = std::env::temp_dir().join("cfp_integration_ext");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("kosarak.dat");
    fimi::write_file(&db, &path).unwrap();

    let mut from_file = CountingSink::new();
    let source = Source::file(&path, ParsePolicy::Strict);
    let stats = CfpGrowthMiner::new()
        .try_mine_with(source, minsup, &mut from_file, &MineOpts::default())
        .unwrap();
    let direct = fingerprint(&CfpGrowthMiner::new(), &db, minsup);
    assert_eq!((from_file.count, from_file.support_sum, from_file.item_sum), direct);
    assert!(stats.tree_nodes > 0);
    std::fs::remove_file(&path).ok();
}

#[test]
fn rules_are_consistent_with_supports() {
    let p = profiles::by_name("retail-like").unwrap();
    let db = p.generate();
    let minsup = p.absolute_support(&db, 0);
    let mut sink = CollectSink::new();
    CfpGrowthMiner::new().mine(&db, minsup, &mut sink);
    let itemsets = sink.into_sorted();

    let miner = RuleMiner::new(&itemsets, db.len() as u64);
    let rules = miner.rules(0.6);
    assert!(!rules.is_empty(), "expected confident rules on skewed data");
    for r in rules.iter().take(50) {
        // Verify confidence against raw scans.
        let ant_sup =
            db.iter().filter(|t| r.antecedent.iter().all(|i| t.contains(i))).count() as f64;
        let both = db
            .iter()
            .filter(|t| {
                r.antecedent.iter().all(|i| t.contains(i))
                    && r.consequent.iter().all(|i| t.contains(i))
            })
            .count() as f64;
        assert!((r.confidence - both / ant_sup).abs() < 1e-9, "{r:?}");
    }
}

#[test]
fn condensed_representations_nest_on_a_profile() {
    let p = profiles::by_name("quest1").unwrap();
    let db = p.generate();
    let minsup = p.absolute_support(&db, 1);
    let mut sink = CollectSink::new();
    CfpGrowthMiner::new().mine(&db, minsup, &mut sink);
    let all = sink.into_sorted();
    let closed = closed_itemsets(&all);
    let maximal = maximal_itemsets(&all);
    assert!(maximal.len() <= closed.len());
    assert!(closed.len() <= all.len());
    assert!(!maximal.is_empty());
    // Closed itemsets preserve the support of everything.
    let closed_set: std::collections::HashSet<&Vec<u32>> = closed.iter().map(|(i, _)| i).collect();
    for m in &maximal {
        assert!(closed_set.contains(&m.0));
    }
}
