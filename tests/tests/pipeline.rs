//! End-to-end pipelines: FIMI files, double-buffered reading, structure
//! conversions, and the memory claims across the full stack.

use cfp_core::{CfpGrowthMiner, CountingSink, Miner};
use cfp_data::double_buffer::DoubleBufferedReader;
use cfp_data::{fimi, profiles, ItemRecoder, ParsePolicy, TransactionDb};
use cfp_fptree::{FpGrowthMiner, FpTree};
use cfp_integration::mine_sorted;
use cfp_tree::CfpTree;

#[test]
fn fimi_file_to_itemsets() {
    let dir = std::env::temp_dir().join("cfp_integration");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("pipeline.dat");
    let db = TransactionDb::from_rows(&[
        vec![3, 1, 4],
        vec![1, 5],
        vec![9, 2, 6],
        vec![5, 3],
        vec![1, 4],
    ]);
    fimi::write_file(&db, &path).unwrap();

    let loaded = fimi::read_file_with_policy(&path, ParsePolicy::Strict).unwrap().0;
    assert_eq!(loaded, db);
    let got = mine_sorted(&CfpGrowthMiner::new(), &loaded, 2);
    assert_eq!(got, vec![(vec![1], 3), (vec![1, 4], 2), (vec![3], 2), (vec![4], 2), (vec![5], 2)]);
    std::fs::remove_file(&path).ok();
}

#[test]
fn double_buffered_reader_feeds_identical_tree() {
    let p = profiles::by_name("retail-like").unwrap();
    let db = p.generate();
    let mut text = Vec::new();
    fimi::write(&db, &mut text).unwrap();

    // Stream through the double-buffered reader while building the tree,
    // exactly as the paper's build phase consumes input.
    let minsup = p.absolute_support(&db, 0);
    let recoder = ItemRecoder::scan(&db, minsup);
    let mut streamed = CfpTree::new(recoder.num_items());
    let mut buf = Vec::new();
    DoubleBufferedReader::with_policy(std::io::Cursor::new(text), 999, ParsePolicy::Strict)
        .for_each_transaction(|t| {
            recoder.recode_transaction(t, &mut buf);
            streamed.insert(&buf, 1);
        })
        .unwrap();

    let direct = CfpTree::from_db(&db, &recoder);
    assert_eq!(streamed.num_nodes(), direct.num_nodes());
    assert_eq!(streamed.weight_total(), direct.weight_total());
    assert_eq!(streamed.arena_used(), direct.arena_used());
}

#[test]
fn conversion_preserves_structure_on_every_profile() {
    for p in profiles::all() {
        let db = p.generate();
        let minsup = p.absolute_support(&db, 1);
        let recoder = ItemRecoder::scan(&db, minsup);
        let fp = FpTree::from_db(&db, &recoder);
        let cfp = CfpTree::from_db(&db, &recoder);
        let array = cfp_core::convert(&cfp);

        assert_eq!(cfp.num_nodes(), fp.num_nodes() as u64, "{}", p.name);
        assert_eq!(array.num_nodes(), cfp.num_nodes(), "{}", p.name);
        for item in 0..recoder.num_items() as u32 {
            assert_eq!(array.item_support(item), fp.item_support(item), "{} item {item}", p.name);
            assert_eq!(cfp.item_support(item), fp.item_support(item));
        }
    }
}

#[test]
fn cfp_memory_is_an_order_of_magnitude_below_the_paper_baseline() {
    for p in profiles::all() {
        let db = p.generate();
        let minsup = p.absolute_support(&db, 2);
        let recoder = ItemRecoder::scan(&db, minsup);
        let cfp = CfpTree::from_db(&db, &recoder);
        if cfp.num_nodes() < 10_000 {
            continue;
        }
        let baseline = cfp.num_nodes() * FpTree::PAPER_NODE_BYTES as u64;
        assert!(
            cfp.arena_used() * 6 < baseline,
            "{}: cfp-tree {} vs 40B-baseline {} not even 6x smaller",
            p.name,
            cfp.arena_used(),
            baseline
        );
        let array = cfp_core::convert(&cfp);
        assert!(
            array.data_bytes() * 8 <= baseline,
            "{}: cfp-array {} vs baseline {} not 8x smaller",
            p.name,
            array.data_bytes(),
            baseline
        );
    }
}

#[test]
fn cfp_growth_peak_memory_beats_fp_growth_at_scale() {
    let p = profiles::by_name("quest1").unwrap();
    let db = p.generate();
    let minsup = p.absolute_support(&db, 1);
    let mut sink = CountingSink::new();
    let cfp = CfpGrowthMiner::new().mine(&db, minsup, &mut sink);
    let mut sink = CountingSink::new();
    let fp = FpGrowthMiner::new().mine(&db, minsup, &mut sink);
    assert!(cfp.peak_bytes * 3 < fp.peak_bytes, "cfp {} vs fp {}", cfp.peak_bytes, fp.peak_bytes);
    // Conversion is a small fraction of the total runtime (§3.5).
    assert!(cfp.convert_time < cfp.total_time() / 3);
}
