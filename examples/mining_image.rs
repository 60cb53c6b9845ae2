//! Build-once, mine-many with persisted mining images.
//!
//! Demonstrates the out-of-core-friendly workflow: generate a dataset to a
//! FIMI file, mine it straight from disk with the double-buffered
//! streaming pipeline, then build a compact [`cfp_core::MiningImage`]
//! (8–10x smaller than an FP-tree), persist it, reload it, and mine it
//! repeatedly at increasing support thresholds without touching the raw
//! data again.
//!
//! ```text
//! cargo run --release -p cfp-examples --bin mining_image
//! ```

use cfp_core::{CfpGrowthMiner, CountingSink, MineOpts, MiningImage, Source};
use cfp_data::{fimi, profiles, ParsePolicy};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join("cfp_example_image");
    std::fs::create_dir_all(&dir)?;
    let data_path = dir.join("retail.dat");
    let image_path = dir.join("retail.cfpi");

    // 1. A dataset on disk, as it would arrive in practice.
    let profile = profiles::by_name("retail-like").expect("built-in profile");
    let db = profile.generate();
    fimi::write_file(&db, &data_path)?;
    let raw_size = std::fs::metadata(&data_path)?.len();
    println!("raw FIMI file: {}", cfp_metrics::fmt_bytes(raw_size));

    // 2. Stream-mine the file directly (two passes, two fixed buffers).
    let min_support = profile.absolute_support(&db, 2);
    let source = Source::file(&data_path, ParsePolicy::Strict);
    let mut sink = CountingSink::new();
    let stats = CfpGrowthMiner::new().try_mine_with(
        &source,
        min_support,
        &mut sink,
        &MineOpts::default(),
    )?;
    println!(
        "streamed mining at support {min_support}: {} itemsets in {:.2?}, peak {}",
        sink.count,
        stats.total_time(),
        cfp_metrics::fmt_bytes(stats.peak_bytes)
    );

    // 3. Build and persist a mining image at the lowest support of
    //    interest, from the same source (pass 1 is not repeated).
    let image = MiningImage::try_build(&source, min_support)?;
    image.save(&image_path)?;
    let image_size = std::fs::metadata(&image_path)?.len();
    println!(
        "mining image: {} on disk ({:.1}x smaller than the raw data), {} nodes",
        cfp_metrics::fmt_bytes(image_size),
        raw_size as f64 / image_size as f64,
        cfp_metrics::fmt_count(image.array().num_nodes()),
    );

    // 4. Reload and mine at several (higher) thresholds — no rescan.
    let loaded = MiningImage::load(&image_path)?;
    for factor in [1, 2, 4, 8] {
        let support = min_support * factor;
        let mut sink = CountingSink::new();
        let stats = loaded.mine(support, &mut sink);
        println!("  support {support:>6}: {:>7} itemsets in {:.2?}", sink.count, stats.mine_time);
    }

    std::fs::remove_file(&data_path).ok();
    std::fs::remove_file(&image_path).ok();
    Ok(())
}
