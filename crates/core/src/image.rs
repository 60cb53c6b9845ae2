//! Persistable mining images: a converted CFP-array plus the item mapping
//! needed to mine it later (or elsewhere).
//!
//! A [`MiningImage`] captures everything the mine phase needs after the
//! two database scans: the compressed array, the recoded-to-original item
//! mapping, and the minimum support the image was built with. Because the
//! CFP-array is 8–10× smaller than an FP-tree, shipping or caching images
//! is correspondingly cheap — build once on the machine that can see the
//! data, mine many times with different sinks or support levels (any
//! support ≥ the build support is valid: items below it are simply absent).

use crate::exec::{prepare, Exec, Prepared, Source};
use crate::growth::{ArrayCharge, MineOpts};
use cfp_array::CfpArray;
use cfp_data::{Item, ItemsetSink, MineStats, TransactionDb};
use cfp_encoding::varint;
use cfp_memman::Component;
use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"CFPI";
const VERSION: u8 = 1;

/// A converted, ready-to-mine CFP-array with its item mapping.
#[derive(Clone, Debug)]
pub struct MiningImage {
    array: Arc<CfpArray>,
    /// Recoded id -> original item id.
    globals: Arc<[Item]>,
    /// Minimum support the image was built with.
    min_support: u64,
}

impl MiningImage {
    /// Builds an image from a database (scan + build + convert).
    pub fn build(db: &TransactionDb, min_support: u64) -> Self {
        let arena = MineOpts::default().arena_options(None, Component::BuildTree);
        let prepared = prepare(Source::Db(db), min_support, arena, &mut MineStats::default())
            .unwrap_or_else(|e| panic!("{e}"));
        MiningImage { array: prepared.array, globals: prepared.globals, min_support }
    }

    /// The compressed array.
    pub fn array(&self) -> &CfpArray {
        &self.array
    }

    /// The minimum support the image was built with.
    pub fn min_support(&self) -> u64 {
        self.min_support
    }

    /// Mines the image with `min_support >= self.min_support()`.
    ///
    /// # Panics
    ///
    /// Panics if `min_support` is below the build support (itemsets
    /// between the two thresholds were discarded at build time and cannot
    /// be recovered from the image).
    pub fn mine(&self, min_support: u64, sink: &mut dyn ItemsetSink) -> MineStats {
        assert!(
            min_support >= self.min_support,
            "image was built at support {}, cannot mine at {min_support}",
            self.min_support
        );
        let exec = Exec { workers: 1, single_path_opt: true, ..Exec::default() };
        let prepared = Prepared::new(
            Arc::clone(&self.array),
            Arc::clone(&self.globals),
            ArrayCharge::new(None, 0),
        );
        let stats = MineStats { tree_nodes: self.array.num_nodes(), ..MineStats::default() };
        exec.mine(prepared, min_support, sink, stats).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Serializes the image (`CFPI` header, then item mapping, then the
    /// embedded `CFPA` array).
    pub fn write_to(&self, mut w: impl Write) -> io::Result<()> {
        w.write_all(MAGIC)?;
        w.write_all(&[VERSION])?;
        let mut buf = [0u8; varint::MAX_LEN_U64];
        let n = varint::write_u64_into(&mut buf, self.min_support);
        w.write_all(&buf[..n])?;
        let n = varint::write_u64_into(&mut buf, self.globals.len() as u64);
        w.write_all(&buf[..n])?;
        for &g in self.globals.iter() {
            let n = varint::write_u64_into(&mut buf, g as u64);
            w.write_all(&buf[..n])?;
        }
        self.array.write_to(w)
    }

    /// Deserializes an image written by [`write_to`](Self::write_to).
    pub fn read_from(mut r: impl Read) -> io::Result<Self> {
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "not a CFPI file"));
        }
        let mut version = [0u8; 1];
        r.read_exact(&mut version)?;
        if version[0] != VERSION {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "unsupported version"));
        }
        let min_support = read_varint(&mut r)?;
        let n = read_varint(&mut r)? as usize;
        let mut globals = Vec::with_capacity(n);
        for _ in 0..n {
            globals.push(
                u32::try_from(read_varint(&mut r)?).map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidData, "item id exceeds u32")
                })?,
            );
        }
        let array = CfpArray::read_from(r)?;
        if array.num_items() != n {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "item mapping disagrees with array",
            ));
        }
        Ok(MiningImage { array: Arc::new(array), globals: globals.into(), min_support })
    }

    /// Convenience: save to a file.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        self.write_to(std::io::BufWriter::new(std::fs::File::create(path)?))
    }

    /// Convenience: load from a file.
    pub fn load(path: impl AsRef<Path>) -> io::Result<Self> {
        Self::read_from(std::io::BufReader::new(std::fs::File::open(path)?))
    }
}

fn read_varint(r: &mut impl Read) -> io::Result<u64> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let mut byte = [0u8; 1];
        r.read_exact(&mut byte)?;
        if shift >= 64 || (shift == 63 && byte[0] & 0x7F > 1) {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "varint overflow"));
        }
        value |= ((byte[0] & 0x7F) as u64) << shift;
        if byte[0] & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CfpGrowthMiner;
    use cfp_data::miner::{CollectSink, Miner};

    fn sample_db() -> TransactionDb {
        TransactionDb::from_rows(&[
            vec![1, 2, 5],
            vec![2, 4],
            vec![2, 3],
            vec![1, 2, 4],
            vec![1, 3],
            vec![2, 3],
            vec![1, 3],
            vec![1, 2, 3, 5],
            vec![1, 2, 3],
        ])
    }

    #[test]
    fn image_mining_matches_direct_mining() {
        let db = sample_db();
        let image = MiningImage::build(&db, 2);
        let mut a = CollectSink::new();
        image.mine(2, &mut a);
        let mut b = CollectSink::new();
        CfpGrowthMiner::new().mine(&db, 2, &mut b);
        assert_eq!(a.into_sorted(), b.into_sorted());
    }

    #[test]
    fn image_supports_higher_thresholds() {
        let db = sample_db();
        let image = MiningImage::build(&db, 2);
        let mut a = CollectSink::new();
        image.mine(4, &mut a);
        let mut b = CollectSink::new();
        CfpGrowthMiner::new().mine(&db, 4, &mut b);
        assert_eq!(a.into_sorted(), b.into_sorted());
    }

    #[test]
    #[should_panic(expected = "cannot mine")]
    fn lower_threshold_is_rejected() {
        let image = MiningImage::build(&sample_db(), 3);
        let mut sink = CollectSink::new();
        image.mine(1, &mut sink);
    }

    #[test]
    fn serialization_round_trip_and_mine() {
        let db = sample_db();
        let image = MiningImage::build(&db, 2);
        let mut bytes = Vec::new();
        image.write_to(&mut bytes).unwrap();
        let loaded = MiningImage::read_from(bytes.as_slice()).unwrap();
        assert_eq!(loaded.min_support(), 2);
        let mut a = CollectSink::new();
        loaded.mine(2, &mut a);
        let mut b = CollectSink::new();
        image.mine(2, &mut b);
        assert_eq!(a.into_sorted(), b.into_sorted());
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("cfp_image");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.cfpi");
        let image = MiningImage::build(&sample_db(), 2);
        image.save(&path).unwrap();
        let loaded = MiningImage::load(&path).unwrap();
        assert_eq!(loaded.array().num_nodes(), image.array().num_nodes());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_header_rejected() {
        assert!(MiningImage::read_from(&b"XXXX"[..]).is_err());
        assert!(MiningImage::read_from(&b"CFPI\x63"[..]).is_err());
    }
}
