//! Binary persistence for tables: snapshot a dataset to disk and reload it
//! bit-exactly, so large generated experiment inputs can be reused across
//! runs.
//!
//! Format (`SKYC` v2, little-endian):
//!
//! ```text
//! magic   b"SKYC"            4 bytes
//! version u32                = 2
//! dims    u32
//! cost model: seek, per_point, probe, index_entry  4 × u64
//! n_slots u64                heap slots, including tombstoned rows
//! live bitmap                ⌈n_slots / 8⌉ bytes (LSB-first)
//! coords  n_slots · dims · f64
//! checksum u64               FNV-1a over everything above
//! ```
//!
//! Indexes are rebuilt on load (cheaper than storing them and immune to
//! format drift). Loading validates magic, version, checksum and NaN-
//! freedom before constructing the table; a version 1 file (which also
//! carried a heap page size) is refused as an unsupported version.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

use skycache_geom::Point;

use crate::cost::CostModel;
use crate::error::StorageError;
use crate::table::{Table, TableConfig};
use crate::Result;

const MAGIC: &[u8; 4] = b"SKYC";
const VERSION: u32 = 2;

/// Validates a decoded item count against the bytes that must back it:
/// `n` items of `item_bytes` each have to fit in `rest`, so a corrupted
/// header can never drive an allocation larger than the file that
/// carries it. Every decoded count passes through here before it sizes
/// an allocation (`crates/bench/tests/alloc_ceiling.rs` loads hostile
/// headers under a counting allocator).
fn checked_len(n: u64, item_bytes: usize, rest: &[u8], what: &str) -> Result<usize> {
    let n = usize::try_from(n).map_err(|_| StorageError::Corrupt(format!("{what} overflow")))?;
    match n.checked_mul(item_bytes) {
        Some(total) if total <= rest.len() => Ok(n),
        _ => Err(StorageError::Corrupt(format!("{what} exceeds payload"))),
    }
}

/// FNV-1a, the classic non-cryptographic integrity hash.
fn fnv1a(data: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The verified file image, consumed front to back.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    /// The next `n` bytes; a shorter image is a truncated `what`.
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        let (head, rest) = self
            .0
            .split_at_checked(n)
            .ok_or_else(|| StorageError::Corrupt(format!("truncated {what}")))?;
        self.0 = rest;
        Ok(head)
    }

    /// The next header field, as the array its `from_le_bytes` takes.
    fn field<const N: usize>(&mut self) -> Result<[u8; N]> {
        let (head, rest) = self
            .0
            .split_first_chunk()
            .ok_or_else(|| StorageError::Corrupt("truncated header".into()))?;
        self.0 = rest;
        Ok(*head)
    }
}

impl Table {
    /// Serializes the table (heap + tombstones + config) to `path`.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        let n = self.slot_count();
        let mut buf = Vec::with_capacity(64 + n * (self.dims() * 8 + 1));
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&(self.dims() as u32).to_le_bytes());
        let m = self.config().cost_model;
        for word in [m.seek_ns, m.per_point_ns, m.probe_ns, m.index_entry_ns, n as u64] {
            buf.extend_from_slice(&word.to_le_bytes());
        }

        // Live bitmap, LSB-first.
        let mut byte = 0u8;
        for slot in 0..n {
            if self.is_live(slot as u32) {
                byte |= 1 << (slot % 8);
            }
            if slot % 8 == 7 {
                buf.push(byte);
                byte = 0;
            }
        }
        if !n.is_multiple_of(8) {
            buf.push(byte);
        }

        for p in self.all_points() {
            for &c in p.coords() {
                buf.extend_from_slice(&c.to_le_bytes());
            }
        }

        let checksum = fnv1a(&buf);
        buf.extend_from_slice(&checksum.to_le_bytes());

        let mut file = BufWriter::new(File::create(path)?);
        file.write_all(&buf)?;
        file.flush()?;
        Ok(())
    }

    /// Loads a table previously written by [`Table::save`]. The file is
    /// held in memory once — verified, then parsed in place — and released
    /// before the indexes are rebuilt.
    pub fn load(path: impl AsRef<Path>) -> Result<Table> {
        let raw = std::fs::read(path)?;
        let payload_len = raw
            .len()
            .checked_sub(8)
            .ok_or_else(|| StorageError::Corrupt("file too short".into()))?;
        let (payload, tail) = raw.split_at(payload_len);
        #[expect(clippy::expect_used, reason = "split_at gives tail exactly 8 bytes")]
        let stored = u64::from_le_bytes(tail.try_into().expect("8 bytes"));
        if fnv1a(payload) != stored {
            return Err(StorageError::Corrupt("checksum mismatch".into()));
        }

        let mut buf = Reader(payload);
        if &buf.field::<4>()? != MAGIC {
            return Err(StorageError::Corrupt("bad magic".into()));
        }
        if u32::from_le_bytes(buf.field()?) != VERSION {
            return Err(StorageError::Corrupt("unsupported version".into()));
        }
        let dims = u32::from_le_bytes(buf.field()?) as usize;
        if dims == 0 {
            return Err(StorageError::Corrupt("zero dimensions".into()));
        }
        let cost_model = CostModel {
            seek_ns: u64::from_le_bytes(buf.field()?),
            per_point_ns: u64::from_le_bytes(buf.field()?),
            probe_ns: u64::from_le_bytes(buf.field()?),
            index_entry_ns: u64::from_le_bytes(buf.field()?),
        };
        let n = checked_len(u64::from_le_bytes(buf.field()?), dims * 8, buf.0, "slot count")?;

        let bitmap = buf.take(n.div_ceil(8), "live bitmap")?;
        let live: Vec<bool> = (0..n).map(|i| bitmap[i / 8] & (1 << (i % 8)) != 0).collect();

        let payload_len = n
            .checked_mul(dims * 8)
            .ok_or_else(|| StorageError::Corrupt("point payload overflow".into()))?;
        let image = buf.take(payload_len, "points")?;
        if !buf.0.is_empty() {
            return Err(StorageError::Corrupt("trailing bytes after the points".into()));
        }
        let mut points = Vec::with_capacity(n);
        for (slot, row) in image.chunks_exact(dims * 8).enumerate() {
            let (words, _) = row.as_chunks();
            let coords: Vec<f64> = words.iter().map(|&w| f64::from_le_bytes(w)).collect();
            if coords.iter().any(|c| c.is_nan()) {
                return Err(StorageError::Corrupt(format!("NaN in slot {slot}")));
            }
            points.push(Point::new_unchecked(coords));
        }
        // The file image goes before the index build allocates its sort
        // buffers: from here on the heap is the only copy of the data.
        drop(raw);

        Table::from_parts(points, live, TableConfig { cost_model })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skycache_geom::Constraints;

    fn temp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("skycache-test-{}-{name}.skyc", std::process::id()))
    }

    fn sample_table() -> Table {
        let points: Vec<Point> = (0..500)
            .map(|i| {
                let x = f64::from(i % 23);
                let y = f64::from(i % 31);
                Point::from(vec![x, y])
            })
            .collect();
        let mut t = Table::build(points, TableConfig::default()).unwrap();
        t.delete(13).unwrap();
        t.delete(255).unwrap();
        t.insert(Point::from(vec![99.0, 99.0])).unwrap();
        t
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let t = sample_table();
        let path = temp("roundtrip");
        t.save(&path).unwrap();
        let loaded = Table::load(&path).unwrap();
        std::fs::remove_file(&path).ok();

        assert_eq!(loaded.len(), t.len());
        assert_eq!(loaded.dims(), t.dims());
        assert!(!loaded.is_live(13));
        assert!(!loaded.is_live(255));
        for c in [
            Constraints::from_pairs(&[(0.0, 22.0), (0.0, 30.0)]).unwrap(),
            Constraints::from_pairs(&[(5.0, 9.0), (7.0, 12.0)]).unwrap(),
            Constraints::from_pairs(&[(99.0, 99.0), (99.0, 99.0)]).unwrap(),
        ] {
            let plan = crate::table::FetchPlan::constrained(&c);
            // Row order among equal index keys is unspecified; compare sets.
            let fetch = |table: &Table| {
                let mut scratch = crate::FetchScratch::new();
                let stats = table.fetch_plan_into(&plan, &mut scratch).stats;
                let buf = scratch.rows();
                let mut rows: Vec<_> =
                    (0..buf.len()).map(|i| (buf.ids()[i], buf.row(i).to_vec())).collect();
                rows.sort_by_key(|r| r.0);
                (rows, stats)
            };
            assert_eq!(fetch(&t), fetch(&loaded), "constraints {c:?}");
        }
    }

    /// A snapshot is named by a plain path the caller chooses; saving
    /// under a name that already holds one replaces it.
    #[test]
    fn snapshot_dir_round_trips_by_name() {
        let mut t = sample_table();
        let path = temp("named");
        t.save(&path).unwrap();
        t.insert(Point::from(vec![1.5, 2.5])).unwrap();
        t.save(&path).unwrap();
        let loaded = Table::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.len(), t.len());
        assert_eq!(loaded.dims(), t.dims());
    }

    /// Loads a hand-built file image — `data` plus its checksum — and
    /// returns the error it must fail with.
    fn load_image(name: &str, mut data: Vec<u8>) -> StorageError {
        let checksum = super::fnv1a(&data);
        data.extend_from_slice(&checksum.to_le_bytes());
        let path = temp(name);
        std::fs::write(&path, &data).unwrap();
        let err = Table::load(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        err
    }

    /// A header up to and including the slot count.
    fn header(version: u32, slots: u64) -> Vec<u8> {
        let mut data = MAGIC.to_vec();
        data.extend_from_slice(&version.to_le_bytes());
        data.extend_from_slice(&2u32.to_le_bytes()); // dims
        data.extend_from_slice(&[0u8; 32]); // cost model
        data.extend_from_slice(&slots.to_le_bytes());
        data
    }

    #[test]
    fn oversized_slot_count_is_rejected_before_allocating() {
        // A slot count that claims more points than the file can possibly
        // carry must fail in the validator, not inside an attempted huge
        // allocation.
        let err = load_image("oversize", header(VERSION, u64::MAX));
        assert_eq!(err, StorageError::Corrupt("slot count exceeds payload".into()));
    }

    #[test]
    fn version_1_file_is_rejected() {
        // Version 1 carried a heap page size after `dims`; such a file is
        // refused by its version field.
        let mut data = header(1, 0);
        data.splice(12..12, 128u64.to_le_bytes());
        let err = load_image("v1", data);
        assert_eq!(err, StorageError::Corrupt("unsupported version".into()));
    }

    #[test]
    fn corruption_is_detected() {
        let t = sample_table();
        let path = temp("corrupt");
        t.save(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let err = Table::load(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, StorageError::Corrupt(_)), "{err:?}");
    }

    #[test]
    fn truncation_is_detected() {
        let t = sample_table();
        let path = temp("trunc");
        t.save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 3]).unwrap();
        let err = Table::load(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, StorageError::Corrupt(_)), "{err:?}");
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut data = header(VERSION, 0);
        data[..4].copy_from_slice(b"NOPE");
        assert_eq!(load_image("magic", data), StorageError::Corrupt("bad magic".into()));
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = Table::load("/nonexistent/skycache.skyc").unwrap_err();
        assert!(matches!(err, StorageError::Io(_)), "{err:?}");
    }
}
