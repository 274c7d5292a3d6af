//! Binary persistence for tables: snapshot a dataset to disk and reload it
//! bit-exactly, so large generated experiment inputs can be reused across
//! runs.
//!
//! Format (`SKYC` v1, little-endian):
//!
//! ```text
//! magic   b"SKYC"            4 bytes
//! version u32                = 1
//! dims    u32
//! page_capacity u64
//! cost model: seek, per_point, probe, index_entry  4 × u64
//! n_slots u64                heap slots, including tombstoned rows
//! live bitmap                ⌈n_slots / 8⌉ bytes (LSB-first)
//! coords  n_slots · dims · f64
//! checksum u64               FNV-1a over everything above
//! ```
//!
//! Indexes are rebuilt on load (cheaper than storing them and immune to
//! format drift). Loading validates magic, version, checksum and NaN-
//! freedom before constructing the table.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

use bytes::{Buf, BufMut, Bytes, BytesMut};

use skycache_geom::Point;

use crate::cost::CostModel;
use crate::error::StorageError;
use crate::table::{Table, TableConfig};
use crate::Result;

const MAGIC: &[u8; 4] = b"SKYC";
const VERSION: u32 = 1;

/// Validates a decoded item count against the bytes that must back it:
/// `n` items of `item_bytes` each have to fit in what remains of `buf`,
/// so a corrupted header can never drive an allocation larger than the
/// file that carries it. This is the designated `range-taint` validator
/// for this module — decoded counts pass through here before reaching
/// `Vec::with_capacity`.
fn checked_len(n: u64, item_bytes: usize, buf: &Bytes, what: &str) -> Result<usize> {
    let n = usize::try_from(n).map_err(|_| StorageError::Corrupt(format!("{what} overflow")))?;
    match n.checked_mul(item_bytes) {
        Some(total) if total <= buf.remaining() => Ok(n),
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

impl Table {
    /// Serializes the table (heap + tombstones + config) to `path`.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        let mut buf = BytesMut::with_capacity(64 + self.slot_count() * (self.dims() * 8 + 1));
        buf.put_slice(MAGIC);
        buf.put_u32_le(VERSION);
        buf.put_u32_le(self.dims() as u32);
        buf.put_u64_le(self.config().page_capacity as u64);
        let m = self.config().cost_model;
        buf.put_u64_le(m.seek_ns);
        buf.put_u64_le(m.per_point_ns);
        buf.put_u64_le(m.probe_ns);
        buf.put_u64_le(m.index_entry_ns);
        let n = self.slot_count();
        buf.put_u64_le(n as u64);

        // Live bitmap, LSB-first.
        let mut byte = 0u8;
        for slot in 0..n {
            if self.is_live(slot as u32) {
                byte |= 1 << (slot % 8);
            }
            if slot % 8 == 7 {
                buf.put_u8(byte);
                byte = 0;
            }
        }
        if !n.is_multiple_of(8) {
            buf.put_u8(byte);
        }

        for p in self.all_points() {
            for &c in p.coords() {
                buf.put_f64_le(c);
            }
        }

        let checksum = fnv1a(&buf);
        buf.put_u64_le(checksum);

        let mut file = BufWriter::new(File::create(path)?);
        file.write_all(&buf)?;
        file.flush()?;
        Ok(())
    }

    /// Loads a table previously written by [`Table::save`]. The file is
    /// held in memory once — verified, then parsed in place — and released
    /// before the indexes are rebuilt.
    pub fn load(path: impl AsRef<Path>) -> Result<Table> {
        let mut raw = std::fs::read(path)?;
        let payload_len = raw
            .len()
            .checked_sub(8)
            .ok_or_else(|| StorageError::Corrupt("file too short".into()))?;
        let (payload, tail) = raw.split_at(payload_len);
        // skylint: allow(no-panic-paths) — split_at gives tail exactly 8 bytes.
        let stored = u64::from_le_bytes(tail.try_into().expect("8 bytes"));
        if fnv1a(payload) != stored {
            return Err(StorageError::Corrupt("checksum mismatch".into()));
        }
        raw.truncate(payload_len);

        let mut buf = Bytes::from(raw);
        fn need(buf: &Bytes, n: usize, what: &str) -> Result<()> {
            if buf.remaining() < n {
                return Err(StorageError::Corrupt(format!("truncated {what}")));
            }
            Ok(())
        }
        need(&buf, 4 + 4 + 4 + 8 + 32 + 8, "header")?;
        let mut magic = [0u8; 4];
        buf.copy_to_slice(&mut magic);
        if &magic != MAGIC {
            return Err(StorageError::Corrupt("bad magic".into()));
        }
        if buf.get_u32_le() != VERSION {
            return Err(StorageError::Corrupt("unsupported version".into()));
        }
        let dims = buf.get_u32_le() as usize;
        if dims == 0 {
            return Err(StorageError::Corrupt("zero dimensions".into()));
        }
        let page_capacity = usize::try_from(buf.get_u64_le())
            .map_err(|_| StorageError::Corrupt("page capacity overflow".into()))?;
        let cost_model = CostModel {
            seek_ns: buf.get_u64_le(),
            per_point_ns: buf.get_u64_le(),
            probe_ns: buf.get_u64_le(),
            index_entry_ns: buf.get_u64_le(),
        };
        let n = checked_len(buf.get_u64_le(), dims * 8, &buf, "slot count")?;

        let bitmap_len = n.div_ceil(8);
        need(&buf, bitmap_len, "live bitmap")?;
        let bitmap = &buf.chunk()[..bitmap_len];
        let live: Vec<bool> = (0..n).map(|i| bitmap[i / 8] & (1 << (i % 8)) != 0).collect();
        buf.advance(bitmap_len);

        let payload_len = n
            .checked_mul(dims * 8)
            .ok_or_else(|| StorageError::Corrupt("point payload overflow".into()))?;
        need(&buf, payload_len, "points")?;
        let mut points = Vec::with_capacity(n);
        for slot in 0..n {
            let coords: Vec<f64> = (0..dims).map(|_| buf.get_f64_le()).collect();
            if coords.iter().any(|c| c.is_nan()) {
                return Err(StorageError::Corrupt(format!("NaN in slot {slot}")));
            }
            points.push(Point::new_unchecked(coords));
        }
        // The file image goes before the index build allocates its sort
        // buffers: from here on the heap is the only copy of the data.
        drop(buf);

        Table::from_parts(points, live, TableConfig { page_capacity, cost_model })
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

    #[test]
    fn oversized_slot_count_is_rejected_before_allocating() {
        // Hand-build a header whose slot count claims more points than
        // the file can possibly carry; load must fail in the validator,
        // not inside an attempted huge allocation.
        let mut data = Vec::new();
        data.extend_from_slice(MAGIC);
        data.extend_from_slice(&VERSION.to_le_bytes());
        data.extend_from_slice(&2u32.to_le_bytes()); // dims
        data.extend_from_slice(&64u64.to_le_bytes()); // page_capacity
        data.extend_from_slice(&[0u8; 32]); // cost model
        data.extend_from_slice(&u64::MAX.to_le_bytes()); // absurd slot count
        let checksum = super::fnv1a(&data);
        data.extend_from_slice(&checksum.to_le_bytes());
        let path = temp("oversize");
        std::fs::write(&path, &data).unwrap();
        let err = Table::load(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, StorageError::Corrupt(_)), "{err:?}");
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
        let path = temp("magic");
        let mut data = b"NOPE".to_vec();
        data.extend_from_slice(&[0u8; 64]);
        let checksum = super::fnv1a(&data);
        data.extend_from_slice(&checksum.to_le_bytes());
        std::fs::write(&path, &data).unwrap();
        let err = Table::load(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, StorageError::Corrupt(_)), "{err:?}");
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = Table::load("/nonexistent/skycache.skyc").unwrap_err();
        assert!(matches!(err, StorageError::Io(_)), "{err:?}");
    }
}
