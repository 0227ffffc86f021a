//! Atomic read/write shared memory.
//!
//! The paper's model is a read/write shared-memory system: in one step a
//! process reads or writes a single atomic register (§2.1). [`SharedMemory`]
//! is an *addressed* register file: registers are named by structured
//! [`RegKey`]s rather than allocated, so unboundedly many logical registers
//! (e.g. one consensus instance per simulated step in Figure 2) exist without
//! any allocation coordination between processes. Reading a never-written
//! register returns `⊥` ([`Value::Unit`]), exactly as an initialized-to-`⊥`
//! register would.

use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

use crate::value::Value;

/// Address of a shared register.
///
/// A key is a namespace plus four index coordinates. Namespaces keep the
/// register spaces of independent protocol layers disjoint; the coordinates
/// typically encode (instance, process, round, field).
///
/// # Examples
///
/// ```
/// use wfa_kernel::memory::RegKey;
/// const NS_INPUT: u16 = 7;
/// let r = RegKey::new(NS_INPUT).at(0, 3);
/// assert_eq!(r.ns, NS_INPUT);
/// assert_eq!(r.ix, [3, 0, 0, 0]);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct RegKey {
    /// Namespace discriminator (one per protocol layer).
    pub ns: u16,
    /// Index coordinates, e.g. (instance, process, round, field).
    pub ix: [u32; 4],
}

impl RegKey {
    /// A key in namespace `ns` with all coordinates zero.
    pub const fn new(ns: u16) -> RegKey {
        RegKey { ns, ix: [0; 4] }
    }

    /// Returns a copy of the key with coordinate `pos` set to `v`.
    ///
    /// # Panics
    ///
    /// Panics if `pos >= 4`.
    pub const fn at(mut self, pos: usize, v: u32) -> RegKey {
        self.ix[pos] = v;
        self
    }

    /// Shorthand for a fully indexed key.
    pub const fn idx(ns: u16, a: u32, b: u32, c: u32, d: u32) -> RegKey {
        RegKey { ns, ix: [a, b, c, d] }
    }

    /// The replica group this key routes to when the register space is
    /// partitioned across `shards` independent groups.
    ///
    /// A pure function of the key (FNV-style fold of the namespace and
    /// coordinates through a splitmix64 finalizer), so routing is identical
    /// on every platform and every run — sharded backends stay replayable.
    /// With `shards <= 1` everything routes to group 0.
    pub fn shard_index(&self, shards: usize) -> usize {
        if shards <= 1 {
            return 0;
        }
        let mut x = u64::from(self.ns) ^ 0xcbf2_9ce4_8422_2325;
        for v in self.ix {
            x = x.wrapping_mul(0x0000_0100_0000_01b3) ^ u64::from(v);
        }
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^= x >> 31;
        (x % shards as u64) as usize
    }
}

/// Hash of one (key, value) cell, used as the register's contribution to the
/// memory fingerprint.
fn cell_hash(key: &RegKey, val: &Value) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut h);
    val.hash(&mut h);
    h.finish()
}

/// A register's value plus its cached [`cell_hash`], so overwriting a cell
/// XORs the old contribution out of the memory fingerprint without rehashing
/// the (possibly deep) old value.
#[derive(Clone, Debug)]
struct Cell {
    val: Value,
    hash: u64,
}

/// The shared register file of a run.
///
/// All operations are sequentially consistent by construction: the executor
/// interleaves process steps one at a time, and each step performs at most
/// one memory operation, so every run of the simulator is a legal
/// interleaving of atomic register operations — the exact object the paper
/// quantifies over.
///
/// The cells live in a plain ordered map, so an overwrite updates its cell
/// in place and a fork (`Clone`) copies the map in O(registers). The content
/// fingerprint is the XOR of the per-cell hashes, maintained on every write;
/// hashing the memory into a run fingerprint is O(1) instead of a full
/// rehash of all cells.
#[derive(Clone, Debug, Default)]
pub struct SharedMemory {
    cells: BTreeMap<RegKey, Cell>,
    /// XOR of [`cell_hash`] over all non-`⊥` cells. XOR makes the combination
    /// order-independent (content-based) and incrementally updatable: a write
    /// XORs out the old cell hash and XORs in the new one.
    fp: u64,
}

impl SharedMemory {
    /// Creates an empty memory (every register holds `⊥`).
    pub fn new() -> SharedMemory {
        SharedMemory::default()
    }

    /// Borrowed lookup: the hot path for verifiers and harnesses. Returns
    /// `None` for never-written (`⊥`) registers.
    pub fn get(&self, key: RegKey) -> Option<&Value> {
        self.cells.get(&key).map(|c| &c.val)
    }

    /// Atomically reads register `key`.
    ///
    /// Never-written registers read as [`Value::Unit`]. The returned value is
    /// cheap: tuples are `Arc`-backed, so this is a reference-count bump, not
    /// a deep copy.
    pub fn peek(&self, key: RegKey) -> Value {
        self.get(key).cloned().unwrap_or(Value::Unit)
    }

    /// Atomically writes `val` into register `key`.
    ///
    /// Writing `⊥` restores the register to its initial state (the cell is
    /// dropped, keeping fingerprints canonical).
    pub fn write(&mut self, key: RegKey, val: Value) {
        if val.is_unit() {
            if let Some(old) = self.cells.remove(&key) {
                self.fp ^= old.hash;
            }
        } else {
            let hash = cell_hash(&key, &val);
            if let Some(old) = self.cells.insert(key, Cell { val, hash }) {
                self.fp ^= old.hash;
            }
            self.fp ^= hash;
        }
    }

    /// Number of registers currently holding a non-`⊥` value.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// `true` iff no register holds a non-`⊥` value.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Iterates over the non-`⊥` registers in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&RegKey, &Value)> {
        self.cells.iter().map(|(k, c)| (k, &c.val))
    }

    /// Hashes the memory contents into `h`.
    ///
    /// Two memories with the same fingerprint input are observationally
    /// identical to every process. O(1): feeds the incrementally maintained
    /// content fingerprint rather than rehashing every cell.
    pub fn fingerprint<H: Hasher>(&self, h: &mut H) {
        self.cells.len().hash(h);
        self.fp.hash(h);
    }

    /// The raw incremental content fingerprint (XOR of per-cell hashes).
    pub fn content_fingerprint(&self) -> u64 {
        self.fp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn fp(m: &SharedMemory) -> u64 {
        let mut h = DefaultHasher::new();
        m.fingerprint(&mut h);
        h.finish()
    }

    #[test]
    fn fresh_register_reads_bottom() {
        let m = SharedMemory::new();
        assert_eq!(m.peek(RegKey::new(1)), Value::Unit);
        assert!(m.is_empty());
    }

    #[test]
    fn write_then_read() {
        let mut m = SharedMemory::new();
        let k = RegKey::idx(2, 1, 0, 0, 0);
        m.write(k, Value::Int(42));
        assert_eq!(m.peek(k), Value::Int(42));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn distinct_keys_are_distinct_registers() {
        let mut m = SharedMemory::new();
        m.write(RegKey::idx(1, 0, 0, 0, 0), Value::Int(1));
        m.write(RegKey::idx(1, 1, 0, 0, 0), Value::Int(2));
        m.write(RegKey::idx(2, 0, 0, 0, 0), Value::Int(3));
        assert_eq!(m.peek(RegKey::idx(1, 0, 0, 0, 0)), Value::Int(1));
        assert_eq!(m.peek(RegKey::idx(1, 1, 0, 0, 0)), Value::Int(2));
        assert_eq!(m.peek(RegKey::idx(2, 0, 0, 0, 0)), Value::Int(3));
    }

    #[test]
    fn writing_bottom_erases() {
        let mut m = SharedMemory::new();
        let k = RegKey::new(3);
        let empty = fp(&m);
        m.write(k, Value::Int(5));
        assert_ne!(fp(&m), empty);
        m.write(k, Value::Unit);
        assert_eq!(fp(&m), empty);
        assert_eq!(m.peek(k), Value::Unit);
    }

    #[test]
    fn fingerprint_is_content_based() {
        let mut a = SharedMemory::new();
        let mut b = SharedMemory::new();
        a.write(RegKey::new(1), Value::Int(1));
        a.write(RegKey::new(2), Value::Int(2));
        b.write(RegKey::new(2), Value::Int(2));
        b.write(RegKey::new(1), Value::Int(1));
        assert_eq!(fp(&a), fp(&b));
    }

    #[test]
    fn regkey_builders() {
        let k = RegKey::new(9).at(0, 1).at(3, 7);
        assert_eq!(k, RegKey::idx(9, 1, 0, 0, 7));
    }

    #[test]
    fn shard_index_is_stable_and_in_range() {
        let keys: Vec<RegKey> = (0..64u32)
            .flat_map(|a| (0..4u16).map(move |ns| RegKey::new(ns).at(0, a).at(1, a / 3)))
            .collect();
        for shards in [1usize, 2, 3, 4, 8] {
            for k in &keys {
                let s = k.shard_index(shards);
                assert!(s < shards, "{k:?} → {s} out of range for {shards} shards");
                assert_eq!(s, k.shard_index(shards), "routing must be a pure function");
            }
        }
        // Degenerate shard counts route everything to group 0.
        assert!(keys.iter().all(|k| k.shard_index(0) == 0 && k.shard_index(1) == 0));
        // The mix actually spreads a realistic key population: every group
        // of a 4-way split receives some keys.
        for shards in [2usize, 4] {
            let mut hit = vec![false; shards];
            for k in &keys {
                hit[k.shard_index(shards)] = true;
            }
            assert!(hit.iter().all(|h| *h), "{shards}-way split left a group empty");
        }
    }
}
