//! Deterministic open-addressing hash map keyed by `u64` addresses.
//!
//! Its one user is the coherence sanitizer's shadow map (`oasis-cxl`,
//! `sanitize` builds only), which does a per-line lookup on every memory
//! operation and keeps a shadow for every line ever touched — sparse keys
//! with no locality to exploit, which is what a hash is for (the host
//! cache, whose pollers walk adjacent lines, indexes by line number
//! instead). A general-purpose `HashMap` pays for SIMD group probing,
//! tombstone bookkeeping, and a hasher indirection on every one of those
//! lookups. [`AddrMap`] is the minimal replacement: Fibonacci multiplicative
//! hashing, linear probing, backward-shift deletion (no tombstones, so
//! probe chains never rot), and a load factor capped at 1/2.
//!
//! Iteration order is not exposed at all — callers that need ordered
//! traversal maintain it themselves — so the map cannot leak nondeterminism
//! into simulation results.

/// Fibonacci hashing constant: `floor(2^64 / phi)`, forced odd.
const PHI: u64 = 0x9E37_79B9_7F4A_7C15;

/// Open-addressing `u64 -> V` map with linear probing.
///
/// Invariants: `table.len()` is a power of two, `len < table.len() / 2`
/// (so probe loops always terminate at an empty slot), and there are no
/// tombstones (deletion backward-shifts the following cluster).
#[derive(Debug, Clone)]
pub struct AddrMap<V> {
    table: Vec<Option<(u64, V)>>,
    /// `64 - log2(table.len())`; the hash is the top bits of `addr * PHI`.
    shift: u32,
    mask: usize,
    len: usize,
}

impl<V> Default for AddrMap<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> AddrMap<V> {
    pub fn new() -> Self {
        Self::with_pow2(16)
    }

    fn with_pow2(n: usize) -> Self {
        debug_assert!(n.is_power_of_two() && n >= 2);
        Self {
            table: (0..n).map(|_| None).collect(),
            shift: 64 - n.trailing_zeros(),
            mask: n - 1,
            len: 0,
        }
    }

    #[inline]
    fn home(&self, addr: u64) -> usize {
        (addr.wrapping_mul(PHI) >> self.shift) as usize
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Probe for `addr`: `Ok(pos)` if present, `Err(pos)` at the first
    /// empty slot of its cluster otherwise.
    #[inline]
    fn find(&self, addr: u64) -> Result<usize, usize> {
        let mut i = self.home(addr);
        loop {
            match &self.table[i] {
                None => return Err(i),
                Some((a, _)) if *a == addr => return Ok(i),
                Some(_) => i = (i + 1) & self.mask,
            }
        }
    }

    #[inline]
    pub fn contains(&self, addr: u64) -> bool {
        self.find(addr).is_ok()
    }

    #[inline]
    pub fn get(&self, addr: u64) -> Option<&V> {
        match self.find(addr) {
            Ok(i) => self.table[i].as_ref().map(|(_, v)| v),
            Err(_) => None,
        }
    }

    #[inline]
    pub fn get_mut(&mut self, addr: u64) -> Option<&mut V> {
        match self.find(addr) {
            Ok(i) => self.table[i].as_mut().map(|(_, v)| v),
            Err(_) => None,
        }
    }

    /// Insert or replace; returns the previous value if any.
    pub fn insert(&mut self, addr: u64, v: V) -> Option<V> {
        match self.find(addr) {
            Ok(i) => {
                let slot = self.table[i].as_mut().unwrap();
                Some(std::mem::replace(&mut slot.1, v))
            }
            Err(i) => {
                if (self.len + 1) * 2 > self.table.len() {
                    self.grow();
                    let i = self.find(addr).unwrap_err();
                    self.table[i] = Some((addr, v));
                } else {
                    self.table[i] = Some((addr, v));
                }
                self.len += 1;
                None
            }
        }
    }

    /// Fetch `addr`'s value, inserting `f()` first if absent.
    pub fn get_or_insert_with(&mut self, addr: u64, f: impl FnOnce() -> V) -> &mut V {
        if self.find(addr).is_err() {
            self.insert(addr, f());
        }
        let i = self.find(addr).unwrap();
        &mut self.table[i].as_mut().unwrap().1
    }

    /// Remove `addr`, backward-shifting the rest of its probe cluster so
    /// no tombstone is left behind.
    pub fn remove(&mut self, addr: u64) -> Option<V> {
        let Ok(mut i) = self.find(addr) else {
            return None;
        };
        let (_, val) = self.table[i].take().unwrap();
        self.len -= 1;
        let mut j = i;
        loop {
            j = (j + 1) & self.mask;
            let a = match &self.table[j] {
                None => break,
                Some((a, _)) => *a,
            };
            // The entry at `j` may fill the hole at `i` only if its home
            // slot is cyclically at or before `i` (probe distance from
            // home to `j` covers the hole); otherwise moving it would put
            // it before its home and make it unfindable.
            let probe = j.wrapping_sub(self.home(a)) & self.mask;
            let need = j.wrapping_sub(i) & self.mask;
            if probe >= need {
                self.table[i] = self.table[j].take();
                i = j;
            }
        }
        Some(val)
    }

    pub fn clear(&mut self) {
        for slot in &mut self.table {
            *slot = None;
        }
        self.len = 0;
    }

    fn grow(&mut self) {
        let n = self.table.len() * 2;
        let old = std::mem::replace(&mut self.table, (0..n).map(|_| None).collect());
        self.shift = 64 - n.trailing_zeros();
        self.mask = n - 1;
        for (a, v) in old.into_iter().flatten() {
            let i = self.find(a).unwrap_err();
            self.table[i] = Some((a, v));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// Tiny deterministic PRNG for the model cross-check.
    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 11
        }
    }

    #[test]
    fn basic_ops() {
        let mut m = AddrMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(64, "a"), None);
        assert_eq!(m.insert(128, "b"), None);
        assert_eq!(m.insert(64, "c"), Some("a"));
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(64), Some(&"c"));
        assert!(m.contains(128));
        assert!(!m.contains(192));
        assert_eq!(m.remove(64), Some("c"));
        assert_eq!(m.remove(64), None);
        assert_eq!(m.len(), 1);
        *m.get_or_insert_with(256, || "d") = "e";
        assert_eq!(m.get(256), Some(&"e"));
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.get(128), None);
    }

    #[test]
    fn matches_std_hashmap_under_random_ops() {
        // Line-aligned addresses over a small universe force long probe
        // clusters and exercise backward-shift deletion heavily.
        let mut rng = Lcg(0x5eed);
        let mut m: AddrMap<u64> = AddrMap::new();
        let mut model: HashMap<u64, u64> = HashMap::new();
        for step in 0..200_000u64 {
            let addr = (rng.next() % 97) * 64;
            match rng.next() % 4 {
                0 | 1 => {
                    assert_eq!(m.insert(addr, step), model.insert(addr, step));
                }
                2 => {
                    assert_eq!(m.remove(addr), model.remove(&addr));
                }
                _ => {
                    assert_eq!(m.get(addr), model.get(&addr));
                    assert_eq!(m.contains(addr), model.contains_key(&addr));
                }
            }
            assert_eq!(m.len(), model.len());
        }
        // Every surviving key still resolvable after the churn.
        for (k, v) in &model {
            assert_eq!(m.get(*k), Some(v));
        }
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut m = AddrMap::new();
        for i in 0..1000u64 {
            m.insert(i * 64, i);
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000u64 {
            assert_eq!(m.get(i * 64), Some(&i));
        }
    }
}
