//! Bloom filters for SST point lookups.
//!
//! Each SST carries a bloom filter over its keys so a `get` can skip
//! files that cannot contain the key — the standard LSM read
//! optimization; without it every lookup would pay one device read per
//! level.

/// A fixed-size bloom filter using double hashing (Kirsch–Mitzenmacher).
///
/// # Examples
///
/// ```
/// use bh_kv::BloomFilter;
/// let mut b = BloomFilter::with_capacity(100, 10);
/// b.insert(b"hello");
/// assert!(b.contains(b"hello"));
/// ```
#[derive(Debug, Clone)]
pub struct BloomFilter {
    bits: Vec<u64>,
    num_bits: u64,
    hashes: u32,
}

/// The filter's primary hash of a key (64-bit FNV-1a); every bit
/// position is derived from it.
pub fn key_hash(data: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// A second, independent mix for double hashing.
fn mix(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51afd7ed558ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ceb9fe1a85ec53);
    h ^ (h >> 33)
}

impl BloomFilter {
    /// Creates a filter sized for `items` expected keys at `bits_per_key`
    /// bits each (10 bits/key ≈ 1% false positives).
    pub fn with_capacity(items: usize, bits_per_key: usize) -> Self {
        let num_bits = ((items.max(1) * bits_per_key) as u64).max(64);
        // Optimal k = ln2 * bits/key, clamped to a sane range.
        let hashes = ((bits_per_key as f64 * 0.69) as u32).clamp(1, 12);
        BloomFilter {
            bits: vec![0; num_bits.div_ceil(64) as usize],
            num_bits,
            hashes,
        }
    }

    /// Rebuilds a filter from its serialized parts (see
    /// [`BloomFilter::to_words`]).
    pub fn from_words(bits: Vec<u64>, num_bits: u64, hashes: u32) -> Self {
        BloomFilter {
            bits,
            num_bits,
            hashes,
        }
    }

    /// Serialized form: the bit words plus parameters.
    pub fn to_words(&self) -> (&[u64], u64, u32) {
        (&self.bits, self.num_bits, self.hashes)
    }

    /// Bit positions for a key whose primary hash is `h1`.
    fn positions(&self, h1: u64) -> impl Iterator<Item = u64> {
        let h2 = mix(h1) | 1; // Odd so all positions vary.
        let n = self.num_bits;
        (0..self.hashes as u64).map(move |i| h1.wrapping_add(i.wrapping_mul(h2)) % n)
    }

    /// Adds a key.
    pub fn insert(&mut self, key: &[u8]) {
        self.insert_hash(key_hash(key));
    }

    /// Adds a key by its [`key_hash`]. The SST builder keeps hashes, not
    /// keys, because the filter can only be sized once the key count is
    /// known.
    pub fn insert_hash(&mut self, hash: u64) {
        for p in self.positions(hash) {
            self.bits[(p / 64) as usize] |= 1 << (p % 64);
        }
    }

    /// Tests membership; false positives possible, false negatives never.
    pub fn contains(&self, key: &[u8]) -> bool {
        self.positions(key_hash(key))
            .all(|p| self.bits[(p / 64) as usize] & (1 << (p % 64)) != 0)
    }

    /// Approximate memory footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        self.bits.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut b = BloomFilter::with_capacity(1000, 10);
        for i in 0..1000u32 {
            b.insert(&i.to_le_bytes());
        }
        for i in 0..1000u32 {
            assert!(b.contains(&i.to_le_bytes()), "lost key {i}");
        }
    }

    #[test]
    fn false_positive_rate_is_low() {
        let mut b = BloomFilter::with_capacity(1000, 10);
        for i in 0..1000u32 {
            b.insert(&i.to_le_bytes());
        }
        let fp = (1000..11_000u32)
            .filter(|i| b.contains(&i.to_le_bytes()))
            .count();
        let rate = fp as f64 / 10_000.0;
        assert!(rate < 0.03, "false positive rate {rate}");
    }

    #[test]
    fn empty_filter_contains_nothing_surely() {
        let b = BloomFilter::with_capacity(10, 10);
        let hits = (0..1000u32)
            .filter(|i| b.contains(&i.to_le_bytes()))
            .count();
        assert_eq!(hits, 0);
    }

    #[test]
    fn serialization_roundtrip() {
        let mut b = BloomFilter::with_capacity(100, 10);
        b.insert(b"key");
        let (words, bits, hashes) = b.to_words();
        let b2 = BloomFilter::from_words(words.to_vec(), bits, hashes);
        assert!(b2.contains(b"key"));
        assert!(!b2.contains(b"other"));
    }

    #[test]
    fn insert_hash_sets_the_same_words_as_insert() {
        let mut by_key = BloomFilter::with_capacity(500, 10);
        let mut by_hash = BloomFilter::with_capacity(500, 10);
        for i in 0..500u32 {
            let key = format!("user{i:012}");
            by_key.insert(key.as_bytes());
            by_hash.insert_hash(key_hash(key.as_bytes()));
        }
        assert_eq!(by_key.to_words(), by_hash.to_words());
    }

    #[test]
    fn tiny_capacity_still_works() {
        let mut b = BloomFilter::with_capacity(0, 10);
        b.insert(b"x");
        assert!(b.contains(b"x"));
    }
}
