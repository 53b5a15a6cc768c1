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
    /// [`reciprocal`] of `num_bits`.
    reciprocal: u128,
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

/// `⌈2¹²⁸ / n⌉` wrapped to 128 bits, the multiplier [`fastmod`] takes
/// for `n`. 0 for an empty filter, which has no positions.
fn reciprocal(n: u64) -> u128 {
    u128::MAX
        .checked_div(u128::from(n))
        .map_or(0, |q| q.wrapping_add(1))
}

/// `a mod n` by multiplication, given `m = reciprocal(n)`. Exact for
/// every 64-bit `a` and `n` (Lemire, Kaser and Kurz, "Faster remainder by
/// direct computation", 2019: a 128-bit `m` covers 64-bit operands).
fn fastmod(a: u64, m: u128, n: u64) -> u64 {
    let fraction = m.wrapping_mul(u128::from(a));
    let high = (fraction >> 64) * u128::from(n);
    let low = (u128::from(fraction as u64) * u128::from(n)) >> 64;
    ((high + low) >> 64) as u64
}

/// The `k` probe positions `(h1 + i·h2 mod 2⁶⁴) mod n` for `i < k`, given
/// `m = reciprocal(n)`. No position waits on another and none divides.
fn probes(h1: u64, h2: u64, n: u64, m: u128, k: u32) -> impl Iterator<Item = u64> {
    (0..u64::from(k)).map(move |i| fastmod(h1.wrapping_add(i.wrapping_mul(h2)), m, n))
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
            reciprocal: reciprocal(num_bits),
        }
    }

    /// Rebuilds a filter from its serialized parts (see
    /// [`BloomFilter::to_words`]).
    pub fn from_words(bits: Vec<u64>, num_bits: u64, hashes: u32) -> Self {
        BloomFilter {
            bits,
            num_bits,
            hashes,
            reciprocal: reciprocal(num_bits),
        }
    }

    /// Serialized form: the bit words plus parameters.
    pub fn to_words(&self) -> (&[u64], u64, u32) {
        (&self.bits, self.num_bits, self.hashes)
    }

    /// Bit positions for a key whose primary hash is `h1`.
    fn positions(&self, h1: u64) -> impl Iterator<Item = u64> {
        let h2 = mix(h1) | 1; // Odd so all positions vary.
        probes(h1, h2, self.num_bits, self.reciprocal, self.hashes)
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
        self.contains_hash(key_hash(key))
    }

    /// Tests membership of a key by its [`key_hash`].
    pub fn contains_hash(&self, hash: u64) -> bool {
        self.positions(hash)
            .all(|p| self.bits[(p / 64) as usize] & (1 << (p % 64)) != 0)
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

    /// The positions as the filter first computed them, one division
    /// each.
    fn reference(h1: u64, h2: u64, n: u64, k: u32) -> Vec<u64> {
        (0..k as u64)
            .map(|i| h1.wrapping_add(i.wrapping_mul(h2)) % n)
            .collect()
    }

    #[test]
    fn insert_hash_sets_the_same_words_as_insert() {
        let mut by_key = BloomFilter::with_capacity(500, 10);
        let mut by_hash = BloomFilter::with_capacity(500, 10);
        // Built the old way: a bit per reference position.
        let mut by_reference = BloomFilter::with_capacity(500, 10);
        let (_, n, k) = by_reference.to_words();
        for i in 0..500u32 {
            let key = format!("user{i:012}");
            by_key.insert(key.as_bytes());
            by_hash.insert_hash(key_hash(key.as_bytes()));
            let h1 = key_hash(key.as_bytes());
            for p in reference(h1, mix(h1) | 1, n, k) {
                by_reference.bits[(p / 64) as usize] |= 1 << (p % 64);
            }
        }
        assert_eq!(by_key.to_words(), by_hash.to_words());
        assert_eq!(by_key.to_words(), by_reference.to_words());
    }

    #[test]
    fn probes_match_the_reference_formula() {
        use crate::merge::tests::seeds;
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        for seed in seeds(0xB10_0F11, 16) {
            let mut rng = SmallRng::seed_from_u64(seed);
            // Filter sizes, then the edges of the arithmetic: powers of
            // two and their neighbours, random sizes up to 2^40, and sizes
            // past 2^63, where the quotient is 0 or 1.
            let mut sizes = vec![1, 64, u64::MAX];
            for e in 1..64 {
                sizes.extend([(1u64 << e) - 1, 1 << e, (1 << e) + 1]);
            }
            sizes.extend((0..64).map(|_| rng.gen_range(1..=1u64 << 40)));
            sizes.extend((0..64).map(|_| rng.gen_range((1u64 << 63) + 1..=u64::MAX)));
            for n in sizes {
                let m = reciprocal(n);
                for a in [0, 1, n - 1, n, u64::MAX] {
                    assert_eq!(fastmod(a, m, n), a % n, "n={n} a={a}");
                }
                for _ in 0..8 {
                    let h1 = rng.gen::<u64>();
                    // The filter's own odd h2, and any h2 at all; 40
                    // probes so the 64-bit sum wraps several times.
                    for h2 in [mix(h1) | 1, rng.gen::<u64>()] {
                        assert_eq!(
                            probes(h1, h2, n, m, 40).collect::<Vec<_>>(),
                            reference(h1, h2, n, 40),
                            "BH_PROP_SEED={seed} n={n} h1={h1:#x} h2={h2:#x}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn tiny_capacity_still_works() {
        let mut b = BloomFilter::with_capacity(0, 10);
        b.insert(b"x");
        assert!(b.contains(b"x"));
    }
}
