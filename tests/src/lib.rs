//! Integration-test package: the tests live in `tests/tests/`, spanning
//! every crate in the workspace. This library holds only what several of
//! them share.

/// 64-bit FNV-1a over a call or event stream: the digest the lockstep
/// suites (`kv_lockstep.rs`, `conv_lockstep.rs`) pin.
pub struct Digest(pub u64);

impl Digest {
    /// The FNV offset basis.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        Digest(0xcbf29ce484222325)
    }

    /// Folds raw bytes.
    pub fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }

    /// Folds one value, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}
