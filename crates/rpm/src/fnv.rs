//! 64-bit FNV-1a: the stable digest behind [`crate::RpmDb::fingerprint`]
//! and the yum layer's solve-cache keys.

use std::fmt;

/// 64-bit FNV-1a — tiny, dependency-free, and stable across platforms.
/// Not cryptographic; collisions merely cause a (correct-by-replay)
/// cache miss ambiguity that the deterministic solver tolerates.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Terminator after every string, so `("ab","c")` ≠ `("a","bc")`.
const STR_END: u8 = 0xff;

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(FNV_OFFSET)
    }
}

impl Fnv64 {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorb raw bytes.
    pub fn write(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Absorb a string, terminated so `("ab","c")` ≠ `("a","bc")`.
    pub fn write_str(&mut self, s: &str) -> &mut Self {
        self.write(s.as_bytes()).write(&[STR_END])
    }

    /// Absorb a value's `Display` form exactly as
    /// [`write_str`](Self::write_str)`(&v.to_string())` would, without
    /// building the `String`.
    pub fn write_display(&mut self, v: &impl fmt::Display) -> &mut Self {
        struct Absorb<'h>(&'h mut Fnv64);
        impl fmt::Write for Absorb<'_> {
            fn write_str(&mut self, s: &str) -> fmt::Result {
                self.0.write(s.as_bytes());
                Ok(())
            }
        }
        fmt::write(&mut Absorb(self), format_args!("{v}")).expect("hashing cannot fail");
        self.write(&[STR_END])
    }

    /// Absorb a little-endian u64.
    pub fn write_u64(&mut self, v: u64) -> &mut Self {
        self.write(&v.to_le_bytes())
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}
