//! A stable 64-bit digest (FNV-1a) of simulated outputs.
//!
//! Simulated statistics are deterministic functions of the inputs, so
//! their digest must read the same in every run of the same seed,
//! traced or not. A change that only claims host speed can show with
//! it that no simulated number moved.

/// FNV-1a over a stream of values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Feeds raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// Feeds an integer.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Feeds a string (length-prefixed, so concatenations differ).
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }

    /// The digest value.
    #[must_use]
    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_reference_value_and_order_sensitivity() {
        // FNV-1a 64 of "a" is 0xaf63dc4c8601ec8c.
        assert_eq!(Digest::default().bytes(b"a").value(), 0xaf63_dc4c_8601_ec8c);
        let ab = Digest::default().str("a").str("b").value();
        let ba = Digest::default().str("b").str("a").value();
        assert_ne!(ab, ba);
        assert_ne!(
            Digest::default().str("ab").value(),
            Digest::default().str("a").str("b").value()
        );
    }
}
