//! IEEE 754 binary16 (half precision), implemented in software.
//!
//! The accelerator's multi-function units perform point-wise vector
//! operations and activations in half precision "to avoid quantization
//! noise" (Section 3). Hardware MFUs compute in higher internal precision
//! and round once on writeback; this implementation mirrors that by
//! computing through `f32` and rounding to nearest-even on conversion.

use std::fmt;

/// An IEEE 754 binary16 value (1 sign, 5 exponent, 10 mantissa bits).
///
/// ```
/// use vfpga_isa::F16;
/// let x = F16::from_f32(1.5);
/// assert_eq!(x.to_f32(), 1.5);
/// let y = (x * x) + F16::ONE;
/// assert_eq!(y.to_f32(), 3.25);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct F16(u16);

impl F16 {
    /// Positive zero.
    pub const ZERO: F16 = F16(0x0000);
    /// One.
    pub const ONE: F16 = F16(0x3C00);
    /// Negative one.
    pub const NEG_ONE: F16 = F16(0xBC00);
    /// Positive infinity.
    pub const INFINITY: F16 = F16(0x7C00);
    /// Negative infinity.
    pub const NEG_INFINITY: F16 = F16(0xFC00);
    /// A quiet NaN.
    pub const NAN: F16 = F16(0x7E00);
    /// Largest finite value, 65504.
    pub const MAX: F16 = F16(0x7BFF);
    /// Smallest positive normal value, 2^-14.
    pub const MIN_POSITIVE: F16 = F16(0x0400);
    /// Machine epsilon (2^-10).
    pub const EPSILON: F16 = F16(0x1400);

    /// Constructs from raw bits.
    pub const fn from_bits(bits: u16) -> Self {
        F16(bits)
    }

    /// The raw bit pattern.
    pub const fn to_bits(self) -> u16 {
        self.0
    }

    /// Converts from `f32` with round-to-nearest-even, overflowing to
    /// infinity and flushing tiny values to (signed) zero exactly as the
    /// IEEE conversion does.
    pub fn from_f32(x: f32) -> Self {
        let bits = x.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let exp = ((bits >> 23) & 0xFF) as i32;
        let mant = bits & 0x007F_FFFF;

        if exp == 0xFF {
            // Infinity or NaN.
            return if mant != 0 {
                F16(sign | 0x7E00)
            } else {
                F16(sign | 0x7C00)
            };
        }

        let half_exp = exp - 127 + 15;
        if half_exp >= 0x1F {
            // Overflow to infinity.
            return F16(sign | 0x7C00);
        }
        if half_exp <= 0 {
            // Subnormal half or underflow to zero.
            if half_exp < -10 {
                return F16(sign);
            }
            let full_mant = mant | 0x0080_0000;
            let shift = (14 - half_exp) as u32;
            let mut half_mant = (full_mant >> shift) as u16;
            let round_bit = 1u32 << (shift - 1);
            if (full_mant & round_bit) != 0
                && ((full_mant & (round_bit - 1)) != 0 || (half_mant & 1) == 1)
            {
                half_mant += 1; // may carry into the exponent; that is correct
            }
            return F16(sign | half_mant);
        }

        let mut out = sign | ((half_exp as u16) << 10) | ((mant >> 13) as u16);
        let round_bit = 0x0000_1000u32;
        if (mant & round_bit) != 0 && ((mant & (round_bit - 1)) != 0 || (out & 1) == 1) {
            out += 1; // carry may bump the exponent, saturating to infinity
        }
        F16(out)
    }

    /// Converts to `f32` exactly (every binary16 value is representable).
    pub fn to_f32(self) -> f32 {
        let sign = if self.0 & 0x8000 != 0 { -1.0f32 } else { 1.0 };
        let exp = (self.0 >> 10) & 0x1F;
        let mant = (self.0 & 0x03FF) as f32;
        match exp {
            0 => sign * mant * 2.0f32.powi(-24),
            0x1F => {
                if mant == 0.0 {
                    sign * f32::INFINITY
                } else {
                    f32::NAN
                }
            }
            e => sign * (1.0 + mant / 1024.0) * 2.0f32.powi(i32::from(e) - 15),
        }
    }

    /// Whether this value is NaN.
    pub fn is_nan(self) -> bool {
        (self.0 & 0x7C00) == 0x7C00 && (self.0 & 0x03FF) != 0
    }

    /// Whether this value is positive or negative infinity.
    pub fn is_infinite(self) -> bool {
        (self.0 & 0x7FFF) == 0x7C00
    }

    /// Whether this value is finite (not NaN, not infinite).
    pub fn is_finite(self) -> bool {
        (self.0 & 0x7C00) != 0x7C00
    }

    /// The negation of this value (sign-bit flip, exact).
    #[allow(clippy::should_implement_trait)] // std::ops::Neg is also implemented
    pub fn neg(self) -> F16 {
        F16(self.0 ^ 0x8000)
    }

    /// Logistic sigmoid, computed in `f32` and rounded once.
    pub fn sigmoid(self) -> F16 {
        let x = self.to_f32();
        F16::from_f32(1.0 / (1.0 + (-x).exp()))
    }

    /// Hyperbolic tangent, computed in `f32` and rounded once.
    pub fn tanh(self) -> F16 {
        F16::from_f32(self.to_f32().tanh())
    }

    /// Rectified linear unit.
    pub fn relu(self) -> F16 {
        if self.is_nan() || self.to_f32() > 0.0 {
            self
        } else {
            F16::ZERO
        }
    }
}

impl From<F16> for f32 {
    fn from(h: F16) -> f32 {
        h.to_f32()
    }
}

impl std::ops::Add for F16 {
    type Output = F16;

    fn add(self, rhs: F16) -> F16 {
        F16::from_f32(self.to_f32() + rhs.to_f32())
    }
}

impl std::ops::Sub for F16 {
    type Output = F16;

    fn sub(self, rhs: F16) -> F16 {
        F16::from_f32(self.to_f32() - rhs.to_f32())
    }
}

impl std::ops::Mul for F16 {
    type Output = F16;

    fn mul(self, rhs: F16) -> F16 {
        F16::from_f32(self.to_f32() * rhs.to_f32())
    }
}

impl std::ops::Neg for F16 {
    type Output = F16;

    fn neg(self) -> F16 {
        F16::neg(self)
    }
}

impl PartialOrd for F16 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        self.to_f32().partial_cmp(&other.to_f32())
    }
}

impl fmt::Display for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_f32())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_bit_patterns() {
        assert_eq!(F16::from_f32(0.0).to_bits(), 0x0000);
        assert_eq!(F16::from_f32(-0.0).to_bits(), 0x8000);
        assert_eq!(F16::from_f32(1.0).to_bits(), 0x3C00);
        assert_eq!(F16::from_f32(-2.0).to_bits(), 0xC000);
        assert_eq!(F16::from_f32(65504.0).to_bits(), 0x7BFF);
        assert_eq!(F16::from_f32(2.0f32.powi(-14)).to_bits(), 0x0400);
        // Smallest subnormal: 2^-24.
        assert_eq!(F16::from_f32(2.0f32.powi(-24)).to_bits(), 0x0001);
    }

    #[test]
    fn overflow_and_underflow() {
        assert!(F16::from_f32(1e6).is_infinite());
        assert!(F16::from_f32(-1e6) == F16::NEG_INFINITY);
        // 65520 is the rounding boundary: rounds to infinity.
        assert!(F16::from_f32(65520.0).is_infinite());
        // Just below rounds to MAX.
        assert_eq!(F16::from_f32(65519.0), F16::MAX);
        // Below half the smallest subnormal flushes to zero.
        assert_eq!(F16::from_f32(2.0f32.powi(-26)), F16::ZERO);
        assert_eq!(F16::from_f32(-2.0f32.powi(-26)).to_bits(), 0x8000);
    }

    #[test]
    fn round_to_nearest_even() {
        // 1 + 2^-11 is exactly halfway between 1.0 and 1+2^-10: ties to even
        // (mantissa 0).
        assert_eq!(F16::from_f32(1.0 + 2.0f32.powi(-11)).to_bits(), 0x3C00);
        // 1 + 3*2^-11 is halfway between odd and even: ties up to even.
        assert_eq!(
            F16::from_f32(1.0 + 3.0 * 2.0f32.powi(-11)).to_bits(),
            0x3C02
        );
        // Slightly above halfway rounds up.
        assert_eq!(
            F16::from_f32(1.0 + 2.0f32.powi(-11) + 2.0f32.powi(-20)).to_bits(),
            0x3C01
        );
    }

    #[test]
    fn nan_propagates() {
        assert!(F16::from_f32(f32::NAN).is_nan());
        assert!(F16::NAN.to_f32().is_nan());
        assert!((F16::NAN + F16::ONE).is_nan());
        assert!(!F16::NAN.is_finite());
        assert!(!F16::INFINITY.is_nan());
    }

    #[test]
    fn exact_round_trip_for_all_finite_halfs() {
        // Every finite f16 must survive f16 -> f32 -> f16 exactly.
        for bits in 0..=u16::MAX {
            let h = F16::from_bits(bits);
            if h.is_nan() {
                assert!(F16::from_f32(h.to_f32()).is_nan());
            } else {
                assert_eq!(
                    F16::from_f32(h.to_f32()).to_bits(),
                    bits,
                    "bits {bits:#06x}"
                );
            }
        }
    }

    #[test]
    fn arithmetic_rounds_once() {
        let a = F16::from_f32(0.1);
        let b = F16::from_f32(0.2);
        let sum = a + b;
        assert_eq!(sum, F16::from_f32(a.to_f32() + b.to_f32()));
        assert!((sum.to_f32() - 0.3).abs() < 1e-3);
    }

    #[test]
    fn activations() {
        assert_eq!(F16::ZERO.sigmoid().to_f32(), 0.5);
        assert_eq!(F16::ZERO.tanh(), F16::ZERO);
        assert_eq!(F16::from_f32(-3.0).relu(), F16::ZERO);
        assert_eq!(F16::from_f32(3.0).relu(), F16::from_f32(3.0));
        assert!(F16::from_f32(10.0).sigmoid().to_f32() > 0.9999);
        assert!(F16::from_f32(-10.0).tanh().to_f32() < -0.999);
    }

    #[test]
    fn negation_is_exact() {
        let x = F16::from_f32(1.25);
        assert_eq!((-x).to_f32(), -1.25);
        assert_eq!((-F16::ZERO).to_bits(), 0x8000);
    }

    #[test]
    fn ordering_via_f32() {
        assert!(F16::from_f32(1.0) < F16::from_f32(2.0));
        assert!(F16::NAN.partial_cmp(&F16::ONE).is_none());
    }
}
