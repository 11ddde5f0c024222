//! Spatial resource accounting.

use std::fmt;
use std::ops::{Add, AddAssign};

/// A vector of FPGA spatial resources.
///
/// All of the framework's fit/allocate decisions reduce to comparisons of
/// these vectors. Memory resources are tracked in kilobits so both 36 Kb
/// BRAM blocks and 288 Kb URAM blocks are exactly representable.
///
/// ```
/// use vfpga_fabric::ResourceVec;
///
/// let need = ResourceVec { luts: 1000, ffs: 2000, bram_kb: 72, uram_kb: 0, dsps: 8 };
/// let have = ResourceVec { luts: 1500, ffs: 2000, bram_kb: 144, uram_kb: 0, dsps: 10 };
/// assert!(need.fits_in(&have));
/// assert!(!have.fits_in(&need));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ResourceVec {
    /// Look-up tables.
    pub luts: u64,
    /// Flip-flops (register bits).
    pub ffs: u64,
    /// Block RAM capacity in kilobits (one BRAM36 block = 36 Kb).
    pub bram_kb: u64,
    /// UltraRAM capacity in kilobits (one URAM block = 288 Kb).
    pub uram_kb: u64,
    /// DSP slices.
    pub dsps: u64,
}

impl ResourceVec {
    /// The zero resource vector.
    pub const ZERO: ResourceVec = ResourceVec {
        luts: 0,
        ffs: 0,
        bram_kb: 0,
        uram_kb: 0,
        dsps: 0,
    };

    /// Whether every component of `self` fits within `budget`.
    pub fn fits_in(&self, budget: &ResourceVec) -> bool {
        self.luts <= budget.luts
            && self.ffs <= budget.ffs
            && self.bram_kb <= budget.bram_kb
            && self.uram_kb <= budget.uram_kb
            && self.dsps <= budget.dsps
    }

    /// Component-wise subtraction; `None` if any component underflows.
    pub fn checked_sub(&self, other: &ResourceVec) -> Option<ResourceVec> {
        Some(ResourceVec {
            luts: self.luts.checked_sub(other.luts)?,
            ffs: self.ffs.checked_sub(other.ffs)?,
            bram_kb: self.bram_kb.checked_sub(other.bram_kb)?,
            uram_kb: self.uram_kb.checked_sub(other.uram_kb)?,
            dsps: self.dsps.checked_sub(other.dsps)?,
        })
    }

    /// Component-wise saturating subtraction.
    pub fn saturating_sub(&self, other: &ResourceVec) -> ResourceVec {
        ResourceVec {
            luts: self.luts.saturating_sub(other.luts),
            ffs: self.ffs.saturating_sub(other.ffs),
            bram_kb: self.bram_kb.saturating_sub(other.bram_kb),
            uram_kb: self.uram_kb.saturating_sub(other.uram_kb),
            dsps: self.dsps.saturating_sub(other.dsps),
        }
    }

    /// Multiplies every component by `n`.
    pub fn scaled(&self, n: u64) -> ResourceVec {
        ResourceVec {
            luts: self.luts * n,
            ffs: self.ffs * n,
            bram_kb: self.bram_kb * n,
            uram_kb: self.uram_kb * n,
            dsps: self.dsps * n,
        }
    }

    /// Divides every component by `n`, rounding up.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn div_ceil(&self, n: u64) -> ResourceVec {
        assert!(n > 0, "division by zero");
        ResourceVec {
            luts: self.luts.div_ceil(n),
            ffs: self.ffs.div_ceil(n),
            bram_kb: self.bram_kb.div_ceil(n),
            uram_kb: self.uram_kb.div_ceil(n),
            dsps: self.dsps.div_ceil(n),
        }
    }

    /// The utilization of `self` relative to `capacity`, as the maximum
    /// fraction across components (the binding constraint). Components with
    /// zero capacity are skipped unless the demand is nonzero, in which case
    /// the utilization is infinite.
    pub fn utilization_of(&self, capacity: &ResourceVec) -> f64 {
        fn frac(used: u64, cap: u64) -> f64 {
            if cap == 0 {
                if used == 0 {
                    0.0
                } else {
                    f64::INFINITY
                }
            } else {
                used as f64 / cap as f64
            }
        }
        frac(self.luts, capacity.luts)
            .max(frac(self.ffs, capacity.ffs))
            .max(frac(self.bram_kb, capacity.bram_kb))
            .max(frac(self.uram_kb, capacity.uram_kb))
            .max(frac(self.dsps, capacity.dsps))
    }

    /// BRAM capacity in megabits (convenience for paper-style reporting).
    pub fn bram_mb(&self) -> f64 {
        self.bram_kb as f64 / 1024.0
    }

    /// URAM capacity in megabits.
    pub fn uram_mb(&self) -> f64 {
        self.uram_kb as f64 / 1024.0
    }
}

impl Add for ResourceVec {
    type Output = ResourceVec;

    fn add(self, rhs: ResourceVec) -> ResourceVec {
        ResourceVec {
            luts: self.luts + rhs.luts,
            ffs: self.ffs + rhs.ffs,
            bram_kb: self.bram_kb + rhs.bram_kb,
            uram_kb: self.uram_kb + rhs.uram_kb,
            dsps: self.dsps + rhs.dsps,
        }
    }
}

impl AddAssign for ResourceVec {
    fn add_assign(&mut self, rhs: ResourceVec) {
        *self = *self + rhs;
    }
}

impl std::iter::Sum for ResourceVec {
    fn sum<I: Iterator<Item = ResourceVec>>(iter: I) -> ResourceVec {
        iter.fold(ResourceVec::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for ResourceVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}k LUT / {}k FF / {:.1}Mb BRAM / {:.1}Mb URAM / {} DSP",
            self.luts / 1000,
            self.ffs / 1000,
            self.bram_mb(),
            self.uram_mb(),
            self.dsps
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rv(luts: u64, ffs: u64, bram: u64, uram: u64, dsps: u64) -> ResourceVec {
        ResourceVec {
            luts,
            ffs,
            bram_kb: bram,
            uram_kb: uram,
            dsps,
        }
    }

    #[test]
    fn fits_requires_every_component() {
        let need = rv(10, 10, 10, 0, 10);
        assert!(need.fits_in(&rv(10, 10, 10, 0, 10)));
        assert!(!need.fits_in(&rv(9, 10, 10, 0, 10)));
        assert!(!need.fits_in(&rv(10, 10, 10, 0, 9)));
    }

    #[test]
    fn checked_sub_underflow() {
        let a = rv(10, 10, 10, 10, 10);
        let b = rv(5, 5, 5, 5, 5);
        assert_eq!(a.checked_sub(&b), Some(b));
        assert_eq!(b.checked_sub(&a), None);
        assert_eq!(b.saturating_sub(&a), ResourceVec::ZERO);
    }

    #[test]
    fn utilization_is_binding_constraint() {
        let cap = rv(100, 100, 100, 100, 100);
        let used = rv(10, 20, 90, 5, 50);
        assert_eq!(used.utilization_of(&cap), 0.9);
    }

    #[test]
    fn utilization_of_missing_resource_is_infinite() {
        // KU115 has no URAM: demanding URAM there can never fit.
        let cap = rv(100, 100, 100, 0, 100);
        let used = rv(1, 1, 1, 1, 1);
        assert_eq!(used.utilization_of(&cap), f64::INFINITY);
        assert!(!used.fits_in(&cap));
    }

    #[test]
    fn scaled_and_div_ceil_are_inverses_when_divisible() {
        let a = rv(10, 20, 30, 40, 50);
        assert_eq!(a.scaled(3).div_ceil(3), a);
        // div_ceil rounds up.
        assert_eq!(rv(10, 0, 0, 0, 0).div_ceil(3).luts, 4);
    }

    #[test]
    fn sum_of_vectors() {
        let total: ResourceVec = [rv(1, 2, 3, 4, 5), rv(10, 20, 30, 40, 50)]
            .into_iter()
            .sum();
        assert_eq!(total, rv(11, 22, 33, 44, 55));
    }

    #[test]
    fn display_human_readable() {
        let s = format!("{}", rv(610_000, 659_000, 52_736, 23_040, 7517));
        assert!(s.contains("610k LUT"));
        assert!(s.contains("7517 DSP"));
    }
}
