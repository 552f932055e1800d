//! Rational slot budgeting for REF-time mitigation.
//!
//! The paper's default mitigation rate is one victim-row refresh per REF
//! (§2.2); Table 6 sweeps the rate from one aggressor per tREFI (five
//! victim-ops per REF for MOAT) down to one per 10 tREFI (half a victim-op
//! per REF). A rational accumulator keeps fractional rates exact.

/// An exact rational per-REF budget of mitigation slots.
///
/// The fraction is stored in lowest terms, so two budgets that fire the
/// same slots compare equal: Table 6's one aggressor (five ops) per five
/// tREFI *is* the paper default of one slot per REF.
///
/// # Examples
///
/// ```
/// use moat_sim::SlotBudget;
///
/// // Half a slot per REF: a slot fires every second REF.
/// let mut b = SlotBudget::new(1, 2);
/// assert_eq!(b.on_ref(), 0);
/// assert_eq!(b.on_ref(), 1);
/// assert_eq!(b.on_ref(), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlotBudget {
    num: u32,
    den: u32,
    acc: u32,
}

impl SlotBudget {
    /// Creates a budget of `num / den` slots per REF, reduced to lowest
    /// terms (which fires the same slots on every REF).
    ///
    /// # Panics
    ///
    /// Panics if `den` is zero.
    pub fn new(num: u32, den: u32) -> Self {
        assert!(den > 0, "denominator must be non-zero");
        let (mut a, mut b) = (num, den);
        while b != 0 {
            (a, b) = (b, a % b);
        }
        SlotBudget {
            num: num / a,
            den: den / a,
            acc: 0,
        }
    }

    /// A budget of zero slots (mitigation disabled; "none" row of Table 6).
    pub const fn disabled() -> Self {
        SlotBudget {
            num: 0,
            den: 1,
            acc: 0,
        }
    }

    /// The paper's default: one victim-op slot per REF.
    pub const fn paper_default() -> Self {
        SlotBudget {
            num: 1,
            den: 1,
            acc: 0,
        }
    }

    /// The budget that mitigates one aggressor (costing `ops` REF slots)
    /// every `trefi` REF intervals — the parameterization of Table 6.
    pub fn per_aggressor(ops: u32, trefi: u32) -> Self {
        Self::new(ops, trefi.max(1))
    }

    /// Whether the budget is zero.
    pub fn is_disabled(&self) -> bool {
        self.num == 0
    }

    /// Accrues one REF worth of budget and returns the number of whole
    /// slots now available.
    pub fn on_ref(&mut self) -> u32 {
        self.acc += self.num;
        let slots = self.acc / self.den;
        self.acc %= self.den;
        slots
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn default_is_one_per_ref() {
        let mut b = SlotBudget::paper_default();
        for _ in 0..5 {
            assert_eq!(b.on_ref(), 1);
        }
    }

    #[test]
    fn five_per_ref_for_one_aggressor_per_trefi() {
        // MOAT (5 ops) at one aggressor per tREFI.
        let mut b = SlotBudget::per_aggressor(5, 1);
        assert_eq!(b.on_ref(), 5);
    }

    #[test]
    fn fractional_rates_average_exactly() {
        // One aggressor (5 ops) per 3 tREFI = 5/3 slots per REF.
        let mut b = SlotBudget::per_aggressor(5, 3);
        let total: u32 = (0..30).map(|_| b.on_ref()).sum();
        assert_eq!(total, 50);
    }

    #[test]
    fn disabled_yields_nothing() {
        let mut b = SlotBudget::disabled();
        assert!(b.is_disabled());
        for _ in 0..10 {
            assert_eq!(b.on_ref(), 0);
        }
    }

    #[test]
    #[should_panic(expected = "denominator")]
    fn zero_denominator_rejected() {
        let _ = SlotBudget::new(1, 0);
    }

    #[test]
    fn equal_rates_are_equal_budgets() {
        assert_eq!(SlotBudget::per_aggressor(5, 5), SlotBudget::paper_default());
        assert_eq!(SlotBudget::new(0, 7), SlotBudget::disabled());
        assert_eq!(SlotBudget::new(10, 6), SlotBudget::per_aggressor(5, 3));
    }

    proptest! {
        /// Reducing the fraction never moves a slot: the reduced budget
        /// fires exactly what an unreduced `num / den` accumulator does.
        #[test]
        fn reduced_budget_fires_like_the_unreduced_fraction(num in 0u32..64, den in 1u32..64) {
            let mut reduced = SlotBudget::new(num, den);
            let mut acc = 0u32;
            for _ in 0..200 {
                acc += num;
                let slots = acc / den;
                acc %= den;
                prop_assert_eq!(reduced.on_ref(), slots);
            }
        }
    }
}
