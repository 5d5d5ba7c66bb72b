//! Cardinality floors for mid-query re-planning.
//!
//! The paper's planners estimate `cost(plan) = Σ k1 + k2·|result(sq)|`
//! from the source's own constants and *estimated* cardinalities; the
//! estimates can be wrong on a live source. [`CalibratedCard`] raises a
//! base [`Cardinality`] estimator to observed per-condition floors (keyed
//! by condition fingerprint). The correction is monotonic — floors only
//! grow — so re-planning over the residual of a paused pipeline gets
//! strictly better information than the original plan had, and a re-plan
//! loop cannot oscillate between two estimates.

use csqp_expr::CondTree;
use csqp_plan::cost::Cardinality;
use csqp_ssdl::linearize::{cond_fingerprint, Fingerprint};
use std::collections::BTreeMap;
use std::fmt;

/// A [`Cardinality`] overlay: the base estimator, floored by observed
/// result sizes. Conditions without an observation pass through untouched.
#[derive(Clone, Copy)]
pub struct CalibratedCard<'a> {
    inner: &'a dyn Cardinality,
    floors: &'a BTreeMap<Fingerprint, f64>,
}

impl<'a> CalibratedCard<'a> {
    /// Wraps `inner`, flooring its estimates by `floors` (keyed by
    /// [`cond_fingerprint`]).
    pub fn new(inner: &'a dyn Cardinality, floors: &'a BTreeMap<Fingerprint, f64>) -> Self {
        CalibratedCard { inner, floors }
    }
}

impl fmt::Debug for CalibratedCard<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CalibratedCard").field("floors", &self.floors.len()).finish()
    }
}

impl Cardinality for CalibratedCard<'_> {
    fn estimate(&self, cond: Option<&CondTree>) -> f64 {
        let base = {
            let e = self.inner.estimate(cond);
            if e.is_finite() {
                e.max(0.0)
            } else {
                0.0
            }
        };
        match self.floors.get(&cond_fingerprint(cond)) {
            Some(floor) => base.max(*floor),
            None => base,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csqp_expr::parse::parse_condition;
    use csqp_plan::cost::UniformCard;

    #[test]
    fn floors_raise_but_never_lower_estimates() {
        let base = UniformCard { rows: 1000.0, atom_selectivity: 0.01 };
        let c = parse_condition("a = 1").unwrap();
        let mut floors = BTreeMap::new();
        let card = CalibratedCard::new(&base, &floors);
        assert!((card.estimate(Some(&c)) - 10.0).abs() < 1e-9, "no floor: pass-through");

        floors.insert(cond_fingerprint(Some(&c)), 900.0);
        let card = CalibratedCard::new(&base, &floors);
        assert_eq!(card.estimate(Some(&c)), 900.0, "floor dominates the base estimate");

        // A floor below the base estimate changes nothing.
        floors.insert(cond_fingerprint(Some(&c)), 1.0);
        let card = CalibratedCard::new(&base, &floors);
        assert!((card.estimate(Some(&c)) - 10.0).abs() < 1e-9);

        // Unrelated conditions stay untouched.
        let other = parse_condition("b = 2").unwrap();
        assert!((card.estimate(Some(&other)) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_base_estimates_are_guarded() {
        struct Nan;
        impl Cardinality for Nan {
            fn estimate(&self, _cond: Option<&CondTree>) -> f64 {
                f64::NAN
            }
        }
        let floors = BTreeMap::new();
        let card = CalibratedCard::new(&Nan, &floors);
        assert_eq!(card.estimate(None), 0.0, "NaN base clamps to zero");
    }
}
