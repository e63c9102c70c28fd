//! Query containment for CQ, UCQ, CQ¬, and UCQ¬.
//!
//! This crate implements the containment machinery that the paper's
//! `FEASIBLE` algorithm reduces to (Section 5.1). It has one door:
//! [`ContainmentEngine`] decides every `P ⊑ Q` through
//! [`contained`](ContainmentEngine::contained),
//! [`contained_stats`](ContainmentEngine::contained_stats) and
//! [`equivalent`](ContainmentEngine::equivalent), memoising verdicts and
//! reporting to a recorder as configured. Behind it:
//!
//! * plain-positive pairs take the Sagiv–Yannakakis criterion \[SY80\]: a
//!   Chandra–Merlin containment-mapping search per disjunct pair
//!   (**NP**-complete) \[CM77\];
//! * anything with negation takes the Wei–Lausen recursion (**Π₂ᴾ**-complete),
//!   Theorems 12–13 of the paper \[WL03\] — which degenerates to exactly the
//!   positive check when no negative literals are present, making the
//!   treatment uniform in the sense of the paper's Section 5.
//!
//! Outside the door sit [`cq_contained_canonical`], an independent
//! canonical-database oracle kept public as the differential reference,
//! [`freeze`], the canonical database it evaluates over, and
//! [`minimize_cq`] / [`minimize_ucq`], the cores and union minimization of
//! the Li–Chang baseline algorithms.
//!
//! ```
//! use lap_containment::ContainmentEngine;
//! use lap_ir::parse_query;
//!
//! let engine = ContainmentEngine::default();
//! let p = parse_query("Q(x) :- R(x).").unwrap();
//! let q = parse_query(
//!     "Q(x) :- R(x), S(x).\n\
//!      Q(x) :- R(x), not S(x).",
//! )
//! .unwrap();
//! assert!(engine.contained(&p, &q)); // needs the excluded-middle recursion
//! assert!(engine.contained(&q, &p));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod canonical;
mod cq;
mod engine;
mod mapping;
mod minimize;
mod ucq;
mod ucqn;

pub use canonical::{canonical_key, cq_contained_canonical, freeze};
pub use engine::{ContainmentEngine, EngineConfig, EngineStats};
pub use minimize::{minimize_cq, minimize_ucq};
pub use ucqn::ContainmentStats;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ucq::ucq_contained;
    use crate::ucqn::ucqn_contained_stats;
    use lap_ir::parse_query;

    #[test]
    fn dispatch_agrees_on_positive_queries() {
        let p = parse_query("Q(x) :- R(x, y), R(y, z).").unwrap();
        let q = parse_query("Q(x) :- R(x, u).").unwrap();
        assert_eq!(ucq_contained(&p, &q), ucqn_contained_stats(&p, &q).0);
        assert_eq!(ucq_contained(&q, &p), ucqn_contained_stats(&q, &p).0);
        let engine = ContainmentEngine::default();
        assert!(engine.contained(&p, &q));
        assert!(!engine.contained(&q, &p));
    }

    #[test]
    fn equivalence_is_symmetric_containment() {
        let p = parse_query("Q(x) :- R(x, y).").unwrap();
        let q = parse_query("Q(a) :- R(a, b).").unwrap();
        assert!(ContainmentEngine::default().equivalent(&p, &q));
    }
}
