//! The epistemic-temporal formula language of the paper.
//!
//! Formulas combine:
//!
//! * run-level atoms (`∃0`, `∃1`, initial values, membership in `N`,
//!   registered run predicates);
//! * state atoms ("processor `i`'s current state lies in the registered
//!   state-set family");
//! * Boolean connectives;
//! * knowledge operators: `K_i` (Section 3.1), the belief operator
//!   `B^S_i φ = K_i(i ∈ S ⇒ φ)`, `E_S`, common knowledge `C_S`, and
//!   **continual common knowledge** `C□_S` (Section 3.3);
//! * temporal operators: `□` (always, present and future), `◇`
//!   (eventually), `□̄` (at all times — past, present and future), and its
//!   dual `◇̄`.
//!
//! Formulas are plain data (`Eq + Hash`), so the evaluator can hash-cons
//! their leaves and the reference oracle can memoize them; references to
//! state sets and run predicates go through ids registered with the
//! [`crate::Evaluator`].

use crate::nonrigid::{NonRigidSet, PointPredId, RunPredId, StateSetsId};
use eba_model::{ProcessorId, Value};
use std::fmt;

/// An epistemic-temporal formula; see the module docs.
///
/// # Example
///
/// The decision condition of the protocol `F*` (Proposition 6.6):
/// `B^N_i(∃0 ∧ C□_{N∧Z⁰} ∃0)`, written with the builder methods:
///
/// ```
/// use eba_kripke::{Formula, NonRigidSet, StateSetsId};
/// use eba_model::{ProcessorId, Value};
///
/// # let z0_id = StateSetsId::from_raw(0);
/// let i = ProcessorId::new(0);
/// let chain = NonRigidSet::NonfaultyAnd(z0_id);
/// let condition = Formula::exists(Value::Zero)
///     .and(Formula::exists(Value::Zero).continual_common(chain))
///     .believed_by(i, NonRigidSet::Nonfaulty);
/// assert!(condition.to_string().contains("C□"));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Formula {
    /// The constant true.
    True,
    /// The constant false.
    False,
    /// `∃v`: some processor started with initial value `v` (a run-level
    /// fact).
    Exists(Value),
    /// Processor `p` started with initial value `v`.
    Initial(ProcessorId, Value),
    /// `p ∈ N`: processor `p` is nonfaulty (in this run).
    Nonfaulty(ProcessorId),
    /// Processor `p`'s current local state lies in its component of the
    /// registered state-set family.
    StateIn(ProcessorId, StateSetsId),
    /// A registered per-run predicate.
    RunPred(RunPredId),
    /// A registered per-point predicate (e.g. the time-dependent `∃0*`
    /// of Section 6.2).
    PointPred(PointPredId),
    /// Negation.
    Not(Box<Formula>),
    /// Conjunction (empty conjunction is true).
    And(Vec<Formula>),
    /// Disjunction (empty disjunction is false).
    Or(Vec<Formula>),
    /// `K_p φ`: processor `p` knows `φ`.
    Knows(ProcessorId, Box<Formula>),
    /// `B^S_p φ = K_p(p ∈ S ⇒ φ)`: `p` believes `φ` relative to the
    /// nonrigid set `S`.
    Believes(ProcessorId, NonRigidSet, Box<Formula>),
    /// `E_S φ`: everyone in `S` believes `φ`.
    Everyone(NonRigidSet, Box<Formula>),
    /// `S_S φ`: someone in `S` believes `φ` (the `S_G` operator of the
    /// \[HM90\] hierarchy, lifted to nonrigid sets).
    Someone(NonRigidSet, Box<Formula>),
    /// `D_S φ`: *distributed* knowledge among `S` — `φ` follows from the
    /// combined information of the members (\[HM90\]).
    Distributed(NonRigidSet, Box<Formula>),
    /// `C_S φ`: common knowledge of `φ` among the nonrigid set `S`.
    Common(NonRigidSet, Box<Formula>),
    /// `C□_S φ`: *continual* common knowledge of `φ` among `S`
    /// (Section 3.3).
    ContinualCommon(NonRigidSet, Box<Formula>),
    /// `□ φ`: `φ` holds now and at all later times of this run.
    Always(Box<Formula>),
    /// `◇ φ`: `φ` holds now or at some later time of this run.
    Eventually(Box<Formula>),
    /// `□̄ φ`: `φ` holds at *all* times of this run — past, present and
    /// future.
    AlwaysAll(Box<Formula>),
    /// `◇̄ φ`: `φ` holds at some time of this run.
    SometimeAll(Box<Formula>),
}

impl Formula {
    /// `∃v` (the paper's `∃0` / `∃1`).
    #[must_use]
    pub fn exists(v: Value) -> Formula {
        Formula::Exists(v)
    }

    /// `¬self`.
    #[must_use]
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Formula {
        Formula::Not(Box::new(self))
    }

    /// `self ∧ other`.
    #[must_use]
    pub fn and(self, other: Formula) -> Formula {
        match (self, other) {
            (Formula::And(mut a), Formula::And(b)) => {
                a.extend(b);
                Formula::And(a)
            }
            (Formula::And(mut a), b) => {
                a.push(b);
                Formula::And(a)
            }
            (a, Formula::And(mut b)) => {
                b.insert(0, a);
                Formula::And(b)
            }
            (a, b) => Formula::And(vec![a, b]),
        }
    }

    /// `self ∨ other`.
    #[must_use]
    pub fn or(self, other: Formula) -> Formula {
        match (self, other) {
            (Formula::Or(mut a), Formula::Or(b)) => {
                a.extend(b);
                Formula::Or(a)
            }
            (Formula::Or(mut a), b) => {
                a.push(b);
                Formula::Or(a)
            }
            (a, Formula::Or(mut b)) => {
                b.insert(0, a);
                Formula::Or(b)
            }
            (a, b) => Formula::Or(vec![a, b]),
        }
    }

    /// `self ⇒ other`.
    #[must_use]
    pub fn implies(self, other: Formula) -> Formula {
        self.not().or(other)
    }

    /// `self ⇔ other`.
    #[must_use]
    pub fn iff(self, other: Formula) -> Formula {
        self.clone().implies(other.clone()).and(other.implies(self))
    }

    /// `K_p self`.
    #[must_use]
    pub fn known_by(self, p: ProcessorId) -> Formula {
        Formula::Knows(p, Box::new(self))
    }

    /// `B^S_p self`.
    #[must_use]
    pub fn believed_by(self, p: ProcessorId, s: NonRigidSet) -> Formula {
        Formula::Believes(p, s, Box::new(self))
    }

    /// `E_S self`.
    #[must_use]
    pub fn everyone(self, s: NonRigidSet) -> Formula {
        Formula::Everyone(s, Box::new(self))
    }

    /// `S_S self` (someone in `S` believes it).
    #[must_use]
    pub fn someone(self, s: NonRigidSet) -> Formula {
        Formula::Someone(s, Box::new(self))
    }

    /// `D_S self` (distributed knowledge among `S`).
    #[must_use]
    pub fn distributed(self, s: NonRigidSet) -> Formula {
        Formula::Distributed(s, Box::new(self))
    }

    /// `E□_S self = □̄ E_S self` (the building block of continual common
    /// knowledge, Section 3.3).
    #[must_use]
    pub fn everyone_box(self, s: NonRigidSet) -> Formula {
        self.everyone(s).always_all()
    }

    /// `C_S self`.
    #[must_use]
    pub fn common(self, s: NonRigidSet) -> Formula {
        Formula::Common(s, Box::new(self))
    }

    /// `C□_S self`.
    #[must_use]
    pub fn continual_common(self, s: NonRigidSet) -> Formula {
        Formula::ContinualCommon(s, Box::new(self))
    }

    /// `□ self` (present and future).
    #[must_use]
    pub fn always(self) -> Formula {
        Formula::Always(Box::new(self))
    }

    /// `◇ self` (present or future).
    #[must_use]
    pub fn eventually(self) -> Formula {
        Formula::Eventually(Box::new(self))
    }

    /// `□̄ self` (at all times of the run).
    #[must_use]
    pub fn always_all(self) -> Formula {
        Formula::AlwaysAll(Box::new(self))
    }

    /// `◇̄ self` (at some time of the run).
    #[must_use]
    pub fn sometime_all(self) -> Formula {
        Formula::SometimeAll(Box::new(self))
    }

    /// Conjunction of an iterator of formulas.
    pub fn conj<I: IntoIterator<Item = Formula>>(iter: I) -> Formula {
        Formula::And(iter.into_iter().collect())
    }

    /// Disjunction of an iterator of formulas.
    pub fn disj<I: IntoIterator<Item = Formula>>(iter: I) -> Formula {
        Formula::Or(iter.into_iter().collect())
    }

    /// Whether the formula is invariant under every processor
    /// relabeling, so that validity over a symmetry-quotiented system
    /// equals validity over the full system (DESIGN.md §4i).
    ///
    /// The check is syntactic and conservative: run-level atoms that
    /// mention no processor (`⊤`, `⊥`, `∃v`) are symmetric; anything
    /// naming a processor (`init(p)`, `p∈N`, `StateIn`, `K_p`, `B_p`) or
    /// referencing an opaque registered predicate is not. Group
    /// operators are symmetric when their scope is and their body is;
    /// `NonfaultyAnd` scopes defer to `family_ok`, which the evaluator
    /// wires to its orbit-closure check for the referenced family.
    pub fn symmetric_under_relabeling(
        &self,
        family_ok: &mut dyn FnMut(StateSetsId) -> bool,
    ) -> bool {
        fn set_ok(s: &NonRigidSet, family_ok: &mut dyn FnMut(StateSetsId) -> bool) -> bool {
            match s {
                NonRigidSet::Everyone | NonRigidSet::Nonfaulty => true,
                NonRigidSet::NonfaultyAnd(id) => family_ok(*id),
            }
        }
        match self {
            Formula::True | Formula::False | Formula::Exists(_) => true,
            Formula::Initial(..)
            | Formula::Nonfaulty(_)
            | Formula::StateIn(..)
            | Formula::RunPred(_)
            | Formula::PointPred(_)
            | Formula::Knows(..)
            | Formula::Believes(..) => false,
            Formula::Not(f)
            | Formula::Always(f)
            | Formula::Eventually(f)
            | Formula::AlwaysAll(f)
            | Formula::SometimeAll(f) => f.symmetric_under_relabeling(family_ok),
            Formula::And(fs) | Formula::Or(fs) => {
                fs.iter().all(|f| f.symmetric_under_relabeling(family_ok))
            }
            Formula::Everyone(s, f)
            | Formula::Someone(s, f)
            | Formula::Distributed(s, f)
            | Formula::Common(s, f)
            | Formula::ContinualCommon(s, f) => {
                set_ok(s, family_ok) && f.symmetric_under_relabeling(family_ok)
            }
        }
    }

    /// Whether every knowledge operator in the formula has a fully
    /// symmetric body (and scope), which is what each kernel, closing
    /// over orbit classes, requires to be pointwise-exact on
    /// representative points.
    ///
    /// Strictly weaker than
    /// [`symmetric_under_relabeling`](Formula::symmetric_under_relabeling):
    /// processor-naming atoms may appear *outside* knowledge operators
    /// (e.g. the optimality conditions `p∈N ⇒ (StateIn(p,·) ⇔ B^N_p ψ_p)`),
    /// in which case the formula evaluates correctly at each
    /// representative point but its quotient validity is not full-system
    /// validity — deciding that takes folding the whole equivariant
    /// family, as the optimality checker does.
    pub fn quotient_compatible(&self, family_ok: &mut dyn FnMut(StateSetsId) -> bool) -> bool {
        fn set_ok(s: &NonRigidSet, family_ok: &mut dyn FnMut(StateSetsId) -> bool) -> bool {
            match s {
                NonRigidSet::Everyone | NonRigidSet::Nonfaulty => true,
                NonRigidSet::NonfaultyAnd(id) => family_ok(*id),
            }
        }
        match self {
            Formula::True
            | Formula::False
            | Formula::Exists(_)
            | Formula::Initial(..)
            | Formula::Nonfaulty(_)
            | Formula::StateIn(..)
            | Formula::RunPred(_)
            | Formula::PointPred(_) => true,
            Formula::Not(f)
            | Formula::Always(f)
            | Formula::Eventually(f)
            | Formula::AlwaysAll(f)
            | Formula::SometimeAll(f) => f.quotient_compatible(family_ok),
            Formula::And(fs) | Formula::Or(fs) => {
                fs.iter().all(|f| f.quotient_compatible(family_ok))
            }
            Formula::Knows(_, f) => f.symmetric_under_relabeling(family_ok),
            Formula::Believes(_, s, f)
            | Formula::Everyone(s, f)
            | Formula::Someone(s, f)
            | Formula::Distributed(s, f)
            | Formula::Common(s, f)
            | Formula::ContinualCommon(s, f) => {
                set_ok(s, family_ok) && f.symmetric_under_relabeling(family_ok)
            }
        }
    }

    /// The number of nodes of the formula tree (used for reporting).
    #[must_use]
    pub fn size(&self) -> usize {
        match self {
            Formula::True
            | Formula::False
            | Formula::Exists(_)
            | Formula::Initial(..)
            | Formula::Nonfaulty(_)
            | Formula::StateIn(..)
            | Formula::RunPred(_)
            | Formula::PointPred(_) => 1,
            Formula::Not(f)
            | Formula::Knows(_, f)
            | Formula::Believes(_, _, f)
            | Formula::Everyone(_, f)
            | Formula::Someone(_, f)
            | Formula::Distributed(_, f)
            | Formula::Common(_, f)
            | Formula::ContinualCommon(_, f)
            | Formula::Always(f)
            | Formula::Eventually(f)
            | Formula::AlwaysAll(f)
            | Formula::SometimeAll(f) => 1 + f.size(),
            Formula::And(fs) | Formula::Or(fs) => 1 + fs.iter().map(Formula::size).sum::<usize>(),
        }
    }
}

impl StateSetsId {
    /// Builds an id from a raw index. Only ids handed out by an
    /// [`crate::Evaluator`] are meaningful to that evaluator; this
    /// constructor exists for documentation examples and serialization.
    #[must_use]
    pub fn from_raw(raw: u32) -> Self {
        StateSetsId(raw)
    }
}

impl RunPredId {
    /// Builds an id from a raw index; see [`StateSetsId::from_raw`].
    #[must_use]
    pub fn from_raw(raw: u32) -> Self {
        RunPredId(raw)
    }
}

impl PointPredId {
    /// Builds an id from a raw index; see [`StateSetsId::from_raw`].
    #[must_use]
    pub fn from_raw(raw: u32) -> Self {
        PointPredId(raw)
    }
}

fn fmt_set(s: &NonRigidSet, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    match s {
        NonRigidSet::Everyone => write!(f, "All"),
        NonRigidSet::Nonfaulty => write!(f, "N"),
        NonRigidSet::NonfaultyAnd(id) => write!(f, "N∧A{}", id.0),
    }
}

impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Formula::True => write!(f, "⊤"),
            Formula::False => write!(f, "⊥"),
            Formula::Exists(v) => write!(f, "∃{v}"),
            Formula::Initial(p, v) => write!(f, "init({p})={v}"),
            Formula::Nonfaulty(p) => write!(f, "{p}∈N"),
            Formula::StateIn(p, id) => write!(f, "{p}∈A{}", id.0),
            Formula::RunPred(id) => write!(f, "pred{}", id.0),
            Formula::PointPred(id) => write!(f, "ppred{}", id.0),
            Formula::Not(inner) => write!(f, "¬({inner})"),
            Formula::And(fs) => {
                if fs.is_empty() {
                    return write!(f, "⊤");
                }
                write!(f, "(")?;
                for (k, sub) in fs.iter().enumerate() {
                    if k > 0 {
                        write!(f, " ∧ ")?;
                    }
                    write!(f, "{sub}")?;
                }
                write!(f, ")")
            }
            Formula::Or(fs) => {
                if fs.is_empty() {
                    return write!(f, "⊥");
                }
                write!(f, "(")?;
                for (k, sub) in fs.iter().enumerate() {
                    if k > 0 {
                        write!(f, " ∨ ")?;
                    }
                    write!(f, "{sub}")?;
                }
                write!(f, ")")
            }
            Formula::Knows(p, inner) => write!(f, "K_{p}({inner})"),
            Formula::Believes(p, s, inner) => {
                write!(f, "B^")?;
                fmt_set(s, f)?;
                write!(f, "_{p}({inner})")
            }
            Formula::Everyone(s, inner) => {
                write!(f, "E_")?;
                fmt_set(s, f)?;
                write!(f, "({inner})")
            }
            Formula::Someone(s, inner) => {
                write!(f, "S_")?;
                fmt_set(s, f)?;
                write!(f, "({inner})")
            }
            Formula::Distributed(s, inner) => {
                write!(f, "D_")?;
                fmt_set(s, f)?;
                write!(f, "({inner})")
            }
            Formula::Common(s, inner) => {
                write!(f, "C_")?;
                fmt_set(s, f)?;
                write!(f, "({inner})")
            }
            Formula::ContinualCommon(s, inner) => {
                write!(f, "C□_")?;
                fmt_set(s, f)?;
                write!(f, "({inner})")
            }
            Formula::Always(inner) => write!(f, "□({inner})"),
            Formula::Eventually(inner) => write!(f, "◇({inner})"),
            Formula::AlwaysAll(inner) => write!(f, "□̄({inner})"),
            Formula::SometimeAll(inner) => write!(f, "◇̄({inner})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> ProcessorId {
        ProcessorId::new(i)
    }

    #[test]
    fn builders_compose() {
        let f = Formula::exists(Value::Zero)
            .and(Formula::exists(Value::One).not())
            .believed_by(p(0), NonRigidSet::Nonfaulty);
        assert!(matches!(f, Formula::Believes(..)));
        assert!(f.size() >= 4);
    }

    #[test]
    fn and_flattens() {
        let f = Formula::True
            .and(Formula::False)
            .and(Formula::Exists(Value::Zero));
        match f {
            Formula::And(fs) => assert_eq!(fs.len(), 3),
            other => panic!("expected flattened And, got {other:?}"),
        }
    }

    #[test]
    fn implies_and_iff_desugar() {
        let f = Formula::True.implies(Formula::False);
        assert!(matches!(f, Formula::Or(_)));
        let g = Formula::True.iff(Formula::False);
        assert!(matches!(g, Formula::And(_)));
    }

    #[test]
    fn display_uses_paper_notation() {
        let f = Formula::exists(Value::Zero)
            .continual_common(NonRigidSet::Nonfaulty)
            .believed_by(p(1), NonRigidSet::Nonfaulty);
        let text = f.to_string();
        assert!(text.contains("C□_N"), "{text}");
        assert!(text.contains("B^N_p2"), "{text}");
        assert!(text.contains("∃0"), "{text}");
    }

    #[test]
    fn everyone_box_is_always_all_everyone() {
        let f = Formula::exists(Value::One).everyone_box(NonRigidSet::Nonfaulty);
        assert!(matches!(f, Formula::AlwaysAll(inner) if matches!(*inner, Formula::Everyone(..))));
    }

    #[test]
    fn formulas_are_hashable_for_memoization() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Formula::exists(Value::Zero).always());
        assert!(set.contains(&Formula::exists(Value::Zero).always()));
        assert!(!set.contains(&Formula::exists(Value::One).always()));
    }

    #[test]
    fn size_counts_nodes() {
        assert_eq!(Formula::True.size(), 1);
        assert_eq!(Formula::True.not().size(), 2);
        assert_eq!(Formula::conj([Formula::True, Formula::False]).size(), 3);
    }
}
