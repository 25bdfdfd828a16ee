//! A small text syntax for formulas, used by the `eba-check` command-line
//! model checker and handy in tests.
//!
//! Grammar (ASCII-friendly; processors are 1-based as in the paper):
//!
//! ```text
//! formula := iff
//! iff     := imp ( '<->' imp )*
//! imp     := or ( '->' or )*            (right-associative)
//! or      := and ( '|' and )*
//! and     := unary ( '&' unary )*
//! unary   := '!' unary | modal
//! modal   := 'K_'i '(' formula ')'      knowledge, K_i
//!          | 'B_'i '(' formula ')'      belief relative to N, B^N_i
//!          | 'E'  '(' formula ')'       everyone in N
//!          | 'C'  '(' formula ')'       common knowledge among N
//!          | 'CC' '(' formula ')'       continual common knowledge, C□_N
//!          | 'G'  '(' formula ')'       always (present and future), □
//!          | 'F'  '(' formula ')'       eventually, ◇
//!          | 'A'  '(' formula ')'       at all times of the run, □̄
//!          | 'S'  '(' formula ')'       at some time of the run, ◇̄
//!          | atom | '(' formula ')'
//! atom    := 'true' | 'false'
//!          | 'E0' | 'E1'                ∃0, ∃1
//!          | 'init('i')=0' | 'init('i')=1'
//!          | 'N('i')'                   i ∈ N
//! ```
//!
//! All modal operators are indexed by the nonfaulty set `N`; richer set
//! expressions (e.g. `N ∧ A` with registered state sets) are available
//! through the programmatic API only, since they need evaluator-issued
//! ids.
//!
//! In addition to the ASCII syntax above, the parser accepts the unicode
//! notation that [`Formula`]'s `Display` produces (`∃0`, `¬`, `∧`, `∨`,
//! `⊤`, `⊥`, `K_p1(…)`, `B^N_p1(…)`, `E_N`, `C_N`, `C□_N`, `□`, `◇`,
//! `□̄`, `◇̄`, `p1∈N`), so `parse(format!("{f}")) == f` round-trips for
//! every `N`-indexed formula — property-tested in the workspace suite.
//!
//! Nesting is capped at [`MAX_DEPTH`] levels, so hostile input (say,
//! 100,000 `!`s) fails with a [`ParseError`] instead of overflowing the
//! stack of the recursive-descent parser. Size is capped at [`MAX_NODES`]
//! nodes after desugaring, so a short line of chained `<->` (each copies
//! both operands) fails the same way instead of exhausting memory.
//!
//! # Example
//!
//! ```
//! use eba_kripke::parse::parse_formula;
//!
//! let f = parse_formula("B_1(E0 & CC(E0))").expect("example formula is well-formed");
//! assert!(f.to_string().contains("C□_N"));
//! assert!(parse_formula("E0 &").is_err());
//! ```

use crate::{Formula, NonRigidSet};
use eba_model::{ProcessorId, Value};
use std::error::Error;
use std::fmt;

/// The deepest nesting [`parse_formula`] accepts. Each `!`/`¬`, each
/// parenthesized operand (including a modal operator's) and each
/// right-nested `->` is one level. Deeper input is rejected with a
/// [`ParseError`] at the offset where the limit was crossed.
pub const MAX_DEPTH: usize = 256;

/// The most nodes a parsed formula may have, counted as
/// [`Formula::size`] counts them once `<->` is desugared. Desugaring
/// copies both operands of every `<->`, so `k` chained `<->` double the
/// size `k` times. Larger input is rejected with a [`ParseError`] before
/// the oversized formula is built.
pub const MAX_NODES: usize = 1 << 16;

/// A parse error: what went wrong and where (byte offset).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset into the input at which the error was detected.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.offset, self.message)
    }
}

impl Error for ParseError {}

/// Builds an operator's formula from its parsed operand.
type Apply = fn(Formula) -> Formula;

/// The operators that take one parenthesized operand, in match order:
/// a spelling that another one extends (`C` of `CC`, `□` of `□̄`)
/// comes after it.
const OPERATORS: &[(&str, Apply)] = &[
    ("CC", |f| f.continual_common(NonRigidSet::Nonfaulty)),
    ("C□_N", |f| f.continual_common(NonRigidSet::Nonfaulty)),
    ("C□_All", |f| f.continual_common(NonRigidSet::Everyone)),
    ("C_N", |f| f.common(NonRigidSet::Nonfaulty)),
    ("C_All", |f| f.common(NonRigidSet::Everyone)),
    ("C", |f| f.common(NonRigidSet::Nonfaulty)),
    ("E_N", |f| f.everyone(NonRigidSet::Nonfaulty)),
    ("D_All", |f| f.distributed(NonRigidSet::Everyone)),
    ("D_N", |f| f.distributed(NonRigidSet::Nonfaulty)),
    ("D", |f| f.distributed(NonRigidSet::Nonfaulty)),
    ("S_All", |f| f.someone(NonRigidSet::Everyone)),
    ("SK", |f| f.someone(NonRigidSet::Nonfaulty)),
    ("S_N", |f| f.someone(NonRigidSet::Nonfaulty)),
    ("E_All", |f| f.everyone(NonRigidSet::Everyone)),
    ("E", |f| f.everyone(NonRigidSet::Nonfaulty)),
    ("G", Formula::always),
    ("F", Formula::eventually),
    ("A", Formula::always_all),
    ("S", Formula::sometime_all),
    // □̄ and ◇̄ carry a combining macron (U+0304).
    ("□\u{304}", Formula::always_all),
    ("◇\u{304}", Formula::sometime_all),
    ("□", Formula::always),
    ("◇", Formula::eventually),
];

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
    depth: usize,
    /// Nodes of every formula parsed so far and not yet consumed; the
    /// size of the result once parsing ends.
    nodes: usize,
}

/// Parses a formula from the textual syntax; see the module docs.
///
/// # Errors
///
/// Returns a [`ParseError`] naming the offending position on malformed
/// input.
pub fn parse_formula(input: &str) -> Result<Formula, ParseError> {
    let mut parser = Parser {
        input: input.as_bytes(),
        pos: 0,
        depth: 0,
        nodes: 0,
    };
    let formula = parser.iff()?;
    parser.skip_ws();
    if parser.pos != parser.input.len() {
        return Err(parser.error("trailing input"));
    }
    debug_assert_eq!(parser.nodes, formula.size());
    Ok(formula)
}

impl<'a> Parser<'a> {
    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            message: message.into(),
            offset: self.pos,
        }
    }

    /// Runs `parse` one nesting level deeper; fails past [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Formula, ParseError>,
    ) -> Result<Formula, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(format!("formula nests deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let parsed = parse(self);
        self.depth -= 1;
        parsed
    }

    /// Accounts for `added` new nodes of which `merged` fold into an
    /// operand's (the flattening of `Formula::and`/`Formula::or`); fails
    /// past [`MAX_NODES`].
    fn grow(&mut self, added: usize, merged: usize) -> Result<(), ParseError> {
        self.nodes = self.nodes + added - merged;
        if self.nodes > MAX_NODES {
            return Err(self.error(format!("formula desugars to more than {MAX_NODES} nodes")));
        }
        Ok(())
    }

    /// [`Parser::grow`] by the one node that wraps a parsed operand or
    /// stands alone.
    fn node(&mut self, formula: Formula) -> Result<Formula, ParseError> {
        self.grow(1, 0)?;
        Ok(formula)
    }

    fn skip_ws(&mut self) {
        while self.pos < self.input.len() && self.input[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.input.get(self.pos).copied()
    }

    fn eat(&mut self, token: &str) -> bool {
        self.skip_ws();
        if self.input[self.pos..].starts_with(token.as_bytes()) {
            self.pos += token.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, token: &str) -> Result<(), ParseError> {
        if self.eat(token) {
            Ok(())
        } else {
            Err(self.error(format!("expected `{token}`")))
        }
    }

    fn number(&mut self) -> Result<usize, ParseError> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.input.len() && self.input[self.pos].is_ascii_digit() {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.error("expected a number"));
        }
        std::str::from_utf8(&self.input[start..self.pos])
            .expect("digits are valid UTF-8")
            .parse()
            .map_err(|_| self.error("number out of range"))
    }

    /// A 1-based processor index from the input, converted to 0-based.
    /// Accepts an optional `p` prefix (the Display form).
    fn processor(&mut self) -> Result<ProcessorId, ParseError> {
        self.skip_ws();
        if self.input.get(self.pos) == Some(&b'p')
            && self.input.get(self.pos + 1).is_some_and(u8::is_ascii_digit)
        {
            self.pos += 1;
        }
        let raw = self.number()?;
        if raw == 0 || raw > ProcessorId::MAX_PROCESSORS {
            return Err(self.error("processor indices are 1-based and ≤ 128"));
        }
        Ok(ProcessorId::new(raw - 1))
    }

    fn iff(&mut self) -> Result<Formula, ParseError> {
        let mut left = self.imp()?;
        while self.eat("<->") {
            let right = self.imp()?;
            // `(¬l ∨ r) ∧ (¬r ∨ l)`: five nodes and a copy of each
            // operand, less an operand `∨` that flattens into its `∨`.
            let or = |f: &Formula| usize::from(matches!(f, Formula::Or(_)));
            self.grow(5 + left.size() + right.size(), or(&left) + or(&right))?;
            left = left.iff(right);
        }
        Ok(left)
    }

    fn imp(&mut self) -> Result<Formula, ParseError> {
        let left = self.or()?;
        self.skip_ws();
        // `->` must not consume the `-` of `<->` (handled in iff) — at
        // this point a leading `<` never occurs, so plain matching works.
        if self.eat("->") {
            let right = self.nested(Self::imp)?; // right-associative
                                                 // `¬l ∨ r`: two nodes, less an `∨` on the right that flattens.
            self.grow(2, usize::from(matches!(right, Formula::Or(_))))?;
            return Ok(left.implies(right));
        }
        Ok(left)
    }

    fn or(&mut self) -> Result<Formula, ParseError> {
        let mut left = self.and()?;
        loop {
            if self.peek() == Some(b'|') {
                self.pos += 1;
            } else if !self.eat("∨") {
                break;
            }
            let right = self.and()?;
            let merged = [&left, &right]
                .into_iter()
                .filter(|f| matches!(f, Formula::Or(_)))
                .count();
            self.grow(1, merged)?;
            left = left.or(right);
        }
        Ok(left)
    }

    fn and(&mut self) -> Result<Formula, ParseError> {
        let mut left = self.unary()?;
        loop {
            if self.peek() == Some(b'&') {
                self.pos += 1;
            } else if !self.eat("∧") {
                break;
            }
            let right = self.unary()?;
            let merged = [&left, &right]
                .into_iter()
                .filter(|f| matches!(f, Formula::And(_)))
                .count();
            self.grow(1, merged)?;
            left = left.and(right);
        }
        Ok(left)
    }

    fn unary(&mut self) -> Result<Formula, ParseError> {
        if self.peek() == Some(b'!') {
            self.pos += 1;
            let operand = self.nested(Self::unary)?;
            return self.node(operand.not());
        }
        if self.eat("¬") {
            let operand = self.nested(Self::unary)?;
            return self.node(operand.not());
        }
        self.modal()
    }

    fn parens(&mut self) -> Result<Formula, ParseError> {
        self.expect("(")?;
        let inner = self.nested(Self::iff)?;
        self.expect(")")?;
        Ok(inner)
    }

    fn modal(&mut self) -> Result<Formula, ParseError> {
        self.skip_ws();

        // Atoms that begin with letters also used by operators are
        // matched first (longest-match). Unicode alternatives mirror the
        // Display output.
        if self.eat("true") || self.eat("⊤") {
            return self.node(Formula::True);
        }
        if self.eat("false") || self.eat("⊥") {
            return self.node(Formula::False);
        }
        if self.eat("init(") {
            let p = self.processor()?;
            self.expect(")")?;
            self.expect("=")?;
            let v = self.value()?;
            return self.node(Formula::Initial(p, v));
        }
        if self.eat("E0") || self.eat("∃0") {
            return self.node(Formula::exists(Value::Zero));
        }
        if self.eat("E1") || self.eat("∃1") {
            return self.node(Formula::exists(Value::One));
        }
        if self.eat("K_") {
            let p = self.processor()?;
            let operand = self.parens()?;
            return self.node(operand.known_by(p));
        }
        if self.eat("B^N_") || self.eat("B_") {
            let p = self.processor()?;
            let operand = self.parens()?;
            return self.node(operand.believed_by(p, NonRigidSet::Nonfaulty));
        }
        if self.eat("B^All_") {
            let p = self.processor()?;
            let operand = self.parens()?;
            return self.node(operand.believed_by(p, NonRigidSet::Everyone));
        }
        for (token, apply) in OPERATORS {
            if self.eat(token) {
                let operand = self.parens()?;
                return self.node(apply(operand));
            }
        }
        if self.eat("N(") {
            let p = self.processor()?;
            self.expect(")")?;
            return self.node(Formula::Nonfaulty(p));
        }
        if self.peek() == Some(b'p') {
            // `p1∈N` — the Display form of the nonfaulty atom.
            let p = self.processor()?;
            self.expect("∈N")?;
            return self.node(Formula::Nonfaulty(p));
        }
        if self.peek() == Some(b'(') {
            return self.parens();
        }
        Err(self.error("expected a formula"))
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        if self.eat("0") {
            Ok(Value::Zero)
        } else if self.eat("1") {
            Ok(Value::One)
        } else {
            Err(self.error("expected `0` or `1`"))
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
    fn atoms() {
        assert_eq!(parse_formula("true").unwrap(), Formula::True);
        assert_eq!(parse_formula("false").unwrap(), Formula::False);
        assert_eq!(parse_formula("E0").unwrap(), Formula::exists(Value::Zero));
        assert_eq!(parse_formula("E1").unwrap(), Formula::exists(Value::One));
        assert_eq!(
            parse_formula("init(2)=0").unwrap(),
            Formula::Initial(p(1), Value::Zero)
        );
        assert_eq!(parse_formula("N(3)").unwrap(), Formula::Nonfaulty(p(2)));
    }

    #[test]
    fn connectives_and_precedence() {
        // & binds tighter than |, which binds tighter than ->.
        let f = parse_formula("E0 & E1 | !E0 -> false").unwrap();
        let expected = Formula::exists(Value::Zero)
            .and(Formula::exists(Value::One))
            .or(Formula::exists(Value::Zero).not())
            .implies(Formula::False);
        assert_eq!(f, expected);
    }

    #[test]
    fn iff_and_right_assoc_implies() {
        let f = parse_formula("E0 <-> E1").unwrap();
        assert_eq!(
            f,
            Formula::exists(Value::Zero).iff(Formula::exists(Value::One))
        );
        let g = parse_formula("E0 -> E1 -> false").unwrap();
        let expected = Formula::exists(Value::Zero)
            .implies(Formula::exists(Value::One).implies(Formula::False));
        assert_eq!(g, expected);
    }

    #[test]
    fn modal_operators() {
        assert_eq!(
            parse_formula("K_1(E0)").unwrap(),
            Formula::exists(Value::Zero).known_by(p(0))
        );
        assert_eq!(
            parse_formula("B_2(E1)").unwrap(),
            Formula::exists(Value::One).believed_by(p(1), NonRigidSet::Nonfaulty)
        );
        assert_eq!(
            parse_formula("CC(E0)").unwrap(),
            Formula::exists(Value::Zero).continual_common(NonRigidSet::Nonfaulty)
        );
        assert_eq!(
            parse_formula("C(E0)").unwrap(),
            Formula::exists(Value::Zero).common(NonRigidSet::Nonfaulty)
        );
        assert_eq!(
            parse_formula("E(E0)").unwrap(),
            Formula::exists(Value::Zero).everyone(NonRigidSet::Nonfaulty)
        );
        assert_eq!(
            parse_formula("G(E0)").unwrap(),
            Formula::exists(Value::Zero).always()
        );
        assert_eq!(
            parse_formula("F(E0)").unwrap(),
            Formula::exists(Value::Zero).eventually()
        );
        assert_eq!(
            parse_formula("A(E0)").unwrap(),
            Formula::exists(Value::Zero).always_all()
        );
        assert_eq!(
            parse_formula("S(E0)").unwrap(),
            Formula::exists(Value::Zero).sometime_all()
        );
    }

    #[test]
    fn the_paper_decision_rules_parse() {
        // Z'_i of Proposition 5.1 (with N for the nonrigid set).
        let f = parse_formula("B_1(E0 & CC(E0))").unwrap();
        assert!(f.to_string().contains("C□_N"));
        // Theorem 5.3's condition shape.
        let g = parse_formula("N(1) -> (B_1(E0 & CC(E0)) <-> B_1(E0 & CC(E0)))").unwrap();
        assert!(g.size() > 10);
    }

    #[test]
    fn whitespace_is_insignificant() {
        assert_eq!(
            parse_formula("  B_1 ( E0 &   CC( E0 ) ) ").unwrap(),
            parse_formula("B_1(E0&CC(E0))").unwrap()
        );
    }

    #[test]
    fn nested_negation() {
        assert_eq!(
            parse_formula("!!E0").unwrap(),
            Formula::exists(Value::Zero).not().not()
        );
    }

    #[test]
    fn nesting_is_capped_with_a_positioned_error() {
        let bangs = |k: usize| format!("{}true", "!".repeat(k));
        assert!(parse_formula(&bangs(MAX_DEPTH)).is_ok());
        let err = parse_formula(&bangs(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH + 1, "{err}");
        assert!(err.message.contains(&MAX_DEPTH.to_string()), "{err}");
        assert_eq!(parse_formula(&bangs(100_000)).unwrap_err(), err);

        let knows = |k: usize| format!("{}E0{}", "K_1(".repeat(k), ")".repeat(k));
        assert!(parse_formula(&knows(MAX_DEPTH)).is_ok());
        assert!(parse_formula(&knows(MAX_DEPTH + 1)).is_err());
        let chain = |k: usize| format!("E0{}", " -> E0".repeat(k));
        assert!(parse_formula(&chain(MAX_DEPTH)).is_ok());
        assert!(parse_formula(&chain(MAX_DEPTH + 1)).is_err());
    }

    #[test]
    fn size_is_capped_after_desugaring() {
        // A flattened conjunction of `m` atoms has `m + 1` nodes.
        let conj = |m: usize| vec!["E0"; m].join(" & ");
        let at_cap = parse_formula(&conj(MAX_NODES - 1)).unwrap();
        assert_eq!(at_cap.size(), MAX_NODES);
        let err = parse_formula(&conj(MAX_NODES)).unwrap_err();
        assert!(err.message.contains(&MAX_NODES.to_string()), "{err}");

        // Chained `<->` double the size per link: a 200-byte line is
        // refused quickly instead of building ~2^30 nodes.
        let iffs = |k: usize| format!("E0{}", " <-> E0".repeat(k));
        let fits = (1..)
            .take_while(|&k| parse_formula(&iffs(k)).is_ok())
            .last();
        let fits = fits.unwrap();
        assert!(parse_formula(&iffs(fits)).unwrap().size() <= MAX_NODES);
        assert!((10..20).contains(&fits), "{fits}");
        let start = std::time::Instant::now();
        let err = parse_formula(&iffs(30)).unwrap_err();
        assert!(err.message.contains("desugars"), "{err}");
        assert!(start.elapsed() < std::time::Duration::from_secs(1));

        // `parse_formula` debug-asserts its count against the result's
        // size: exercise every constructor that flattens.
        for text in [
            "E0 | E1 | (E0 | E1) <-> (E0 & E1) & E0",
            "(E0 -> E1 | E0) <-> !(E0 <-> E1 | E1)",
            "K_1(E0 <-> E1) & CC(E0 -> E1 -> E0) | init(2)=0 | N(1)",
        ] {
            parse_formula(text).unwrap();
        }
    }

    #[test]
    fn errors_carry_position() {
        let err = parse_formula("E0 &").unwrap_err();
        assert!(err.offset >= 4, "{err}");
        assert!(parse_formula("K_(E0)").is_err());
        assert!(parse_formula("E0 E1").is_err());
        assert!(
            parse_formula("init(0)=1").is_err(),
            "processors are 1-based"
        );
        assert!(parse_formula("").is_err());
        assert!(parse_formula("(E0").is_err());
    }

    #[test]
    fn unicode_display_forms_parse() {
        assert_eq!(parse_formula("∃0").unwrap(), Formula::exists(Value::Zero));
        assert_eq!(parse_formula("⊤").unwrap(), Formula::True);
        assert_eq!(
            parse_formula("¬(∃1)").unwrap(),
            Formula::exists(Value::One).not()
        );
        assert_eq!(
            parse_formula("(∃0 ∧ ∃1)").unwrap(),
            Formula::exists(Value::Zero).and(Formula::exists(Value::One))
        );
        assert_eq!(
            parse_formula("B^N_p2(∃0)").unwrap(),
            Formula::exists(Value::Zero).believed_by(p(1), NonRigidSet::Nonfaulty)
        );
        assert_eq!(
            parse_formula("C□_N(∃0)").unwrap(),
            Formula::exists(Value::Zero).continual_common(NonRigidSet::Nonfaulty)
        );
        assert_eq!(parse_formula("p3∈N").unwrap(), Formula::Nonfaulty(p(2)));
        assert_eq!(
            parse_formula("□̄(∃0)").unwrap(),
            Formula::exists(Value::Zero).always_all()
        );
        assert_eq!(
            parse_formula("◇̄(∃0)").unwrap(),
            Formula::exists(Value::Zero).sometime_all()
        );
        assert_eq!(
            parse_formula("init(p1)=0").unwrap(),
            Formula::Initial(p(0), Value::Zero)
        );
    }

    #[test]
    fn display_parse_round_trip_on_samples() {
        let samples = [
            Formula::exists(Value::Zero)
                .and(Formula::exists(Value::Zero).continual_common(NonRigidSet::Nonfaulty))
                .believed_by(p(0), NonRigidSet::Nonfaulty),
            Formula::exists(Value::One)
                .common(NonRigidSet::Everyone)
                .implies(Formula::Nonfaulty(p(1))),
            Formula::exists(Value::Zero)
                .everyone(NonRigidSet::Nonfaulty)
                .always_all()
                .not(),
            Formula::True.iff(Formula::False.or(Formula::exists(Value::One))),
            Formula::Initial(p(2), Value::One)
                .known_by(p(0))
                .eventually(),
        ];
        for f in samples {
            let rendered = f.to_string();
            let reparsed = parse_formula(&rendered)
                .unwrap_or_else(|e| panic!("failed to reparse `{rendered}`: {e}"));
            assert_eq!(reparsed, f, "round trip changed `{rendered}`");
        }
    }

    #[test]
    fn display_round_trip_through_semantics() {
        // Parsed formulas evaluate like their builder equivalents.
        use eba_model::{FailureMode, Scenario};
        use eba_sim::GeneratedSystem;
        let scenario = Scenario::new(3, 1, FailureMode::Crash, 2).unwrap();
        let system = GeneratedSystem::exhaustive(&scenario);
        let mut eval = crate::Evaluator::new(&system);
        let parsed = parse_formula("CC(E0) -> C(E0)").unwrap();
        assert!(eval.valid(&parsed));
        let strict = parse_formula("C(E0) -> CC(E0)").unwrap();
        assert!(!eval.valid(&strict));
    }
}
