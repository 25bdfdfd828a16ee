//! Seeded input generators: scenario shapes, formula text over the
//! `eba-check` grammar, and `eba-serve` request lines.
//!
//! Every draw is a pure function of `(seed, stream, index)`, so query `i`
//! of a run gets the same inputs however many queries the run reaches.

use eba_model::{FailureMode, Scenario};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Mixes a seed with stream coordinates (SplitMix64 finalizer).
#[must_use]
pub fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed
        .wrapping_add(a.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(b.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A generator for stream `a`, item `b` of a run seeded with `seed`.
#[must_use]
pub fn rng(seed: u64, a: u64, b: u64) -> StdRng {
    StdRng::seed_from_u64(mix(seed, a, b))
}

/// A scenario shape: the scenario plus whether it is built on the
/// symmetry quotient.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Shape {
    pub n: usize,
    pub t: usize,
    pub mode: FailureMode,
    pub horizon: u16,
    pub symmetry: bool,
}

impl Shape {
    pub const fn new(n: usize, t: usize, mode: FailureMode, horizon: u16, symmetry: bool) -> Self {
        Shape {
            n,
            t,
            mode,
            horizon,
            symmetry,
        }
    }

    #[must_use]
    pub fn at(self, horizon: u16) -> Self {
        Shape { horizon, ..self }
    }

    pub fn scenario(&self) -> Scenario {
        Scenario::new(self.n, self.t, self.mode, self.horizon)
            .expect("benchmark shapes are valid scenarios")
    }

    /// The frame fields selecting this shape, without braces.
    #[must_use]
    pub fn fields(&self) -> String {
        let mut s = format!(
            r#""n":{},"t":{},"mode":"{}","horizon":{}"#,
            self.n, self.t, self.mode, self.horizon
        );
        if self.symmetry {
            s.push_str(r#","symmetry":true"#);
        }
        s
    }
}

/// The `i`-th slot of a cycle of `len` slots, with each cycle a seeded
/// permutation: every cycle holds each slot once, so the shape mix of a
/// run that ends on a cycle boundary is exact for any seed.
#[must_use]
pub fn cycle_slot(seed: u64, stream: u64, i: u64, len: usize) -> usize {
    let cycle = i / len as u64;
    let mut order: Vec<usize> = (0..len).collect();
    let mut r = rng(seed, stream, cycle);
    for k in (1..len).rev() {
        order.swap(k, r.gen_range(0..=k));
    }
    order[(i % len as u64) as usize]
}

/// The costly operator a generated formula holds exactly once. Keeping
/// the count fixed per formula slot keeps each query's cost class the
/// same for every seed: on the n=5 quotient one `D` costs about 100
/// times a typical formula.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Heavy {
    /// Neither `C`/`CC` nor `D`.
    None,
    /// One `C` or `CC`.
    Group,
    /// One `D`.
    Distributed,
}

impl Heavy {
    fn ops(self) -> &'static [&'static str] {
        match self {
            Heavy::None => &[],
            Heavy::Group => &["C", "CC"],
            Heavy::Distributed => &["D"],
        }
    }
}

/// Formula text over the `eba-check` grammar: `K_i`, `B_i`, `E`, `SK`,
/// `D`, `C`, `CC`, `G`, `F`, `A`, `S`, the boolean connectives and the
/// atoms. Depth (every operator counts) is at most 3, and `heavy` names
/// the one costly operator it holds. With `symmetric` only
/// processor-symmetric operators and atoms appear, so the formula can be
/// checked on a symmetry quotient.
pub fn formula(rng: &mut StdRng, n: usize, symmetric: bool, heavy: Heavy) -> String {
    let wanted = usize::from(heavy != Heavy::None);
    for _ in 0..1000 {
        let mut placed = 0;
        let text = node(rng, n, symmetric, heavy, 3, &mut placed);
        if placed == wanted {
            return text;
        }
    }
    match heavy {
        Heavy::None => "E(E0)",
        Heavy::Group => "CC(E0)",
        Heavy::Distributed => "D(E0)",
    }
    .to_owned()
}

fn node(
    rng: &mut StdRng,
    n: usize,
    symmetric: bool,
    heavy: Heavy,
    depth: u32,
    placed: &mut usize,
) -> String {
    if depth == 0 || rng.gen_range(0..10) == 0 {
        return atom(rng, n, symmetric);
    }
    match rng.gen_range(0..10) {
        0 => format!("!({})", node(rng, n, symmetric, heavy, depth - 1, placed)),
        1 | 2 => {
            let op = ["&", "|", "->", "<->"][rng.gen_range(0..4)];
            let left = node(rng, n, symmetric, heavy, depth - 1, placed);
            let right = node(rng, n, symmetric, heavy, depth - 1, placed);
            format!("({left} {op} {right})")
        }
        _ => {
            let mut ops = vec!["E", "SK", "G", "F", "A", "S"];
            if !symmetric {
                ops.extend(["K_", "B_"]);
            }
            if *placed == 0 {
                ops.extend(heavy.ops());
            }
            let op = ops[rng.gen_range(0..ops.len())];
            if heavy.ops().contains(&op) {
                *placed += 1;
            }
            let index = if op.ends_with('_') {
                rng.gen_range(1..=n).to_string()
            } else {
                String::new()
            };
            let body = node(rng, n, symmetric, heavy, depth - 1, placed);
            format!("{op}{index}({body})")
        }
    }
}

fn atom(rng: &mut StdRng, n: usize, symmetric: bool) -> String {
    let kinds = if symmetric { 3 } else { 5 };
    match rng.gen_range(0..kinds) {
        0 => "E0".to_owned(),
        1 => "E1".to_owned(),
        2 => ["true", "false"][rng.gen_range(0..2)].to_owned(),
        3 => format!("init({})={}", rng.gen_range(1..=n), rng.gen_range(0..2)),
        _ => format!("N({})", rng.gen_range(1..=n)),
    }
}

/// A `check` frame.
#[must_use]
pub fn check_line(shape: &Shape, formula: &str) -> String {
    format!(
        r#"{{"op":"check","formula":"{formula}",{}}}"#,
        shape.fields()
    )
}

/// An `optimize` frame.
#[must_use]
pub fn optimize_line(shape: &Shape) -> String {
    format!(r#"{{"op":"optimize",{}}}"#, shape.fields())
}

/// A `sweep` frame over horizons `from..=to` (the shape's horizon is
/// ignored by the daemon, which uses `from`).
#[must_use]
pub fn sweep_line(shape: &Shape, formula: &str, from: u16, to: u16) -> String {
    format!(
        r#"{{"op":"sweep","formula":"{formula}",{},"from":{from},"to":{to}}}"#,
        shape.fields()
    )
}

/// A `check` frame on a sampled system of `runs` runs drawn with
/// `sample_seed`.
#[must_use]
pub fn sampled_check_line(shape: &Shape, formula: &str, runs: usize, sample_seed: u64) -> String {
    format!(
        r#"{{"op":"check","formula":"{formula}",{},"sampled":[{runs},{sample_seed}]}}"#,
        shape.fields()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use eba_kripke::parse::parse_formula;

    fn depth(f: &str) -> usize {
        // Operator depth = maximal parenthesis nesting of the generated
        // text once the parenthesized atoms are blanked, since every
        // operator wraps its operands in parentheses.
        let mut f = f.to_owned();
        for i in 1..=9 {
            f = f
                .replace(&format!("init({i})"), "init")
                .replace(&format!("N({i})"), "N");
        }
        let mut d: usize = 0;
        let mut max = 0;
        for c in f.chars() {
            match c {
                '(' => {
                    d += 1;
                    max = max.max(d);
                }
                ')' => d -= 1,
                _ => {}
            }
        }
        max
    }

    fn heavy(i: u64) -> Heavy {
        [Heavy::None, Heavy::Group, Heavy::Distributed][(i % 3) as usize]
    }

    #[test]
    fn same_seed_same_inputs() {
        for stream in 0..4 {
            let a: Vec<String> = (0..50)
                .map(|i| formula(&mut rng(7, stream, i), 4, stream % 2 == 0, heavy(i)))
                .collect();
            let b: Vec<String> = (0..50)
                .map(|i| formula(&mut rng(7, stream, i), 4, stream % 2 == 0, heavy(i)))
                .collect();
            assert_eq!(a, b);
            let c: Vec<String> = (0..50)
                .map(|i| formula(&mut rng(8, stream, i), 4, stream % 2 == 0, heavy(i)))
                .collect();
            assert_ne!(a, c, "another seed draws other formulas");
        }
        let slots: Vec<usize> = (0..60).map(|i| cycle_slot(3, 1, i, 6)).collect();
        assert_eq!(
            slots,
            (0..60).map(|i| cycle_slot(3, 1, i, 6)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn every_generated_formula_parses_within_its_limits() {
        for seed in 0..4 {
            for i in 0..500 {
                let symmetric = i % 2 == 0;
                let heavy = heavy(i);
                let text = formula(&mut rng(seed, 9, i), 5, symmetric, heavy);
                let parsed =
                    parse_formula(&text).unwrap_or_else(|e| panic!("`{text}` does not parse: {e}"));
                assert!(depth(&text) <= 3, "`{text}` is deeper than 3");
                let groups = text.matches("C(").count();
                assert_eq!(groups, usize::from(heavy == Heavy::Group), "`{text}`");
                let distributed = text.matches("D(").count();
                assert_eq!(
                    distributed,
                    usize::from(heavy == Heavy::Distributed),
                    "`{text}`"
                );
                if symmetric {
                    assert!(
                        parsed.symmetric_under_relabeling(&mut |_| true),
                        "`{text}` is not processor-symmetric"
                    );
                }
                assert!(!text.contains('"') && !text.contains('\\'), "`{text}`");
            }
        }
    }

    #[test]
    fn cycles_hold_each_slot_once() {
        for cycle in 0..20u64 {
            let mut seen: Vec<usize> = (0..6).map(|k| cycle_slot(5, 2, cycle * 6 + k, 6)).collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..6).collect::<Vec<_>>());
        }
    }

    #[test]
    fn request_lines_parse() {
        let shape = Shape::new(4, 1, FailureMode::Omission, 3, true);
        for line in [
            check_line(&shape, "CC(E0)"),
            optimize_line(&shape),
            sweep_line(&shape.at(2), "C(E1)", 2, 4),
            sampled_check_line(
                &Shape::new(5, 2, FailureMode::Crash, 4, false),
                "E0",
                300,
                17,
            ),
        ] {
            eba_serve::Request::from_line(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
    }
}
