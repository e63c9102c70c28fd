//! Robustness fuzzing of the parser: arbitrary input must never panic —
//! every outcome is `Ok` or a positioned `IrError::Parse`-family error —
//! and valid programs must round-trip through display.
//!
//! Deterministic: inputs are derived from explicit seeds via
//! [`lap_prng::StdRng`]; every assertion message carries the seed.

use lap_ir::{parse_program, parse_query, read_facts, Constant, IrError, Term};
use lap_prng::{SliceRandom, StdRng};

/// Cases per fuzz target (multiplied under heavier sweeps elsewhere).
const CASES: u64 = 512;

/// Arbitrary bytes: the parser returns, never panics.
#[test]
fn arbitrary_text_never_panics() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let len = rng.gen_range(0..200usize);
        let text: String = (0..len)
            .map(|_| {
                // Mix printable ASCII with the occasional multi-byte char.
                if rng.gen_bool(0.05) {
                    *['¬', 'Σ', '⊑', 'é', '\n', '\t'].choose(&mut rng).unwrap()
                } else {
                    char::from(rng.gen_range(0x20..0x7Fu8))
                }
            })
            .collect();
        let _ = parse_program(&text); // must not panic (seed {seed})
        let _ = read_facts::<IrError>(&text, |_, _| Ok(()));
    }
}

/// Token soup from the language's own alphabet: likelier to get deep into
/// the grammar, still must never panic.
#[test]
fn token_soup_never_panics() {
    const TOKENS: &[&str] = &[
        "Q", "R", "x", "(", ")", ",", ".", ":-", "not", "^", "io", "42", "\"s\"", "true",
        "false", "¬", "<-", "%c\n",
    ];
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(0..40usize);
        let text: Vec<&str> = (0..n)
            .map(|_| *TOKENS.choose(&mut rng).unwrap())
            .collect();
        let _ = parse_program(&text.join(" ")); // must not panic (seed {seed})
        let _ = read_facts::<IrError>(&text.join(" "), |_, _| Ok(()));
    }
}

/// String literals as written in a program, with the value each denotes.
const STRINGS: &[(&str, &str)] = &[
    ("tab\there", "tab\there"),
    ("cr\r bel\u{7} zwsp\u{200b}", "cr\r bel\u{7} zwsp\u{200b}"),
    (r#"q\"uote b\\ack\nline"#, "q\"uote b\\ack\nline"),
    ("J.R.R. 100% #1 ¬Σ", "J.R.R. 100% #1 ¬Σ"),
];

/// Structured generator: random well-formed programs parse and round-trip
/// (display → parse → display is a fixpoint), string constants included.
#[test]
fn well_formed_programs_round_trip() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let n_rules = rng.gen_range(1..4usize);
        let n_lits = rng.gen_range(1..4usize);
        let salt = rng.gen_range(0..1000u64);
        let mut text = String::new();
        for r in 0..n_rules {
            text.push_str("Q(x0) :- ");
            let mut parts = Vec::new();
            for l in 0..n_lits {
                let neg = (salt + r as u64 + l as u64).is_multiple_of(3) && l > 0;
                let rel = format!("R{}", (salt as usize + l) % 3);
                let v1 = format!("x{}", (salt as usize + r + l) % 3);
                let v2 = format!("x{}", (salt as usize + l) % 2);
                parts.push(format!(
                    "{}{}({}, {})",
                    if neg { "not " } else { "" },
                    rel,
                    v1,
                    v2
                ));
            }
            // Keep it safe: ensure x0 occurs positively.
            parts.insert(0, "Base(x0)".to_owned());
            // A string constant with raw characters `{:?}` would escape and
            // the three escapes the lexer reads.
            if r == 0 {
                parts.push(format!("Tag(x0, \"{}\")", STRINGS[seed as usize % STRINGS.len()].0));
            }
            text.push_str(&parts.join(", "));
            text.push_str(".\n");
        }
        let q = parse_query(&text).unwrap();
        let (_, value) = STRINGS[seed as usize % STRINGS.len()];
        let tag = q.disjuncts[0].body.last().unwrap().atom.args[1];
        assert_eq!(tag, Term::Const(Constant::str(value)), "seed {seed}");
        let shown = q.to_string();
        let reparsed = parse_query(&shown).unwrap();
        assert_eq!(q, reparsed, "seed {seed}: round trip failed for\n{text}");
    }
}
