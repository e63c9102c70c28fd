//! A walk through the paper's runtime machinery (Examples 4–8): the
//! under/overestimate plans of PLAN*, the Δ set and completeness verdicts
//! of ANSWER*, null interpretation, and domain enumeration.
//!
//! ```sh
//! cargo run --example runtime_completeness
//! ```

use lap::core::{answer_star, answer_star_opts, plan_star, AnswerOptions, Completeness};
use lap::engine::{display_tuple, Database};
use lap::ir::parse_program;
use lap::obs::Recorder;

const PROGRAM: &str = "S^o. R^oo. B^ii. T^oo.\n\
                       Q(x, y) :- not S(z), R(x, z), B(x, y).\n\
                       Q(x, y) :- T(x, y).";

fn report(rep: &lap::core::AnswerReport) {
    let rows: Vec<String> = rep.under.iter().map(|t| display_tuple(t)).collect();
    println!("  ans_u = {{{}}}", rows.join(", "));
    let delta: Vec<String> = rep.delta.iter().map(|t| display_tuple(t)).collect();
    println!("  Δ     = {{{}}}", delta.join(", "));
    match rep.completeness {
        Completeness::Complete => println!("  → answer is complete"),
        Completeness::AtLeast(r) => println!(
            "  → answer is not known to be complete; at least {:.0}% complete",
            r * 100.0
        ),
        Completeness::Unknown => {
            println!("  → answer is not known to be complete (Δ contains null)")
        }
    }
}

fn main() {
    let program = parse_program(PROGRAM).expect("program parses");
    let query = program.single_query().expect("one query");
    println!("query (Example 4):");
    for d in &query.disjuncts {
        println!("  {d}");
    }

    let pair = plan_star(query, &program.schema);
    println!("\nPLAN* underestimate Qu:");
    for p in &pair.under.parts {
        println!("  {p}");
    }
    println!("PLAN* overestimate Qo:");
    for p in &pair.over.parts {
        println!("  {p}");
    }

    let scenarios: [(&str, &str); 2] = [
        (
            "Example 5 — the unanswerable part is irrelevant (R.z ⊆ S):",
            "R(1, 10). S(10). T(7, 8). B(1, 4).",
        ),
        (
            "Example 7 — a surviving R(x,z), ¬S(z) binding yields (x, null):",
            "R(1, 2). S(3). T(7, 8). B(1, 9).",
        ),
    ];

    for (label, facts) in scenarios {
        println!("\n{label}");
        println!("  D = {{ {} }}", facts.trim());
        let db = Database::from_facts(facts).expect("facts parse");
        let rep = answer_star(query, &program.schema, &db).expect("plans run");
        report(&rep);
    }

    // A query whose overestimate-only disjunct binds every head variable:
    // Δ is null-free, so ANSWER* can report a numeric completeness bound.
    println!("\nnull-free Δ — a ratio can be reported:");
    let ratio_program = parse_program(
        "F^o. G^o. B^i.\n\
         Q(x) :- F(x).\n\
         Q(x) :- G(x), B(y).",
    )
    .expect("program parses");
    let ratio_query = ratio_program.single_query().expect("one query");
    for d in &ratio_query.disjuncts {
        println!("  {d}");
    }
    let db = Database::from_facts("F(1). G(2). G(3). B(7).").expect("facts parse");
    let rep = answer_star(ratio_query, &ratio_program.schema, &db).expect("plans run");
    report(&rep);

    // Example 8: improve the underestimate with dom(x) views.
    println!("\nExample 8 — domain enumeration:");
    let db = Database::from_facts("R(1, 2). S(3). B(1, 2). T(5, 6).").expect("facts parse");
    let quiet = Recorder::disabled();
    let opts = AnswerOptions { domain: Some(10_000), ..AnswerOptions::new(&quiet) };
    let outcome = answer_star_opts(query, &program.schema, &db, &opts).expect("plans run");
    let refinement = outcome.refinement.expect("a refined run");
    let base: Vec<String> = outcome.report.under.iter().map(|t| display_tuple(t)).collect();
    let improved: Vec<String> = refinement.under.iter().map(|t| display_tuple(t)).collect();
    println!("  plain ans_u     = {{{}}}", base.join(", "));
    println!(
        "  improved ans_u  = {{{}}} ({} domain calls, fixpoint reached: {})",
        improved.join(", "),
        refinement.calls,
        refinement.fixpoint
    );
}
