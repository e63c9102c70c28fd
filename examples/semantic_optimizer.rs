//! Integrity constraints and the semantic optimizer (paper, Example 6 and
//! the conclusion's "addition of integrity constraints"): a query that is
//! infeasible in general becomes feasible once the constraint-violating
//! disjunct is discarded at compile time.
//!
//! ```sh
//! cargo run --example semantic_optimizer
//! ```

use lap::constraints::{
    feasible_under, prune_unsatisfiable, satisfiable_under, ConstraintSet, InclusionDep,
    DEFAULT_CHASE_ROUNDS,
};
use lap::core::{answer_star, feasible_detailed, ContainmentEngine};
use lap::engine::Database;
use lap::ir::{parse_program, Predicate};

fn main() {
    // Example 4's query over Example 6's constrained schema.
    let program = parse_program(
        "S^o. R^oo. B^ii. T^oo.\n\
         Q(x, y) :- not S(z), R(x, z), B(x, y).\n\
         Q(x, y) :- T(x, y).",
    )
    .expect("program parses");
    let query = program.single_query().expect("one query");

    println!("query:");
    for d in &query.disjuncts {
        println!("  {d}");
    }

    let plain = feasible_detailed(query, &program.schema);
    println!(
        "\nwithout constraints: feasible = {} ({:?})",
        plain.feasible, plain.decided_by
    );

    // Example 6: "if R.z is a foreign key referencing S.z, then always
    // {z | R(x,z)} ⊆ {z | S(z)}".
    let constraints = ConstraintSet::new().with_inclusion(InclusionDep::new(
        Predicate::new("R", 2),
        vec![1],
        Predicate::new("S", 1),
        vec![0],
    ));
    println!("\nintegrity constraints Σ:");
    print!("{constraints}");

    println!("\nchase-based satisfiability per disjunct:");
    for d in &query.disjuncts {
        let verdict = satisfiable_under(d, &constraints, DEFAULT_CHASE_ROUNDS);
        println!("  {d}  →  {verdict:?}");
    }

    let pruned = prune_unsatisfiable(query, &constraints);
    println!("\nafter the semantic optimizer:");
    for d in &pruned.disjuncts {
        println!("  {d}");
    }

    let constrained =
        feasible_under(query, &constraints, &program.schema, &ContainmentEngine::default());
    println!(
        "\nunder Σ: feasible = {} ({:?})",
        constrained.feasible, constrained.decided_by
    );

    // On any instance satisfying Σ, the pruned plan is exact.
    let db = Database::from_facts("R(1, 10). S(10). S(11). T(7, 8). B(1, 4).")
        .expect("facts parse");
    let rep = answer_star(&pruned, &program.schema, &db).expect("plan runs");
    println!(
        "\nruntime on a Σ-instance: {} answer(s), complete: {}",
        rep.under.len(),
        rep.is_complete()
    );
}
