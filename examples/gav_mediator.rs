//! The full mediator pipeline behind one API: global-as-view definitions,
//! unfolding, semantic optimization, feasibility, runtime answering —
//! the shape of the BIRN prototype described in the paper's Section 6.
//!
//! ```sh
//! cargo run --example gav_mediator
//! ```

use lap::constraints::{ConstraintSet, InclusionDep};
use lap::engine::{display_tuple, Database};
use lap::ir::{parse_query, Predicate};
use lap::mediator::Mediator;

fn main() {
    // Sources: two book vendors, two catalogs, a library shelf list.
    // Patterns: Vendor1 also supports lookup by ISBN; everything else
    // scans. Global schema: Book(isbn, author, title), Catalog(isbn,
    // author), Lib(isbn).
    let mediator = Mediator::from_program(
        "Vendor1^oooo. Vendor1^iooo. Vendor2^ooo.\n\
         CatA^oo. CatB^oo. Shelf^o.\n\
         Book(i, a, t) :- Vendor1(i, a, t, p).\n\
         Book(i, a, t) :- Vendor2(i, a, t).\n\
         Catalog(i, a) :- CatA(i, a).\n\
         Catalog(i, a) :- CatB(i, a).\n\
         Lib(i) :- Shelf(i).",
    )
    .expect("mediator definition parses")
    .with_constraints(
        // Vendor2 only sells what the library already shelves.
        ConstraintSet::new().with_inclusion(InclusionDep::new(
            Predicate::new("Vendor2", 3),
            vec![0],
            Predicate::new("Shelf", 1),
            vec![0],
        )),
    );

    println!("views:");
    for v in mediator.views() {
        println!("  {v}");
    }

    // A *global* query: catalogued books we could buy that the library
    // doesn't have.
    let q = parse_query("Q(i, a, t) :- Book(i, a, t), Catalog(i, a), not Lib(i).")
        .expect("query parses");
    println!("\nglobal query:\n  {q}");

    let plan = mediator.plan(&q).expect("pipeline runs");
    println!(
        "\nunfolded into {} disjunct(s) over the sources:",
        plan.unfolded.disjuncts.len()
    );
    for d in &plan.unfolded.disjuncts {
        println!("  {d}");
    }
    println!(
        "\nafter the semantic optimizer (Vendor2 ⊆ Shelf): {} disjunct(s):",
        plan.pruned.disjuncts.len()
    );
    for d in &plan.pruned.disjuncts {
        println!("  {d}");
    }
    println!(
        "\nfeasible: {} ({:?})",
        plan.feasibility().feasible, plan.feasibility().decided_by
    );

    let db = Database::from_facts(
        r#"
        Vendor1(1, "adams", "hhgttg", 12). Vendor1(2, "clarke", "2001", 9).
        Vendor2(3, "lem", "solaris").
        CatA(1, "adams"). CatB(2, "clarke"). CatA(3, "lem").
        Shelf(2). Shelf(3).
        "#,
    )
    .expect("facts parse");
    let (_, answer) = mediator.answer(&q, &db).expect("answering runs");
    println!("\nanswers:");
    for t in &answer.under {
        println!("  {}", display_tuple(t));
    }
    println!("complete: {} | {}", answer.is_complete(), answer.stats);
}
