//! A BIRN-style scenario (paper, Section 4.2 and [GLM03]): a mediator
//! unfolds a global-as-view query over heterogeneous neuroscience sources
//! into a UCQ¬ plan. Some disjuncts are unsatisfiable (artifacts of
//! implicit integrity constraints), some are blocked behind input-only
//! sources — yet ANSWER* can still certify complete answers at runtime.
//!
//! ```sh
//! cargo run --example bioinformatics_mediator
//! ```

use lap::core::{answer_star_opts, feasible_detailed, AnswerOptions};
use lap::engine::{display_tuple, Database};
use lap::ir::parse_program;
use lap::obs::Recorder;

fn main() {
    // Global view: subjects with an abnormal structure measurement.
    //   MorphDb^oo  (subject, structure)  — a morphometry database, scannable
    //   SegDb^io    (subject, structure)  — a segmentation service, by subject
    //   Atlas^oo    (structure)           — the reference atlas, scannable
    //   Excluded^o  (subject)             — withdrawn subjects, scannable
    //   Genotype^ii (subject, allele)     — a genotyping service: both
    //                                       subject AND allele must be given!
    //
    // The GAV unfolding produces one disjunct per source capable of
    // providing the measurement, plus an (unsatisfiable) branch a naive
    // unfolder emits for subjects both included and excluded.
    let program = parse_program(
        "MorphDb^oo. SegDb^io. Atlas^o. Excluded^o. Genotype^ii.\n\
         Q(s, r) :- MorphDb(s, r), Atlas(r), not Excluded(s).\n\
         Q(s, r) :- Excluded(s), not Excluded(s), MorphDb(s, r).\n\
         Q(s, r) :- MorphDb(s, r2), SegDb(s, r), Atlas(r), not Excluded(s).\n\
         Q(s, r) :- MorphDb(s, r), Genotype(s, g), Atlas(r).",
    )
    .expect("program parses");
    let query = program.single_query().expect("one query");

    println!("unfolded UCQ¬ plan ({} disjuncts):", query.disjuncts.len());
    for d in &query.disjuncts {
        println!("  {d}");
    }

    let report = feasible_detailed(query, &program.schema);
    println!(
        "\ncompile time: feasible = {} (decided by {:?})",
        report.feasible, report.decided_by
    );
    println!("underestimate plan Qu:");
    for p in &report.plans.under.parts {
        println!("  {p}");
    }
    println!("overestimate plan Qo:");
    for p in &report.plans.over.parts {
        println!("  {p}");
    }

    let db = Database::from_facts(
        r#"
        MorphDb("subj1", "hippocampus"). MorphDb("subj2", "amygdala").
        MorphDb("subj3", "cortex").
        SegDb("subj1", "hippocampus").   SegDb("subj2", "thalamus").
        Atlas("hippocampus"). Atlas("amygdala"). Atlas("thalamus"). Atlas("cortex").
        Excluded("subj3").
        Genotype("subj1", "apoe4").
        "#,
    )
    .expect("facts parse");

    // One ANSWER* run, with its dom(x) refinement phase on: the genotype
    // branch is blocked behind Genotype^ii, and domain enumeration can
    // partially recover it.
    let quiet = Recorder::disabled();
    let opts = AnswerOptions { domain: Some(10_000), ..AnswerOptions::new(&quiet) };
    let outcome = answer_star_opts(query, &program.schema, &db, &opts).expect("plans run");
    let rep = &outcome.report;
    println!("\nruntime answers (certain):");
    for t in &rep.under {
        println!("  {}", display_tuple(t));
    }
    println!("Δ (possible extra answers):");
    for t in &rep.delta {
        println!("  {}", display_tuple(t));
    }
    println!("completeness: {:?}", rep.completeness);
    println!("source usage: {}", rep.stats);

    let improved = outcome.refinement.as_ref().expect("a refined run");
    println!(
        "\nwith dom(x) views: {} certain answers (was {}), {} domain calls, fixpoint: {}",
        improved.under.len(),
        rep.under.len(),
        improved.calls,
        improved.fixpoint,
    );
}
