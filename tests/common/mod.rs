//! The fixture several suites run against: a small federated bookstore
//! with several disjuncts and a negated literal, plus its parsed standing
//! query — enough calls for faults to land, small enough to run hundreds
//! of times per suite.

use lap::workload::{bookstore, BookstoreConfig};
use lap_prng::StdRng;

/// The 60-book bookstore, seed 2004.
pub fn bookstore60() -> (lap::ir::Program, lap::engine::Database) {
    let mut rng = StdRng::seed_from_u64(2004);
    let cfg = BookstoreConfig { books: 60, ..BookstoreConfig::default() };
    let bs = bookstore(&cfg, &mut rng);
    let program = lap::ir::parse_program(&bs.program_text()).unwrap();
    (program, bs.db)
}
