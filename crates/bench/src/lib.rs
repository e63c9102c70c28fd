//! The paper-fidelity report: the paper's ten worked examples and the
//! shape of each of its quantitative claims, as the experiments E1–E25
//! (E18 and E23 are retired; the ids are stable).
//!
//! The paper (a theory paper) has no empirical tables; its "figures" are
//! the four algorithm listings and its empirical content is ten worked
//! examples plus complexity claims. This crate turns each of those into a
//! seeded, reproducible experiment that asserts its own claims:
//!
//! * [`runner::EXPERIMENTS`] is the registry; tier-1 `cargo test` runs
//!   every entry, so a broken claim fails the tests.
//! * `cargo run --release -p lap-bench --bin experiments` prints every
//!   table; `--markdown` emits the EXPERIMENTS.md body, `--json=<path>`
//!   writes the cells as JSON numbers, and a list of ids (e.g. `e2 e11`)
//!   restricts the run.
//!
//! Wall-clock regression tracking is `lapbench`'s job, not this crate's.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod runner;
pub mod tables;
