//! The rows of the contract table (`tests/contract_table`) no older suite
//! owns, and the `lapd` binary.

mod common;
mod contract_table;

use contract_table::{check_lapd, check_rows, Home, Lab};

#[test]
fn bookstore60_rows() {
    let tally = check_rows(&mut Lab::default(), Home::BookstorePins);
    assert!(tally.degraded > 0, "no bookstore row degraded: the fault injection is dead");
}

#[test]
fn paper_case_rows() {
    let tally = check_rows(&mut Lab::default(), Home::PaperCases);
    assert!(tally.faulted > 0, "rate 0.2 never faulted a call: the resilient rows prove nothing");
}

#[test]
fn generated_rows() {
    let tally = check_rows(&mut Lab::default(), Home::GeneratedGrid);
    assert!(tally.degraded > 0, "no generated row degraded: the fault injection is dead");
}

#[test]
fn example_rows() {
    let tally = check_rows(&mut Lab::default(), Home::Examples);
    assert!(tally.degraded > 0, "no example row degraded");
}

#[test]
fn lapd_rows() {
    check_lapd();
}
