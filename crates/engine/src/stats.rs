//! Source-call statistics.

use std::fmt;

/// Counters for interaction with (simulated) limited-access sources.
///
/// These are the cost measures of the runtime experiments: how many remote
/// calls a plan makes and how many tuples cross the (simulated) wire.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CallStats {
    /// Number of positive source calls issued (cache misses only, when
    /// caching). Membership probes are counted apart, by
    /// `SourceRegistry::membership_probes`.
    pub calls: u64,
    /// Number of tuples returned by sources (matching the input slots —
    /// i.e. what a web service would actually transfer), over positive
    /// calls and membership probes alike.
    pub tuples_returned: u64,
    /// Number of positive calls and membership probes answered from the
    /// registry's call cache.
    pub cache_hits: u64,
}

impl CallStats {
    /// Adds another stats record into this one.
    pub fn absorb(&mut self, other: CallStats) {
        self.calls += other.calls;
        self.tuples_returned += other.tuples_returned;
        self.cache_hits += other.cache_hits;
    }
}

impl fmt::Display for CallStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} calls, {} tuples transferred, {} cache hits",
            self.calls, self.tuples_returned, self.cache_hits
        )
    }
}
