//! Distributed merging of summaries (Section VI-B of the paper).
//!
//! Forward decay extends naturally to distributed and parallel settings:
//! *"given the data structures computed at each centralized site for the same
//! decay function and landmark, they can easily be merged to form a data
//! structure summarizing the union of the inputs."* Every summary in this
//! crate implements [`Mergeable`].

/// A summary that can absorb another summary of the union of their inputs.
///
/// # Contract
///
/// Both summaries must have been built with the *same decay function,
/// landmark and configuration* (error parameter, capacity, domain, …).
/// Implementations check what they cheaply can and panic on detectable
/// mismatches; parameters that cannot be compared (e.g. closures) are the
/// caller's responsibility.
///
/// After `a.merge_from(&b)`, `a` must answer queries as if it had ingested
/// the concatenation of both input streams — exactly for the exact
/// summaries, and within the documented error bound for the approximate
/// ones. For the randomized samplers, the *distribution* of the merged
/// sample must match that of a sample drawn from the concatenated stream.
pub trait Mergeable {
    /// Merges `other` into `self`.
    fn merge_from(&mut self, other: &Self);
}

/// An undecayed sum of a union is the sum of the sums.
impl Mergeable for f64 {
    fn merge_from(&mut self, other: &Self) {
        *self += other;
    }
}
