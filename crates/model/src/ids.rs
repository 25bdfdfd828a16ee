//! Processor identities.

use std::fmt;

/// The identity of a processor in the system.
///
/// Processors are numbered `0..n`. The paper numbers them `1..=n`; we use
/// zero-based indices throughout the code and render them one-based in
/// human-readable output via [`fmt::Display`] to stay close to the paper's
/// notation.
///
/// # Example
///
/// ```
/// use eba_model::ProcessorId;
///
/// let p = ProcessorId::new(0);
/// assert_eq!(p.index(), 0);
/// assert_eq!(p.to_string(), "p1");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct ProcessorId(u8);

impl ProcessorId {
    /// The largest number of processors supported by [`crate::ProcSet`].
    pub const MAX_PROCESSORS: usize = 128;

    /// Creates a processor id from a zero-based index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= ProcessorId::MAX_PROCESSORS`.
    #[must_use]
    pub fn new(index: usize) -> Self {
        assert!(
            index < Self::MAX_PROCESSORS,
            "processor index {index} exceeds the supported maximum of {}",
            Self::MAX_PROCESSORS
        );
        ProcessorId(index as u8)
    }

    /// Returns the zero-based index of this processor.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Iterates over all processor ids in a system of `n` processors.
    ///
    /// # Panics
    ///
    /// Panics if `n > ProcessorId::MAX_PROCESSORS`.
    pub fn all(n: usize) -> impl DoubleEndedIterator<Item = ProcessorId> + Clone {
        assert!(n <= Self::MAX_PROCESSORS);
        (0..n).map(|i| ProcessorId(i as u8))
    }
}

impl From<ProcessorId> for usize {
    fn from(id: ProcessorId) -> usize {
        id.index()
    }
}

impl fmt::Display for ProcessorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0 as usize + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_and_index_round_trip() {
        for i in [0usize, 1, 7, 127] {
            assert_eq!(ProcessorId::new(i).index(), i);
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the supported maximum")]
    fn new_rejects_out_of_range() {
        let _ = ProcessorId::new(128);
    }

    #[test]
    fn all_yields_n_distinct_ids() {
        let ids: Vec<_> = ProcessorId::all(5).collect();
        assert_eq!(ids.len(), 5);
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(id.index(), i);
        }
    }

    #[test]
    fn display_is_one_based() {
        assert_eq!(ProcessorId::new(0).to_string(), "p1");
        assert_eq!(ProcessorId::new(3).to_string(), "p4");
    }

    #[test]
    fn ordering_follows_index() {
        assert!(ProcessorId::new(1) < ProcessorId::new(2));
    }
}
