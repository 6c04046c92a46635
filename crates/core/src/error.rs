//! The unified error type of the exchange pipeline.
//!
//! Public entry points of `liair-core` return [`Result`]; conditions that
//! used to abort the process (mismatched orbital shapes, an inconsistent
//! configuration, an unresponsive rank) surface as typed [`Error`] values the
//! caller can match on. Communication failures from the runtime are
//! wrapped, not flattened, so the rank/attempt detail survives to the
//! caller.

use liair_runtime::CommError;
use std::fmt;

/// Everything a build of the exact-exchange energy or operator can report
/// instead of panicking.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// A communication failure in the distributed backend (timeout after
    /// the retry budget, disconnect, invalid rank, …).
    Comm(CommError),
    /// Orbital vectors disagree in length with each other or the grid.
    OrbitalSizeMismatch {
        /// Points every orbital must have.
        expected: usize,
        /// Points the offending orbital has.
        got: usize,
        /// Index of the offending orbital.
        orbital: usize,
    },
    /// No orbitals were supplied where at least one is required.
    EmptyOrbitals,
    /// An engine/builder configuration is inconsistent (documented per
    /// knob), e.g. a distributed backend with zero ranks.
    InvalidConfig(String),
    /// The cell-list pair source was asked to build with a threshold
    /// outside `0 < ε ≤ 1` — there is no finite cutoff radius to bin by.
    /// Use the O(N²) [`crate::build_pair_list`] (or
    /// [`crate::source_pairs`], which routes there) for unscreened lists.
    InvalidEps {
        /// The offending screening threshold.
        eps: f64,
    },
    /// A K build's occupied-space exchange matrix `M = Cᵀ K C` has an
    /// eigenvalue at or below zero, so the ACE operator `B M⁻¹ Bᵀ` does
    /// not exist (exchange of real orbitals is positive on the occupied
    /// space).
    IndefiniteExchange {
        /// The smallest eigenvalue of `M`.
        eigenvalue: f64,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Comm(e) => write!(f, "communication failure: {e}"),
            Error::OrbitalSizeMismatch {
                expected,
                got,
                orbital,
            } => write!(
                f,
                "orbital {orbital} has {got} points, grid expects {expected}"
            ),
            Error::EmptyOrbitals => write!(f, "no occupied orbitals supplied"),
            Error::InvalidConfig(msg) => write!(f, "invalid engine configuration: {msg}"),
            Error::InvalidEps { eps } => write!(
                f,
                "locality-aware pair sourcing needs 0 < eps <= 1 (got {eps}); \
                 use build_pair_list for unscreened lists"
            ),
            Error::IndefiniteExchange { eigenvalue } => write!(
                f,
                "occupied exchange matrix is not positive definite \
                 (smallest eigenvalue {eigenvalue:e})"
            ),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Comm(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CommError> for Error {
    fn from(e: CommError) -> Self {
        Error::Comm(e)
    }
}

/// Result alias of the fallible `liair-core` entry points.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comm_errors_wrap_with_detail() {
        let e: Error = CommError::Timeout {
            rank: 3,
            attempts: 6,
        }
        .into();
        let s = e.to_string();
        assert!(s.contains('3') && s.contains('6'), "{s}");
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn invalid_eps_reports_the_threshold() {
        let e = Error::InvalidEps { eps: 0.0 };
        assert!(e.to_string().contains("0 < eps <= 1"), "{e}");
    }

    #[test]
    fn display_names_the_condition() {
        let e = Error::OrbitalSizeMismatch {
            expected: 64,
            got: 32,
            orbital: 1,
        };
        assert!(e.to_string().contains("64"));
    }
}
