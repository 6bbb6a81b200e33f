//! Error types shared by all solvers in this crate.

use std::fmt;

/// Errors produced by tridiagonal solvers and batch containers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TridiagError {
    /// A system of size zero was supplied where at least one unknown is
    /// required.
    EmptySystem,
    /// The diagonal arrays of a system do not have consistent lengths.
    ///
    /// Holds `(expected, found, what)` where `what` names the offending
    /// array (`"lower"`, `"upper"`, `"rhs"`, ...).
    LengthMismatch {
        /// Length the operation required.
        expected: usize,
        /// Length actually supplied.
        found: usize,
        /// Which array was wrong (`"lower"`, `"rhs"`, …).
        what: &'static str,
    },
    /// Elimination encountered a (numerically) zero pivot at the given
    /// row. The paper's algorithms are pivot-free; diagonally dominant
    /// input guarantees this never fires.
    ZeroPivot {
        /// Row at which elimination broke down.
        row: usize,
    },
    /// A non-finite value (NaN/Inf) was produced or supplied at the given
    /// row.
    NonFinite {
        /// Row holding the first NaN/Inf.
        row: usize,
    },
    /// The requested PCR step count would reduce below one equation per
    /// subsystem: `2^k` must not exceed the system size.
    TooManySteps {
        /// Requested PCR step count.
        k: u32,
        /// System size it exceeded.
        n: usize,
    },
    /// A batch operation was given systems of inconsistent sizes where a
    /// uniform size is required (interleaved layout).
    NonUniformBatch {
        /// Size of the first system in the batch.
        first: usize,
        /// Conflicting size encountered later.
        found: usize,
    },
    /// The requested index is out of bounds for this batch.
    IndexOutOfBounds {
        /// Offending index.
        index: usize,
        /// Container length.
        len: usize,
    },
    /// A solver-specific configuration problem, e.g. a tile size that is
    /// not a multiple of the subsystem count.
    InvalidConfig(String),
}

impl fmt::Display for TridiagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TridiagError::EmptySystem => write!(f, "tridiagonal system has zero unknowns"),
            TridiagError::LengthMismatch {
                expected,
                found,
                what,
            } => write!(f, "array `{what}` has length {found}, expected {expected}"),
            TridiagError::ZeroPivot { row } => {
                write!(
                    f,
                    "zero pivot encountered at row {row} (system not solvable without pivoting)"
                )
            }
            TridiagError::NonFinite { row } => {
                write!(f, "non-finite value at row {row}")
            }
            TridiagError::TooManySteps { k, n } => write!(
                f,
                "{k} PCR steps would split a {n}-unknown system below one equation per subsystem"
            ),
            TridiagError::NonUniformBatch { first, found } => write!(
                f,
                "batch requires uniform system size, got {found} after {first}"
            ),
            TridiagError::IndexOutOfBounds { index, len } => {
                write!(f, "system index {index} out of bounds for batch of {len}")
            }
            TridiagError::InvalidConfig(msg) => write!(f, "invalid solver configuration: {msg}"),
        }
    }
}

impl std::error::Error for TridiagError {}

/// Convenient result alias used across the crate.
pub type Result<T> = std::result::Result<T, TridiagError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let cases: Vec<(TridiagError, &str)> = vec![
            (TridiagError::EmptySystem, "zero unknowns"),
            (
                TridiagError::LengthMismatch {
                    expected: 4,
                    found: 3,
                    what: "lower",
                },
                "`lower`",
            ),
            (TridiagError::ZeroPivot { row: 7 }, "row 7"),
            (TridiagError::NonFinite { row: 2 }, "row 2"),
            (TridiagError::TooManySteps { k: 9, n: 16 }, "9 PCR steps"),
            (
                TridiagError::NonUniformBatch {
                    first: 8,
                    found: 16,
                },
                "uniform",
            ),
            (
                TridiagError::IndexOutOfBounds { index: 5, len: 2 },
                "out of bounds",
            ),
            (TridiagError::InvalidConfig("tile".into()), "configuration"),
        ];
        for (err, needle) in cases {
            let msg = err.to_string();
            assert!(
                msg.contains(needle),
                "message {msg:?} should contain {needle:?}"
            );
        }
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&TridiagError::EmptySystem);
    }
}
