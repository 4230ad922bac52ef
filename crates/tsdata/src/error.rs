//! Error type shared across the data layer.

use std::fmt;

/// Errors produced while constructing, parsing or transforming time series.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TsError {
    /// Rows of a matrix (or paired slices) had inconsistent lengths.
    DimensionMismatch {
        /// Length that was expected.
        expected: usize,
        /// Length that was found.
        found: usize,
    },
    /// An operation that requires data received none.
    Empty,
    /// A slice was too short for the requested statistic
    /// (e.g. Pearson correlation of a single point).
    TooShort {
        /// Minimum number of points required.
        need: usize,
        /// Number of points available.
        got: usize,
    },
    /// A series had zero variance where a correlation was requested.
    ZeroVariance,
    /// A text record could not be parsed.
    Parse {
        /// 1-based line number, 0 when unknown.
        line: usize,
        /// Human-readable description.
        msg: String,
    },
    /// A query referenced a range outside the data.
    OutOfRange {
        /// Requested index/offset.
        requested: usize,
        /// Exclusive upper bound that was available.
        available: usize,
    },
    /// An invalid parameter was supplied (window of size 0, step of 0, ...).
    InvalidParameter(String),
    /// A sample was NaN or infinite where the engine needs finite data
    /// (a non-finite sample poisons every sketch prefix after it).
    NonFinite {
        /// Row of the offending sample.
        series: usize,
        /// Column of the offending sample, in the caller's column frame.
        column: usize,
    },
}

impl fmt::Display for TsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TsError::DimensionMismatch { expected, found } => {
                write!(f, "dimension mismatch: expected {expected}, found {found}")
            }
            TsError::Empty => write!(f, "empty input"),
            TsError::TooShort { need, got } => {
                write!(
                    f,
                    "series too short: need at least {need} points, got {got}"
                )
            }
            TsError::ZeroVariance => write!(f, "zero variance: correlation undefined"),
            TsError::Parse { line, msg } => write!(f, "parse error at line {line}: {msg}"),
            TsError::OutOfRange {
                requested,
                available,
            } => write!(
                f,
                "out of range: requested {requested}, available {available}"
            ),
            TsError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
            TsError::NonFinite { series, column } => {
                write!(f, "non-finite sample in series {series} at column {column}")
            }
        }
    }
}

impl std::error::Error for TsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = TsError::DimensionMismatch {
            expected: 4,
            found: 3,
        };
        assert!(e.to_string().contains("expected 4"));
        assert!(e.to_string().contains("found 3"));

        let e = TsError::Parse {
            line: 17,
            msg: "bad float".into(),
        };
        assert!(e.to_string().contains("line 17"));

        let e = TsError::OutOfRange {
            requested: 10,
            available: 5,
        };
        assert!(e.to_string().contains("10"));
        assert!(e.to_string().contains("5"));

        let e = TsError::NonFinite {
            series: 2,
            column: 50,
        };
        assert!(e.to_string().contains("series 2"));
        assert!(e.to_string().contains("column 50"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&TsError::Empty);
    }
}
