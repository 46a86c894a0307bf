//! Service-level errors.

use std::fmt;

use tdb_storage::StorageError;

/// Failure while building the archive and cluster.
#[derive(Debug)]
pub enum BuildError {
    Storage(StorageError),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Storage(e) => write!(f, "storage failure during build: {e}"),
        }
    }
}

impl std::error::Error for BuildError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BuildError::Storage(e) => Some(e),
        }
    }
}

impl From<StorageError> for BuildError {
    fn from(e: StorageError) -> Self {
        BuildError::Storage(e)
    }
}

/// Failure of a user query.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// "Users receive an error message notifying them if their request has
    /// a threshold that is set too low" (paper §4).
    ThresholdTooLow { points: u64, limit: u64 },
    /// The raw field is not part of this dataset.
    UnknownField(String),
    /// The time-step is outside the archive.
    UnknownTimestep { timestep: u32, available: u32 },
    /// The query box reaches outside the grid.
    RegionOutOfBounds,
    /// A parameter breaks its rule (a non-finite threshold, PDF bins, the
    /// top-k size); carries the rule, which is also the wire's error text.
    InvalidParameter(&'static str),
    /// The storage or cluster layer failed (corrupt partition, missing
    /// data, I/O error). Carries the rendered cause.
    Backend(String),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::ThresholdTooLow { points, limit } => write!(
                f,
                "threshold too low: {points} locations exceed it, limit is {limit}; \
                 raise the threshold or request the field values directly"
            ),
            QueryError::UnknownField(name) => write!(f, "unknown raw field '{name}'"),
            QueryError::UnknownTimestep {
                timestep,
                available,
            } => write!(
                f,
                "time-step {timestep} out of range (archive holds 0..{available})"
            ),
            QueryError::RegionOutOfBounds => write!(f, "query box reaches outside the grid"),
            QueryError::InvalidParameter(rule) => f.write_str(rule),
            QueryError::Backend(detail) => write!(f, "backend failure: {detail}"),
        }
    }
}

impl std::error::Error for QueryError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_mention_key_facts() {
        let e = QueryError::ThresholdTooLow {
            points: 2_000_000,
            limit: 1_000_000,
        };
        let s = e.to_string();
        assert!(s.contains("2000000") && s.contains("1000000"));
        assert!(QueryError::UnknownField("vort".into())
            .to_string()
            .contains("vort"));
    }
}
