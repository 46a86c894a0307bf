//! Query execution-time breakdown.
//!
//! The five phases of the paper's Fig. 9: cache lookup, I/O, compute,
//! mediator↔DB communication and mediator↔user communication. Times are
//! seconds; I/O and network phases come from device models, compute and
//! cache-lookup are measured.

/// Stacked execution-time breakdown of one query.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TimeBreakdown {
    pub cache_lookup_s: f64,
    pub io_s: f64,
    pub compute_s: f64,
    pub mediator_db_s: f64,
    pub mediator_user_s: f64,
}

impl TimeBreakdown {
    /// Total stacked time.
    pub fn total_s(&self) -> f64 {
        self.cache_lookup_s + self.io_s + self.compute_s + self.mediator_db_s + self.mediator_user_s
    }
}

impl std::fmt::Display for TimeBreakdown {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "total {:.3}s (cache {:.3}, io {:.3}, compute {:.3}, med-db {:.3}, med-user {:.3})",
            self.total_s(),
            self.cache_lookup_s,
            self.io_s,
            self.compute_s,
            self.mediator_db_s,
            self.mediator_user_s
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_sums_components() {
        let b = TimeBreakdown {
            cache_lookup_s: 0.1,
            io_s: 1.0,
            compute_s: 2.0,
            mediator_db_s: 0.2,
            mediator_user_s: 0.3,
        };
        assert!((b.total_s() - 3.6).abs() < 1e-12);
        assert!(b.to_string().contains("3.600"));
    }
}
