//! Error types shared by the core algorithms.

use std::error::Error;
use std::fmt;

/// Error returned by fallible constructors and solvers in this crate.
///
/// # Example
///
/// ```
/// use dtn_core::sigmoid::ResponseFunction;
/// use dtn_core::time::Duration;
///
/// // p_min must lie in (p_max/2, p_max); 0.2 < 0.8/2 is rejected.
/// let err = ResponseFunction::new(0.2, 0.8, Duration::hours(10)).unwrap_err();
/// assert!(err.to_string().contains("p_min"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A numeric parameter was outside its documented domain.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// Human-readable description of the violated constraint.
        reason: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidParameter { name, reason } => {
                write!(f, "invalid parameter `{name}`: {reason}")
            }
        }
    }
}

impl Error for CoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = CoreError::InvalidParameter {
            name: "p_min",
            reason: "must be positive".into(),
        };
        assert!(e.to_string().contains("p_min"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoreError>();
    }
}
