//! The workspace error type behind every fallible (`try_`) constructor.
//!
//! Decay functions and builders validate their parameters: a monomial
//! exponent must be positive, a half-life finite and positive, a query
//! needs an aggregate. The original constructors panic on violation —
//! right for tests and examples, wrong for anything that feeds on user
//! input (the `fdql` CLI, config files). Each such constructor therefore
//! has a `try_` twin returning `Result<_, Error>`, and the panicking
//! version is a thin wrapper over it.

use std::fmt;

/// Why a `try_` constructor refused its arguments.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// A numeric parameter was out of its valid range.
    InvalidParameter {
        /// Which parameter (e.g. `"beta"`, `"half_life"`).
        name: &'static str,
        /// The offending value.
        value: f64,
        /// What the parameter must satisfy, human-readable.
        requirement: &'static str,
    },
    /// A builder was finalized without a required component.
    MissingComponent {
        /// The builder (e.g. `"Query"`).
        builder: &'static str,
        /// The component that was never supplied (e.g. `"aggregate"`).
        component: &'static str,
    },
    /// A shard has no worker and will not get one: it died with
    /// supervision disabled, so its state (and any tuples routed to it)
    /// cannot be recovered, or the OS refused its thread at startup.
    WorkerLost {
        /// Index of the shard whose worker is gone.
        shard: usize,
    },
    /// The durable store could not be opened or recovered: unreadable
    /// manifest, corrupt checkpoint, or a WAL that no longer covers the
    /// newest durable commit. Torn *tails* are repaired silently; this
    /// variant means the store is damaged below the last commit point,
    /// where recovering would silently drop acknowledged data.
    Durability {
        /// What went wrong, human-readable.
        detail: String,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidParameter {
                name,
                value,
                requirement,
            } => write!(f, "invalid {name} = {value}: must be {requirement}"),
            Error::MissingComponent { builder, component } => {
                write!(f, "{builder} is missing its {component}")
            }
            Error::WorkerLost { shard } => {
                write!(
                    f,
                    "shard {shard} has no worker (it died unsupervised, or its thread did not start)"
                )
            }
            Error::Durability { detail } => write!(f, "durable store: {detail}"),
        }
    }
}

impl std::error::Error for Error {}

/// Checks one numeric parameter: finite and strictly positive — the
/// requirement shared by every decay-family constructor.
pub(crate) fn require_positive(name: &'static str, value: f64) -> Result<f64, Error> {
    if value.is_finite() && value > 0.0 {
        Ok(value)
    } else {
        Err(Error::InvalidParameter {
            name,
            value,
            requirement: "finite and > 0",
        })
    }
}
