//! Service-level errors.

use mmjoin_api::{EngineError, QueryError, QueryFamily};
use std::fmt;

/// Everything that can go wrong between a [`Request`](crate::Request)
/// arriving and its rows coming back.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The request names a relation the catalog does not hold.
    UnknownRelation(String),
    /// The request pins an engine that is not registered.
    UnknownEngine(String),
    /// No registered engine supports this query family.
    NoEngineFor(QueryFamily),
    /// The resolved query failed validation.
    InvalidQuery(QueryError),
    /// The selected engine failed.
    Engine(EngineError),
    /// The query panicked while executing (engine bug); the calling
    /// thread survived and the service keeps serving.
    Internal(String),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::UnknownRelation(name) => {
                write!(f, "no relation registered as `{name}`")
            }
            ServiceError::UnknownEngine(name) => {
                write!(f, "no engine registered as `{name}`")
            }
            ServiceError::NoEngineFor(family) => {
                write!(f, "no registered engine supports {family} queries")
            }
            ServiceError::InvalidQuery(e) => write!(f, "invalid query: {e}"),
            ServiceError::Engine(e) => write!(f, "engine error: {e}"),
            ServiceError::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<QueryError> for ServiceError {
    fn from(e: QueryError) -> Self {
        ServiceError::InvalidQuery(e)
    }
}

impl From<EngineError> for ServiceError {
    fn from(e: EngineError) -> Self {
        match e {
            EngineError::InvalidQuery(q) => ServiceError::InvalidQuery(q),
            EngineError::UnknownEngine(name) => ServiceError::UnknownEngine(name),
            other => ServiceError::Engine(other),
        }
    }
}
