//! The workspace-wide error type.

use std::fmt;

/// Machine-readable error classification carried across the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ErrorCode {
    /// The named node/object/block does not exist.
    NotFound,
    /// A node already exists at the target path.
    AlreadyExists,
    /// The caller supplied an invalid argument (bad path, bad range, ...).
    InvalidArgument,
    /// The operation targets a node of an incompatible kind
    /// (e.g. a block read on an action node).
    WrongNodeKind,
    /// The storage class has no capacity left (no free blocks/slots).
    OutOfCapacity,
    /// The referenced action type is not registered on the active server.
    UnknownActionType,
    /// A user action method failed or panicked.
    ActionFailed,
    /// The stream or connection was closed before the operation finished.
    Closed,
    /// An underlying I/O failure.
    Io,
    /// A malformed or unexpected protocol message.
    Protocol,
    /// The operation is not supported by this node/server.
    Unsupported,
    /// A FaaS function exceeded its configured limits (time or memory).
    ResourceLimit,
    /// The server is temporarily unreachable or not accepting work
    /// (dead lease, redial in progress); retrying elsewhere may succeed.
    Unavailable,
    /// The operation's deadline elapsed before a response arrived.
    Timeout,
}

impl ErrorCode {
    /// Stable numeric code used on the wire.
    pub fn as_u16(self) -> u16 {
        match self {
            ErrorCode::NotFound => 1,
            ErrorCode::AlreadyExists => 2,
            ErrorCode::InvalidArgument => 3,
            ErrorCode::WrongNodeKind => 4,
            ErrorCode::OutOfCapacity => 5,
            ErrorCode::UnknownActionType => 6,
            ErrorCode::ActionFailed => 7,
            ErrorCode::Closed => 8,
            ErrorCode::Io => 9,
            ErrorCode::Protocol => 10,
            ErrorCode::Unsupported => 11,
            ErrorCode::ResourceLimit => 12,
            ErrorCode::Unavailable => 13,
            ErrorCode::Timeout => 14,
        }
    }

    /// Parses the numeric wire code.
    pub fn from_u16(v: u16) -> Option<Self> {
        Some(match v {
            1 => ErrorCode::NotFound,
            2 => ErrorCode::AlreadyExists,
            3 => ErrorCode::InvalidArgument,
            4 => ErrorCode::WrongNodeKind,
            5 => ErrorCode::OutOfCapacity,
            6 => ErrorCode::UnknownActionType,
            7 => ErrorCode::ActionFailed,
            8 => ErrorCode::Closed,
            9 => ErrorCode::Io,
            10 => ErrorCode::Protocol,
            11 => ErrorCode::Unsupported,
            12 => ErrorCode::ResourceLimit,
            13 => ErrorCode::Unavailable,
            14 => ErrorCode::Timeout,
            _ => return None,
        })
    }

    /// Whether an error with this code is *transient*: the request may
    /// succeed if retried (possibly against another server). This is the
    /// `Retryable`/`Fatal` split of the failure model (DESIGN.md §10) —
    /// transport-level failures are retryable, semantic failures are not.
    /// Note retryable ≠ safe-to-auto-retry: only idempotent operations are
    /// retried automatically; for the rest the caller decides.
    ///
    /// The match is deliberately exhaustive (no `_` arm): adding an
    /// `ErrorCode` variant without deciding its retry class is a compile
    /// error here and a `cargo xtask check` failure.
    pub fn is_retryable(self) -> bool {
        match self {
            // Transport-level: the operation may never have reached (or
            // never answered from) the server — another attempt can win.
            ErrorCode::Closed => true,
            ErrorCode::Io => true,
            ErrorCode::Unavailable => true,
            ErrorCode::Timeout => true,
            // Semantic: the server understood the request and said no;
            // retrying the same request yields the same answer.
            ErrorCode::NotFound => false,
            ErrorCode::AlreadyExists => false,
            ErrorCode::InvalidArgument => false,
            ErrorCode::WrongNodeKind => false,
            ErrorCode::OutOfCapacity => false,
            ErrorCode::UnknownActionType => false,
            ErrorCode::ActionFailed => false,
            ErrorCode::Protocol => false,
            ErrorCode::Unsupported => false,
            ErrorCode::ResourceLimit => false,
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ErrorCode::NotFound => "not found",
            ErrorCode::AlreadyExists => "already exists",
            ErrorCode::InvalidArgument => "invalid argument",
            ErrorCode::WrongNodeKind => "wrong node kind",
            ErrorCode::OutOfCapacity => "out of capacity",
            ErrorCode::UnknownActionType => "unknown action type",
            ErrorCode::ActionFailed => "action failed",
            ErrorCode::Closed => "closed",
            ErrorCode::Io => "i/o error",
            ErrorCode::Protocol => "protocol error",
            ErrorCode::Unsupported => "unsupported",
            ErrorCode::ResourceLimit => "resource limit exceeded",
            ErrorCode::Unavailable => "unavailable",
            ErrorCode::Timeout => "timed out",
        };
        f.write_str(s)
    }
}

/// The error type returned by every fallible public API in the workspace.
///
/// `GliderError` pairs an [`ErrorCode`] (preserved across the wire) with a
/// human-readable message.
///
/// # Examples
///
/// ```
/// use glider_proto::{ErrorCode, GliderError};
///
/// let err = GliderError::not_found("/jobs/42/part-0");
/// assert_eq!(err.code(), ErrorCode::NotFound);
/// assert!(err.to_string().contains("/jobs/42/part-0"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GliderError {
    code: ErrorCode,
    message: String,
}

impl GliderError {
    /// Creates an error with an explicit code and message.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        GliderError {
            code,
            message: message.into(),
        }
    }

    /// Convenience constructor for [`ErrorCode::NotFound`].
    pub fn not_found(what: impl fmt::Display) -> Self {
        GliderError::new(ErrorCode::NotFound, format!("{what} not found"))
    }

    /// Convenience constructor for [`ErrorCode::AlreadyExists`].
    pub fn already_exists(what: impl fmt::Display) -> Self {
        GliderError::new(ErrorCode::AlreadyExists, format!("{what} already exists"))
    }

    /// Convenience constructor for [`ErrorCode::InvalidArgument`].
    pub fn invalid(message: impl Into<String>) -> Self {
        GliderError::new(ErrorCode::InvalidArgument, message)
    }

    /// Convenience constructor for [`ErrorCode::Protocol`].
    pub fn protocol(message: impl Into<String>) -> Self {
        GliderError::new(ErrorCode::Protocol, message)
    }

    /// Convenience constructor for [`ErrorCode::Closed`].
    pub fn closed(what: impl fmt::Display) -> Self {
        GliderError::new(ErrorCode::Closed, format!("{what} closed"))
    }

    /// Convenience constructor for [`ErrorCode::Unavailable`].
    pub fn unavailable(what: impl fmt::Display) -> Self {
        GliderError::new(ErrorCode::Unavailable, format!("{what} unavailable"))
    }

    /// Convenience constructor for [`ErrorCode::Timeout`].
    pub fn timeout(what: impl fmt::Display) -> Self {
        GliderError::new(ErrorCode::Timeout, format!("{what} timed out"))
    }

    /// Whether this error is transient (see [`ErrorCode::is_retryable`]).
    pub fn is_retryable(&self) -> bool {
        self.code.is_retryable()
    }

    /// The machine-readable classification.
    pub fn code(&self) -> ErrorCode {
        self.code
    }

    /// The human-readable message.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for GliderError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl std::error::Error for GliderError {}

impl From<std::io::Error> for GliderError {
    fn from(e: std::io::Error) -> Self {
        GliderError::new(ErrorCode::Io, e.to_string())
    }
}

/// Result alias used across the workspace.
pub type GliderResult<T> = Result<T, GliderError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_round_trip_on_wire() {
        for code in [
            ErrorCode::NotFound,
            ErrorCode::AlreadyExists,
            ErrorCode::InvalidArgument,
            ErrorCode::WrongNodeKind,
            ErrorCode::OutOfCapacity,
            ErrorCode::UnknownActionType,
            ErrorCode::ActionFailed,
            ErrorCode::Closed,
            ErrorCode::Io,
            ErrorCode::Protocol,
            ErrorCode::Unsupported,
            ErrorCode::ResourceLimit,
            ErrorCode::Unavailable,
            ErrorCode::Timeout,
        ] {
            assert_eq!(ErrorCode::from_u16(code.as_u16()), Some(code));
        }
        assert_eq!(ErrorCode::from_u16(0), None);
        assert_eq!(ErrorCode::from_u16(9999), None);
    }

    #[test]
    fn retryable_split_is_transport_vs_semantic() {
        for code in [
            ErrorCode::Closed,
            ErrorCode::Io,
            ErrorCode::Unavailable,
            ErrorCode::Timeout,
        ] {
            assert!(code.is_retryable(), "{code} should be retryable");
        }
        for code in [
            ErrorCode::NotFound,
            ErrorCode::AlreadyExists,
            ErrorCode::InvalidArgument,
            ErrorCode::OutOfCapacity,
            ErrorCode::ActionFailed,
            ErrorCode::Protocol,
            ErrorCode::Unsupported,
        ] {
            assert!(!code.is_retryable(), "{code} should be fatal");
        }
        assert!(GliderError::timeout("call").is_retryable());
        assert!(!GliderError::not_found("/a").is_retryable());
    }

    #[test]
    fn display_is_lowercase_without_punctuation() {
        let e = GliderError::invalid("bad path");
        let s = e.to_string();
        assert!(s.starts_with("invalid argument"));
        assert!(!s.ends_with('.'));
    }

    #[test]
    fn io_errors_convert() {
        let io = std::io::Error::new(std::io::ErrorKind::BrokenPipe, "pipe");
        let e: GliderError = io.into();
        assert_eq!(e.code(), ErrorCode::Io);
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<GliderError>();
    }
}
