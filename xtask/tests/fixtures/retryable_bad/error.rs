//! Seeded violation: `Throttled` was added to the enum but `is_retryable`
//! hides it behind a wildcard, so nobody decided whether clients retry.

pub enum ErrorCode {
    Closed,
    Timeout,
    NotFound,
    Throttled,
}

impl ErrorCode {
    pub fn is_retryable(self) -> bool {
        match self {
            ErrorCode::Closed => true,
            ErrorCode::Timeout => true,
            ErrorCode::NotFound => false,
            _ => false,
        }
    }
}

impl GliderError {
    pub fn is_retryable(&self) -> bool {
        self.code.is_retryable()
    }
}
