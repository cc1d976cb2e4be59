//! Structured error envelopes: every failure a client can provoke has a
//! status, a stable machine-readable code, and a human-readable message.
//!
//! The server's contract is that *no input panics it*: malformed JSON,
//! unknown routes, oversized bodies, invalid experiment specs, and
//! mismatched sketch merges all come back as
//! `{"error": {"code", "message", "status"}}` envelopes with the matching
//! HTTP status. [`ApiError`] is the one type every layer funnels into.

use crate::http::HttpError;
use crate::json::{num, obj, s, Json};

/// One client-visible error: HTTP status, stable code, message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError {
    /// The HTTP status the response carries.
    pub status: u16,
    /// A stable machine-readable code (`bad_request`, `not_found`,
    /// `queue_full`, ...). Clients branch on this, not the message.
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl ApiError {
    /// `400` — the request body or spec is malformed.
    #[must_use]
    pub fn bad_request(message: impl Into<String>) -> Self {
        ApiError {
            status: 400,
            code: "bad_request",
            message: message.into(),
        }
    }

    /// `404` — no such route or run.
    #[must_use]
    pub fn not_found(message: impl Into<String>) -> Self {
        ApiError {
            status: 404,
            code: "not_found",
            message: message.into(),
        }
    }

    /// `405` — the route exists but not for this method.
    #[must_use]
    pub fn method_not_allowed(method: &str, path: &str) -> Self {
        ApiError {
            status: 405,
            code: "method_not_allowed",
            message: format!("{method} is not supported on {path}"),
        }
    }

    /// `503` — the bounded job queue is full; retry later.
    #[must_use]
    pub fn queue_full(capacity: usize) -> Self {
        ApiError {
            status: 503,
            code: "queue_full",
            message: format!("job queue is at its {capacity}-job capacity; retry later"),
        }
    }

    /// `500` — an unexpected internal failure (including a caught panic);
    /// the message is intentionally generic.
    #[must_use]
    pub fn internal() -> Self {
        ApiError {
            status: 500,
            code: "internal",
            message: "internal server error".to_string(),
        }
    }

    /// The JSON error envelope.
    #[must_use]
    pub fn to_json(&self) -> Json {
        obj(vec![(
            "error",
            obj(vec![
                ("code", s(self.code)),
                ("message", s(&self.message)),
                ("status", num(f64::from(self.status))),
            ]),
        )])
    }
}

impl From<HttpError> for ApiError {
    fn from(e: HttpError) -> Self {
        match e {
            HttpError::PayloadTooLarge => ApiError {
                status: 413,
                code: "payload_too_large",
                message: "request body exceeds the configured limit".to_string(),
            },
            HttpError::Malformed(what) | HttpError::Truncated(what) => {
                ApiError::bad_request(format!("malformed request: {what}"))
            }
            // Unreachable in practice: the connection handler drops the
            // socket on these instead of responding.
            HttpError::ConnectionClosed => ApiError::bad_request(e.to_string()),
            HttpError::Io(_) => ApiError::internal(),
        }
    }
}

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {}: {}", self.status, self.code, self.message)
    }
}

impl std::error::Error for ApiError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_shape_is_stable() {
        let e = ApiError::bad_request("circuit `nope` is unknown");
        let text = e.to_json().to_text();
        assert_eq!(
            text,
            r#"{"error":{"code":"bad_request","message":"circuit `nope` is unknown","status":400}}"#
        );
    }

    #[test]
    fn http_errors_map_to_statuses() {
        assert_eq!(ApiError::from(HttpError::PayloadTooLarge).status, 413);
        assert_eq!(ApiError::from(HttpError::Malformed("x")).status, 400);
        assert_eq!(ApiError::from(HttpError::Truncated("x")).status, 400);
        assert_eq!(
            ApiError::from(HttpError::Io(std::io::ErrorKind::TimedOut)).status,
            500
        );
    }
}
