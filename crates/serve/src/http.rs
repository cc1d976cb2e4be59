//! The one HTTP/1.1 layer of the serve protocol, for both ends of the
//! wire, on `std` I/O.
//!
//! `statvs serve` and `statvs fleet` keep the repo's zero-dependency
//! stance, so this module implements exactly the slice of HTTP/1.1 the
//! protocol needs. The server parses one request ([`read_request`]) and
//! writes one response ([`write_json_response`]); the client
//! ([`HttpClient`]) writes one request and parses one response
//! ([`read_response`]). Every connection carries one exchange
//! (`Connection: close`), so framing can never desynchronize.
//!
//! Both parsers share one head reader (start line plus headers, at most
//! 8 KiB per line and 64 headers) and one `Content-Length` body reader
//! under a byte cap. An absent `Content-Length` means an empty body, and
//! any `Transfer-Encoding` but `identity` is refused. Of the other
//! headers only RFC 7240's `Prefer: wait=S` is kept: a request's
//! [`Request::wait`] asks `GET /runs/{id}` to hold its reply until the run
//! settles ([`HttpClient::get_held`] sends it), and the response reader
//! discards it. On a socket, both ends read through a deadline that
//! bounds the whole message, not each read, so a peer trickling bytes
//! cannot hold an exchange past its timeout.
//!
//! Every limit is explicit and every violation is a typed [`HttpError`]:
//! the server answers framing faults with a `400` envelope and oversized
//! bodies with a `413`, the client classifies them as [`ClientError`]s,
//! and nothing in this module panics on a hostile peer.

use crate::json::Json;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Upper bound on one header line (and the start line), bytes.
const MAX_LINE_BYTES: usize = 8 * 1024;
/// Upper bound on the number of header lines.
const MAX_HEADERS: usize = 64;
/// Upper bound on one response body, bytes. Run envelopes carry hex
/// sketch payloads (a few kB); a worker streaming unbounded garbage must
/// not make the client buffer it.
const MAX_RESPONSE_BYTES: usize = 4 * 1024 * 1024;

/// One parsed HTTP request: what routing reads.
#[derive(Debug)]
pub struct Request {
    /// The request method, uppercase as received (`GET`, `POST`, ...).
    pub method: String,
    /// The path component of the request target, any query string
    /// dropped and percent-decoding *not* applied (the protocol's paths
    /// are plain ASCII).
    pub path: String,
    /// The request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
    /// How long the client lets the server hold its reply, from the first
    /// well-formed `Prefer: wait=S` preference (`S` in seconds, integer
    /// or decimal). A malformed, negative or non-finite value is ignored,
    /// as RFC 7240 §2 asks of a preference a server does not understand.
    pub wait: Option<Duration>,
}

/// Why a message could not be read. The server answers each variant
/// with one status (or drops the connection), and the client maps each
/// onto one [`ClientError`].
#[derive(Debug, PartialEq, Eq)]
pub enum HttpError {
    /// The peer closed the connection before sending a byte.
    ConnectionClosed,
    /// The peer closed the connection mid-message: inside a line, inside
    /// the head, or before the declared body was complete. Maps to `400`.
    Truncated(&'static str),
    /// Malformed framing: bad start line, bad header, bad
    /// `Content-Length`, unsupported transfer encoding. Maps to `400`.
    Malformed(&'static str),
    /// The declared body exceeds the cap. Maps to `413`.
    PayloadTooLarge,
    /// The underlying socket failed or the deadline passed; the
    /// connection is unusable, no response is possible.
    Io(ErrorKind),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::ConnectionClosed => write!(f, "connection closed before a message"),
            HttpError::Truncated(what) => write!(f, "truncated message: {what}"),
            HttpError::Malformed(what) => write!(f, "malformed message: {what}"),
            HttpError::PayloadTooLarge => write!(f, "message body exceeds the configured limit"),
            HttpError::Io(kind) => write!(f, "socket error: {kind:?}"),
        }
    }
}

impl std::error::Error for HttpError {}

/// Bounds a whole message read, not each read: before every read it sets
/// the socket's read timeout to the time left, and once the deadline has
/// passed it fails with `TimedOut` without reading (a socket refuses a
/// zero timeout).
pub(crate) struct Deadline<'a> {
    stream: &'a TcpStream,
    until: Instant,
}

impl<'a> Deadline<'a> {
    pub(crate) fn new(stream: &'a TcpStream, timeout: Duration) -> Self {
        Deadline {
            stream,
            until: Instant::now() + timeout,
        }
    }
}

impl Read for Deadline<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let left = self.until.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left))?;
        self.stream.read(buf)
    }
}

/// Reads one line terminated by `\n`, dropping a trailing `\r`; `None`
/// means the peer closed the connection before the line's first byte. A
/// line over the cap fails without buffering the rest (a peer streaming
/// an unbounded header must not make this end buffer it).
fn read_line<R: BufRead>(reader: &mut R) -> Result<Option<String>, HttpError> {
    let mut line = Vec::new();
    reader
        .by_ref()
        .take(MAX_LINE_BYTES as u64 + 1)
        .read_until(b'\n', &mut line)
        .map_err(|e| HttpError::Io(e.kind()))?;
    if line.pop_if(|b| *b == b'\n').is_none() {
        return match line.len() {
            0 => Ok(None),
            n if n > MAX_LINE_BYTES => Err(HttpError::Malformed("header line too long")),
            _ => Err(HttpError::Truncated("truncated line")),
        };
    }
    line.pop_if(|b| *b == b'\r');
    String::from_utf8(line)
        .map(Some)
        .map_err(|_| HttpError::Malformed("non-UTF-8 header data"))
}

/// The `wait` preference of one `Prefer` header value, when it holds a
/// well-formed one: preferences are comma-separated, each may carry
/// `;`-parameters, and the value is a plain decimal number of seconds
/// (optionally quoted). Anything else yields `None`.
fn prefer_wait(value: &str) -> Option<Duration> {
    value.split(',').find_map(|preference| {
        let preference = preference.split(';').next()?;
        let (name, secs) = preference.split_once('=')?;
        if !name.trim().eq_ignore_ascii_case("wait") {
            return None;
        }
        let secs = secs.trim().trim_matches('"');
        if !secs.bytes().all(|b| b.is_ascii_digit() || b == b'.') {
            return None;
        }
        Duration::try_from_secs_f64(secs.parse().ok()?).ok()
    })
}

/// Reads one message: the start line, parsed by `start` before any header
/// is read; the headers, of which only the framing ones and the first
/// well-formed `Prefer: wait` are kept; and the `Content-Length` body. A
/// declaration over `max_body` fails with [`HttpError::PayloadTooLarge`]
/// *before* any body byte is buffered.
fn read_message<R: BufRead, T>(
    reader: &mut R,
    max_body: usize,
    start: impl FnOnce(&str) -> Result<T, HttpError>,
) -> Result<(T, Option<Duration>, Vec<u8>), HttpError> {
    let start = start(&read_line(reader)?.ok_or(HttpError::ConnectionClosed)?)?;
    let mut length = None;
    let mut wait = None;
    let mut headers = 0;
    loop {
        let line = read_line(reader)?.ok_or(HttpError::Truncated("unterminated head"))?;
        if line.is_empty() {
            break;
        }
        headers += 1;
        if headers > MAX_HEADERS {
            return Err(HttpError::Malformed("too many headers"));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(HttpError::Malformed("header line without ':'"))?;
        if name.is_empty() || name.contains(' ') {
            return Err(HttpError::Malformed("malformed header name"));
        }
        let value = value.trim();
        // The first declaration frames the body.
        if name.eq_ignore_ascii_case("content-length") && length.is_none() {
            let declared = value.parse();
            length = Some(declared.map_err(|_| HttpError::Malformed("malformed Content-Length"))?);
        } else if name.eq_ignore_ascii_case("transfer-encoding")
            && !value.eq_ignore_ascii_case("identity")
        {
            return Err(HttpError::Malformed("unsupported transfer encoding"));
        } else if name.eq_ignore_ascii_case("prefer") && wait.is_none() {
            wait = prefer_wait(value);
        }
    }
    let declared = length.unwrap_or(0);
    if declared > max_body {
        return Err(HttpError::PayloadTooLarge);
    }
    let mut body = vec![0u8; declared];
    reader.read_exact(&mut body).map_err(|e| match e.kind() {
        ErrorKind::UnexpectedEof => HttpError::Truncated("body shorter than Content-Length"),
        kind => HttpError::Io(kind),
    })?;
    Ok((start, wait, body))
}

/// Reads and parses one request. `max_body` caps the accepted
/// `Content-Length`.
///
/// # Errors
///
/// See [`HttpError`]; the caller maps each variant onto a response (or
/// drops the connection for I/O errors).
pub fn read_request<R: BufRead>(reader: &mut R, max_body: usize) -> Result<Request, HttpError> {
    let ((method, path), wait, body) = read_message(reader, max_body, |line| {
        let mut parts = line.split(' ');
        let method = parts
            .next()
            .filter(|m| !m.is_empty())
            .ok_or(HttpError::Malformed("empty request line"))?;
        let target = parts
            .next()
            .ok_or(HttpError::Malformed("missing request target"))?;
        let version = parts
            .next()
            .ok_or(HttpError::Malformed("missing HTTP version"))?;
        if parts.next().is_some() {
            return Err(HttpError::Malformed("malformed request line"));
        }
        if version != "HTTP/1.1" && version != "HTTP/1.0" {
            return Err(HttpError::Malformed("unsupported HTTP version"));
        }
        if !target.starts_with('/') {
            return Err(HttpError::Malformed("request target must be a path"));
        }
        let path = target.split_once('?').map_or(target, |(path, _)| path);
        Ok((method.to_string(), path.to_string()))
    })?;
    Ok(Request {
        method,
        path,
        body,
        wait,
    })
}

/// Reads and parses one response: its status code and body. `max_body`
/// caps the accepted `Content-Length`.
///
/// # Errors
///
/// See [`HttpError`]; [`HttpClient`] maps each variant onto a
/// [`ClientError`].
pub fn read_response<R: BufRead>(
    reader: &mut R,
    max_body: usize,
) -> Result<(u16, Vec<u8>), HttpError> {
    let (status, _, body) = read_message(reader, max_body, |line| {
        let mut parts = line.split(' ');
        if !parts.next().is_some_and(|v| v.starts_with("HTTP/1.")) {
            return Err(HttpError::Malformed("bad status line"));
        }
        parts
            .next()
            .and_then(|code| code.parse().ok())
            .ok_or(HttpError::Malformed("bad status code"))
    })?;
    Ok((status, body))
}

/// Writes one complete JSON response and flushes. Every response carries
/// `Connection: close`: the protocol is one exchange per connection, so
/// framing can never desynchronize.
///
/// # Errors
///
/// Propagates socket write errors (the caller just drops the connection).
pub fn write_json_response<W: Write>(
    stream: &mut W,
    status: u16,
    body: &str,
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    };
    write!(
        stream,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len(),
    )?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Why one exchange with a worker failed. Every variant is a *transport
/// or framing* fault — an HTTP error status is a successful exchange and
/// comes back as `(status, body)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// TCP connect failed (refused, unreachable, connect timeout). The
    /// classic dead-worker signature.
    Connect(ErrorKind),
    /// The socket failed mid-exchange.
    Io(ErrorKind),
    /// The worker did not deliver its whole response within the I/O
    /// timeout.
    Timeout,
    /// The worker closed the connection before a complete response
    /// (an unterminated head, or a body shorter than its declared
    /// `Content-Length`).
    Truncated,
    /// The response bytes do not parse as an HTTP response.
    Malformed(&'static str),
    /// The response body is not valid JSON.
    BadJson(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Connect(kind) => write!(f, "connect failed: {kind:?}"),
            ClientError::Io(kind) => write!(f, "socket error: {kind:?}"),
            ClientError::Timeout => write!(f, "worker did not respond within the timeout"),
            ClientError::Truncated => write!(f, "worker closed the connection mid-response"),
            ClientError::Malformed(what) => write!(f, "malformed response: {what}"),
            ClientError::BadJson(e) => write!(f, "response body is not JSON: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<HttpError> for ClientError {
    /// Classifies a failed exchange, surfacing timeouts distinctly (they
    /// drive the coordinator's straggler handling).
    fn from(e: HttpError) -> Self {
        match e {
            HttpError::ConnectionClosed | HttpError::Truncated(_) => ClientError::Truncated,
            HttpError::Malformed(what) => ClientError::Malformed(what),
            HttpError::PayloadTooLarge => ClientError::Malformed("response exceeds the size cap"),
            HttpError::Io(ErrorKind::WouldBlock | ErrorKind::TimedOut) => ClientError::Timeout,
            HttpError::Io(kind) => ClientError::Io(kind),
        }
    }
}

/// The protocol's client: one exchange per connection, JSON bodies.
///
/// It mirrors the server's hostile-input posture from the other side of
/// the wire: every way a worker can misbehave — refuse the connection,
/// stall or trickle past the timeout, close mid-response, return garbage
/// framing or non-JSON — maps to a typed [`ClientError`] the coordinator
/// can classify as transient (retry on another worker) or protocol-fatal.
#[derive(Debug, Clone)]
pub struct HttpClient {
    /// TCP connect timeout.
    pub connect_timeout: Duration,
    /// Timeout for the exchange itself: it bounds each request write and
    /// the whole response read.
    pub io_timeout: Duration,
}

impl Default for HttpClient {
    fn default() -> Self {
        HttpClient {
            connect_timeout: Duration::from_secs(2),
            io_timeout: Duration::from_secs(10),
        }
    }
}

impl HttpClient {
    /// One exchange: connect, send `method path` with an optional JSON
    /// body, half-close, read the response under a 4 MiB body cap, and
    /// parse the body as JSON. Returns the HTTP status and parsed body —
    /// error envelopes are *successful* exchanges here; the caller
    /// branches on the status.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on any transport or framing fault.
    pub fn exchange(
        &self,
        addr: SocketAddr,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<(u16, Json), ClientError> {
        self.send(addr, method, path, body, "")
    }

    /// A held `GET path`: the exchange of [`HttpClient::exchange`] with
    /// `Prefer: wait=S`, asking the server to answer once the run settles
    /// or `wait` has passed. A server that ignores the preference answers
    /// at once. `wait` should stay well under `io_timeout`, or a held
    /// reply reads as a timeout.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on any transport or framing fault.
    pub fn get_held(
        &self,
        addr: SocketAddr,
        path: &str,
        wait: Duration,
    ) -> Result<(u16, Json), ClientError> {
        let prefer = format!("Prefer: wait={}\r\n", wait.as_secs_f64());
        self.send(addr, "GET", path, None, &prefer)
    }

    /// One exchange with `headers` (complete `\r\n`-terminated lines)
    /// added to the request head.
    fn send(
        &self,
        addr: SocketAddr,
        method: &str,
        path: &str,
        body: Option<&str>,
        headers: &str,
    ) -> Result<(u16, Json), ClientError> {
        let payload = body.unwrap_or("");
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: {addr}\r\n{headers}Content-Type: application/json\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{payload}",
            payload.len()
        );
        let stream = TcpStream::connect_timeout(&addr, self.connect_timeout)
            .map_err(|e| ClientError::Connect(e.kind()))?;
        let io = |e: std::io::Error| HttpError::Io(e.kind());
        stream
            .set_write_timeout(Some(self.io_timeout))
            .map_err(io)?;
        (&stream).write_all(request.as_bytes()).map_err(io)?;
        // Half-close: the server's post-error drain sees EOF immediately.
        let _ = stream.shutdown(Shutdown::Write);
        let mut reader = BufReader::new(Deadline::new(&stream, self.io_timeout));
        let (status, body) = read_response(&mut reader, MAX_RESPONSE_BYTES)?;
        let text = String::from_utf8(body).map_err(|_| ClientError::Malformed("non-UTF-8 body"))?;
        let json = Json::parse(&text).map_err(|e| ClientError::BadJson(e.to_string()))?;
        Ok((status, json))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(raw: &str) -> Result<Request, HttpError> {
        read_request(&mut BufReader::new(raw.as_bytes()), 1024)
    }

    /// A response read as the client classifies it.
    fn response(raw: &[u8]) -> Result<(u16, Vec<u8>), ClientError> {
        read_response(&mut BufReader::new(raw), 1024).map_err(ClientError::from)
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = parse(
            "POST /experiments?x=1 HTTP/1.1\r\nHost: localhost\r\nContent-Length: 4\r\n\r\nabcd",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/experiments");
        assert_eq!(req.body, b"abcd");
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 11\r\n\r\n{\"ok\":true}";
        assert_eq!(response(raw), Ok((200, b"{\"ok\":true}".to_vec())));
    }

    #[test]
    fn parses_a_bare_get() {
        let req = parse("GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());
        // An absent Content-Length means an empty body at both ends.
        let raw = b"HTTP/1.1 404 Not Found\r\n\r\nunframed";
        assert_eq!(response(raw), Ok((404, Vec::new())));
    }

    #[test]
    fn prefer_wait_is_parsed_and_malformed_values_are_ignored() {
        let wait = |header: &str| {
            let req = parse(&format!("GET /runs/1 HTTP/1.1\r\n{header}\r\n\r\n"));
            req.expect("the request parses whatever its preference")
                .wait
        };
        let ms = Duration::from_millis;
        assert_eq!(wait("Prefer: wait=2"), Some(ms(2000)));
        assert_eq!(wait("Prefer: wait=0.25"), Some(ms(250)));
        assert_eq!(wait("Prefer: respond-async, wait=0.1"), Some(ms(100)));
        assert_eq!(wait("prefer: WAIT = 2 ; x=y"), Some(ms(2000)));
        assert_eq!(wait("Prefer: wait=abc, wait=1"), Some(ms(1000)));
        for ignored in [
            "Prefer: wait=-1",
            "Prefer: wait=abc",
            "Prefer: wait=NaN",
            "Prefer: wait=inf",
            "Prefer: wait=1e3",
            "Prefer: wait=",
            "Prefer: wait",
            "Prefer: respond-async",
            "X-Wait: wait=2",
        ] {
            assert_eq!(wait(ignored), None, "{ignored:?}");
        }
        // The response reader reads past the header and drops it.
        let raw = b"HTTP/1.1 200 OK\r\nPrefer: wait=2\r\nContent-Length: 2\r\n\r\n{}";
        assert_eq!(response(raw), Ok((200, b"{}".to_vec())));
    }

    #[test]
    fn rejects_malformed_framing() {
        let long = format!("X-Long: {}\r\n", "a".repeat(MAX_LINE_BYTES));
        let many: String = (0..=MAX_HEADERS).map(|i| format!("X-{i}: v\r\n")).collect();
        assert!(matches!(parse(""), Err(HttpError::ConnectionClosed)));
        for raw in [
            "GET\r\n\r\n",
            "GET / HTTP/2\r\n\r\n",
            "GET http://x HTTP/1.1\r\n\r\n",
            "GET / HTTP/1.1\r\nbad header\r\n\r\n",
            "POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
            "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
            &format!("GET / HTTP/1.1\r\n{long}\r\n"),
            &format!("GET / HTTP/1.1\r\n{many}\r\n"),
        ] {
            assert!(
                matches!(parse(raw), Err(HttpError::Malformed(_))),
                "{raw:?}"
            );
        }
        for raw in [
            "POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc",
            "GET / HTTP/1.1\r\nHost: x",
            "GET / HTTP/1.1\r\nHost: x\r\n",
        ] {
            assert!(
                matches!(parse(raw), Err(HttpError::Truncated(_))),
                "{raw:?}"
            );
        }

        for raw in [
            "SPICE/9 hello\r\n\r\nbody",
            "HTTP/1.1 abc OK\r\n\r\n{}",
            "HTTP/1.1\r\n\r\n{}",
            "HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n",
            "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n",
            &format!("HTTP/1.1 200 OK\r\n{long}\r\n"),
            &format!("HTTP/1.1 200 OK\r\n{many}\r\n"),
        ] {
            let got = response(raw.as_bytes());
            assert!(matches!(got, Err(ClientError::Malformed(_))), "{raw:?}");
        }
        // A worker that died mid-response: nothing sent, an unterminated
        // head, or a body shorter than declared.
        for raw in [
            "",
            "HTTP/1.1 200 OK\r\nContent-Le",
            "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n",
            "HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{\"ok\"",
        ] {
            assert_eq!(
                response(raw.as_bytes()),
                Err(ClientError::Truncated),
                "{raw:?}"
            );
        }
        // Non-UTF-8 head bytes are malformed once their line ends; an
        // unterminated line is truncated first.
        let got = response(&[0xff, 0xfe, b'\r', b'\n']);
        assert!(matches!(got, Err(ClientError::Malformed(_))));
        assert_eq!(response(&[0xff, 0xfe, 0x00]), Err(ClientError::Truncated));
    }

    #[test]
    fn oversized_declarations_fail_before_buffering() {
        let raw = "POST / HTTP/1.1\r\nContent-Length: 999999\r\n\r\n";
        assert!(matches!(parse(raw), Err(HttpError::PayloadTooLarge)));
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 999999\r\n\r\n";
        let got = response(raw);
        assert_eq!(
            got,
            Err(ClientError::Malformed("response exceeds the size cap"))
        );
    }

    #[test]
    fn response_has_complete_framing() {
        let mut out = Vec::new();
        write_json_response(&mut out, 200, "{\"ok\":true}").unwrap();
        assert_eq!(response(&out), Ok((200, b"{\"ok\":true}".to_vec())));
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Type: application/json\r\n"));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));
    }
}
