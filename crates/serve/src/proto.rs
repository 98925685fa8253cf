//! The wire protocol and request dispatch.
//!
//! One daemon port speaks two faces, distinguished by the first bytes
//! of the connection:
//!
//! * **Binary** — length-prefixed JSON frames: `"SFA1"` magic, a
//!   little-endian `u32` payload length (capped at [`MAX_FRAME_LEN`]),
//!   then that many bytes of JSON. Requests are envelopes
//!   `{"tenant": "...", "request": <MatchRequest JSON>}`; responses are
//!   `{"ok": true, "tenant", "pattern", "hash", "outcome"}` or
//!   `{"ok": false, "error": {"code", "http_status", "message"}}`.
//!   Multiple frames per connection are served in order.
//! * **HTTP/1.1** — `POST /match` takes the same envelope as a body
//!   and answers the same response JSON (status from the error code);
//!   `GET /patterns` lists the registry; `GET /metrics` is a
//!   Prometheus scrape of the global registry. Responses always carry
//!   `Content-Length` and `Connection: close`.
//!
//! Dispatch itself ([`ServeState::handle_envelope`]) is transport-blind
//! pure-ish code: admission, pattern resolution, one call into the
//! shared [`MatchRuntime`], and the typed-error mapping.

use crate::registry::{PatternBackend, PatternEntry, PatternRegistry};
use crate::tenant::TenantTable;
use crate::{ErrorCode, ServeError};
use sfa_core::prelude::*;
use sfa_core::request::InputSource;
use sfa_json::Value;
use std::sync::atomic::{AtomicBool, Ordering};

/// Magic prefix of every binary frame.
pub const FRAME_MAGIC: [u8; 4] = *b"SFA1";
/// Frame header size: magic + u32 length.
pub const FRAME_HEADER: usize = 8;
/// Maximum frame payload (64 MiB) — a bigger length is a protocol
/// error, not an allocation.
pub const MAX_FRAME_LEN: usize = 64 << 20;
/// Maximum HTTP head size before the connection is dropped.
const MAX_HTTP_HEAD: usize = 16 << 10;

/// Which face a connection speaks (sniffed from its first bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// `SFA1` length-prefixed frames.
    Binary,
    /// HTTP/1.1.
    Http,
}

/// Sniff the protocol; `None` until enough bytes arrived, `Err` when
/// the prefix matches neither face.
pub fn detect(buf: &[u8]) -> Result<Option<Protocol>, ServeError> {
    if buf.len() < 4 {
        return Ok(None);
    }
    if buf[..4] == FRAME_MAGIC {
        return Ok(Some(Protocol::Binary));
    }
    for method in ["GET ", "POST", "PUT ", "HEAD", "DELE"] {
        if &buf[..4] == method.as_bytes() {
            return Ok(Some(Protocol::Http));
        }
    }
    Err(ServeError::new(
        ErrorCode::BadRequest,
        "unrecognized protocol preamble (expected SFA1 magic or an HTTP method)",
    ))
}

/// Encode one binary frame around a JSON value.
pub fn encode_frame(v: &Value) -> Vec<u8> {
    let payload = sfa_json::to_string(v);
    let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
    out.extend_from_slice(&FRAME_MAGIC);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload.as_bytes());
    out
}

/// Pop one complete frame payload off the front of `buf`. `Ok(None)`
/// until a full frame arrived; `Err` on bad magic or an oversized
/// length (the connection must close — framing is lost).
pub fn try_extract_frame(buf: &mut Vec<u8>) -> Result<Option<Vec<u8>>, ServeError> {
    if buf.len() < FRAME_HEADER {
        return Ok(None);
    }
    if buf[..4] != FRAME_MAGIC {
        return Err(ServeError::new(
            ErrorCode::BadRequest,
            "bad frame magic (stream desynchronized)",
        ));
    }
    let len = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]) as usize;
    if len > MAX_FRAME_LEN {
        return Err(ServeError::new(
            ErrorCode::BadRequest,
            format!("frame of {len} bytes exceeds the {MAX_FRAME_LEN}-byte cap"),
        ));
    }
    if buf.len() < FRAME_HEADER + len {
        return Ok(None);
    }
    let payload = buf[FRAME_HEADER..FRAME_HEADER + len].to_vec();
    buf.drain(..FRAME_HEADER + len);
    Ok(Some(payload))
}

/// One parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Upper-cased method.
    pub method: String,
    /// Request target, e.g. `/match`.
    pub path: String,
    /// The body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

/// Pop one complete HTTP request off the front of `buf`. Same contract
/// as [`try_extract_frame`].
pub fn try_extract_http(buf: &mut Vec<u8>) -> Result<Option<HttpRequest>, ServeError> {
    let Some(head_end) = find_head_end(buf) else {
        if buf.len() > MAX_HTTP_HEAD {
            return Err(ServeError::new(
                ErrorCode::BadRequest,
                "HTTP request head too large",
            ));
        }
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| ServeError::new(ErrorCode::BadRequest, "HTTP head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(path)) = (parts.next(), parts.next()) else {
        return Err(ServeError::new(
            ErrorCode::BadRequest,
            format!("malformed HTTP request line {request_line:?}"),
        ));
    };
    let mut content_length = 0usize;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .trim()
                .parse()
                .map_err(|_| ServeError::new(ErrorCode::BadRequest, "invalid Content-Length"))?;
            if content_length > MAX_FRAME_LEN {
                return Err(ServeError::new(
                    ErrorCode::BadRequest,
                    "HTTP body exceeds the frame cap",
                ));
            }
        }
    }
    let body_start = head_end + 4;
    if buf.len() < body_start + content_length {
        return Ok(None);
    }
    let req = HttpRequest {
        method: method.to_ascii_uppercase(),
        path: path.to_string(),
        body: buf[body_start..body_start + content_length].to_vec(),
    };
    buf.drain(..body_start + content_length);
    Ok(Some(req))
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Render an HTTP/1.1 response (always `Connection: close`).
pub fn http_response(status: u16, content_type: &str, body: &str) -> Vec<u8> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    };
    format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Everything a worker needs to answer a request; shared by `Arc`.
pub struct ServeState {
    /// The compiled pattern registry.
    pub registry: PatternRegistry,
    /// The tenant table.
    pub tenants: TenantTable,
    /// The shared match pool — every request runs here, inline.
    pub runtime: MatchRuntime,
    /// Load-shedding latch: while set, envelopes are answered with
    /// [`ErrorCode::ShuttingDown`]. The SIGTERM drain does *not* set it
    /// until the workers have finished (in-flight requests complete);
    /// an embedder may set it directly to shed load.
    pub draining: AtomicBool,
}

impl ServeState {
    /// Assemble from loaded parts.
    pub fn new(
        registry: PatternRegistry,
        tenants: TenantTable,
        runtime: MatchRuntime,
    ) -> ServeState {
        ServeState {
            registry,
            tenants,
            runtime,
            draining: AtomicBool::new(false),
        }
    }

    /// Is the daemon draining?
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::Relaxed)
    }

    /// Serve one envelope; always yields a response object (errors are
    /// data, not connection teardown).
    pub fn handle_envelope(&self, envelope: &Value) -> Value {
        crate::REQUESTS_TOTAL.inc();
        let timer = sfa_obs::registry::Stopwatch::start();
        let response = match self.dispatch(envelope) {
            Ok((tenant, entry_id, hash, outcome)) => Value::Object(vec![
                ("ok".into(), Value::Bool(true)),
                ("tenant".into(), Value::String(tenant)),
                ("pattern".into(), Value::String(entry_id)),
                ("hash".into(), Value::String(hash)),
                ("outcome".into(), outcome.to_json()),
            ]),
            Err(err) => {
                crate::REJECTIONS_TOTAL.inc();
                error_response(&err)
            }
        };
        timer.record(&crate::REQUEST_NANOS);
        response
    }

    fn dispatch(
        &self,
        envelope: &Value,
    ) -> Result<(String, String, String, MatchOutcome), ServeError> {
        if self.draining() {
            return Err(ServeError::new(
                ErrorCode::ShuttingDown,
                "the daemon is draining",
            ));
        }
        let tenant_name = envelope
            .get("tenant")
            .and_then(Value::as_str)
            .ok_or_else(|| {
                ServeError::new(ErrorCode::BadRequest, "envelope is missing \"tenant\"")
            })?;
        let request_v = envelope.get("request").ok_or_else(|| {
            ServeError::new(ErrorCode::BadRequest, "envelope is missing \"request\"")
        })?;
        let request = MatchRequest::from_json(request_v)
            .map_err(|msg| ServeError::new(ErrorCode::BadRequest, msg))?;

        let tenant = self.tenants.get(tenant_name).ok_or_else(|| {
            ServeError::new(
                ErrorCode::BadRequest,
                format!("unknown tenant {tenant_name:?}"),
            )
        })?;
        // A remote caller must not name server-side paths, and a file
        // has no length to charge the quota with.
        let Some(len) = request.input.len_hint() else {
            return Err(ServeError::new(
                ErrorCode::BadRequest,
                "file inputs are not accepted over the wire",
            ));
        };
        debug_assert!(!matches!(request.input, InputSource::File(_)));
        let pattern_key = request
            .pattern
            .as_deref()
            .ok_or_else(|| ServeError::new(ErrorCode::BadRequest, "request names no pattern"))?;
        let entry = self.registry.resolve(pattern_key).ok_or_else(|| {
            ServeError::new(
                ErrorCode::UnknownPattern,
                format!("no pattern with id or hash {pattern_key:?}"),
            )
        })?;
        tenant.admit(len)?;

        let outcome = self.run_entry(entry, &request)?;
        Ok((
            tenant_name.to_string(),
            entry.id.clone(),
            entry.hash.clone(),
            outcome,
        ))
    }

    fn run_entry(
        &self,
        entry: &PatternEntry,
        request: &MatchRequest,
    ) -> Result<MatchOutcome, ServeError> {
        match &entry.backend {
            PatternBackend::Full { sfa, scan } => {
                let matcher = ParallelMatcher::with_scan(sfa, entry.dfa, scan.clone());
                self.runtime.run(&matcher, request).map_err(map_match_error)
            }
            PatternBackend::Sequential { reason } => {
                if request.tier == TierPolicy::RequireFull {
                    return Err(ServeError::new(
                        ErrorCode::BadRequest,
                        format!(
                            "tier policy requires the full SFA tier, but pattern {:?} is degraded: {reason}",
                            entry.id
                        ),
                    ));
                }
                self.runtime
                    .run_dfa(entry.dfa, request, None)
                    .map(|outcome| match request.tier {
                        // The pattern could not be served on the full
                        // tier — that's a degradation only for callers
                        // who asked for the ladder. An explicit
                        // sequential/speculative request is service as
                        // ordered (same rule as `MatchEngine::run`).
                        TierPolicy::Auto => outcome.with_degraded(reason.clone()),
                        _ => outcome,
                    })
                    .map_err(map_match_error)
            }
        }
    }

    /// Serve one parsed HTTP request.
    pub fn handle_http(&self, req: &HttpRequest) -> Vec<u8> {
        match (req.method.as_str(), req.path.as_str()) {
            ("POST", "/match") => {
                let envelope = match std::str::from_utf8(&req.body)
                    .map_err(|_| "body is not UTF-8".to_string())
                    .and_then(|s| sfa_json::from_str(s).map_err(|e| e.to_string()))
                {
                    Ok(v) => v,
                    Err(msg) => {
                        crate::BAD_FRAMES_TOTAL.inc();
                        let err = ServeError::new(
                            ErrorCode::BadRequest,
                            format!("invalid JSON body: {msg}"),
                        );
                        return http_response(
                            400,
                            "application/json",
                            &sfa_json::to_string(&error_response(&err)),
                        );
                    }
                };
                let response = self.handle_envelope(&envelope);
                let status = response
                    .get("error")
                    .and_then(|e| e.get("http_status"))
                    .and_then(Value::as_f64)
                    .map(|s| s as u16)
                    .unwrap_or(200);
                http_response(status, "application/json", &sfa_json::to_string(&response))
            }
            ("GET", "/patterns") => {
                let patterns = self
                    .registry
                    .entries()
                    .iter()
                    .map(|e| {
                        Value::Object(vec![
                            ("id".into(), Value::String(e.id.clone())),
                            ("hash".into(), Value::String(e.hash.clone())),
                            ("pattern".into(), Value::String(e.pattern.clone())),
                            ("tier".into(), Value::String(e.tier().into())),
                            (
                                "degraded".into(),
                                match e.degraded_reason() {
                                    Some(r) => Value::String(r.to_string()),
                                    None => Value::Null,
                                },
                            ),
                        ])
                    })
                    .collect();
                let body = Value::Object(vec![("patterns".into(), Value::Array(patterns))]);
                http_response(200, "application/json", &sfa_json::to_string(&body))
            }
            ("GET", "/metrics") => {
                let text =
                    sfa_obs::export::prometheus_text(&sfa_obs::registry::global().snapshot());
                http_response(200, "text/plain; version=0.0.4", &text)
            }
            (method, path) => {
                let err =
                    ServeError::new(ErrorCode::BadRequest, format!("no route {method} {path}"));
                http_response(
                    404,
                    "application/json",
                    &sfa_json::to_string(&error_response(&err)),
                )
            }
        }
    }
}

/// The wire form of a typed rejection.
pub fn error_response(err: &ServeError) -> Value {
    Value::Object(vec![
        ("ok".into(), Value::Bool(false)),
        (
            "error".into(),
            Value::Object(vec![
                ("code".into(), Value::String(err.code.as_str().into())),
                (
                    "http_status".into(),
                    Value::Number(err.code.http_status() as f64),
                ),
                ("message".into(), Value::String(err.message.clone())),
            ]),
        ),
    ])
}

/// Map a match-time [`SfaError`] onto a wire code.
fn map_match_error(err: SfaError) -> ServeError {
    let code = match &err {
        SfaError::BudgetExceeded { .. } | SfaError::Cancelled { .. } => ErrorCode::BudgetExceeded,
        SfaError::InvalidByte { .. } | SfaError::InvalidOptions(_) => ErrorCode::BadRequest,
        _ => ErrorCode::Internal,
    };
    ServeError::new(code, err.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip_and_partials() {
        let v = Value::Object(vec![("x".into(), Value::Number(3.0))]);
        let frame = encode_frame(&v);
        // Feed byte by byte: no frame until the last byte lands.
        let mut buf = Vec::new();
        for (i, b) in frame.iter().enumerate() {
            buf.push(*b);
            let got = try_extract_frame(&mut buf).unwrap();
            if i + 1 < frame.len() {
                assert!(got.is_none());
            } else {
                let payload = got.unwrap();
                assert_eq!(
                    sfa_json::from_str(std::str::from_utf8(&payload).unwrap()).unwrap(),
                    v
                );
            }
        }
        assert!(buf.is_empty());
    }

    #[test]
    fn bad_magic_and_oversized_frames_are_errors() {
        let mut buf = b"nope0000".to_vec();
        assert!(try_extract_frame(&mut buf).is_err());
        let mut buf = Vec::new();
        buf.extend_from_slice(&FRAME_MAGIC);
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert!(try_extract_frame(&mut buf).is_err());
    }

    #[test]
    fn protocol_detection() {
        assert_eq!(detect(b"SF").unwrap(), None);
        assert_eq!(detect(b"SFA1....").unwrap(), Some(Protocol::Binary));
        assert_eq!(detect(b"POST /match").unwrap(), Some(Protocol::Http));
        assert_eq!(detect(b"GET /met").unwrap(), Some(Protocol::Http));
        assert!(detect(b"\x00\x01\x02\x03").is_err());
    }

    #[test]
    fn http_parse_and_response() {
        let mut buf = b"POST /match HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbody".to_vec();
        let req = try_extract_http(&mut buf).unwrap().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/match");
        assert_eq!(req.body, b"body");
        assert!(buf.is_empty());

        let mut partial = b"GET /metrics HTTP/1.1\r\n".to_vec();
        assert!(try_extract_http(&mut partial).unwrap().is_none());

        let resp = http_response(404, "application/json", "{}");
        let text = String::from_utf8(resp).unwrap();
        assert!(text.starts_with("HTTP/1.1 404 Not Found\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: close"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }
}
