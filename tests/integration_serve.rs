//! End-to-end tests of the `sfa serve` daemon: both wire faces,
//! verdict agreement with the sequential oracle, tenant quotas,
//! malformed input, graceful drain, and artifact-backed restart.

use sfa_automata::prelude::*;
use sfa_core::prelude::*;
use sfa_json::Value;
use sfa_serve::client::{ServeClient, ServeReply};
use sfa_serve::proto::ServeState;
use sfa_serve::server::{self, ServerHandle};
use sfa_serve::tenant::TenantSpec;
use sfa_serve::{ErrorCode, ServeConfig};
use sfa_workloads::ScratchDir;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::time::Duration;

/// A fresh patterns dir with the standard test patterns, removed on drop.
fn patterns_dir(tag: &str) -> ScratchDir {
    let dir = ScratchDir::new(&format!("serve_it_{tag}"));
    std::fs::write(dir.join("rg.pat"), "RG\n").unwrap();
    std::fs::write(dir.join("rgd.pat"), "RGD\n").unwrap();
    dir
}

fn start_server(dir: &Path, tenants: Vec<TenantSpec>) -> ServerHandle {
    let config = ServeConfig::new("127.0.0.1:0", dir)
        .with_tenants(tenants)
        .with_workers(2)
        .with_match_threads(2);
    server::start(&config).expect("server start")
}

fn connect(handle: &ServerHandle) -> ServeClient {
    let client = ServeClient::connect(handle.addr()).expect("connect");
    client.set_timeout(Duration::from_secs(10)).unwrap();
    client
}

/// One HTTP exchange on a fresh connection: the status and the body.
fn http(handle: &ServerHandle, request: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(request.as_bytes()).unwrap();
    let mut response = Vec::new();
    stream.read_to_end(&mut response).unwrap();
    let text = String::from_utf8(response).unwrap();
    let status: u16 = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// `POST /match` with `envelope` as the body.
fn post_match(handle: &ServerHandle, envelope: &str) -> (u16, String) {
    http(
        handle,
        &format!(
            "POST /match HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{envelope}",
            envelope.len()
        ),
    )
}

#[test]
fn binary_protocol_matches_the_sequential_oracle() {
    let scratch = patterns_dir("oracle");
    let dir = scratch.path();
    let handle = start_server(dir, vec![TenantSpec::unlimited("alpha")]);
    let mut client = connect(&handle);

    let alphabet = Alphabet::amino_acids();
    let dfa_rg = Pipeline::search(alphabet.clone())
        .compile_str("RG")
        .unwrap();
    let dfa_rgd = Pipeline::search(alphabet.clone())
        .compile_str("RGD")
        .unwrap();

    let inputs: [&[u8]; 5] = [
        b"MKVARGAA",
        b"MKVA",
        b"RGDRGD",
        b"",
        b"AAAAAAAAAAAAAAAAAAAAAAAAAAAAARG",
    ];
    for input in inputs {
        for (id, dfa) in [("rg", &dfa_rg), ("rgd", &dfa_rgd)] {
            let expected = match_sequential(dfa, &alphabet.encode_bytes(input).unwrap());
            // Several frames ride the same connection, in order.
            let request = MatchRequest::bytes(input.to_vec()).with_pattern(id);
            let reply = client.request("alpha", &request).unwrap();
            match reply {
                ServeReply::Ok {
                    pattern, outcome, ..
                } => {
                    assert_eq!(pattern, id);
                    assert_eq!(
                        outcome.verdict, expected,
                        "verdict diverged from the oracle for {id} on {input:?}"
                    );
                }
                ServeReply::Rejected { code, message, .. } => {
                    panic!("unexpected rejection {code}: {message}")
                }
            }
        }
    }

    // The oracle tier itself is reachable over the wire.
    let request = MatchRequest::bytes(b"MKVARGAA".to_vec())
        .with_pattern("rg")
        .with_tier(TierPolicy::Sequential);
    let reply = client.request("alpha", &request).unwrap();
    let outcome = reply.outcome().expect("served");
    assert!(outcome.verdict);
    assert_eq!(outcome.tier, MatchTier::Sequential);

    // Patterns resolve by artifact hash as well as by id.
    let hash = handle.state().registry.resolve("rg").unwrap().hash.clone();
    let reply = client
        .request(
            "alpha",
            &MatchRequest::bytes(b"ARG".to_vec()).with_pattern(hash.as_str()),
        )
        .unwrap();
    match reply {
        ServeReply::Ok { pattern, .. } => assert_eq!(pattern, "rg"),
        ServeReply::Rejected { code, .. } => panic!("hash lookup rejected: {code}"),
    }

    handle.shutdown_and_join();
}

#[test]
fn over_quota_tenant_is_rejected_without_affecting_others() {
    let scratch = patterns_dir("quota");
    let dir = scratch.path();
    // `small` may scan 64 bytes ever; `alpha` is unlimited.
    let handle = start_server(
        dir,
        vec![
            TenantSpec::unlimited("alpha"),
            TenantSpec::limited("small", 64),
        ],
    );
    let mut small = connect(&handle);
    let mut alpha = connect(&handle);

    let request = MatchRequest::bytes(vec![b'A'; 48]).with_pattern("rg");
    // First request fits (48 <= 64)…
    assert!(small
        .request("small", &request)
        .unwrap()
        .outcome()
        .is_some());
    // …the second crosses the quota: a typed rejection, not a hang or
    // a dropped connection.
    let reply = small.request("small", &request).unwrap();
    match reply {
        ServeReply::Rejected {
            code, http_status, ..
        } => {
            assert_eq!(code, ErrorCode::TenantOverQuota.as_str());
            assert_eq!(http_status, 429);
        }
        ServeReply::Ok { .. } => panic!("over-quota request was served"),
    }
    // Over-quota is sticky for the tenant…
    let reply = small.request("small", &request).unwrap();
    assert_eq!(reply.rejection_code(), Some("TENANT_OVER_QUOTA"));

    // …while the other tenant keeps being served on the same daemon.
    for _ in 0..3 {
        let reply = alpha.request("alpha", &request).unwrap();
        assert!(
            reply.outcome().is_some(),
            "alpha was affected by small's quota"
        );
    }
    // And the rejected tenant's connection is still usable (errors are
    // data on this protocol).
    let tiny = MatchRequest::bytes(Vec::new()).with_pattern("rg");
    assert!(small.request("small", &tiny).is_ok());

    let small_state = handle.state().tenants.get("small").unwrap();
    assert!(small_state.rejected() >= 2);
    assert_eq!(small_state.admitted(), 1);

    handle.shutdown_and_join();
}

#[test]
fn malformed_frames_and_envelopes_fail_typed_and_clean() {
    let scratch = patterns_dir("malformed");
    let dir = scratch.path();
    let handle = start_server(dir, vec![TenantSpec::unlimited("alpha")]);

    // A syntactically valid frame with a bad envelope: typed error,
    // connection stays open.
    let mut client = connect(&handle);
    client
        .send_raw(&Value::Object(vec![("nonsense".into(), Value::Bool(true))]))
        .unwrap();
    let reply = client.read_reply().unwrap();
    assert_eq!(reply.rejection_code(), Some("BAD_REQUEST"));
    // Unknown tenant and unknown pattern are typed too.
    let req = MatchRequest::bytes(b"A".to_vec()).with_pattern("rg");
    let reply = client.request("ghost", &req).unwrap();
    assert_eq!(reply.rejection_code(), Some("BAD_REQUEST"));
    let req = MatchRequest::bytes(b"A".to_vec()).with_pattern("no-such-pattern");
    let reply = client.request("alpha", &req).unwrap();
    assert_eq!(reply.rejection_code(), Some("UNKNOWN_PATTERN"));
    // File inputs are refused from the wire.
    let req = MatchRequest::file("/etc/hostname").with_pattern("rg");
    let reply = client.request("alpha", &req).unwrap();
    assert_eq!(reply.rejection_code(), Some("BAD_REQUEST"));

    // Garbage that is not a frame at all: one error frame, then a
    // clean close (framing is unrecoverable).
    let mut raw = TcpStream::connect(handle.addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    raw.write_all(b"\x00\x01\x02\x03garbage").unwrap();
    let mut response = Vec::new();
    raw.read_to_end(&mut response).unwrap(); // EOF proves the close
    let text = String::from_utf8_lossy(&response);
    assert!(text.contains("BAD_REQUEST"), "got {text:?}");

    // The daemon survives: the first client still works.
    let req = MatchRequest::bytes(b"ARG".to_vec()).with_pattern("rg");
    assert!(client.request("alpha", &req).unwrap().outcome().is_some());

    handle.shutdown_and_join();
}

#[test]
fn shutdown_completes_in_flight_requests() {
    let scratch = patterns_dir("drain");
    let dir = scratch.path();
    let handle = start_server(dir, vec![TenantSpec::unlimited("alpha")]);
    let mut client = connect(&handle);

    // Round-trip once so the connection is fully adopted by a worker.
    let req = MatchRequest::bytes(b"MKVARGAA".to_vec()).with_pattern("rg");
    assert!(client.request("alpha", &req).unwrap().outcome().is_some());

    // Send another request and immediately begin the drain: the
    // request is in flight (written, unanswered) when shutdown lands.
    client
        .send_raw(&Value::Object(vec![
            ("tenant".into(), Value::String("alpha".into())),
            ("request".into(), req.to_json()),
        ]))
        .unwrap();
    let addr = handle.addr();
    handle.shutdown();
    let reply = client
        .read_reply()
        .expect("in-flight request must be answered");
    assert!(reply.outcome().is_some(), "in-flight request was shed");
    handle.join();

    // After the drain the port is closed.
    assert!(TcpStream::connect(addr).is_err(), "listener survived drain");
}

#[test]
fn draining_state_sheds_with_a_typed_code() {
    let scratch = patterns_dir("shed");
    let dir = scratch.path();
    let handle = start_server(dir, vec![TenantSpec::unlimited("alpha")]);
    let state: &ServeState = handle.state();
    state
        .draining
        .store(true, std::sync::atomic::Ordering::Relaxed);
    let envelope = Value::Object(vec![
        ("tenant".into(), Value::String("alpha".into())),
        (
            "request".into(),
            MatchRequest::bytes(b"A".to_vec())
                .with_pattern("rg")
                .to_json(),
        ),
    ]);
    let response = state.handle_envelope(&envelope);
    assert_eq!(
        response
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Value::as_str),
        Some("SHUTTING_DOWN")
    );
    state
        .draining
        .store(false, std::sync::atomic::Ordering::Relaxed);
    handle.shutdown_and_join();
}

#[test]
fn http_face_serves_match_patterns_and_metrics() {
    let scratch = patterns_dir("http");
    let dir = scratch.path();
    let handle = start_server(dir, vec![TenantSpec::unlimited("alpha")]);

    // POST /match with the ergonomic text-input alias.
    let envelope =
        r#"{"tenant": "alpha", "request": {"pattern": "rg", "input": {"text": "MKVARGAA"}}}"#;
    let (status, body) = post_match(&handle, envelope);
    assert_eq!(status, 200, "body: {body}");
    let v = sfa_json::from_str(&body).unwrap();
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
    let outcome = MatchOutcome::from_json(v.get("outcome").unwrap()).unwrap();
    assert!(outcome.verdict);

    // Typed HTTP status for a typed rejection.
    let envelope = r#"{"tenant": "alpha", "request": {"pattern": "nope", "input": {"text": "A"}}}"#;
    let (status, body) = post_match(&handle, envelope);
    assert_eq!(status, 404, "body: {body}");
    assert!(body.contains("UNKNOWN_PATTERN"));

    // GET /patterns lists both entries with their artifact hashes.
    let (status, body) = http(&handle, "GET /patterns HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status, 200);
    let v = sfa_json::from_str(&body).unwrap();
    let Value::Array(patterns) = v.get("patterns").unwrap() else {
        panic!("patterns is not an array: {body}");
    };
    assert_eq!(patterns.len(), 2);
    assert!(patterns.iter().all(|p| {
        p.get("hash").and_then(Value::as_str).map(str::len) == Some(16)
            && p.get("tier").and_then(Value::as_str) == Some("full")
    }));

    // GET /metrics is a parseable Prometheus exposition including the
    // serve counters (obs is on in the default test build).
    let (status, body) = http(&handle, "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status, 200);
    let samples = sfa_obs::export::parse_prometheus(&body).expect("scrape must parse");
    assert!(
        samples.iter().any(|s| s.name == "sfa_serve_requests_total"),
        "scrape lacks serve counters: {body}"
    );

    // Unknown route: 404 with a typed body.
    let (status, body) = http(&handle, "GET /nope HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status, 404);
    assert!(body.contains("BAD_REQUEST"));

    handle.shutdown_and_join();
}

#[test]
fn out_of_alphabet_symbols_are_rejected_and_the_daemon_serves_on() {
    let scratch = patterns_dir("symbols");
    let dir = scratch.path();
    // One event-loop worker, which also owns the listener: a request
    // that panicked it would stop every later accept.
    let config = ServeConfig::new("127.0.0.1:0", dir)
        .with_tenants(vec![TenantSpec::unlimited("alpha")])
        .with_workers(1)
        .with_match_threads(2);
    let handle = server::start(&config).expect("server start");

    let alphabet = Alphabet::amino_acids();
    let dfa = Pipeline::search(alphabet.clone())
        .compile_str("RG")
        .unwrap();
    let text = b"MKVARGAA";
    let expected = match_sequential(&dfa, &alphabet.encode_bytes(text).unwrap());
    // `Auto` is answered by the pattern's full-tier SFA; the other two
    // run on the raw DFA.
    for tier in [
        TierPolicy::Auto,
        TierPolicy::Sequential,
        TierPolicy::Speculative,
    ] {
        for bad in [alphabet.len() as u8, 255] {
            let mut client = connect(&handle);
            let request = MatchRequest::symbols(vec![0, bad])
                .with_pattern("rg")
                .with_tier(tier);
            match client.request("alpha", &request).unwrap() {
                ServeReply::Rejected {
                    code, http_status, ..
                } => {
                    assert_eq!(code, ErrorCode::BadRequest.as_str(), "{tier:?} {bad}");
                    assert_eq!(http_status, 400);
                }
                ServeReply::Ok { outcome, .. } => {
                    panic!("{tier:?}: symbol {bad} answered {}", outcome.verdict)
                }
            }
            let envelope = format!(
                r#"{{"tenant": "alpha", "request": {{"pattern": "rg", "tier": "{}", "input": {{"symbols": [{bad}]}}}}}}"#,
                tier.as_str()
            );
            let (status, body) = post_match(&handle, &envelope);
            assert_eq!(status, 400, "{tier:?} {bad}: {body}");
            assert!(body.contains("BAD_REQUEST"), "{body}");

            // The daemon still accepts and answers correctly.
            let mut client = connect(&handle);
            let request = MatchRequest::bytes(text.to_vec())
                .with_pattern("rg")
                .with_tier(tier);
            let reply = client.request("alpha", &request).unwrap();
            assert_eq!(reply.outcome().expect("served").verdict, expected);
        }
    }
    handle.shutdown_and_join();
}

#[test]
fn restart_reloads_compiled_artifacts() {
    let scratch = patterns_dir("restart");
    let dir = scratch.path();
    let first = start_server(dir, vec![TenantSpec::unlimited("alpha")]);
    assert_eq!(first.state().registry.constructed(), 2);
    assert_eq!(first.state().registry.reloaded(), 0);
    first.shutdown_and_join();

    // Same patterns dir: the second daemon deserializes the cached
    // `.sfar` artifacts instead of reconstructing.
    let second = start_server(dir, vec![TenantSpec::unlimited("alpha")]);
    assert_eq!(second.state().registry.constructed(), 0);
    assert_eq!(second.state().registry.reloaded(), 2);
    let mut client = connect(&second);
    let req = MatchRequest::bytes(b"MKVARGAA".to_vec()).with_pattern("rg");
    assert!(
        client
            .request("alpha", &req)
            .unwrap()
            .outcome()
            .unwrap()
            .verdict
    );
    second.shutdown_and_join();
}

#[test]
fn speculative_tier_is_served_over_the_wire() {
    let scratch = patterns_dir("spec");
    let dir = scratch.path();
    let handle = start_server(dir, vec![TenantSpec::unlimited("alpha")]);
    let mut client = connect(&handle);

    let alphabet = Alphabet::amino_acids();
    let dfa = Pipeline::search(alphabet.clone())
        .compile_str("RG")
        .unwrap();
    let input = b"MKVAAAAAAAAAAAAAAAAAAAAAAAAAAARGAAAAAAAA";
    let expected = match_sequential(&dfa, &alphabet.encode_bytes(input).unwrap());

    // An explicit speculative request is serviced on the raw-DFA tier
    // (the narrow search pattern lands on the exact pruned mode) and —
    // being service as ordered — must NOT carry a degradation marker.
    let request = MatchRequest::bytes(input.to_vec())
        .with_pattern("rg")
        .with_tier(TierPolicy::Speculative);
    let reply = client.request("alpha", &request).unwrap();
    let outcome = reply.outcome().expect("served");
    assert_eq!(outcome.verdict, expected);
    assert!(
        matches!(outcome.tier, MatchTier::PrunedSfa | MatchTier::Speculative),
        "requested speculative, served {}",
        outcome.tier
    );
    assert_eq!(outcome.tier, outcome.stats.tier);
    assert!(outcome.degraded.is_none());
    handle.shutdown_and_join();

    // A state budget of 1 forces every pattern below the full tier.
    // Auto requests carry the degradation marker; explicitly ordered
    // sequential service does not (same rule as `MatchEngine::run`).
    // Drop the artifact cache first, or the capped daemon would just
    // reload the full-tier SFAs the first daemon built.
    let _ = std::fs::remove_dir_all(dir.join("artifacts"));
    let config = ServeConfig::new("127.0.0.1:0", dir)
        .with_tenants(vec![TenantSpec::unlimited("alpha")])
        .with_workers(2)
        .with_match_threads(2)
        .with_state_budget(1);
    let handle = server::start(&config).expect("server start");
    let mut client = connect(&handle);
    let reply = client
        .request(
            "alpha",
            &MatchRequest::bytes(input.to_vec()).with_pattern("rg"),
        )
        .unwrap();
    let auto = reply.outcome().expect("served");
    assert_eq!(auto.verdict, expected);
    assert!(
        auto.degraded.is_some(),
        "Auto served below full must say why"
    );
    let reply = client
        .request(
            "alpha",
            &MatchRequest::bytes(input.to_vec())
                .with_pattern("rg")
                .with_tier(TierPolicy::Sequential),
        )
        .unwrap();
    let ordered = reply.outcome().expect("served");
    assert_eq!(ordered.verdict, expected);
    assert_eq!(ordered.tier, MatchTier::Sequential);
    assert!(
        ordered.degraded.is_none(),
        "explicitly ordered sequential service is not a degradation"
    );

    handle.shutdown_and_join();
}
