//! Fault-injection tests of the daemon's accept loop (requires the
//! `fault-injection` feature — see the `[[test]]` stanza in the serve
//! crate's manifest).

use sfa_core::faults::{self, FaultKind, FaultPlan, FaultRule};
use sfa_core::prelude::*;
use sfa_serve::client::ServeClient;
use sfa_serve::server;
use sfa_serve::tenant::TenantSpec;
use sfa_serve::ServeConfig;
use sfa_workloads::ScratchDir;
use std::time::Duration;

fn patterns_dir(tag: &str) -> ScratchDir {
    let dir = ScratchDir::new(&format!("serve_faults_{tag}"));
    std::fs::write(dir.join("rg.pat"), "RG\n").unwrap();
    dir
}

#[test]
fn transient_accept_fault_only_delays_connections() {
    let dir = patterns_dir("accept");
    let config = ServeConfig::new("127.0.0.1:0", dir.path())
        .with_tenants(vec![TenantSpec::unlimited("alpha")])
        .with_workers(1)
        .with_match_threads(2);
    let handle = server::start(&config).expect("server start");

    // The first two accept passes fail transiently. The listener stays
    // registered, so the still-pending connection is picked up by a
    // later pass — the client just sees added latency, never an error.
    let _guard = faults::arm(FaultPlan::new().rule(FaultRule::window(
        "serve/accept",
        1,
        2,
        FaultKind::Transient,
    )));

    let mut client = ServeClient::connect(handle.addr()).expect("connect");
    client.set_timeout(Duration::from_secs(10)).unwrap();
    let request = MatchRequest::bytes(b"MKVARGAA".to_vec()).with_pattern("rg");
    let reply = client.request("alpha", &request).expect("request");
    assert!(
        reply
            .outcome()
            .expect("served despite accept faults")
            .verdict
    );
    assert!(
        faults::hits("serve/accept") >= 2,
        "the armed fault site was never exercised"
    );

    handle.shutdown_and_join();
}
