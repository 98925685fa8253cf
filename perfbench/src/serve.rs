//! `serve`: a closed loop of byte requests against an in-process
//! `sfa serve` daemon.
//!
//! The daemon is started by `sfa_serve::server::start` with default
//! workers and a 4096-state budget, serving four PROSITE motifs in the
//! registry's regex syntax; PS00029 is over budget and served by the
//! sequential backend. Two unlimited tenants each drive one
//! `ServeClient` connection that sends its next request only after the
//! previous reply. Inputs are 4, 16 and 64 KiB of protein text in a
//! seeded order.
//!
//! The traced run times client-side costs by calling the client's public
//! encode and decode steps on the recorded requests, and server-side
//! costs by replaying the recorded frames in process through `proto` and
//! `ServeState`.

use crate::report::{ratio, Layers, Report, Tally};
use crate::stats::{quantile_sorted, Samples};
use crate::sys::ScratchDir;
use crate::trace::{fresh_op, Tracer};
use crate::{Config, THREADS};
use sfa_automata::{Alphabet, Pipeline};
use sfa_core::{match_sequential, MatchOutcome, MatchRequest, MatchTier, ParallelMatcher};
use sfa_json::Value;
use sfa_serve::client::{ServeClient, ServeReply};
use sfa_serve::proto::{encode_frame, try_extract_frame, ServeState};
use sfa_serve::registry::PatternBackend;
use sfa_serve::server::{self, ServerHandle};
use sfa_serve::tenant::TenantSpec;
use sfa_serve::ServeConfig;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Served motifs: id and the registry's regex syntax.
const PATTERNS: [(&str, &str); 4] = [
    ("PS00001", "N[^P][ST][^P]"),
    ("PS00016", "RGD"),
    ("PS00017", "[AG].{4}GK[ST]"),
    ("PS00029", "L.{6}L.{6}L.{6}L"),
];

/// The over-budget motif the registry serves sequentially.
const SEQUENTIAL_PATTERN: &str = "PS00029";

/// One tenant per client connection, both unlimited.
const TENANTS: [&str; THREADS] = ["alpha", "bravo"];

/// Request input sizes, and distinct seeded texts per size.
const SIZES: [usize; 3] = [4 << 10, 16 << 10, 64 << 10];
const TEXTS_PER_SIZE: usize = 8;

/// Registry construction state budget.
const STATE_BUDGET: u64 = 4096;

/// Recorded requests replayed in process per traced load window.
const REPLAYS_PER_WINDOW: usize = 24;

/// Length of one traced load window. The traced run alternates short
/// windows with replaying them, so a replayed request and the round
/// trip it is compared with are measured under the same host load.
const TRACED_WINDOW_S: f64 = 1.0;

/// The 64-bit SplitMix step: the seeded request order.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One request of the seeded order: pattern index and input index.
#[derive(Debug, Clone, Copy)]
struct Pick {
    pattern: usize,
    input: usize,
}

/// A client connection's request order: blocks holding every
/// (pattern, size) pair once, each block shuffled by the seed, with a
/// seeded text of that size. Every seed sends the same mix, so the
/// latency distribution depends on the seed only through text content.
struct Order {
    rng: u64,
    sizes: usize,
    block: Vec<Pick>,
}

impl Order {
    fn new(seed: u64, conn: usize, sizes: usize) -> Order {
        Order {
            rng: seed ^ (0xC0FF_EE00 + conn as u64),
            sizes,
            block: Vec::new(),
        }
    }

    fn next(&mut self) -> Pick {
        if self.block.is_empty() {
            for pattern in 0..PATTERNS.len() {
                for size in 0..self.sizes {
                    let text = (splitmix(&mut self.rng) % TEXTS_PER_SIZE as u64) as usize;
                    self.block.push(Pick {
                        pattern,
                        input: size * TEXTS_PER_SIZE + text,
                    });
                }
            }
            for i in (1..self.block.len()).rev() {
                let j = (splitmix(&mut self.rng) % (i as u64 + 1)) as usize;
                self.block.swap(i, j);
            }
        }
        self.block.pop().expect("a refilled block is not empty")
    }
}

/// A served request as the client saw it.
#[derive(Debug, Clone)]
struct Sent {
    conn: usize,
    pick: Pick,
    rtt: f64,
    /// Served on the sequential backend.
    sequential: bool,
    /// Rejected instead of served.
    rejected: bool,
    /// Sent while the tracer was recording.
    traced: bool,
}

/// A running daemon and the oracle for it.
struct Daemon {
    _dir: ScratchDir,
    handle: ServerHandle,
    /// `match_sequential` verdict per pattern and input.
    oracle: Vec<Vec<bool>>,
}

impl Daemon {
    fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    fn state(&self) -> &Arc<ServeState> {
        self.handle.state()
    }

    fn stop(self) {
        self.handle.shutdown_and_join();
    }
}

/// Set-up: write the pattern files, start the daemon (registry load,
/// tenant table, bind, workers) and compute the oracle verdicts.
fn start(cfg: &Config, inputs: &[Vec<u8>], tracer: &Tracer, op: u64) -> Result<Daemon, String> {
    let dir = ScratchDir::new(&cfg.scratch, "perfbench-serve")?;
    for (id, regex) in PATTERNS {
        let path = dir.path().join(format!("{id}.pat"));
        std::fs::write(&path, format!("{regex}\n"))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    let config = ServeConfig::new("127.0.0.1:0", dir.path())
        .with_tenants(TENANTS.iter().map(|t| TenantSpec::unlimited(*t)).collect())
        .with_state_budget(STATE_BUDGET);
    let handle = tracer.span("serve.start", op, || server::start(&config))?;
    let registry = &handle.state().registry;
    let mut oracle = Vec::new();
    for (id, _) in PATTERNS {
        let entry = registry
            .resolve(id)
            .ok_or_else(|| format!("{id} missing from the registry"))?;
        let want = if id == SEQUENTIAL_PATTERN {
            "sequential"
        } else {
            "full"
        };
        if entry.tier() != want {
            return Err(format!(
                "{id} serves on the {} tier, expected {want}",
                entry.tier()
            ));
        }
        let alpha = entry.dfa.alphabet();
        oracle.push(tracer.span("matcher.sequential", op, || {
            inputs
                .iter()
                .map(|text| {
                    match_sequential(entry.dfa, &alpha.encode_bytes(text).expect("protein text"))
                })
                .collect()
        }));
    }
    Ok(Daemon {
        _dir: dir,
        handle,
        oracle,
    })
}

/// The request a pick stands for.
fn request(pick: Pick, inputs: &[Vec<u8>]) -> MatchRequest {
    MatchRequest::bytes(inputs[pick.input].clone()).with_pattern(PATTERNS[pick.pattern].0)
}

/// What one load window measured.
struct Load {
    /// Every request, per connection in send order.
    sent: Vec<Sent>,
    /// Wall time of the window, seconds.
    wall: f64,
    /// Resident high-water mark of each tick of the window, MiB.
    peaks: Vec<f64>,
}

/// One client connection's requests and oracle failures, or the error
/// that ended it.
type ClientResult = Result<(Vec<Sent>, Vec<String>), String>;

/// Length of one load tick: the resident high-water mark is read and
/// reset, and on traced windows recording flips, once per tick.
const TICK_S: f64 = 0.5;

/// Drive the closed loop for `seconds`: one thread per connection, each
/// sending its seeded order. With `interleave`, recording is switched on
/// and off every tick, so traced and untraced requests share the window
/// and their difference is the tracing overhead.
fn load(
    daemon: &Daemon,
    cfg: &Config,
    inputs: &Arc<Vec<Vec<u8>>>,
    seconds: f64,
    tracer: &Tracer,
    interleave: bool,
    tally: &mut Tally,
) -> Result<Load, String> {
    let oracle = Arc::new(daemon.oracle.clone());
    let mut peaks = Vec::new();
    crate::sys::reset_peak_rss()?;
    let start = Instant::now();
    let results: Vec<ClientResult> = std::thread::scope(|scope| {
        let joins: Vec<_> = (0..THREADS)
            .map(|conn| {
                let inputs = Arc::clone(inputs);
                let oracle = Arc::clone(&oracle);
                let addr = daemon.addr();
                scope.spawn(move || -> ClientResult {
                    let mut client = ServeClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
                    client.set_timeout(Duration::from_secs(30)).map_err(|e| e.to_string())?;
                    let mut order = Order::new(cfg.seed, conn, inputs.len() / TEXTS_PER_SIZE);
                    let (mut sent, mut errors) = (Vec::new(), Vec::new());
                    while start.elapsed().as_secs_f64() < seconds {
                        let pick = order.next();
                        let req = request(pick, &inputs);
                        let op = fresh_op();
                        let t = Instant::now();
                        let span = tracer.enter("serve.request", op);
                        let traced = span.is_some();
                        let reply = tracer.span("serve.roundtrip", op, || client.request(TENANTS[conn], &req));
                        drop(span);
                        let rtt = t.elapsed().as_secs_f64();
                        let mut record = Sent { conn, pick, rtt, sequential: false, rejected: false, traced };
                        match reply {
                            Ok(ServeReply::Ok { outcome, .. }) => {
                                record.sequential = outcome.tier == MatchTier::Sequential;
                                let expected = oracle[pick.pattern][pick.input];
                                if outcome.verdict != expected {
                                    errors.push(format!(
                                        "{} on input {}: served verdict {} but match_sequential says {expected}",
                                        PATTERNS[pick.pattern].0, pick.input, outcome.verdict
                                    ));
                                }
                            }
                            Ok(ServeReply::Rejected { code, message, .. }) => {
                                record.rejected = true;
                                errors.push(format!("rejected {code}: {message}"));
                            }
                            Err(e) => return Err(format!("request: {e}")),
                        }
                        sent.push(record);
                    }
                    Ok((sent, errors))
                })
            })
            .collect();
        let mut recording = false;
        while start.elapsed().as_secs_f64() < seconds {
            std::thread::sleep(Duration::from_secs_f64(
                (seconds - start.elapsed().as_secs_f64()).clamp(0.0, TICK_S),
            ));
            peaks.push(crate::sys::peak_rss_mib());
            crate::sys::reset_peak_rss_mark()
                .map_err(|e| peaks.push(Err(e)))
                .ok();
            if interleave {
                recording = !recording;
                tracer.set_recording(recording);
            }
        }
        tracer.set_recording(false);
        joins
            .into_iter()
            .map(|j| {
                j.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let peaks = peaks.into_iter().collect::<Result<Vec<f64>, String>>()?;
    let mut all = Vec::new();
    for r in results {
        let (sent, errors) = r?;
        tally.attempted += sent.len() as u64;
        for e in errors {
            tally.check(false, || e);
        }
        all.extend(sent);
    }
    Ok(Load {
        sent: all,
        wall,
        peaks,
    })
}

/// Run the `serve` workload.
pub fn run(cfg: &Config, tracer: &Tracer) -> Result<Report, String> {
    let alpha = Alphabet::amino_acids();
    let sizes: &[usize] = if cfg.smoke { &SIZES[..2] } else { &SIZES };
    let inputs: Arc<Vec<Vec<u8>>> = Arc::new(
        sizes
            .iter()
            .flat_map(|&len| (0..TEXTS_PER_SIZE).map(move |i| (len, i)))
            .map(|(len, i)| {
                let seed = cfg
                    .seed
                    .wrapping_mul(1_000_003)
                    .wrapping_add((len + i) as u64);
                alpha.decode_symbols(&sfa_workloads::protein_text(len, seed))
            })
            .collect(),
    );
    let mut report = Report::new();
    let mut tally = Tally::default();
    let mut layers = Layers::default();
    report.input("patterns", PATTERNS.len() as f64);
    report.input("distinct_inputs", inputs.len() as f64);
    report.input("input_bytes_min", sizes[0] as f64);
    report.input("input_bytes_max", *sizes.last().unwrap() as f64);
    report.input("connections", THREADS as f64);

    // Set up once up front (kept) and, on untraced runs, again after the
    // load, so set-up is sampled at both ends of the run.
    let mut setup_s = Samples::new("setup_s", "s");
    let timed_start = |setup_s: &mut Samples| {
        let op = fresh_op();
        let t = Instant::now();
        let daemon = tracer.span("bench.setup", op, || start(cfg, &inputs, tracer, op));
        setup_s.push(t.elapsed().as_secs_f64());
        daemon
    };
    let daemon = timed_start(&mut setup_s)?;
    layers.span_metric("serve.registry_load_s", "serve.start");

    // Warm-up: connections, worker buffers, the sequential backend.
    let warmup = if cfg.smoke { 0.2 } else { 1.0 };
    tracer.set_recording(false);
    load(&daemon, cfg, &inputs, warmup, tracer, false, &mut tally)?;

    // Untraced runs measure one window. Traced runs measure short
    // windows, each half traced, and replay each window's traced
    // requests right after it.
    let (mut sent, mut wall, mut peaks) = (Vec::new(), 0.0, Vec::new());
    let windows = if cfg.trace {
        (cfg.seconds / TRACED_WINDOW_S).ceil().max(1.0) as usize
    } else {
        1
    };
    for _ in 0..windows {
        let seconds = if cfg.trace {
            TRACED_WINDOW_S
        } else {
            cfg.seconds
        };
        let window = load(
            &daemon, cfg, &inputs, seconds, tracer, cfg.trace, &mut tally,
        )?;
        if cfg.trace {
            let traced: Vec<Sent> = window.sent.iter().filter(|s| s.traced).cloned().collect();
            tracer.set_recording(true);
            replay(&daemon, &traced, &inputs, tracer, &mut tally, &mut layers);
            tracer.set_recording(false);
        }
        sent.extend(window.sent);
        wall += window.wall;
        peaks.extend(window.peaks);
    }
    let rtts = |traced: bool| -> Vec<f64> {
        let served = sent.iter().filter(|s| !s.rejected && s.traced == traced);
        served.map(|s| s.rtt * 1e3).collect()
    };
    let mut peak_rss = Samples::new("peak_rss_mib", "MiB");
    peak_rss.values = peaks;
    let mut round_trip = Samples::new("round_trip_ms", "ms");
    round_trip.values = rtts(false);
    if round_trip.values.is_empty() {
        return Err("no request was served".into());
    }
    let mut sorted = round_trip.values.clone();
    sorted.sort_by(f64::total_cmp);
    let mut p50 = Samples::new("serve_p50_ms", "ms");
    p50.push(quantile_sorted(&sorted, 0.5));
    let mut p99 = Samples::new("serve_p99_ms", "ms");
    p99.push(quantile_sorted(&sorted, 0.99));
    let mut qps = Samples::new("serve_qps", "req/s");
    qps.push(sorted.len() as f64 / wall);

    if cfg.trace {
        layers.overhead(&round_trip, &rtts(true));
        layers.push(
            "serve.rejections",
            sent.iter().filter(|s| s.rejected).count() as f64,
        );
        layers.push(
            "serve.sequential_share",
            ratio(
                sent.iter().filter(|s| s.sequential).count() as f64,
                sent.len() as f64,
            ),
        );
        for (metric, span) in [
            ("serve.client_encode_s", "serve.client_encode"),
            ("serve.client_decode_s", "serve.client_decode"),
            ("serve.frame_s", "serve.frame"),
            ("serve.parse_s", "serve.parse"),
            ("serve.handle_s", "serve.handle"),
            ("serve.reply_encode_s", "serve.reply_encode"),
            ("serve.decode_s", "serve.decode"),
            ("serve.admit_s", "serve.admit"),
            ("serve.match_s", "serve.match"),
        ] {
            layers.span_metric(metric, span);
        }
        tracer.set_recording(true);
        compile_patterns(&daemon, tracer, fresh_op(), &mut tally);
        layers.span_metric("automata.compile_s", "automata.compile");
    }
    daemon.stop();
    if !cfg.trace {
        for _ in 1..cfg.setup_reps(3) {
            timed_start(&mut setup_s)?.stop();
        }
    }

    // op1: round-trip median; op2: round-trip p99; op3: the mean
    // interval between served requests (1000 / serve_qps).
    report.end_to_end([
        setup_s.median(),
        p50.median(),
        p99.median(),
        1e3 / qps.median(),
        peak_rss.median(),
    ]);
    for s in [setup_s, round_trip, p50, p99, qps, peak_rss] {
        report.timing(s);
    }
    report.finish(tally, layers, tracer)
}

/// Compile the served patterns the way the registry does, and check
/// the registry compiled the same automata.
fn compile_patterns(daemon: &Daemon, tracer: &Tracer, op: u64, tally: &mut Tally) {
    let pipeline = Pipeline::search(Alphabet::amino_acids());
    let compiled: Vec<_> = tracer.span("automata.compile", op, || {
        PATTERNS
            .iter()
            .map(|(_, regex)| pipeline.compile_str(regex))
            .collect()
    });
    for ((id, _), dfa) in PATTERNS.iter().zip(compiled) {
        if let Some(dfa) = tally.record(dfa.map_err(|e| format!("compile {id}: {e}"))) {
            let entry = daemon.state().registry.resolve(id);
            tally.check(entry.is_some_and(|e| e.dfa.isomorphic(&dfa)), || {
                format!("{id}: the registry's DFA differs from a fresh compile")
            });
        }
    }
}

/// Replay recorded requests in process: the client's encode and decode
/// steps, the server's framing, parsing and `handle_envelope`, and the
/// dispatch steps inside it. Derives every `serve.*` per-layer metric,
/// including the wait: round trip minus client and server spans.
fn replay(
    daemon: &Daemon,
    sent: &[Sent],
    inputs: &[Vec<u8>],
    tracer: &Tracer,
    tally: &mut Tally,
    layers: &mut Layers,
) {
    let state = daemon.state();
    let step = (sent.len() / REPLAYS_PER_WINDOW).max(1);
    for s in sent.iter().step_by(step).filter(|s| !s.rejected) {
        let op = fresh_op();
        let tenant = TENANTS[s.conn];
        let req = request(s.pick, inputs);
        let mut spent = 0.0;
        let mut timed = |name: &'static str, f: &mut dyn FnMut()| {
            let t = Instant::now();
            tracer.span(name, op, f);
            spent += t.elapsed().as_secs_f64();
        };
        let mut frame = Vec::new();
        let mut envelope = Value::Null;
        let mut reply = Value::Null;
        let mut reply_frame = Vec::new();
        let mut outcome: Result<MatchOutcome, String> = Err("not decoded".into());
        let mut broken = None;
        tracer.span("serve.replay", op, || {
            timed("serve.client_encode", &mut || {
                let v = Value::Object(vec![
                    ("tenant".into(), Value::String(tenant.into())),
                    ("request".into(), req.to_json()),
                ]);
                frame = encode_frame(&v);
            });
            let mut buf = frame.clone();
            let mut payload = None;
            timed("serve.frame", &mut || {
                payload = try_extract_frame(&mut buf).ok().flatten()
            });
            let Some(payload) = payload else {
                broken = Some("the server could not extract the frame".to_string());
                return;
            };
            timed("serve.parse", &mut || {
                envelope = std::str::from_utf8(&payload)
                    .ok()
                    .and_then(|text| sfa_json::from_str(text).ok())
                    .unwrap_or(Value::Null);
            });
            timed("serve.handle", &mut || {
                reply = state.handle_envelope(&envelope)
            });
            timed("serve.reply_encode", &mut || {
                reply_frame = encode_frame(&reply)
            });
            timed("serve.client_decode", &mut || {
                outcome = std::str::from_utf8(&reply_frame[8..])
                    .map_err(|e| e.to_string())
                    .and_then(|text| sfa_json::from_str(text).map_err(|e| e.to_string()))
                    .and_then(|v| {
                        v.get("outcome")
                            .cloned()
                            .ok_or_else(|| "reply has no outcome".to_string())
                    })
                    .and_then(|v| MatchOutcome::from_json(&v));
            });
            tracer.span("serve.dispatch", op, || {
                dispatch(state, tenant, &envelope, tracer, op)
            });
        });
        if let Some(e) = broken {
            tally.check(false, || e);
            continue;
        }
        let expected = daemon.oracle[s.pick.pattern][s.pick.input];
        if let Some(o) = tally.record(outcome.map_err(|e| format!("replayed reply: {e}"))) {
            tally.check(o.verdict == expected, || {
                format!(
                    "replayed verdict {} but match_sequential says {expected}",
                    o.verdict
                )
            });
        }
        let input_len = inputs[s.pick.input].len() as f64;
        layers.push("serve.request_bytes", frame.len() as f64);
        layers.push("serve.reply_bytes", reply_frame.len() as f64);
        layers.push(
            "serve.wire_bytes_per_input_byte",
            (frame.len() + reply_frame.len()) as f64 / input_len,
        );
        layers.push("serve.wait_s", s.rtt - spent);
    }
}

/// The steps `ServeState::handle_envelope` takes, called one by one
/// through their public functions: request decode, tenant admission and
/// the match on the pattern's backend.
fn dispatch(state: &ServeState, tenant: &str, envelope: &Value, tracer: &Tracer, op: u64) {
    let Some(request_v) = envelope.get("request") else {
        return;
    };
    let Ok(request) = tracer.span("serve.decode", op, || MatchRequest::from_json(request_v)) else {
        return;
    };
    let (Some(t), Some(key), Some(len)) = (
        state.tenants.get(tenant),
        request.pattern.as_deref(),
        request.input.len_hint(),
    ) else {
        return;
    };
    let Some(entry) = state.registry.resolve(key) else {
        return;
    };
    if tracer.span("serve.admit", op, || t.admit(len)).is_err() {
        return;
    }
    tracer.span("serve.match", op, || match &entry.backend {
        PatternBackend::Full { sfa, scan } => {
            let matcher = ParallelMatcher::with_scan(sfa, entry.dfa, Arc::clone(scan));
            state.runtime.run(&matcher, &request).is_ok()
        }
        PatternBackend::Sequential { .. } => {
            state.runtime.run_dfa(entry.dfa, &request, None).is_ok()
        }
    });
}
