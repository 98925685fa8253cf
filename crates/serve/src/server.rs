//! The daemon event loop.
//!
//! Linux builds run one worker thread per core, each owning a private
//! epoll instance ([`crate::sys`]): worker 0 also owns the nonblocking
//! listener and deals accepted connections round-robin into per-worker
//! inboxes (a mutexed vector plus an eventfd kick). Tokens 0 and 1 are
//! the worker's eventfd and the listener; connections get tokens from 2
//! upward. Requests are served **inline** on the worker that read them
//! — the match itself parallelizes on the shared [`MatchRuntime`]
//! pool, so an event-loop thread is never the bottleneck for a single
//! large query.
//!
//! Graceful drain: [`ServerHandle::shutdown`] flips the stop flag; each
//! worker stops accepting, performs one final read pass per connection
//! (so a request fully sent before the signal is still answered),
//! flushes every pending response, and closes. In-flight requests
//! complete naturally because they run inline.
//!
//! Non-Linux hosts get a thread-per-connection fallback with the same
//! observable behaviour (same protocol, same drain semantics).

use crate::proto::{self, Protocol, ServeState};
use crate::registry::PatternRegistry;
use crate::tenant::TenantTable;
use crate::{ErrorCode, ServeConfig, ServeError};
use sfa_core::MatchRuntime;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Poll interval of every blocking wait — the latency bound on
/// observing the stop flag.
const POLL_MS: u64 = 100;

/// A running daemon.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServeState>,
    stop: Arc<AtomicBool>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves `:0` to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared dispatch state (registry, tenants, runtime).
    pub fn state(&self) -> &Arc<ServeState> {
        &self.state
    }

    /// Begin a graceful drain: stop accepting, answer every request
    /// that has already arrived (in-flight work completes — requests
    /// run inline on the workers), flush, close. Idempotent; returns
    /// immediately. Deliberately does **not** flip
    /// [`ServeState::draining`]: a request received before the signal
    /// must be served, not shed.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }

    /// Wait for every worker to finish draining. Afterwards the shared
    /// state is marked draining, so an embedder still holding it gets
    /// [`crate::ErrorCode::ShuttingDown`] for any further dispatch.
    pub fn join(self) {
        for worker in self.workers {
            let _ = worker.join();
        }
        self.state.draining.store(true, Ordering::Relaxed);
    }

    /// [`Self::shutdown`] then [`Self::join`].
    pub fn shutdown_and_join(self) {
        self.shutdown();
        self.join();
    }
}

/// Load the registry and tenant table, bind, and start the workers.
pub fn start(config: &ServeConfig) -> Result<ServerHandle, String> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = if config.workers == 0 {
        cores
    } else {
        config.workers
    };
    let construct_threads = cores.min(8);
    // Start the match pool before the registry builds any SFA. With
    // glibc, a thread takes an allocator arena when it first allocates,
    // preferring the arenas of threads that have exited; a pool started
    // after a build takes over the build workers' arenas, and the freed
    // state payloads in them stay resident, because pool threads
    // allocate nothing while they match.
    let runtime = match config.match_threads {
        0 => MatchRuntime::shared(),
        threads => MatchRuntime::new(threads),
    };
    let registry =
        PatternRegistry::load(&config.patterns_dir, config.state_budget, construct_threads)?;
    let tenants = TenantTable::new(config.tenants.clone())?;
    let state = Arc::new(ServeState::new(registry, tenants, runtime));

    let listener =
        TcpListener::bind(&config.listen).map_err(|e| format!("bind {}: {e}", config.listen))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let stop = Arc::new(AtomicBool::new(false));

    let threads = spawn_workers(listener, workers, state.clone(), stop.clone())?;
    Ok(ServerHandle {
        addr,
        state,
        stop,
        workers: threads,
    })
}

/// Per-connection buffers and protocol state (shared by both loops).
struct Conn {
    stream: TcpStream,
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
    protocol: Option<Protocol>,
    /// Close once `outbuf` drains (HTTP, or a fatal protocol error).
    close_after_flush: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        sfa_obs::registry::global()
            .gauge(crate::CONNECTIONS_GAUGE)
            .add(1);
        Conn {
            stream,
            inbuf: Vec::new(),
            outbuf: Vec::new(),
            protocol: None,
            close_after_flush: false,
        }
    }

    /// Parse and serve everything complete in `inbuf`. Returns `false`
    /// when the connection must close immediately (unrecoverable
    /// framing error with nothing to flush is still flushed first).
    fn process(&mut self, state: &ServeState) {
        loop {
            if self.close_after_flush {
                return;
            }
            if self.protocol.is_none() {
                match proto::detect(&self.inbuf) {
                    Ok(Some(p)) => self.protocol = Some(p),
                    Ok(None) => return,
                    Err(err) => {
                        self.fail(&err);
                        return;
                    }
                }
            }
            match self.protocol {
                Some(Protocol::Binary) => match proto::try_extract_frame(&mut self.inbuf) {
                    Ok(Some(payload)) => {
                        let response = match std::str::from_utf8(&payload)
                            .map_err(|_| "frame is not UTF-8".to_string())
                            .and_then(|s| sfa_json::from_str(s).map_err(|e| e.to_string()))
                        {
                            Ok(envelope) => state.handle_envelope(&envelope),
                            Err(msg) => {
                                crate::BAD_FRAMES_TOTAL.inc();
                                proto::error_response(&ServeError::new(
                                    ErrorCode::BadRequest,
                                    format!("invalid JSON payload: {msg}"),
                                ))
                            }
                        };
                        self.outbuf
                            .extend_from_slice(&proto::encode_frame(&response));
                    }
                    Ok(None) => return,
                    Err(err) => {
                        self.fail(&err);
                        return;
                    }
                },
                Some(Protocol::Http) => match proto::try_extract_http(&mut self.inbuf) {
                    Ok(Some(request)) => {
                        let response = state.handle_http(&request);
                        self.outbuf.extend_from_slice(&response);
                        self.close_after_flush = true;
                    }
                    Ok(None) => return,
                    Err(err) => {
                        crate::BAD_FRAMES_TOTAL.inc();
                        let body = sfa_json::to_string(&proto::error_response(&err));
                        self.outbuf.extend_from_slice(&proto::http_response(
                            err.code.http_status(),
                            "application/json",
                            &body,
                        ));
                        self.close_after_flush = true;
                    }
                },
                None => return,
            }
        }
    }

    /// Unrecoverable binary-protocol error: answer it in one last
    /// frame, then close (framing is lost, the stream cannot recover).
    fn fail(&mut self, err: &ServeError) {
        crate::BAD_FRAMES_TOTAL.inc();
        self.outbuf
            .extend_from_slice(&proto::encode_frame(&proto::error_response(err)));
        self.close_after_flush = true;
    }

    /// Nonblocking read into `inbuf`. Returns `false` on EOF or error.
    fn read_available(&mut self) -> bool {
        let mut chunk = [0u8; 16 << 10];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return false,
                Ok(n) => self.inbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
    }

    /// Nonblocking write from `outbuf`. Returns `false` on error.
    fn write_pending(&mut self) -> bool {
        while !self.outbuf.is_empty() {
            match self.stream.write(&self.outbuf) {
                Ok(0) => return false,
                Ok(n) => {
                    self.outbuf.drain(..n);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
        true
    }

    /// Should this connection close now?
    fn done(&self) -> bool {
        self.close_after_flush && self.outbuf.is_empty()
    }

    /// Final drain pass: pick up bytes that were already in the socket
    /// buffer when shutdown arrived, answer them, and flush with a
    /// short blocking timeout so a slow reader cannot wedge the drain.
    fn drain_and_close(mut self, state: &ServeState) {
        if !self.close_after_flush {
            self.read_available();
            self.process(state);
        }
        let _ = self.stream.set_nonblocking(false);
        let _ = self.stream.set_write_timeout(Some(Duration::from_secs(2)));
        let _ = self.stream.write_all(&self.outbuf);
        let _ = self.stream.flush();
    }
}

impl Drop for Conn {
    fn drop(&mut self) {
        sfa_obs::registry::global()
            .gauge(crate::CONNECTIONS_GAUGE)
            .add(-1);
    }
}

#[cfg(target_os = "linux")]
use linux_loop::spawn_workers;

#[cfg(not(target_os = "linux"))]
use fallback_loop::spawn_workers;

#[cfg(target_os = "linux")]
mod linux_loop {
    use super::*;
    use crate::sys::{Epoll, EpollEvent, EventFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT};
    use std::collections::HashMap;
    use std::os::unix::io::AsRawFd;

    const TOKEN_WAKE: u64 = 0;
    const TOKEN_LISTENER: u64 = 1;
    const TOKEN_FIRST_CONN: u64 = 2;

    /// A worker's mailbox: connections dealt to it plus the eventfd
    /// that kicks its epoll.
    struct Inbox {
        pending: Mutex<Vec<TcpStream>>,
        wake: EventFd,
    }

    pub(super) fn spawn_workers(
        listener: TcpListener,
        workers: usize,
        state: Arc<ServeState>,
        stop: Arc<AtomicBool>,
    ) -> Result<Vec<std::thread::JoinHandle<()>>, String> {
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("listener nonblocking: {e}"))?;
        let inboxes: Vec<Arc<Inbox>> = (0..workers)
            .map(|_| {
                Ok(Arc::new(Inbox {
                    pending: Mutex::new(Vec::new()),
                    wake: EventFd::new().map_err(|e| format!("eventfd: {e}"))?,
                }))
            })
            .collect::<Result<_, String>>()?;

        let mut threads = Vec::with_capacity(workers);
        let mut listener = Some(listener);
        for ix in 0..workers {
            let state = state.clone();
            let stop = stop.clone();
            let inbox = inboxes[ix].clone();
            let all_inboxes: Vec<Arc<Inbox>> = inboxes.clone();
            let listener = if ix == 0 { listener.take() } else { None };
            let handle = std::thread::Builder::new()
                .name(format!("sfa-serve-{ix}"))
                .spawn(move || worker_loop(ix, listener, inbox, all_inboxes, state, stop))
                .map_err(|e| format!("spawn worker {ix}: {e}"))?;
            threads.push(handle);
        }
        Ok(threads)
    }

    fn worker_loop(
        _ix: usize,
        listener: Option<TcpListener>,
        inbox: Arc<Inbox>,
        all_inboxes: Vec<Arc<Inbox>>,
        state: Arc<ServeState>,
        stop: Arc<AtomicBool>,
    ) {
        let Ok(epoll) = Epoll::new() else { return };
        if epoll.add(inbox.wake.fd(), EPOLLIN, TOKEN_WAKE).is_err() {
            return;
        }
        if let Some(l) = &listener {
            let _ = epoll.add(l.as_raw_fd(), EPOLLIN, TOKEN_LISTENER);
        }

        let mut conns: HashMap<u64, Conn> = HashMap::new();
        let mut next_token = TOKEN_FIRST_CONN;
        let mut next_worker = 0usize;
        let mut events = [EpollEvent::empty(); 64];

        loop {
            if stop.load(Ordering::Relaxed) {
                break;
            }
            let n = match epoll.wait(&mut events, POLL_MS as i32) {
                Ok(n) => n,
                Err(_) => break,
            };
            for ev in &events[..n] {
                let token = ev.token();
                let ready = ev.events();
                if token == TOKEN_WAKE {
                    inbox.wake.drain();
                    adopt_pending(&epoll, &inbox, &mut conns, &mut next_token);
                } else if token == TOKEN_LISTENER {
                    accept_ready(
                        listener.as_ref().expect("listener token on owning worker"),
                        &all_inboxes,
                        &mut next_worker,
                    );
                } else if let Some(conn) = conns.get_mut(&token) {
                    let mut alive = ready & (EPOLLERR | EPOLLHUP) == 0;
                    if alive && ready & EPOLLIN != 0 {
                        alive = conn.read_available();
                        conn.process(&state);
                    }
                    if alive {
                        alive = conn.write_pending();
                    }
                    if !alive || conn.done() {
                        let conn = conns.remove(&token).expect("known token");
                        let _ = epoll.delete(conn.stream.as_raw_fd());
                    } else {
                        // Re-arm with write interest only while output
                        // is actually pending.
                        let mut interest = EPOLLIN;
                        if !conn.outbuf.is_empty() {
                            interest |= EPOLLOUT;
                        }
                        let _ = epoll.modify(conn.stream.as_raw_fd(), interest, token);
                    }
                }
            }
        }

        // Drain: adopt anything still in the inbox so it gets a clean
        // close, then give every connection its final pass.
        adopt_pending(&epoll, &inbox, &mut conns, &mut next_token);
        for (_, conn) in conns.drain() {
            let _ = epoll.delete(conn.stream.as_raw_fd());
            conn.drain_and_close(&state);
        }
    }

    fn adopt_pending(
        epoll: &Epoll,
        inbox: &Inbox,
        conns: &mut HashMap<u64, Conn>,
        next_token: &mut u64,
    ) {
        let pending = std::mem::take(&mut *inbox.pending.lock().unwrap_or_else(|p| p.into_inner()));
        for stream in pending {
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let token = *next_token;
            *next_token += 1;
            if epoll.add(stream.as_raw_fd(), EPOLLIN, token).is_ok() {
                conns.insert(token, Conn::new(stream));
            }
        }
    }

    fn accept_ready(listener: &TcpListener, inboxes: &[Arc<Inbox>], next_worker: &mut usize) {
        loop {
            // Transient-fault site for the resilience tests: a fired
            // fault skips this accept pass; the listener stays armed
            // and the next readiness event retries.
            if sfa_core::fault_point!("serve/accept").is_err() {
                return;
            }
            match listener.accept() {
                Ok((stream, _peer)) => {
                    let ix = *next_worker % inboxes.len();
                    *next_worker = next_worker.wrapping_add(1);
                    {
                        let mut pending = inboxes[ix]
                            .pending
                            .lock()
                            .unwrap_or_else(|p| p.into_inner());
                        pending.push(stream);
                    }
                    inboxes[ix].wake.wake();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod fallback_loop {
    use super::*;

    /// Portable fallback: an accept thread plus one thread per
    /// connection, all polling the stop flag on a read timeout.
    pub(super) fn spawn_workers(
        listener: TcpListener,
        _workers: usize,
        state: Arc<ServeState>,
        stop: Arc<AtomicBool>,
    ) -> Result<Vec<std::thread::JoinHandle<()>>, String> {
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("listener nonblocking: {e}"))?;
        let conn_threads: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> =
            Arc::new(Mutex::new(Vec::new()));
        let conn_threads_acceptor = conn_threads.clone();
        let acceptor = std::thread::Builder::new()
            .name("sfa-serve-accept".into())
            .spawn(move || {
                loop {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    match listener.accept() {
                        Ok((stream, _)) => {
                            if sfa_core::fault_point!("serve/accept").is_err() {
                                continue;
                            }
                            let state = state.clone();
                            let stop = stop.clone();
                            if let Ok(h) = std::thread::Builder::new()
                                .name("sfa-serve-conn".into())
                                .spawn(move || conn_loop(stream, state, stop))
                            {
                                conn_threads_acceptor
                                    .lock()
                                    .unwrap_or_else(|p| p.into_inner())
                                    .push(h);
                            }
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(POLL_MS));
                        }
                        Err(_) => break,
                    }
                }
                let threads = std::mem::take(
                    &mut *conn_threads_acceptor
                        .lock()
                        .unwrap_or_else(|p| p.into_inner()),
                );
                for t in threads {
                    let _ = t.join();
                }
            })
            .map_err(|e| format!("spawn acceptor: {e}"))?;
        Ok(vec![acceptor])
    }

    fn conn_loop(stream: TcpStream, state: Arc<ServeState>, stop: Arc<AtomicBool>) {
        let _ = stream.set_read_timeout(Some(Duration::from_millis(POLL_MS)));
        let mut conn = Conn::new(stream);
        loop {
            if stop.load(Ordering::Relaxed) {
                conn.drain_and_close(&state);
                return;
            }
            let mut chunk = [0u8; 16 << 10];
            match conn.stream.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => {
                    conn.inbuf.extend_from_slice(&chunk[..n]);
                    conn.process(&state);
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut => {}
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
            if !conn.write_pending() || conn.done() {
                break;
            }
        }
        let _ = conn.stream.write_all(&conn.outbuf.split_off(0));
    }
}
