//! The sweep server: accept loop, admission control, coalescing and
//! graceful drain. Generic over the sweep handler so the transport
//! layer never depends on the experiment crates.

use std::collections::HashMap;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

use probranch_faults as faults;

use crate::protocol::{read_frame, write_frame, Request, Response, Status, SweepRequest};

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// How often the drain gate re-checks the shutdown flags and the
/// in-flight count. It only sets how soon a drained server returns:
/// connections are accepted the moment they arrive.
const DRAIN_POLL: Duration = Duration::from_millis(20);

/// Back-off after a transient accept failure (EMFILE, aborted
/// handshake).
const ACCEPT_BACKOFF: Duration = Duration::from_millis(20);

/// Server tuning knobs. The defaults suit the CI smoke gates; a real
/// deployment would size `max_inflight` to cores/`jobs`.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Sweep requests admitted concurrently; arrivals beyond this are
    /// load-shed with [`Status::Overloaded`].
    pub max_inflight: usize,
    /// Per-connection read timeout (a peer that never sends a frame
    /// cannot pin a connection thread).
    pub read_timeout: Duration,
    /// Per-connection write timeout.
    pub write_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            max_inflight: 4,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
        }
    }
}

/// What the sweep handler reports back for one admitted request.
#[derive(Debug, Clone)]
pub enum SweepOutcome {
    /// The rendered section text, byte-identical to the in-process
    /// run.
    Ok(String),
    /// The sweep was cooperatively cancelled (deadline, spurious
    /// cancel); the message is the structured failure.
    Cancelled(String),
    /// The sweep failed with a structured error.
    Failed(String),
    /// The request named an unknown section/scale/engine.
    BadRequest(String),
}

impl SweepOutcome {
    fn into_response(self) -> Response {
        match self {
            SweepOutcome::Ok(body) => Response::new(Status::Ok, body),
            SweepOutcome::Cancelled(msg) => Response::new(Status::Cancelled, msg),
            SweepOutcome::Failed(msg) => Response::new(Status::Failed, msg),
            SweepOutcome::BadRequest(msg) => Response::new(Status::BadRequest, msg),
        }
    }
}

/// Service counters, reported at drain.
#[derive(Debug, Default)]
struct Stats {
    requests: AtomicU64,
    coalesced: AtomicU64,
    shed: AtomicU64,
    cancelled: AtomicU64,
    failed: AtomicU64,
}

/// A point-in-time copy of the service counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Sweep requests admitted past the load-shedding gate.
    pub requests: u64,
    /// Admitted requests that ran no computation of their own: they
    /// shared a leader's in-flight computation, or took the kept `Ok`
    /// outcome of an earlier identical request.
    pub coalesced: u64,
    /// Requests rejected with [`Status::Overloaded`].
    pub shed: u64,
    /// Admitted requests whose sweep was cooperatively cancelled.
    pub cancelled: u64,
    /// Admitted requests whose sweep failed with a structured error.
    pub failed: u64,
}

impl StatsSnapshot {
    /// One-line human summary for the drain report.
    pub fn summary(&self) -> String {
        format!(
            "{} requests ({} coalesced), {} shed, {} cancelled, {} failed",
            self.requests, self.coalesced, self.shed, self.cancelled, self.failed
        )
    }
}

/// One coalescing cell: the leader publishes its outcome here and
/// wakes the waiters. A cell holding an `Ok` outcome stays in the map
/// and answers every later identical request.
type CoalesceCell = Arc<(Mutex<Option<SweepOutcome>>, Condvar)>;

/// The sweep server. [`Server::run`] blocks until a drain completes;
/// see the crate docs for the robustness layers.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    config: ServerConfig,
    shutdown: Arc<AtomicBool>,
    stats: Stats,
}

impl Server {
    /// Binds the listener. The server does not accept until
    /// [`run`](Server::run).
    ///
    /// # Errors
    ///
    /// Propagates bind errors.
    pub fn bind(addr: impl ToSocketAddrs, config: ServerConfig) -> std::io::Result<Server> {
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            config,
            shutdown: Arc::new(AtomicBool::new(false)),
            stats: Stats::default(),
        })
    }

    /// The bound address (useful after binding port 0).
    ///
    /// # Errors
    ///
    /// Propagates the underlying `local_addr` error.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that triggers a graceful drain when set.
    /// [`run`](Server::run) sets it itself on a shutdown request, or on
    /// a SIGINT/SIGTERM once [`crate::install_signal_shutdown`] ran.
    pub fn shutdown_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// Accepts and serves until a drain completes: a `shutdown`
    /// request or the shutdown handle stops admission, in-flight
    /// sweeps finish (new arrivals get [`Status::ShuttingDown`]), and
    /// the final counters return to the caller.
    ///
    /// A scoped acceptor thread blocks in `accept` and hands each
    /// connection to its own scoped thread the moment it arrives; both
    /// join the calling thread's fault plan ([`faults::current`]). The
    /// calling thread is the drain gate: every tick it turns a
    /// delivered shutdown signal ([`crate::signal_shutdown_flag`]) into
    /// a shutdown request, and once a shutdown is requested and no
    /// sweep is in flight, it stops the acceptor and wakes it with one
    /// connect to the listener's own port.
    ///
    /// `handler` must be deterministic in
    /// [`SweepRequest::coalesce_key`]: the server keeps each `Ok`
    /// outcome and answers every later request with the same key from
    /// it, without calling `handler` again.
    ///
    /// # Errors
    ///
    /// Only fatal listener setup errors; per-connection failures are
    /// handled (and injectable) inside the loop.
    pub fn run<H>(&self, handler: H) -> std::io::Result<StatsSnapshot>
    where
        H: Fn(&SweepRequest) -> SweepOutcome + Sync,
    {
        let wake = self.wake_addr()?;
        // Admitted sweeps currently running — the drain gate.
        let inflight = AtomicUsize::new(0);
        // Leader cells of in-flight sweeps and kept `Ok` outcomes, by
        // coalescing key.
        let coalesce: Mutex<HashMap<String, CoalesceCell>> = Mutex::new(HashMap::new());
        // Set by the drain gate; the next accepted connection is its
        // wake-up, not a client.
        let stop = AtomicBool::new(false);
        let plan = faults::current();

        std::thread::scope(|scope| {
            let (handler, inflight, coalesce, stop) = (&handler, &inflight, &coalesce, &stop);
            let acceptor = scope.spawn(move || {
                let _plan = plan.clone().map(faults::PlanScope::join);
                let mut conn_id: u64 = 0;
                loop {
                    match self.listener.accept() {
                        Ok((stream, _peer)) => {
                            if stop.load(Ordering::Acquire) {
                                return;
                            }
                            conn_id += 1;
                            let id = conn_id;
                            // Injected accept-path fault: the connection
                            // is dropped before its request is read —
                            // the client sees EOF and retries.
                            if faults::injected(faults::Site::ServeAccept, &[id]) {
                                drop(stream);
                                continue;
                            }
                            let plan = plan.clone();
                            scope.spawn(move || {
                                let _plan = plan.map(faults::PlanScope::join);
                                self.serve_connection(stream, id, handler, inflight, coalesce);
                            });
                        }
                        Err(_) => {
                            // Transient accept failure (EMFILE, aborted
                            // handshake): back off and keep serving.
                            if stop.load(Ordering::Acquire) {
                                return;
                            }
                            std::thread::sleep(ACCEPT_BACKOFF);
                        }
                    }
                }
            });
            while !(self.shutdown.load(Ordering::Acquire) && inflight.load(Ordering::Acquire) == 0)
            {
                // A SIGINT/SIGTERM drains like a `shutdown` request:
                // from here on admission answers `shutting-down`.
                if crate::signal_shutdown_flag() {
                    self.shutdown.store(true, Ordering::Release);
                }
                std::thread::sleep(DRAIN_POLL);
            }
            stop.store(true, Ordering::Release);
            // A connect that fails (say, under fd exhaustion) is retried
            // until it lands or the acceptor has returned on its own.
            while TcpStream::connect(wake).is_err() && !acceptor.is_finished() {
                std::thread::sleep(DRAIN_POLL);
            }
        });
        Ok(self.snapshot())
    }

    /// Where the drain gate connects to wake the acceptor: the bound
    /// address, with an unspecified IP (`0.0.0.0`, `::`) replaced by
    /// the loopback address of the same family.
    fn wake_addr(&self) -> std::io::Result<SocketAddr> {
        let mut addr = self.listener.local_addr()?;
        if addr.ip().is_unspecified() {
            addr.set_ip(match addr.ip() {
                IpAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                IpAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        Ok(addr)
    }

    /// The current counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            requests: self.stats.requests.load(Ordering::Relaxed),
            coalesced: self.stats.coalesced.load(Ordering::Relaxed),
            shed: self.stats.shed.load(Ordering::Relaxed),
            cancelled: self.stats.cancelled.load(Ordering::Relaxed),
            failed: self.stats.failed.load(Ordering::Relaxed),
        }
    }

    /// One connection: read the request frame, dispatch, write the
    /// response frame. All transport failures end the connection; the
    /// client's retry layer owns recovery.
    fn serve_connection<H>(
        &self,
        mut stream: TcpStream,
        id: u64,
        handler: &H,
        inflight: &AtomicUsize,
        coalesce: &Mutex<HashMap<String, CoalesceCell>>,
    ) where
        H: Fn(&SweepRequest) -> SweepOutcome + Sync,
    {
        let _ = stream.set_read_timeout(Some(self.config.read_timeout));
        let _ = stream.set_write_timeout(Some(self.config.write_timeout));
        // Injected read-path fault: answer with a structured failure
        // naming the site, so the client sees an attributable error
        // rather than a hang.
        if faults::injected(faults::Site::ServeRead, &[id]) {
            let resp = Response::new(Status::Failed, "injected fault: serve.read");
            self.write_response(&mut stream, id, &resp);
            return;
        }
        let frame = match read_frame(&mut stream) {
            Ok(frame) => frame,
            Err(_) => return, // client gone or stalled past the timeout
        };
        let request = match Request::parse(&frame) {
            Ok(request) => request,
            Err(msg) => {
                self.write_response(&mut stream, id, &Response::new(Status::BadRequest, msg));
                return;
            }
        };
        let response = match request {
            Request::Ping => Response::new(Status::Ok, "pong"),
            Request::Shutdown => {
                self.shutdown.store(true, Ordering::Release);
                Response::new(Status::Ok, "draining")
            }
            Request::Sweep(req) => self.run_sweep(&req, handler, inflight, coalesce),
        };
        // Injected post-sweep drop: the work happened (and fed the
        // coalescing cell / trace store) but the response is lost.
        if faults::injected(faults::Site::ServeDrop, &[id]) {
            return;
        }
        self.write_response(&mut stream, id, &response);
    }

    /// Admission control + coalescing around one sweep.
    fn run_sweep<H>(
        &self,
        req: &SweepRequest,
        handler: &H,
        inflight: &AtomicUsize,
        coalesce: &Mutex<HashMap<String, CoalesceCell>>,
    ) -> Response
    where
        H: Fn(&SweepRequest) -> SweepOutcome + Sync,
    {
        if self.shutdown.load(Ordering::Acquire) {
            return Response::new(Status::ShuttingDown, "server is draining; no new sweeps");
        }
        // Load-shed at admission: never accept-then-hang.
        let max = self.config.max_inflight;
        if inflight
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                (n < max).then_some(n + 1)
            })
            .is_err()
        {
            self.stats.shed.fetch_add(1, Ordering::Relaxed);
            return Response::new(
                Status::Overloaded,
                format!("in-flight budget of {max} sweeps is spent; retry later"),
            );
        }
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        let outcome = self.coalesced_sweep(req, handler, coalesce);
        inflight.fetch_sub(1, Ordering::AcqRel);
        match &outcome {
            SweepOutcome::Cancelled(_) => {
                self.stats.cancelled.fetch_add(1, Ordering::Relaxed);
            }
            SweepOutcome::Failed(_) => {
                self.stats.failed.fetch_add(1, Ordering::Relaxed);
            }
            SweepOutcome::Ok(_) | SweepOutcome::BadRequest(_) => {}
        }
        outcome.into_response()
    }

    /// Runs the handler once per coalescing key
    /// ([`SweepRequest::coalesce_key`]: section, scale and engine) for
    /// as long as it answers `Ok`: the first arrival for a key leads and
    /// computes; later arrivals wait on the leader's cell, or find its
    /// outcome already there, and share it. The handler must be
    /// deterministic in the key, as the sweeps are, so every response is
    /// byte-identical and an `Ok` cell is kept for the server's
    /// lifetime. The map is bounded by the keys the handler accepts —
    /// for `figures`, 10 sections × 3 scales × 2 engines. A
    /// `Cancelled`, `Failed` or `BadRequest` outcome leaves the map
    /// before it is published, so the next identical request runs the
    /// handler again, and unknown names sent by clients never stay in
    /// the map.
    fn coalesced_sweep<H>(
        &self,
        req: &SweepRequest,
        handler: &H,
        coalesce: &Mutex<HashMap<String, CoalesceCell>>,
    ) -> SweepOutcome
    where
        H: Fn(&SweepRequest) -> SweepOutcome + Sync,
    {
        let key = req.coalesce_key();
        let (cell, leader) = {
            let mut map = lock(coalesce);
            match map.get(&key) {
                Some(cell) => (Arc::clone(cell), false),
                None => {
                    let cell: CoalesceCell = Arc::new((Mutex::new(None), Condvar::new()));
                    map.insert(key.clone(), Arc::clone(&cell));
                    (cell, true)
                }
            }
        };
        if leader {
            let outcome = handler(req);
            if !matches!(outcome, SweepOutcome::Ok(_)) {
                lock(coalesce).remove(&key);
            }
            let mut slot = lock(&cell.0);
            *slot = Some(outcome.clone());
            cell.1.notify_all();
            outcome
        } else {
            self.stats.coalesced.fetch_add(1, Ordering::Relaxed);
            let mut slot = lock(&cell.0);
            while slot.is_none() {
                slot = cell.1.wait(slot).unwrap_or_else(PoisonError::into_inner);
            }
            slot.clone().expect("leader published an outcome")
        }
    }

    /// Writes a response frame, subject to the injected write-path
    /// fault (the connection is closed with the response unsent).
    fn write_response(&self, stream: &mut TcpStream, id: u64, response: &Response) {
        if faults::injected(faults::Site::ServeWrite, &[id]) {
            return;
        }
        let _ = write_frame(stream, &response.encode());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client;
    use crate::protocol::PROTOCOL;

    /// Answers `{body}:{section}`, or a bad request for a section
    /// named `missing…`.
    fn canned(body: &str) -> impl Fn(&SweepRequest) -> SweepOutcome + Sync + '_ {
        move |req| {
            if req.section.starts_with("missing") {
                SweepOutcome::BadRequest("unknown section".into())
            } else {
                SweepOutcome::Ok(format!("{body}:{}", req.section))
            }
        }
    }

    /// [`canned`] with body `body`, counting its calls in `calls`.
    fn counted(calls: &AtomicUsize) -> impl Fn(&SweepRequest) -> SweepOutcome + Sync + '_ {
        let inner = canned("body");
        move |req| {
            calls.fetch_add(1, Ordering::SeqCst);
            inner(req)
        }
    }

    fn sweep_request(section: &str) -> SweepRequest {
        SweepRequest {
            section: section.into(),
            scale: "smoke".into(),
            engine: "replay".into(),
            jobs: Some(1),
            deadline_ms: None,
        }
    }

    fn sweep(section: &str) -> Request {
        Request::Sweep(sweep_request(section))
    }

    /// Sends `req` and returns its status and body, or `None` if the
    /// transport failed — for bodies that assert after the drain.
    fn answer(addr: SocketAddr, req: &Request) -> Option<(Status, String)> {
        client::request(addr, req, Duration::from_secs(5))
            .ok()
            .map(|resp| (resp.status, resp.body))
    }

    /// Binds a server on an ephemeral port, runs it with `handler` on a
    /// scoped thread under the caller's fault plan, runs `body` against
    /// the address, then drains.
    fn with_server<H, F>(config: ServerConfig, handler: H, body: F) -> StatsSnapshot
    where
        H: Fn(&SweepRequest) -> SweepOutcome + Sync + Send,
        F: FnOnce(SocketAddr),
    {
        let server = Server::bind("127.0.0.1:0", config).expect("bind");
        let addr = server.local_addr().expect("addr");
        let mut snapshot = StatsSnapshot::default();
        let plan = faults::current();
        std::thread::scope(|scope| {
            let server = &server;
            let run = scope.spawn(move || {
                let _plan = plan.map(faults::PlanScope::join);
                server.run(handler).expect("run")
            });
            assert!(client::wait_ready(addr, Duration::from_secs(5)));
            body(addr);
            // The body may have drained the server already; a failed
            // shutdown request then just means it is gone.
            if let Ok(resp) = client::request(addr, &Request::Shutdown, Duration::from_secs(5)) {
                assert_eq!(resp.status, Status::Ok);
            }
            snapshot = run.join().expect("server thread");
        });
        snapshot
    }

    #[test]
    fn serves_sweeps_pings_and_bad_requests() {
        let stats = with_server(ServerConfig::default(), canned("body"), |addr| {
            let resp =
                client::request(addr, &sweep("fig6"), Duration::from_secs(5)).expect("sweep");
            assert_eq!(resp.status, Status::Ok);
            assert_eq!(resp.body, "body:fig6");
            let resp =
                client::request(addr, &sweep("missing"), Duration::from_secs(5)).expect("sweep");
            assert_eq!(resp.status, Status::BadRequest);
            // A malformed frame gets a structured bad-request, not a
            // dropped connection.
            let mut stream = TcpStream::connect(addr).expect("connect");
            write_frame(&mut stream, format!("{PROTOCOL} explode\n").as_bytes()).unwrap();
            let resp = Response::parse(&read_frame(&mut stream).unwrap()).unwrap();
            assert_eq!(resp.status, Status::BadRequest);
        });
        assert_eq!(stats.requests, 2);
        assert_eq!((stats.shed, stats.coalesced), (0, 0));
    }

    #[test]
    fn draining_rejects_new_sweeps_with_shutting_down() {
        with_server(ServerConfig::default(), canned("body"), |addr| {
            let resp = client::request(addr, &Request::Shutdown, Duration::from_secs(5))
                .expect("shutdown");
            assert_eq!(resp.status, Status::Ok);
            // The drain window is open until in-flight hits zero; a
            // sweep racing it must get ShuttingDown, never a hang.
            // (The server may also have exited already, in which case
            // the connect fails — both are a clean rejection.)
            if let Ok(resp) = client::request(addr, &sweep("fig6"), Duration::from_secs(5)) {
                assert_eq!(resp.status, Status::ShuttingDown);
            }
        });
    }

    #[test]
    fn admission_control_sheds_load_with_a_structured_response() {
        // A handler that blocks until released, so the in-flight
        // budget is provably spent when the shed probe arrives.
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let handler_gate = Arc::clone(&gate);
        let config = ServerConfig {
            max_inflight: 1,
            ..ServerConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", config).expect("bind");
        let addr = server.local_addr().expect("addr");
        std::thread::scope(|scope| {
            let server = &server;
            let handler = move |_req: &SweepRequest| {
                let (lock_, cvar) = &*handler_gate;
                let mut open = lock_.lock().unwrap();
                while !*open {
                    open = cvar.wait(open).unwrap();
                }
                SweepOutcome::Ok("slow".into())
            };
            let run = scope.spawn(move || server.run(handler).expect("run"));
            assert!(client::wait_ready(addr, Duration::from_secs(5)));
            // First sweep occupies the only slot...
            let first = scope.spawn(move || {
                client::request(addr, &sweep("fig6"), Duration::from_secs(10)).expect("first")
            });
            // ...wait until it is actually admitted...
            let t0 = std::time::Instant::now();
            while server.snapshot().requests == 0 {
                assert!(t0.elapsed() < Duration::from_secs(5), "admission stuck");
                std::thread::sleep(Duration::from_millis(5));
            }
            // ...so the second is shed immediately.
            let shed = client::request(addr, &sweep("fig7"), Duration::from_secs(5)).expect("shed");
            assert_eq!(shed.status, Status::Overloaded);
            assert!(shed.body.contains("budget"));
            // Release the gate; the first completes normally.
            {
                let (lock_, cvar) = &*gate;
                *lock_.lock().unwrap() = true;
                cvar.notify_all();
            }
            assert_eq!(first.join().expect("join").status, Status::Ok);
            client::request(addr, &Request::Shutdown, Duration::from_secs(5)).expect("shutdown");
            let stats = run.join().expect("server");
            assert_eq!((stats.requests, stats.shed), (1, 1));
        });
    }

    #[test]
    fn concurrent_identical_requests_coalesce_to_one_computation() {
        let computations = Arc::new(AtomicUsize::new(0));
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let (h_comp, h_gate) = (Arc::clone(&computations), Arc::clone(&gate));
        let config = ServerConfig {
            max_inflight: 8,
            ..ServerConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", config).expect("bind");
        let addr = server.local_addr().expect("addr");
        std::thread::scope(|scope| {
            let server = &server;
            let handler = move |req: &SweepRequest| {
                h_comp.fetch_add(1, Ordering::SeqCst);
                let (lock_, cvar) = &*h_gate;
                let mut open = lock_.lock().unwrap();
                while !*open {
                    open = cvar.wait(open).unwrap();
                }
                SweepOutcome::Ok(format!("computed:{}", req.section))
            };
            let run = scope.spawn(move || server.run(handler).expect("run"));
            assert!(client::wait_ready(addr, Duration::from_secs(5)));
            let clients: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(move || {
                        client::request(addr, &sweep("fig6"), Duration::from_secs(10))
                            .expect("sweep")
                    })
                })
                .collect();
            // Wait until the leader is computing and the rest are
            // parked on its cell.
            let t0 = std::time::Instant::now();
            while server.snapshot().coalesced < 3 {
                assert!(t0.elapsed() < Duration::from_secs(5), "coalescing stuck");
                std::thread::sleep(Duration::from_millis(5));
            }
            {
                let (lock_, cvar) = &*gate;
                *lock_.lock().unwrap() = true;
                cvar.notify_all();
            }
            let bodies: Vec<String> = clients
                .into_iter()
                .map(|c| {
                    let resp = c.join().expect("client");
                    assert_eq!(resp.status, Status::Ok);
                    resp.body
                })
                .collect();
            assert!(bodies.iter().all(|b| b == "computed:fig6"));
            client::request(addr, &Request::Shutdown, Duration::from_secs(5)).expect("shutdown");
            let stats = run.join().expect("server");
            assert_eq!(
                computations.load(Ordering::SeqCst),
                1,
                "one computation for four identical requests"
            );
            assert_eq!((stats.requests, stats.coalesced), (4, 3));
        });
    }

    #[test]
    fn injected_serve_faults_are_survivable_via_client_retry() {
        // serve.accept drops the first two connections, which are
        // `with_server`'s readiness pings; the client retries past them
        // and the sweep answers byte-identically. The drops count on
        // this thread's plan, which the acceptor joined.
        let _plan = faults::PlanScope::enter(faults::FaultPlan::seeded(3).arm_capped(
            faults::Site::ServeAccept,
            1.0,
            2,
        ));
        let mut answers = Vec::new();
        let stats = with_server(ServerConfig::default(), canned("body"), |addr| {
            answers.push(
                client::request_with_retry(addr, &sweep("fig6"), Duration::from_secs(5), 5)
                    .ok()
                    .map(|resp| (resp.status, resp.body)),
            );
        });
        assert_eq!(answers, [Some((Status::Ok, "body:fig6".to_string()))]);
        assert!(stats.requests >= 1);
        assert_eq!(faults::hits(), vec![(faults::Site::ServeAccept, 2)]);
    }

    #[test]
    fn back_to_back_pings_are_answered_without_an_accept_tick() {
        let mut elapsed = Duration::ZERO;
        with_server(ServerConfig::default(), canned("body"), |addr| {
            let t0 = std::time::Instant::now();
            for _ in 0..50 {
                let resp =
                    client::request(addr, &Request::Ping, Duration::from_secs(5)).expect("ping");
                assert_eq!((resp.status, resp.body.as_str()), (Status::Ok, "pong"));
            }
            elapsed = t0.elapsed();
        });
        // Asserted after the drain: a panic inside `with_server` would
        // leave the server thread running and the test hung. A 20 ms
        // accept-poll tick would put this near one second.
        assert!(
            elapsed < Duration::from_millis(500),
            "50 pings took {elapsed:?}"
        );
    }

    #[test]
    fn idle_server_on_an_unspecified_address_drains_through_the_handle() {
        let server = Arc::new(Server::bind("0.0.0.0:0", ServerConfig::default()).expect("bind"));
        let port = server.local_addr().expect("addr").port();
        let addr = SocketAddr::from((Ipv4Addr::LOCALHOST, port));
        let runner = Arc::clone(&server);
        // A plain thread, so a drain that never wakes fails the test
        // below instead of hanging it in a scope join.
        let run = std::thread::spawn(move || runner.run(canned("body")).expect("run"));
        assert!(client::wait_ready(addr, Duration::from_secs(5)));
        server.shutdown_handle().store(true, Ordering::Release);
        let t0 = std::time::Instant::now();
        while !run.is_finished() {
            assert!(
                t0.elapsed() < Duration::from_secs(5),
                "the loopback connect never woke the acceptor"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(run.join().expect("server thread"), StatsSnapshot::default());
    }

    #[test]
    fn arrivals_during_a_drain_are_answered_shutting_down() {
        // A handler that blocks until released keeps one sweep in
        // flight, so the drain provably stays open.
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let handler_gate = Arc::clone(&gate);
        let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
        let addr = server.local_addr().expect("addr");
        std::thread::scope(|scope| {
            let server = &server;
            let handler = move |_req: &SweepRequest| {
                let (lock_, cvar) = &*handler_gate;
                let mut open = lock_.lock().unwrap();
                while !*open {
                    open = cvar.wait(open).unwrap();
                }
                SweepOutcome::Ok("slow".into())
            };
            let run = scope.spawn(move || server.run(handler).expect("run"));
            assert!(client::wait_ready(addr, Duration::from_secs(5)));
            let first = scope.spawn(move || {
                client::request(addr, &sweep("fig6"), Duration::from_secs(10)).expect("first")
            });
            let t0 = std::time::Instant::now();
            while server.snapshot().requests == 0 {
                assert!(t0.elapsed() < Duration::from_secs(5), "admission stuck");
                std::thread::sleep(Duration::from_millis(5));
            }
            let drain = client::request(addr, &Request::Shutdown, Duration::from_secs(5));
            let late = client::request(addr, &sweep("fig7"), Duration::from_secs(5));
            // Released before asserting, so a failure below still lets
            // the drain finish instead of hanging the scope join.
            {
                let (lock_, cvar) = &*gate;
                *lock_.lock().unwrap() = true;
                cvar.notify_all();
            }
            let drain = drain.expect("shutdown");
            assert_eq!(
                (drain.status, drain.body.as_str()),
                (Status::Ok, "draining")
            );
            // The drain was open: the arrival was accepted and
            // answered, not dropped.
            let late = late.expect("an arrival during the drain gets a response");
            assert_eq!(late.status, Status::ShuttingDown);
            assert_eq!(first.join().expect("join").status, Status::Ok);
            let stats = run.join().expect("server");
            assert_eq!((stats.requests, stats.shed), (1, 0));
        });
    }

    #[test]
    fn sequential_identical_sweeps_run_the_handler_once() {
        let calls = AtomicUsize::new(0);
        let mut answers = Vec::new();
        let stats = with_server(ServerConfig::default(), counted(&calls), |addr| {
            for section in ["fig6", "fig6", "fig7", "fig6", "fig7"] {
                answers.push(answer(addr, &sweep(section)));
            }
        });
        let ok = |section: &str| Some((Status::Ok, format!("body:{section}")));
        assert_eq!(
            answers,
            [ok("fig6"), ok("fig6"), ok("fig7"), ok("fig6"), ok("fig7")]
        );
        assert_eq!(calls.load(Ordering::SeqCst), 2, "one call per section");
        assert_eq!((stats.requests, stats.coalesced), (5, 3));
    }

    #[test]
    fn failed_and_cancelled_sweeps_run_again_on_the_next_request() {
        // fig6 fails and fig7 is cancelled on their first call; every
        // later call answers ok.
        let calls: Mutex<HashMap<String, usize>> = Mutex::default();
        let handler = |req: &SweepRequest| {
            let mut calls = lock(&calls);
            let n = calls.entry(req.section.clone()).or_default();
            *n += 1;
            match (req.section.as_str(), *n) {
                ("fig6", 1) => SweepOutcome::Failed("injected fault".into()),
                ("fig7", 1) => SweepOutcome::Cancelled("deadline exceeded".into()),
                _ => SweepOutcome::Ok(format!("body:{}", req.section)),
            }
        };
        let mut statuses = Vec::new();
        let stats = with_server(ServerConfig::default(), handler, |addr| {
            for section in ["fig6", "fig6", "fig6", "fig7", "fig7", "fig7"] {
                statuses.push(answer(addr, &sweep(section)).map(|(status, _)| status));
            }
        });
        let [failed, cancelled, ok] = [Status::Failed, Status::Cancelled, Status::Ok].map(Some);
        assert_eq!(statuses, [failed, ok, ok, cancelled, ok, ok]);
        let calls = calls.into_inner().unwrap();
        assert_eq!((calls["fig6"], calls["fig7"]), (2, 2));
        let expected = StatsSnapshot {
            requests: 6,
            coalesced: 2,
            shed: 0,
            cancelled: 1,
            failed: 1,
        };
        assert_eq!(stats, expected);
    }

    #[test]
    fn requests_differing_only_in_jobs_or_deadline_share_one_computation() {
        let calls = AtomicUsize::new(0);
        let mut answers = Vec::new();
        let stats = with_server(ServerConfig::default(), counted(&calls), |addr| {
            for (jobs, deadline_ms) in [(Some(1), None), (Some(4), None), (None, Some(60_000))] {
                let req = SweepRequest {
                    jobs,
                    deadline_ms,
                    ..sweep_request("fig6")
                };
                answers.push(answer(addr, &Request::Sweep(req)));
            }
        });
        let ok = Some((Status::Ok, "body:fig6".to_string()));
        assert_eq!(answers, [ok.clone(), ok.clone(), ok]);
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        assert_eq!((stats.requests, stats.coalesced), (3, 2));
    }

    #[test]
    fn unknown_sections_are_never_kept() {
        let calls = AtomicUsize::new(0);
        let mut statuses = Vec::new();
        // N distinct unknown names, each sent twice.
        let n = 5;
        let stats = with_server(ServerConfig::default(), counted(&calls), |addr| {
            for _ in 0..2 {
                for i in 0..n {
                    let section = format!("missing-{i}");
                    statuses.push(answer(addr, &sweep(&section)).map(|(status, _)| status));
                }
            }
        });
        assert_eq!(statuses, vec![Some(Status::BadRequest); 2 * n]);
        assert_eq!(
            calls.load(Ordering::SeqCst),
            2 * n,
            "every bad request runs the handler"
        );
        assert_eq!((stats.requests, stats.coalesced), (2 * n as u64, 0));
    }
}
