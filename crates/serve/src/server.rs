//! The sweep server: accept loop, admission control, coalescing and
//! graceful drain. Generic over the sweep handler so the transport
//! layer never depends on the experiment crates.

use std::collections::HashMap;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::Scope;
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

/// Sweep requests admitted concurrently; arrivals beyond this are
/// load-shed with [`Status::Overloaded`].
const MAX_INFLIGHT: usize = 4;

/// Per-connection read and write timeout: a peer that never sends a
/// frame, or never reads its response, cannot pin a thread.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// Threads kept waiting in `accept`. A thread that takes a connection
/// while no other thread waits starts one more first, and a thread that
/// finishes a connection while this many others wait ends. So a
/// closed-loop client starts no thread per request, and N concurrent or
/// silent connections still get N threads. With one, every request
/// would start a thread again.
const WAITING_ACCEPTORS: usize = 2;

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

/// What the accepting threads of one [`Server::run`] share.
struct Shared<H> {
    handler: H,
    /// Admitted sweeps currently running — the drain gate.
    inflight: AtomicUsize,
    /// Leader cells of in-flight sweeps and kept `Ok` outcomes, by
    /// coalescing key.
    coalesce: Mutex<HashMap<String, CoalesceCell>>,
    /// Set by the drain gate: a thread whose `accept` returns after it
    /// ends without serving that connection.
    stop: AtomicBool,
    /// Threads blocked in `accept`, or on their way there.
    waiting: AtomicUsize,
    /// The last connection id handed out.
    last_id: AtomicU64,
    /// The caller's fault plan, which every accepting thread joins.
    plan: Option<Arc<faults::ArmedPlan>>,
}

impl<H> Shared<H> {
    /// Counts one more thread as waiting in `accept`, unless
    /// [`WAITING_ACCEPTORS`] already wait or the drain has begun. The
    /// count is raised before `stop` is read, so the count the drain
    /// gate reads after setting `stop` covers every thread that will
    /// still block in `accept`.
    fn enlist(&self) -> bool {
        if self
            .waiting
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < WAITING_ACCEPTORS).then_some(n + 1)
            })
            .is_err()
        {
            return false;
        }
        if self.stop.load(Ordering::SeqCst) {
            self.waiting.fetch_sub(1, Ordering::SeqCst);
            return false;
        }
        true
    }
}

/// The sweep server. [`Server::run`] blocks until a drain completes;
/// see the crate docs for the robustness layers.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    shutdown: Arc<AtomicBool>,
    stats: Stats,
    /// Accepting threads started over the server's lifetime; read only
    /// by the tests.
    acceptors: AtomicUsize,
}

impl Server {
    /// Binds the listener. The server does not accept until
    /// [`run`](Server::run).
    ///
    /// # Errors
    ///
    /// Propagates bind errors.
    pub fn bind(addr: impl ToSocketAddrs) -> std::io::Result<Server> {
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            shutdown: Arc::new(AtomicBool::new(false)),
            stats: Stats::default(),
            acceptors: AtomicUsize::new(0),
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
    /// Each scoped thread that blocks in `accept` serves the connection
    /// it takes and then blocks in `accept` again, so a closed-loop
    /// client pays no thread spawn, join or cross-thread wake-up per
    /// request. Two threads wait in `accept`: one more starts whenever a
    /// thread takes a connection while no other waits, and a thread that
    /// finishes a connection while two others wait ends. Every accepting thread joins the calling thread's fault
    /// plan ([`faults::current`]) when it starts. The calling thread is
    /// the drain gate: every tick it turns a delivered shutdown signal
    /// ([`crate::signal_shutdown_flag`]) into a shutdown request, and
    /// once a shutdown is requested and no sweep is in flight, it stops
    /// the accepting threads and wakes each one still in `accept` with
    /// a connect to the listener's own port.
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
        let shared = Shared {
            handler,
            inflight: AtomicUsize::new(0),
            coalesce: Mutex::new(HashMap::new()),
            stop: AtomicBool::new(false),
            waiting: AtomicUsize::new(0),
            last_id: AtomicU64::new(0),
            plan: faults::current(),
        };
        std::thread::scope(|scope| {
            for _ in 0..WAITING_ACCEPTORS {
                self.spawn_acceptor(scope, &shared);
            }
            while !(self.shutdown.load(Ordering::Acquire)
                && shared.inflight.load(Ordering::Acquire) == 0)
            {
                // A SIGINT/SIGTERM drains like a `shutdown` request:
                // from here on admission answers `shutting-down`.
                if crate::signal_shutdown_flag() {
                    self.shutdown.store(true, Ordering::Release);
                }
                std::thread::sleep(DRAIN_POLL);
            }
            shared.stop.store(true, Ordering::SeqCst);
            // One connect per thread still counted in `accept`; each
            // ends the thread that takes it. A connect that fails (say,
            // under fd exhaustion) is retried until it lands or no
            // thread is left waiting.
            for _ in 0..shared.waiting.load(Ordering::SeqCst) {
                while TcpStream::connect(wake).is_err() && shared.waiting.load(Ordering::SeqCst) > 0
                {
                    std::thread::sleep(DRAIN_POLL);
                }
            }
        });
        Ok(self.snapshot())
    }

    /// Starts one more accepting thread, counted as waiting before it
    /// starts, unless [`Shared::enlist`] refuses.
    fn spawn_acceptor<'scope, 'env, H>(
        &'env self,
        scope: &'scope Scope<'scope, 'env>,
        shared: &'env Shared<H>,
    ) where
        H: Fn(&SweepRequest) -> SweepOutcome + Sync,
    {
        if !shared.enlist() {
            return;
        }
        let spawned = std::thread::Builder::new()
            .spawn_scoped(scope, move || self.accept_loop(scope, shared));
        if spawned.is_err() {
            // No thread started, so none waits in its place.
            shared.waiting.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// One accepting thread: blocks in `accept`, serves the connection
    /// it takes, and blocks in `accept` again until the drain stops it
    /// or [`WAITING_ACCEPTORS`] others wait.
    fn accept_loop<'scope, 'env, H>(
        &'env self,
        scope: &'scope Scope<'scope, 'env>,
        shared: &'env Shared<H>,
    ) where
        H: Fn(&SweepRequest) -> SweepOutcome + Sync,
    {
        self.acceptors.fetch_add(1, Ordering::Relaxed);
        let _plan = shared.plan.clone().map(faults::PlanScope::join);
        loop {
            let accepted = self.listener.accept();
            let others = shared.waiting.fetch_sub(1, Ordering::SeqCst) - 1;
            if shared.stop.load(Ordering::SeqCst) {
                return;
            }
            let connection = match accepted {
                Ok((mut stream, _peer)) => {
                    if others == 0 {
                        self.spawn_acceptor(scope, shared);
                    }
                    let id = shared.last_id.fetch_add(1, Ordering::Relaxed) + 1;
                    // Injected accept-path fault: the connection is
                    // dropped before its request is read — the client
                    // sees EOF and retries.
                    if !faults::injected(faults::Site::ServeAccept, &[id]) {
                        self.serve_connection(&mut stream, id, shared);
                    }
                    Some(stream)
                }
                // Transient accept failure (EMFILE, aborted handshake):
                // back off and keep serving.
                Err(_) => {
                    std::thread::sleep(ACCEPT_BACKOFF);
                    None
                }
            };
            // Counted again before the connection closes, so a client
            // that waits for the close before its next connect always
            // finds this thread counted.
            let rejoined = shared.enlist();
            drop(connection);
            if !rejoined {
                return;
            }
        }
    }

    /// Where the drain gate connects to wake the accepting threads: the
    /// bound address, with an unspecified IP (`0.0.0.0`, `::`) replaced
    /// by the loopback address of the same family.
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
    /// response frame; the caller closes it. All transport failures end
    /// the connection; the client's retry layer owns recovery.
    fn serve_connection<H>(&self, stream: &mut TcpStream, id: u64, shared: &Shared<H>)
    where
        H: Fn(&SweepRequest) -> SweepOutcome + Sync,
    {
        let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
        let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
        // Injected read-path fault: answer with a structured failure
        // naming the site, so the client sees an attributable error
        // rather than a hang.
        if faults::injected(faults::Site::ServeRead, &[id]) {
            let resp = Response::new(Status::Failed, "injected fault: serve.read");
            self.write_response(stream, id, &resp);
            return;
        }
        let frame = match read_frame(stream) {
            Ok(frame) => frame,
            Err(_) => return, // client gone or stalled past the timeout
        };
        let request = match Request::parse(&frame) {
            Ok(request) => request,
            Err(msg) => {
                self.write_response(stream, id, &Response::new(Status::BadRequest, msg));
                return;
            }
        };
        let response = match request {
            Request::Ping => Response::new(Status::Ok, "pong"),
            Request::Shutdown => {
                self.shutdown.store(true, Ordering::Release);
                Response::new(Status::Ok, "draining")
            }
            Request::Sweep(req) => self.run_sweep(&req, shared),
        };
        // Injected post-sweep drop: the work happened (and fed the
        // coalescing cell / trace store) but the response is lost.
        if faults::injected(faults::Site::ServeDrop, &[id]) {
            return;
        }
        self.write_response(stream, id, &response);
    }

    /// Admission control + coalescing around one sweep.
    fn run_sweep<H>(&self, req: &SweepRequest, shared: &Shared<H>) -> Response
    where
        H: Fn(&SweepRequest) -> SweepOutcome + Sync,
    {
        if self.shutdown.load(Ordering::Acquire) {
            return Response::new(Status::ShuttingDown, "server is draining; no new sweeps");
        }
        // Load-shed at admission: never accept-then-hang.
        if shared
            .inflight
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                (n < MAX_INFLIGHT).then_some(n + 1)
            })
            .is_err()
        {
            self.stats.shed.fetch_add(1, Ordering::Relaxed);
            return Response::new(
                Status::Overloaded,
                format!("in-flight budget of {MAX_INFLIGHT} sweeps is spent; retry later"),
            );
        }
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        let outcome = self.coalesced_sweep(req, shared);
        shared.inflight.fetch_sub(1, Ordering::AcqRel);
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
    fn coalesced_sweep<H>(&self, req: &SweepRequest, shared: &Shared<H>) -> SweepOutcome
    where
        H: Fn(&SweepRequest) -> SweepOutcome + Sync,
    {
        let key = req.coalesce_key();
        let (cell, leader) = {
            let mut map = lock(&shared.coalesce);
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
            let outcome = (shared.handler)(req);
            if !matches!(outcome, SweepOutcome::Ok(_)) {
                lock(&shared.coalesce).remove(&key);
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

    /// [`answer`] from a client that reads on until the server closes
    /// the connection, as a client that waits for the close before its
    /// next request does.
    fn answer_to_close(addr: SocketAddr, req: &Request) -> Option<(Status, String)> {
        let mut stream = TcpStream::connect(addr).ok()?;
        stream.set_read_timeout(Some(Duration::from_secs(5))).ok()?;
        write_frame(&mut stream, &req.encode()).ok()?;
        let resp = Response::parse(&read_frame(&mut stream).ok()?).ok()?;
        let mut rest = Vec::new();
        std::io::Read::read_to_end(&mut stream, &mut rest).ok()?;
        rest.is_empty().then_some((resp.status, resp.body))
    }

    /// Binds a server on an ephemeral port and [`serve`]s `body` with
    /// it.
    fn with_server<H, F>(handler: H, body: F) -> StatsSnapshot
    where
        H: Fn(&SweepRequest) -> SweepOutcome + Sync + Send,
        F: FnOnce(SocketAddr),
    {
        serve(&Server::bind("127.0.0.1:0").expect("bind"), handler, body)
    }

    /// Runs `server` with `handler` on a scoped thread under the
    /// caller's fault plan, runs `body` against its address, then
    /// drains. The listener is bound before `run` starts, so `body`'s
    /// first connection waits in the backlog rather than failing, and
    /// no readiness ping consumes the plan's faults.
    fn serve<H, F>(server: &Server, handler: H, body: F) -> StatsSnapshot
    where
        H: Fn(&SweepRequest) -> SweepOutcome + Sync + Send,
        F: FnOnce(SocketAddr),
    {
        let addr = server.local_addr().expect("addr");
        let mut snapshot = StatsSnapshot::default();
        let plan = faults::current();
        std::thread::scope(|scope| {
            let run = scope.spawn(move || {
                let _plan = plan.map(faults::PlanScope::join);
                server.run(handler).expect("run")
            });
            body(addr);
            // Drained through the handle, not a request: the body may
            // have drained the server already, and the caller's fault
            // plan may drop a shutdown request.
            server.shutdown_handle().store(true, Ordering::Release);
            snapshot = run.join().expect("server thread");
        });
        snapshot
    }

    #[test]
    fn serves_sweeps_pings_and_bad_requests() {
        let stats = with_server(canned("body"), |addr| {
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
        with_server(canned("body"), |addr| {
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
        let server = Server::bind("127.0.0.1:0").expect("bind");
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
            // Four sweeps occupy every slot...
            let first = ["fig6", "fig7", "fig8", "fig9"].map(|section| {
                scope.spawn(move || {
                    client::request(addr, &sweep(section), Duration::from_secs(10))
                        .expect("admitted")
                })
            });
            // ...wait until they are actually admitted...
            let t0 = std::time::Instant::now();
            while server.snapshot().requests < MAX_INFLIGHT as u64 {
                assert!(t0.elapsed() < Duration::from_secs(5), "admission stuck");
                std::thread::sleep(Duration::from_millis(5));
            }
            // ...so the fifth is shed immediately.
            let shed = client::request(addr, &sweep("table2"), Duration::from_secs(5));
            // Released before asserting, so a failure below still lets
            // the drain finish instead of hanging the scope join.
            {
                let (lock_, cvar) = &*gate;
                *lock_.lock().unwrap() = true;
                cvar.notify_all();
            }
            let shed = shed.expect("shed");
            assert_eq!(shed.status, Status::Overloaded);
            assert!(shed.body.contains("budget of 4 sweeps"), "{}", shed.body);
            for first in first {
                assert_eq!(first.join().expect("join").status, Status::Ok);
            }
            client::request(addr, &Request::Shutdown, Duration::from_secs(5)).expect("shutdown");
            let stats = run.join().expect("server");
            assert_eq!((stats.requests, stats.shed), (4, 1));
        });
    }

    #[test]
    fn concurrent_identical_requests_coalesce_to_one_computation() {
        let computations = Arc::new(AtomicUsize::new(0));
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let (h_comp, h_gate) = (Arc::clone(&computations), Arc::clone(&gate));
        let server = Server::bind("127.0.0.1:0").expect("bind");
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
            // As many identical requests as the in-flight budget admits.
            let clients: Vec<_> = (0..MAX_INFLIGHT)
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
        // serve.accept drops the sweep request's first two connections;
        // the client's third attempt gets through and the sweep answers
        // byte-identically. The drops count on this thread's plan,
        // which the accepting threads joined.
        let _plan = faults::PlanScope::enter(faults::FaultPlan::seeded(3).arm_capped(
            faults::Site::ServeAccept,
            1.0,
            2,
        ));
        let mut answers = Vec::new();
        let stats = with_server(canned("body"), |addr| {
            answers.push(
                client::request_with_retry(addr, &sweep("fig6"), Duration::from_secs(5), 5)
                    .ok()
                    .map(|resp| (resp.status, resp.body)),
            );
        });
        assert_eq!(answers, [Some((Status::Ok, "body:fig6".to_string()))]);
        assert_eq!(stats.requests, 1);
        assert_eq!(faults::hits(), vec![(faults::Site::ServeAccept, 2)]);
    }

    #[test]
    fn back_to_back_pings_are_answered_without_an_accept_tick() {
        let mut elapsed = Duration::ZERO;
        with_server(canned("body"), |addr| {
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
    fn a_silent_connection_does_not_stall_other_clients() {
        let mut pinged = None;
        with_server(canned("body"), |addr| {
            // Each holds a thread in its read until the 10 s timeout.
            let silent: Vec<TcpStream> = (0..3)
                .map(|_| TcpStream::connect(addr).expect("connect"))
                .collect();
            let t0 = std::time::Instant::now();
            let pong = answer(addr, &Request::Ping);
            pinged = Some((pong, t0.elapsed()));
            // Closed before the drain, so it does not wait out their
            // read timeouts.
            drop(silent);
        });
        let (pong, elapsed) = pinged.expect("the body ran");
        assert_eq!(pong, Some((Status::Ok, "pong".to_string())));
        assert!(
            elapsed < Duration::from_secs(2),
            "a ping behind three silent connections took {elapsed:?}"
        );
    }

    #[test]
    fn sequential_requests_start_no_thread_per_request() {
        // The client waits for each close, and a thread is counted in
        // `accept` again before it closes, so no request can find the
        // thread that served the previous one still uncounted.
        let server = Server::bind("127.0.0.1:0").expect("bind");
        let mut answers = Vec::new();
        let stats = serve(&server, canned("body"), |addr| {
            for _ in 0..100 {
                answers.push(answer_to_close(addr, &Request::Ping));
            }
            for _ in 0..100 {
                answers.push(answer_to_close(addr, &sweep("fig6")));
            }
        });
        let started = server.acceptors.load(Ordering::Relaxed);
        let pong = Some((Status::Ok, "pong".to_string()));
        let kept = Some((Status::Ok, "body:fig6".to_string()));
        assert_eq!(answers[..100], vec![pong; 100]);
        assert_eq!(answers[100..], vec![kept; 100]);
        assert_eq!((stats.requests, stats.coalesced), (100, 99));
        assert!(
            started <= 3,
            "{started} accepting threads for 200 sequential requests"
        );
    }

    #[test]
    fn idle_server_on_an_unspecified_address_drains_through_the_handle() {
        let server = Arc::new(Server::bind("0.0.0.0:0").expect("bind"));
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
                "the loopback connects never woke the accepting threads"
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
        let server = Server::bind("127.0.0.1:0").expect("bind");
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
        let stats = with_server(counted(&calls), |addr| {
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
        let stats = with_server(handler, |addr| {
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
        let stats = with_server(counted(&calls), |addr| {
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
        let stats = with_server(counted(&calls), |addr| {
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
