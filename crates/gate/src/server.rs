//! The socket front door: request deadlines, connection caps and graceful
//! drain around a small fixed pool of reactor threads.
//!
//! The gate is the event-driven front end the paper models: each reactor
//! thread runs a nonblocking readiness loop over many multiplexed
//! connections (see [`crate::reactor`] and DESIGN §12). Connection
//! capacity is bounded by memory, not threads, and GET routes dispatch
//! inline on the reactor thread through the lock-free snapshot path
//! ([`cos_serve::SnapshotReader`]).
//!
//! Policies: excess accepts beyond [`GateConfig::max_connections`] are
//! answered `503` and closed, a per-request deadline runs from the first
//! byte of a request head to its response (`408` past it), and writes
//! (telemetry) go through the service's FIFO channel with a flush barrier
//! before the reply.
//!
//! Graceful shutdown: [`Gate::shutdown`] flips a flag and fires each
//! reactor's pipe-based waker; the reactors stop taking connections,
//! responses in flight finish writing (keep-alive answers are demoted to
//! `Connection: close`), idle keep-alive connections close, and each
//! reactor exits once its last connection is gone. The waiter joins them.

use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use cos_ctrl::Controller;
use cos_obs::Registry;
use cos_par::poller::{SyscallCounters, SyscallSnapshot, Waker};
use cos_serve::ServiceClient;

use crate::http::{ParserLimits, Response};
use crate::obs::GateObs;
use crate::reactor;

/// Front-door knobs.
#[derive(Debug, Clone)]
pub struct GateConfig {
    /// Maximum concurrent connections; excess accepts get an immediate
    /// `503` and a close.
    pub max_connections: usize,
    /// Socket write timeout.
    pub write_timeout: Duration,
    /// Deadline from the first byte of a request head to its response; a
    /// slow-trickling request is answered `408` and the connection closed.
    pub request_deadline: Duration,
    /// Parser byte budgets.
    pub limits: ParserLimits,
    /// Instrument registry the gate records into. Share one registry with
    /// [`cos_serve::ServeConfig::obs`] to get gate and service metrics in
    /// a single `GET /metrics` document.
    pub obs: Registry,
    /// Admission controller consulted before routing every request
    /// (`None`, the default, admits everything — behavior is byte-identical
    /// to a gate built before admission control existed). Share the same
    /// `Arc` with a [`cos_ctrl::Ticker`] so the policy keeps adjusting.
    pub controller: Option<Arc<Controller>>,
    /// Reactor thread count; `0` (the default) means
    /// [`cos_par::default_workers`] — the machine's available
    /// parallelism.
    pub reactor_threads: usize,
}

impl Default for GateConfig {
    fn default() -> Self {
        GateConfig {
            max_connections: 64,
            write_timeout: Duration::from_secs(5),
            request_deadline: Duration::from_secs(10),
            limits: ParserLimits::default(),
            obs: Registry::new(),
            controller: None,
            reactor_threads: 0,
        }
    }
}

impl GateConfig {
    /// Starts a validating builder seeded with the defaults.
    pub fn builder() -> GateConfigBuilder {
        GateConfigBuilder {
            config: GateConfig::default(),
        }
    }
}

/// A [`GateConfig`] value the builder refused to produce, with the field
/// and the reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidConfig {
    /// The offending field, as named on [`GateConfig`].
    pub field: &'static str,
    /// Why the value is nonsensical.
    pub reason: String,
}

impl std::fmt::Display for InvalidConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid GateConfig.{}: {}", self.field, self.reason)
    }
}

impl std::error::Error for InvalidConfig {}

/// Builder for [`GateConfig`] that rejects nonsensical values at
/// [`build`](GateConfigBuilder::build) time instead of letting them
/// wedge the reactors (a zero request deadline would answer every request
/// `408`; zero parser budgets would reject every request before its first
/// byte).
#[derive(Debug, Clone)]
pub struct GateConfigBuilder {
    config: GateConfig,
}

impl GateConfigBuilder {
    /// Maximum concurrent connections (must be ≥ 1).
    pub fn max_connections(mut self, n: usize) -> Self {
        self.config.max_connections = n;
        self
    }

    /// Socket write timeout (must be non-zero).
    pub fn write_timeout(mut self, d: Duration) -> Self {
        self.config.write_timeout = d;
        self
    }

    /// Per-request deadline (must be non-zero).
    pub fn request_deadline(mut self, d: Duration) -> Self {
        self.config.request_deadline = d;
        self
    }

    /// Parser byte budgets (head budget must fit a minimal request line).
    pub fn limits(mut self, limits: ParserLimits) -> Self {
        self.config.limits = limits;
        self
    }

    /// Instrument registry the gate records into.
    pub fn obs(mut self, registry: Registry) -> Self {
        self.config.obs = registry;
        self
    }

    /// Admission controller consulted before routing (none by default).
    pub fn controller(mut self, ctrl: Arc<Controller>) -> Self {
        self.config.controller = Some(ctrl);
        self
    }

    /// Reactor thread count (`0` = available parallelism).
    pub fn reactor_threads(mut self, n: usize) -> Self {
        self.config.reactor_threads = n;
        self
    }

    /// Validates and produces the config.
    pub fn build(self) -> Result<GateConfig, InvalidConfig> {
        let err = |field: &'static str, reason: String| Err(InvalidConfig { field, reason });
        let c = &self.config;
        if c.max_connections == 0 {
            return err("max_connections", "must be at least 1".into());
        }
        if c.write_timeout.is_zero() {
            return err("write_timeout", "must be non-zero".into());
        }
        if c.request_deadline.is_zero() {
            return err("request_deadline", "must be non-zero".into());
        }
        // "GET / HTTP/1.1\r\n\r\n" is 18 bytes — the smallest routable head.
        if c.limits.max_head_bytes < 18 {
            return err(
                "limits.max_head_bytes",
                format!("{} cannot fit any request line", c.limits.max_head_bytes),
            );
        }
        Ok(self.config)
    }
}

/// Live-connection accounting shared by every reactor's accept path and
/// connection owners.
pub(crate) struct Shared {
    pub(crate) shutdown: AtomicBool,
    active: Mutex<usize>,
}

impl Shared {
    /// Atomically admits one connection unless `max` are already live.
    /// The check and the increment share the mutex, so two reactor
    /// threads racing on the same freed slot cannot both take it.
    pub(crate) fn try_admit(&self, max: usize) -> bool {
        let mut active = self.active.lock().expect("active lock");
        if *active >= max {
            return false;
        }
        *active += 1;
        true
    }

    pub(crate) fn connection_finished(&self) {
        *self.active.lock().expect("active lock") -= 1;
    }
}

/// A running front door. Dropping it shuts down gracefully.
pub struct Gate {
    addr: SocketAddr,
    shared: Arc<Shared>,
    reactor_joins: Vec<JoinHandle<()>>,
    reactor_wakers: Vec<Waker>,
    /// Each reactor's syscall counters.
    reactor_counters: Vec<Arc<SyscallCounters>>,
    /// Whether accepts are sharded across per-reactor `SO_REUSEPORT`
    /// listeners (vs every reactor racing on one shared listener).
    accept_sharded: bool,
}

/// `config.reactor_threads` with `0` resolved to the machine default.
fn resolved_reactor_threads(config: &GateConfig) -> usize {
    match config.reactor_threads {
        0 => cos_par::default_workers(),
        n => n,
    }
}

impl Gate {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and starts
    /// the reactors, serving `client`'s service.
    ///
    /// Accepts are sharded: this binds one listener per reactor thread in
    /// a `SO_REUSEPORT` group wherever that works (Linux, IPv4, ≥ 2
    /// reactors), so the kernel spreads connections across reactors. If
    /// the group cannot form — another platform, an IPv6 address, one
    /// reactor, or a failed group bind — it falls back to one shared
    /// listener; [`Gate::accept_sharded`] reports which path was taken.
    /// Admission accounting is global on both paths, so `max_connections`,
    /// the over-capacity `503` and the lingering-reject protocol behave
    /// identically.
    pub fn bind(addr: &str, client: ServiceClient, config: GateConfig) -> std::io::Result<Gate> {
        let threads = resolved_reactor_threads(&config);
        if threads > 1 {
            if let Ok(listeners) = reuseport::bind_group(addr, threads) {
                let listeners = listeners.into_iter().map(Arc::new).collect();
                return Gate::serve_reactors(listeners, true, client, config);
            }
        }
        let listener = TcpListener::bind(addr)?;
        Gate::serve(listener, client, config)
    }

    /// Starts serving on an already-bound listener. A single externally
    /// bound listener cannot join a `SO_REUSEPORT` group after the fact,
    /// so every reactor accepts from this one shared listener.
    pub fn serve(
        listener: TcpListener,
        client: ServiceClient,
        config: GateConfig,
    ) -> std::io::Result<Gate> {
        let threads = resolved_reactor_threads(&config);
        let listener = Arc::new(listener);
        let listeners = vec![listener; threads];
        Gate::serve_reactors(listeners, false, client, config)
    }

    /// Spawns one reactor per listener (distinct listeners when sharded,
    /// clones of one `Arc` when shared) over one global [`Shared`].
    fn serve_reactors(
        listeners: Vec<Arc<TcpListener>>,
        sharded: bool,
        client: ServiceClient,
        config: GateConfig,
    ) -> std::io::Result<Gate> {
        let addr = listeners[0].local_addr()?;
        for listener in &listeners {
            listener.set_nonblocking(true)?;
        }
        let shared = Arc::new(Shared {
            shutdown: AtomicBool::new(false),
            active: Mutex::new(0),
        });
        let obs = GateObs::register(&config.obs);
        let spawned = reactor::spawn(listeners, client, config, obs, shared.clone())?;
        Ok(Gate {
            addr,
            shared,
            reactor_joins: spawned.joins,
            reactor_wakers: spawned.wakers,
            reactor_counters: spawned.counters,
            accept_sharded: sharded,
        })
    }

    /// The bound address (the ephemeral port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether accepts are sharded across per-reactor `SO_REUSEPORT`
    /// listeners (always `false` for [`Gate::serve`] on an external
    /// listener).
    pub fn accept_sharded(&self) -> bool {
        self.accept_sharded
    }

    /// Total syscalls made by the reactor threads so far (waits, interest
    /// updates, reads, writes, accepts), aggregated across threads. Diff
    /// two snapshots with [`SyscallSnapshot::since`] to cost a traffic
    /// window. Monotonic, safe to call while serving.
    pub fn syscalls(&self) -> SyscallSnapshot {
        self.reactor_counters
            .iter()
            .map(|c| c.snapshot())
            .fold(SyscallSnapshot::default(), |acc, s| acc + s)
    }

    /// Stops accepting, drains in-flight responses, and joins every
    /// reactor thread before returning.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Wake every reactor out of its poll wait so it sees the flag.
        for waker in &self.reactor_wakers {
            waker.wake();
        }
        // A reactor exits only once its last connection has closed, so
        // joining them all is the drain; it also drops the last `Arc` of
        // each listener, freeing the port.
        for join in self.reactor_joins.drain(..) {
            let _ = join.join();
        }
        self.reactor_wakers.clear();
    }
}

impl Drop for Gate {
    fn drop(&mut self) {
        if !self.reactor_joins.is_empty() {
            self.shutdown_in_place();
        }
    }
}

/// Best-effort `503` for an accept beyond the connection cap, used when
/// the reactor's linger pool is itself saturated. The freshly accepted
/// socket is still blocking and its send buffer empty, so the write
/// completes without stalling the caller; the write timeout bounds the
/// pathological case.
pub(crate) fn reject_over_capacity(mut stream: TcpStream, config: &GateConfig) {
    let _ = stream.set_write_timeout(Some(config.write_timeout));
    let mut out = Vec::new();
    Response::error(503, "connection limit reached").write_to(&mut out, false);
    let _ = stream.write_all(&out);
    let _ = stream.shutdown(Shutdown::Both);
}

/// Raw-syscall construction of a `SO_REUSEPORT` listener group (the
/// workspace is std-only, and `std::net` exposes no socket options, so
/// the sockets are built against `extern "C"` prototypes of the libc the
/// binary already links — same convention as `cos_par::poller`). Linux
/// and IPv4 only; every caller must treat an `Err` as "shard elsewhere",
/// not a fatal bind failure.
#[cfg(target_os = "linux")]
mod reuseport {
    use std::ffi::{c_int, c_void};
    use std::io;
    use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
    use std::os::fd::{FromRawFd, OwnedFd};

    const AF_INET: c_int = 2;
    const SOCK_STREAM: c_int = 1;
    const SOCK_CLOEXEC: c_int = 0o2000000;
    const SOL_SOCKET: c_int = 1;
    const SO_REUSEADDR: c_int = 2;
    const SO_REUSEPORT: c_int = 15;
    /// Matches std's `TcpListener::bind` backlog.
    const BACKLOG: c_int = 128;

    /// `struct sockaddr_in`: family, then port and address in network
    /// byte order, padded to `sizeof(struct sockaddr)`.
    #[repr(C)]
    struct SockAddrIn {
        family: u16,
        port: u16,
        addr: u32,
        zero: [u8; 8],
    }

    extern "C" {
        fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
        fn setsockopt(
            fd: c_int,
            level: c_int,
            optname: c_int,
            optval: *const c_void,
            optlen: u32,
        ) -> c_int;
        fn bind(fd: c_int, addr: *const SockAddrIn, len: u32) -> c_int;
        fn listen(fd: c_int, backlog: c_int) -> c_int;
    }

    fn check(ret: c_int) -> io::Result<c_int> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    /// One listening socket with `SO_REUSEPORT` (and `SO_REUSEADDR`) set
    /// *before* bind — the kernel only admits a socket into a reuseport
    /// group if the flag is set at bind time.
    fn bind_one(ip: [u8; 4], port: u16) -> io::Result<TcpListener> {
        // SAFETY: `socket` takes three plain integers and touches no
        // memory of ours; a negative return is turned into an `Err` by
        // `check` before the value is used as a descriptor.
        let fd = check(unsafe { socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0) })?;
        // SAFETY: `fd` was just returned by a successful `socket` call, so
        // it is open and owned by nothing else; wrapping it at once means
        // every `?` below closes it exactly once.
        let owned = unsafe { OwnedFd::from_raw_fd(fd) };
        let one: c_int = 1;
        for opt in [SO_REUSEADDR, SO_REUSEPORT] {
            // SAFETY: `optval` points at `one`, a live `c_int` on this
            // stack frame, and `optlen` is exactly its size; the kernel
            // only reads it during the call.
            check(unsafe {
                setsockopt(
                    fd,
                    SOL_SOCKET,
                    opt,
                    (&one as *const c_int).cast(),
                    std::mem::size_of::<c_int>() as u32,
                )
            })?;
        }
        let sa = SockAddrIn {
            family: AF_INET as u16,
            port: port.to_be(),
            addr: u32::from_be_bytes(ip).to_be(),
            zero: [0; 8],
        };
        // SAFETY: `sa` is a fully initialized `#[repr(C)]` sockaddr_in
        // that outlives the call, and the length passed is its size; the
        // kernel only reads it.
        check(unsafe { bind(fd, &sa, std::mem::size_of::<SockAddrIn>() as u32) })?;
        // SAFETY: `listen` takes two plain integers and touches no memory
        // of ours; `fd` is still open because `owned` holds it.
        check(unsafe { listen(fd, BACKLOG) })?;
        Ok(TcpListener::from(owned))
    }

    /// Binds `count` listeners on the same address as one `SO_REUSEPORT`
    /// group. The first bind may take an ephemeral port (`:0`); the rest
    /// join it at the resolved port.
    pub(super) fn bind_group(addr: &str, count: usize) -> io::Result<Vec<TcpListener>> {
        let v4 = addr
            .to_socket_addrs()?
            .find_map(|a| match a {
                SocketAddr::V4(v4) => Some(v4),
                SocketAddr::V6(_) => None,
            })
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::Unsupported,
                    "sharded accept requires an IPv4 address",
                )
            })?;
        let ip = v4.ip().octets();
        let first = bind_one(ip, v4.port())?;
        let port = first.local_addr()?.port();
        let mut group = Vec::with_capacity(count);
        group.push(first);
        for _ in 1..count {
            group.push(bind_one(ip, port)?);
        }
        Ok(group)
    }
}

/// Non-Linux fallback: sharded accept is unavailable, so `Gate::bind`
/// always takes the shared-listener path.
#[cfg(not(target_os = "linux"))]
mod reuseport {
    use std::io;
    use std::net::TcpListener;

    pub(super) fn bind_group(_addr: &str, _count: usize) -> io::Result<Vec<TcpListener>> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "SO_REUSEPORT sharded accept is Linux-only",
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cos_distr::{Degenerate, Gamma};
    use cos_queueing::from_distribution;
    use cos_serve::{CalibrationBase, ServeConfig, ServiceHandle, SlaService};
    use std::io::Read;
    use std::time::Instant;

    fn spawn_service() -> ServiceHandle {
        let base = CalibrationBase {
            index_law: from_distribution(Gamma::new(3.0, 250.0)),
            meta_law: from_distribution(Gamma::new(2.5, 312.5)),
            data_law: from_distribution(Gamma::new(3.5, 245.0)),
            parse_be: from_distribution(Degenerate::new(0.0005)),
            parse_fe: from_distribution(Degenerate::new(0.0003)),
            devices: 2,
            processes_per_device: 1,
            frontend_processes: 3,
        };
        SlaService::new(base, ServeConfig::default()).spawn()
    }

    fn quick_config() -> GateConfig {
        GateConfig {
            request_deadline: Duration::from_millis(400),
            ..GateConfig::default()
        }
    }

    fn roundtrip(addr: SocketAddr, raw: &[u8]) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(raw).expect("write");
        stream.shutdown(Shutdown::Write).expect("half close");
        let mut out = String::new();
        stream.read_to_string(&mut out).expect("read");
        out
    }

    #[test]
    fn serves_status_over_a_real_socket() {
        let service = spawn_service();
        let gate = Gate::bind("127.0.0.1:0", service.client(), quick_config()).unwrap();
        let reply = roundtrip(
            gate.local_addr(),
            b"GET /v1/status HTTP/1.1\r\nHost: gate\r\nConnection: close\r\n\r\n",
        );
        assert!(reply.starts_with("HTTP/1.1 200 OK\r\n"), "{reply}");
        assert!(reply.contains("\"epoch\":null"), "{reply}");
        gate.shutdown();
    }

    #[test]
    fn keep_alive_serves_multiple_requests_on_one_connection() {
        let service = spawn_service();
        let gate = Gate::bind("127.0.0.1:0", service.client(), quick_config()).unwrap();
        let mut stream = TcpStream::connect(gate.local_addr()).unwrap();
        for _ in 0..3 {
            stream
                .write_all(b"GET /metrics HTTP/1.1\r\nHost: gate\r\n\r\n")
                .unwrap();
            let reply = read_one_response(&mut stream);
            assert!(reply.starts_with("HTTP/1.1 200 OK\r\n"), "{reply}");
            assert!(reply.contains("Connection: keep-alive"), "{reply}");
        }
        drop(stream);
        gate.shutdown();
    }

    /// Reads exactly one response (headers + Content-Length body) off a
    /// keep-alive connection.
    pub(crate) fn read_one_response(stream: &mut TcpStream) -> String {
        let mut buf = Vec::new();
        let mut chunk = [0u8; 1024];
        loop {
            if let Some(head_end) = find_double_crlf(&buf) {
                let head = String::from_utf8_lossy(&buf[..head_end]).to_string();
                let content_length: usize = head
                    .lines()
                    .find_map(|l| l.strip_prefix("Content-Length: "))
                    .map(|v| v.trim().parse().expect("content-length"))
                    .unwrap_or(0);
                while buf.len() < head_end + content_length {
                    let n = stream.read(&mut chunk).expect("read body");
                    assert!(n > 0, "EOF mid-body");
                    buf.extend_from_slice(&chunk[..n]);
                }
                return String::from_utf8_lossy(&buf[..head_end + content_length]).to_string();
            }
            let n = stream.read(&mut chunk).expect("read head");
            assert!(n > 0, "EOF before a full response head");
            buf.extend_from_slice(&chunk[..n]);
        }
    }

    fn find_double_crlf(buf: &[u8]) -> Option<usize> {
        buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4)
    }

    #[test]
    fn socket_requests_record_into_the_shared_registry() {
        let service = spawn_service();
        let config = quick_config();
        let registry = config.obs.clone();
        let gate = Gate::bind("127.0.0.1:0", service.client(), config).unwrap();
        for _ in 0..2 {
            let reply = roundtrip(
                gate.local_addr(),
                b"GET /v1/status HTTP/1.1\r\nHost: gate\r\nConnection: close\r\n\r\n",
            );
            assert!(reply.starts_with("HTTP/1.1 200 OK\r\n"), "{reply}");
        }
        // A framing error bumps the parse-error counter.
        let reply = roundtrip(gate.local_addr(), b"BOGUS /x JUNK\r\n\r\n");
        assert!(reply.starts_with("HTTP/1.1 4"), "{reply}");
        gate.shutdown();

        let requests = registry.merged_histogram("cos_gate_request_seconds");
        assert_eq!(requests.count(), 2, "both requests timed");
        assert!(requests.quantile(0.5).unwrap() > 0.0);
        assert!(registry.merged_histogram("cos_gate_parse_seconds").count() >= 2);
        assert!(
            registry
                .merged_histogram("cos_gate_dispatch_seconds")
                .count()
                >= 2
        );
        let text = registry.render();
        assert!(text.contains("cos_gate_requests_total 2"), "{text}");
        assert!(text.contains("cos_gate_parse_errors_total 1"), "{text}");
    }

    /// Blocks until exactly `n` connections hold admitted slots. A test
    /// that pins the cap must not race the reactors' accepts: with several
    /// reactors, a later connection can be accepted on one thread before
    /// an earlier one is on another, and a slow box stretches any sleep.
    fn wait_for_active(gate: &Gate, n: usize) {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let active = *gate.shared.active.lock().expect("active lock");
            if active == n {
                return;
            }
            assert!(
                Instant::now() < deadline,
                "{active} admitted connections, want {n}"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn over_capacity_connections_get_503() {
        let service = spawn_service();
        let config = GateConfig {
            max_connections: 1,
            ..quick_config()
        };
        let gate = Gate::bind("127.0.0.1:0", service.client(), config).unwrap();
        // Hold one connection open mid-request to pin the slot.
        let mut held = TcpStream::connect(gate.local_addr()).unwrap();
        held.write_all(b"GET /v1/status HTTP/1.1\r\n").unwrap();
        wait_for_active(&gate, 1);
        let reply = roundtrip(
            gate.local_addr(),
            b"GET /v1/status HTTP/1.1\r\nHost: gate\r\n\r\n",
        );
        assert!(reply.starts_with("HTTP/1.1 503 "), "{reply}");
        drop(held);
        gate.shutdown();
    }

    /// Saturate the connection cap, release the slots, and require the
    /// accept path to resume serving promptly — across several cycles.
    /// This asserts the reactor's backpressure contract: freed capacity is
    /// noticed via readiness events, with no parked thread to lose a
    /// wakeup in the first place.
    #[test]
    fn released_slots_resume_accepts_without_lost_wakeups() {
        let service = spawn_service();
        let config = GateConfig {
            max_connections: 2,
            ..quick_config()
        };
        let gate = Gate::bind("127.0.0.1:0", service.client(), config).unwrap();
        for cycle in 0..3 {
            // Pin both slots with half-sent requests, once the previous
            // cycle's connections have all closed.
            wait_for_active(&gate, 0);
            let mut held = Vec::new();
            for _ in 0..2 {
                let mut s = TcpStream::connect(gate.local_addr()).unwrap();
                s.write_all(b"GET /v1/status HTTP/1.1\r\n").unwrap();
                held.push(s);
            }
            wait_for_active(&gate, 2);
            let reply = roundtrip(
                gate.local_addr(),
                b"GET /v1/status HTTP/1.1\r\nHost: gate\r\n\r\n",
            );
            assert!(
                reply.starts_with("HTTP/1.1 503 "),
                "cycle {cycle}: saturated gate must refuse: {reply}"
            );
            // Release both slots; the accept path must pick up the freed
            // capacity promptly, not hang on a missed notify.
            drop(held);
            let deadline = Instant::now() + Duration::from_secs(5);
            loop {
                let reply = roundtrip(
                    gate.local_addr(),
                    b"GET /v1/status HTTP/1.1\r\nHost: gate\r\nConnection: close\r\n\r\n",
                );
                if reply.starts_with("HTTP/1.1 200 ") {
                    break;
                }
                assert!(
                    reply.starts_with("HTTP/1.1 503 "),
                    "cycle {cycle}: unexpected reply {reply}"
                );
                assert!(
                    Instant::now() < deadline,
                    "cycle {cycle}: accept path never resumed after slots freed"
                );
                std::thread::sleep(Duration::from_millis(10));
            }
        }
        gate.shutdown();
    }

    #[test]
    fn slow_trickle_request_hits_the_deadline() {
        let service = spawn_service();
        let gate = Gate::bind("127.0.0.1:0", service.client(), quick_config()).unwrap();
        let mut stream = TcpStream::connect(gate.local_addr()).unwrap();
        stream.write_all(b"GET /v1/sta").unwrap();
        let mut reply = String::new();
        stream.read_to_string(&mut reply).unwrap();
        assert!(reply.starts_with("HTTP/1.1 408 "), "{reply}");
        gate.shutdown();
    }

    #[test]
    fn shutdown_drains_and_unbinds() {
        let service = spawn_service();
        let gate = Gate::bind("127.0.0.1:0", service.client(), quick_config()).unwrap();
        let addr = gate.local_addr();
        // An idle keep-alive connection must not wedge the drain.
        let idle = TcpStream::connect(addr).unwrap();
        gate.shutdown();
        drop(idle);
        // The port stops accepting once the gate is gone.
        std::thread::sleep(Duration::from_millis(20));
        let refused = TcpStream::connect_timeout(&addr, Duration::from_millis(200));
        assert!(refused.is_err(), "listener must be closed after shutdown");
    }

    #[test]
    fn builder_accepts_defaults_and_rejects_nonsense() {
        let built = GateConfig::builder().build().unwrap();
        assert_eq!(built.max_connections, GateConfig::default().max_connections);

        let tweaked = GateConfig::builder()
            .max_connections(8)
            .request_deadline(Duration::from_secs(1))
            .build()
            .unwrap();
        assert_eq!(tweaked.max_connections, 8);
        assert_eq!(tweaked.request_deadline, Duration::from_secs(1));

        let no_conns = GateConfig::builder()
            .max_connections(0)
            .build()
            .unwrap_err();
        assert_eq!(no_conns.field, "max_connections");
        assert!(no_conns.to_string().contains("GateConfig.max_connections"));

        let zero_write = GateConfig::builder()
            .write_timeout(Duration::ZERO)
            .build()
            .unwrap_err();
        assert_eq!(zero_write.field, "write_timeout");

        // A zero deadline would answer every request `408`.
        let zero_deadline = GateConfig::builder()
            .request_deadline(Duration::ZERO)
            .build()
            .unwrap_err();
        assert_eq!(zero_deadline.field, "request_deadline");

        let tiny_head = GateConfig::builder()
            .limits(ParserLimits {
                max_head_bytes: 4,
                max_body_bytes: 1024,
            })
            .build()
            .unwrap_err();
        assert_eq!(tiny_head.field, "limits.max_head_bytes");
    }

    #[test]
    fn builder_selects_reactor_threads() {
        let built = GateConfig::builder().reactor_threads(3).build().unwrap();
        assert_eq!(built.reactor_threads, 3);
        // reactor_threads = 0 means "auto" and is valid.
        assert_eq!(GateConfig::default().reactor_threads, 0);
    }

    /// `Gate::bind` shards accepts across a
    /// `SO_REUSEPORT` listener group on Linux, and the sharded gate
    /// serves the same bytes as the shared one. Elsewhere the same
    /// config silently falls back to shared accept.
    #[test]
    fn sharded_accept_serves_and_reports_its_mode() {
        let service = spawn_service();
        let config = GateConfig {
            reactor_threads: 2,
            ..quick_config()
        };
        let gate = Gate::bind("127.0.0.1:0", service.client(), config).unwrap();
        assert_eq!(gate.accept_sharded(), cfg!(target_os = "linux"));
        // Connections land on kernel-chosen shards; all must serve.
        for i in 0..8 {
            let reply = roundtrip(
                gate.local_addr(),
                b"GET /v1/status HTTP/1.1\r\nHost: gate\r\nConnection: close\r\n\r\n",
            );
            assert!(
                reply.starts_with("HTTP/1.1 200 OK\r\n"),
                "conn {i}: {reply}"
            );
        }
        gate.shutdown();
    }

    /// Eight gates bind concurrently, each forming its own two-listener
    /// `SO_REUSEPORT` group on an ephemeral port: every group forms (on
    /// Linux), and every gate answers on its own port.
    #[test]
    fn concurrent_sharded_binds_each_form_a_group_and_serve() {
        let service = spawn_service();
        let config = GateConfig {
            reactor_threads: 2,
            ..quick_config()
        };
        // Release all eight binds at once so their group binds overlap.
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|s| {
            let binds: Vec<_> = (0..8)
                .map(|_| {
                    let client = service.client();
                    let config = config.clone();
                    let start = &start;
                    s.spawn(move || {
                        start.wait();
                        let gate = Gate::bind("127.0.0.1:0", client, config).expect("bind");
                        assert_eq!(gate.accept_sharded(), cfg!(target_os = "linux"));
                        let reply = roundtrip(
                            gate.local_addr(),
                            b"GET /v1/status HTTP/1.1\r\nHost: gate\r\nConnection: close\r\n\r\n",
                        );
                        assert!(reply.starts_with("HTTP/1.1 200 OK\r\n"), "{reply}");
                        gate
                    })
                })
                .collect();
            let gates: Vec<Gate> = binds.into_iter().map(|b| b.join().unwrap()).collect();
            let mut ports: Vec<u16> = gates.iter().map(|g| g.local_addr().port()).collect();
            ports.sort_unstable();
            ports.dedup();
            assert_eq!(ports.len(), 8, "each gate owns its own port");
            for gate in gates {
                gate.shutdown();
            }
        });
    }

    /// A port held by a plain listener (no `SO_REUSEPORT`) refuses the
    /// group bind and the shared fallback alike: `Gate::bind` returns
    /// `AddrInUse` instead of panicking or hanging.
    #[test]
    fn bind_on_a_held_port_is_addr_in_use() {
        let service = spawn_service();
        let held = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = held.local_addr().unwrap().to_string();
        let config = GateConfig {
            reactor_threads: 2,
            ..quick_config()
        };
        let err = Gate::bind(&addr, service.client(), config)
            .err()
            .expect("a held port must not bind");
        assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse, "{err}");
        drop(held);
    }

    /// An externally bound listener cannot join a reuseport group, so
    /// `Gate::serve` always runs shared accept; and reactor syscall
    /// counters aggregate into a nonzero, monotonic snapshot.
    #[test]
    fn serve_on_external_listener_is_shared_and_counts_syscalls() {
        let service = spawn_service();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let config = GateConfig {
            reactor_threads: 2,
            ..quick_config()
        };
        let gate = Gate::serve(listener, service.client(), config).unwrap();
        assert!(!gate.accept_sharded());
        let before = gate.syscalls();
        let reply = roundtrip(
            gate.local_addr(),
            b"GET /v1/status HTTP/1.1\r\nHost: gate\r\nConnection: close\r\n\r\n",
        );
        assert!(reply.starts_with("HTTP/1.1 200 OK\r\n"), "{reply}");
        let spent = gate.syscalls().since(&before);
        assert!(spent.accepts >= 1, "accept counted: {spent:?}");
        assert!(spent.reads >= 1, "reads counted: {spent:?}");
        assert!(spent.writevs >= 1, "response flush counted: {spent:?}");
        assert!(spent.waits >= 1, "poll waits counted: {spent:?}");
        gate.shutdown();
    }

    /// A single-threaded reactor multiplexes many concurrent in-flight
    /// requests: capacity is bounded by memory, not threads.
    #[test]
    fn one_reactor_thread_serves_many_interleaved_connections() {
        let service = spawn_service();
        let config = GateConfig {
            reactor_threads: 1,
            max_connections: 32,
            ..quick_config()
        };
        let gate = Gate::bind("127.0.0.1:0", service.client(), config).unwrap();
        // Open all connections first, half-send on each, then finish each
        // request: every connection is mid-request simultaneously on the
        // one reactor thread.
        let mut streams: Vec<TcpStream> = (0..16)
            .map(|_| TcpStream::connect(gate.local_addr()).unwrap())
            .collect();
        for s in &mut streams {
            s.write_all(b"GET /v1/status HTTP/1.1\r\nHost: gate")
                .unwrap();
        }
        for s in &mut streams {
            s.write_all(b"\r\nConnection: close\r\n\r\n").unwrap();
        }
        for (i, s) in streams.iter_mut().enumerate() {
            let mut reply = String::new();
            s.read_to_string(&mut reply).unwrap();
            assert!(
                reply.starts_with("HTTP/1.1 200 OK\r\n"),
                "conn {i}: {reply}"
            );
        }
        gate.shutdown();
    }
}
