//! Load generation over keep-alive connections.
//!
//! * [`open_loop`] sends each request when its schedule says it is due,
//!   pipelining whatever is due at once, and times every request from its
//!   *scheduled* send time: a stall in the server delays the requests
//!   queued behind it, and that wait is charged to them (no coordinated
//!   omission). How late the generator itself sent is recorded apart.
//! * [`closed_loop`] keeps a fixed number of requests outstanding and
//!   sends the next one as each reply arrives: capacity, not latency.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::inputs::Schedule;
use crate::steal::StealLog;
use crate::wire::{Conn, Reply};

/// One answered (or failed) request.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Index of the request in its pool.
    pub request: usize,
    /// The reply, or `None` if the connection failed before it came.
    /// Byte-identical replies to one request share one allocation.
    pub reply: Option<Arc<Reply>>,
    /// Seconds from scheduled (open loop) or actual (closed loop) send to
    /// the reply.
    pub latency: f64,
    /// When the reply arrived (or the request was given up).
    pub done: Instant,
}

/// Everything one connection saw in one phase.
#[derive(Debug, Default)]
pub struct PhaseLog {
    /// Per-request outcomes in reply order.
    pub outcomes: Vec<Outcome>,
    /// Seconds each open-loop send left after it was due.
    pub lateness: Vec<f64>,
    /// Requests written.
    pub sent: u64,
    /// Seconds from the first send to the last reply.
    pub elapsed: f64,
    /// Stolen-CPU readings across the phase (taken only when asked to
    /// sample).
    pub steal: StealLog,
}

struct Pending {
    request: usize,
    due: Instant,
}

/// How long a phase may overrun its schedule while replies drain.
const DRAIN: Duration = Duration::from_secs(30);

/// The latest reply to each request of a pool. A reply byte-identical to
/// it shares its allocation, so a phase of millions of repeated answers
/// holds each distinct one once.
struct Interner {
    last: Vec<Option<Arc<Reply>>>,
}

impl Interner {
    fn new(pool: &[Vec<u8>]) -> Interner {
        Interner {
            last: vec![None; pool.len()],
        }
    }

    fn intern(&mut self, request: usize, reply: Reply) -> Arc<Reply> {
        match &self.last[request] {
            Some(prev) if **prev == reply => Arc::clone(prev),
            _ => {
                let reply = Arc::new(reply);
                self.last[request] = Some(Arc::clone(&reply));
                reply
            }
        }
    }
}

fn on_reply(pending: Pending, reply: Option<Arc<Reply>>, log: &mut PhaseLog) {
    let now = Instant::now();
    log.outcomes.push(Outcome {
        request: pending.request,
        reply,
        latency: (now - pending.due).as_secs_f64(),
        done: now,
    });
}

fn fail_outstanding(outstanding: VecDeque<Pending>, log: &mut PhaseLog) {
    for p in outstanding {
        on_reply(p, None, log);
    }
}

/// Sends `pool[i]` for each `(offset, i)` of `schedule` at `start + offset`
/// and collects the replies.
/// With `sample`, also reads the stolen CPU time every tick.
pub fn open_loop(
    conn: &mut Conn,
    schedule: &Schedule,
    pool: &[Vec<u8>],
    start: Instant,
    sample: bool,
) -> PhaseLog {
    let mut log = PhaseLog {
        outcomes: Vec::with_capacity(schedule.len()),
        lateness: Vec::with_capacity(schedule.len()),
        ..PhaseLog::default()
    };
    let mut outstanding: VecDeque<Pending> = VecDeque::new();
    let mut replies = Interner::new(pool);
    let mut next = 0;
    let mut out = Vec::new();
    let end = start + Duration::from_secs_f64(schedule.last().map_or(0.0, |s| s.0)) + DRAIN;
    while next < schedule.len() || !outstanding.is_empty() {
        let now = Instant::now();
        if sample && now >= start {
            log.steal.tick(now);
        }
        out.clear();
        while next < schedule.len() {
            let (offset, request) = schedule[next];
            let due = start + Duration::from_secs_f64(offset);
            if due > now {
                break;
            }
            out.extend_from_slice(&pool[request]);
            outstanding.push_back(Pending { request, due });
            log.lateness.push((now - due).as_secs_f64());
            next += 1;
        }
        if !out.is_empty() {
            log.sent = next as u64;
            if conn.send(&out).is_err() {
                fail_outstanding(outstanding, &mut log);
                return log;
            }
        }
        let wake = if next < schedule.len() {
            start + Duration::from_secs_f64(schedule[next].0)
        } else {
            end
        };
        if outstanding.is_empty() {
            if let Some(gap) = wake.checked_duration_since(Instant::now()) {
                std::thread::sleep(gap);
            }
            continue;
        }
        match conn.recv(wake) {
            Ok(Some(reply)) => {
                let p = outstanding.pop_front().expect("a reply answers a request");
                let reply = replies.intern(p.request, reply);
                on_reply(p, Some(reply), &mut log);
            }
            Ok(None) if Instant::now() >= end => {
                fail_outstanding(outstanding, &mut log);
                break;
            }
            Ok(None) => {}
            Err(_) => {
                fail_outstanding(outstanding, &mut log);
                break;
            }
        }
    }
    log.elapsed = (Instant::now() - start).as_secs_f64();
    if sample {
        log.steal.force(Instant::now());
    }
    log
}

/// Keeps `depth` requests outstanding, taking them from `order` in turn,
/// until the order is sent or `seconds` have passed; then drains the
/// replies. With `sample`, also reads the stolen CPU time every tick.
pub fn closed_loop(
    conn: &mut Conn,
    order: &[usize],
    pool: &[Vec<u8>],
    depth: usize,
    seconds: f64,
    sample: bool,
) -> PhaseLog {
    let mut log = PhaseLog {
        outcomes: Vec::with_capacity(order.len()),
        ..PhaseLog::default()
    };
    if sample {
        log.steal.force(Instant::now());
    }
    let mut outstanding: VecDeque<Pending> = VecDeque::new();
    let mut replies = Interner::new(pool);
    let start = Instant::now();
    let stop = start + Duration::from_secs_f64(seconds);
    let mut next = 0usize;
    let send_one = |conn: &mut Conn, outstanding: &mut VecDeque<Pending>, next: &mut usize| {
        let Some(&request) = order.get(*next) else {
            return Ok(false);
        };
        *next += 1;
        outstanding.push_back(Pending {
            request,
            due: Instant::now(),
        });
        conn.send(&pool[request]).map(|_| true)
    };
    for _ in 0..depth {
        match send_one(conn, &mut outstanding, &mut next) {
            Ok(true) => log.sent += 1,
            Ok(false) => break,
            Err(_) => {
                fail_outstanding(outstanding, &mut log);
                return log;
            }
        }
    }
    let end = stop + DRAIN;
    while !outstanding.is_empty() {
        if sample {
            log.steal.tick(Instant::now());
        }
        match conn.recv(end) {
            Ok(Some(reply)) => {
                let p = outstanding.pop_front().expect("a reply answers a request");
                let reply = replies.intern(p.request, reply);
                on_reply(p, Some(reply), &mut log);
                if Instant::now() < stop {
                    match send_one(conn, &mut outstanding, &mut next) {
                        Ok(true) => log.sent += 1,
                        Ok(false) => {}
                        Err(_) => break,
                    }
                }
            }
            Ok(None) | Err(_) => break,
        }
    }
    fail_outstanding(outstanding, &mut log);
    log.elapsed = (Instant::now() - start).as_secs_f64();
    if sample {
        log.steal.force(Instant::now());
    }
    log
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpListener;

    /// A responder that answers every `GET` with a fixed 200, sleeping
    /// `stall` before the `stall_at`-th reply.
    fn responder(
        stall_at: usize,
        stall: Duration,
    ) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            s.set_nodelay(true).unwrap();
            let mut buf = Vec::new();
            let mut served = 0;
            let mut chunk = [0u8; 4096];
            loop {
                let n = match s.read(&mut chunk) {
                    Ok(0) | Err(_) => return,
                    Ok(n) => n,
                };
                buf.extend_from_slice(&chunk[..n]);
                while let Some(i) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                    buf.drain(..i + 4);
                    if served == stall_at {
                        std::thread::sleep(stall);
                    }
                    served += 1;
                    s.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}")
                        .unwrap();
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn a_single_stall_shows_in_the_tail_because_timing_starts_at_the_schedule() {
        // 200 requests, one every 2 ms; the 100th reply stalls 50 ms. The
        // ~25 requests due during the stall wait behind it: measured from
        // their scheduled time, each carries the remaining stall.
        let (addr, server) = responder(100, Duration::from_millis(50));
        let mut conn = Conn::connect(addr).unwrap();
        let pool = vec![b"GET / HTTP/1.1\r\nHost: t\r\n\r\n".to_vec()];
        let schedule: Schedule = (0..200).map(|i| (i as f64 * 0.002, 0)).collect();
        let log = open_loop(&mut conn, &schedule, &pool, Instant::now(), false);
        drop(conn);
        server.join().unwrap();
        assert_eq!(log.outcomes.len(), 200);
        assert!(log
            .outcomes
            .iter()
            .all(|o| o.reply.as_ref().unwrap().status == 200));
        let mut lat: Vec<f64> = log.outcomes.iter().map(|o| o.latency).collect();
        lat.sort_by(f64::total_cmp);
        let p50 = lat[100];
        let p90 = lat[180];
        assert!(p50 < 0.010, "median stays fast: {p50}");
        assert!(
            p90 > 0.010,
            "the stall is charged to the queued requests: {p90}"
        );
        // Closed-loop timing from the actual send would hide it: only one
        // request would be slow.
        let slow = lat.iter().filter(|&&l| l > 0.010).count();
        assert!(slow >= 10, "{slow} requests waited behind the stall");
    }

    #[test]
    fn closed_loop_keeps_depth_outstanding_and_counts_every_reply() {
        let (addr, server) = responder(usize::MAX, Duration::ZERO);
        let mut conn = Conn::connect(addr).unwrap();
        let pool = vec![b"GET / HTTP/1.1\r\nHost: t\r\n\r\n".to_vec()];
        let log = closed_loop(&mut conn, &[0; 100], &pool, 4, 10.0, false);
        drop(conn);
        server.join().unwrap();
        assert_eq!(log.sent as usize, log.outcomes.len());
        assert_eq!(log.sent, 100);
    }
}
