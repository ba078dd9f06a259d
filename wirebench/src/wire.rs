//! The client side of HTTP/1.1 over one keep-alive connection: write
//! request bytes, frame responses by `Content-Length`.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One framed response.
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// The body bytes.
    pub body: Vec<u8>,
}

/// A keep-alive client connection.
pub struct Conn {
    stream: TcpStream,
    /// Received bytes live in `buf[start..end]`.
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

/// Parses one response at the start of `bytes`; returns it and its length,
/// or `None` if `bytes` holds no complete response yet.
fn frame(bytes: &[u8]) -> Result<Option<(Reply, usize)>, String> {
    let Some(head_end) = bytes.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&bytes[..head_end]).map_err(|_| "non-ASCII head")?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or("malformed status line")?;
    let length = lines
        .find_map(|line| {
            let (name, value) = line.split_once(':')?;
            name.eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse::<usize>().ok())
        })
        .flatten()
        .ok_or("response without Content-Length")?;
    let total = head_end + 4 + length;
    if bytes.len() < total {
        return Ok(None);
    }
    let body = bytes[head_end + 4..total].to_vec();
    Ok(Some((Reply { status, body }, total)))
}

/// Readiness to wait for.
#[derive(Clone, Copy)]
enum Ready {
    Read,
    Write,
}

/// Waits until the socket is ready or `deadline` passes; returns whether
/// it became ready. Waits with `ppoll`, whose nanosecond timeout runs on a
/// high-resolution timer: a socket receive timeout would round every wait
/// up to the next scheduler tick, and the open-loop sender would be late by
/// up to a tick. (Linux: the benchmark reads `/proc` as well.)
fn wait_ready(stream: &TcpStream, ready: Ready, deadline: Instant) -> std::io::Result<bool> {
    use std::os::fd::AsRawFd;

    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: u64,
            timeout: *const Timespec,
            sigmask: *const std::ffi::c_void,
        ) -> i32;
    }
    const POLLIN: i16 = 0x1;
    const POLLOUT: i16 = 0x4;
    loop {
        let wait = deadline.saturating_duration_since(Instant::now());
        let mut fd = PollFd {
            fd: stream.as_raw_fd(),
            events: match ready {
                Ready::Read => POLLIN,
                Ready::Write => POLLOUT,
            },
            revents: 0,
        };
        let timeout = Timespec {
            tv_sec: wait.as_secs() as i64,
            tv_nsec: i64::from(wait.subsec_nanos()),
        };
        // SAFETY: `fd` and `timeout` are live, properly laid-out `pollfd`
        // and `timespec` values for the duration of the call, `nfds` is 1
        // to match the single `pollfd`, and a null signal mask means "leave
        // the mask unchanged".
        let n = unsafe { ppoll(&mut fd, 1, &timeout, std::ptr::null()) };
        if n > 0 {
            return Ok(true);
        }
        if n == 0 {
            return Ok(false);
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

impl Conn {
    /// Connects with Nagle off.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            buf: vec![0; 1 << 16],
            start: 0,
            end: 0,
        })
    }

    /// Writes request bytes.
    pub fn send(&mut self, mut bytes: &[u8]) -> std::io::Result<()> {
        while !bytes.is_empty() {
            match self.stream.write(bytes) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => bytes = &bytes[n..],
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    let deadline = Instant::now() + Duration::from_secs(30);
                    if !wait_ready(&self.stream, Ready::Write, deadline)? {
                        return Err(ErrorKind::TimedOut.into());
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// The next response, waiting until `deadline` at most (`Ok(None)` when
    /// it passes first).
    pub fn recv(&mut self, deadline: Instant) -> std::io::Result<Option<Reply>> {
        loop {
            match frame(&self.buf[self.start..self.end]) {
                Ok(Some((reply, used))) => {
                    self.start += used;
                    return Ok(Some(reply));
                }
                Ok(None) => {}
                Err(e) => return Err(std::io::Error::new(ErrorKind::InvalidData, e)),
            }
            if self.start == self.end {
                self.start = 0;
                self.end = 0;
            } else if self.end == self.buf.len() {
                self.buf.copy_within(self.start..self.end, 0);
                self.end -= self.start;
                self.start = 0;
                if self.end == self.buf.len() {
                    self.buf.resize(self.buf.len() * 2, 0);
                }
            }
            match self.stream.read(&mut self.buf[self.end..]) {
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.end += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    if !wait_ready(&self.stream, Ready::Read, deadline)? {
                        return Ok(None);
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Sends one request and waits for its response.
    pub fn call(&mut self, bytes: &[u8], timeout: Duration) -> std::io::Result<Reply> {
        self.send(bytes)?;
        self.recv(Instant::now() + timeout)?
            .ok_or_else(|| ErrorKind::TimedOut.into())
    }
}

/// Sets the calling thread's timer slack to 1 ns, so timed waits wake when
/// due instead of up to the default 50 µs late. Without it an open-loop
/// sender's wake-up delay would be charged to every request.
pub fn tighten_timer_slack() {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn prctl(option: i32, ...) -> i32;
        }
        const PR_SET_TIMERSLACK: i32 = 29;
        // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument and
        // only changes the calling thread's timer slack; no memory is
        // passed to the kernel.
        unsafe {
            prctl(PR_SET_TIMERSLACK, 1u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_pipelined_responses_and_waits_for_partial_bodies() {
        let one = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhi";
        let two = b"HTTP/1.1 404 Not Found\r\ncontent-length: 3\r\n\r\nno!";
        let mut both = one.to_vec();
        both.extend_from_slice(two);
        let (first, used) = frame(&both).unwrap().unwrap();
        assert_eq!((first.status, first.body.as_slice()), (200, &b"hi"[..]));
        let (second, _) = frame(&both[used..]).unwrap().unwrap();
        assert_eq!((second.status, second.body.as_slice()), (404, &b"no!"[..]));
        assert!(frame(&one[..one.len() - 1]).unwrap().is_none());
    }
}
