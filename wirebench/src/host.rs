//! The serving process: `cos_gate::Gate` in front of a spawned
//! `cos_serve::SlaService`, on an ephemeral loopback port. It is the same
//! executable started with `--serve`, so the load generator never shares an
//! address space with the server.
//!
//! Protocol on the child's standard streams: it prints `calibrated` once
//! it has built the calibration base (the benchmark's own input, not the
//! server's set-up work), `port <n>` once listening, and exits cleanly on
//! `quit` or end of input. Its memory is read from `/proc/<pid>`, its CPU
//! time from its process CPU clock.

use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

use cos_gate::{Gate, GateConfig};
use cos_serve::SlaService;

use crate::inputs::{base, serve_config};

/// Runs the serving process until told to quit.
pub fn serve() {
    let base = base();
    let mut out = std::io::stdout().lock();
    writeln!(out, "calibrated").expect("stdout");
    out.flush().expect("stdout");
    let registry = cos_obs::Registry::new();
    let service = SlaService::new(base, serve_config(registry.clone())).spawn();
    let config = GateConfig {
        obs: registry,
        ..GateConfig::default()
    };
    let gate = Gate::bind("127.0.0.1:0", service.client(), config).expect("bind loopback");
    writeln!(out, "port {}", gate.local_addr().port()).expect("stdout");
    out.flush().expect("stdout");
    // Any line (`quit`) or end of input ends the process.
    let _ = std::io::stdin().lock().lines().next();
    gate.shutdown();
    service.shutdown().expect("clean service shutdown");
}

/// A running serving process. Dropping it without [`Host::quit`] kills it.
pub struct Host {
    child: Option<Child>,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
    /// Where it listens.
    pub addr: SocketAddr,
    /// When it reported its calibration base built: set-up time counts
    /// from here.
    pub calibrated: Instant,
}

impl Host {
    /// Starts the serving process and waits until it listens.
    pub fn spawn() -> std::io::Result<Host> {
        let exe = std::env::current_exe()?;
        let mut child = Command::new(exe)
            .arg("--serve")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut host = Host {
            child: Some(child),
            stdin,
            stdout,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            calibrated: Instant::now(),
        };
        if host.line()? != "calibrated" {
            return Err(std::io::Error::other(
                "serving process did not report its calibration",
            ));
        }
        host.calibrated = Instant::now();
        let line = host.line()?;
        let port: u16 = line
            .trim()
            .strip_prefix("port ")
            .and_then(|p| p.parse().ok())
            .ok_or_else(|| std::io::Error::other("serving process did not report a port"))?;
        host.addr.set_port(port);
        Ok(host)
    }

    /// The next line the serving process prints, without its newline.
    fn line(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        if self.stdout.read_line(&mut line)? == 0 {
            return Err(std::io::Error::other("serving process exited"));
        }
        Ok(line.trim().to_string())
    }

    fn proc_file(&self, name: &str) -> std::io::Result<String> {
        let pid = self.child.as_ref().expect("child present").id();
        std::fs::read_to_string(format!("/proc/{pid}/{name}"))
    }

    /// Peak resident set of the serving process (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> std::io::Result<f64> {
        self.proc_file("status")?
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| std::io::Error::other("no VmHWM for the serving process"))
    }

    /// CPU seconds (user + system) the serving process has used, from its
    /// process CPU clock: exact, where `/proc/<pid>/stat` samples at
    /// scheduler ticks. The kernel does not charge time stolen by the
    /// hypervisor to the process, so this cost holds steady where
    /// wall-clock figures do not.
    pub fn cpu_seconds(&self) -> std::io::Result<f64> {
        #[repr(C)]
        struct Timespec {
            tv_sec: i64,
            tv_nsec: i64,
        }
        extern "C" {
            fn clock_getcpuclockid(pid: i32, clock: *mut i32) -> i32;
            fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
        }
        let pid = self.child.as_ref().expect("child present").id() as i32;
        let mut clock = 0;
        let mut time = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: both calls only write through the pointers they are
        // given, which point at live locals of the declared C layouts.
        let rc = unsafe { clock_getcpuclockid(pid, &mut clock) };
        if rc != 0 {
            return Err(std::io::Error::from_raw_os_error(rc));
        }
        // SAFETY: as above.
        if unsafe { clock_gettime(clock, &mut time) } != 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(time.tv_sec as f64 + time.tv_nsec as f64 * 1e-9)
    }

    /// Asks the serving process to shut down and waits for it.
    pub fn quit(mut self) -> std::io::Result<()> {
        writeln!(self.stdin, "quit")?;
        self.stdin.flush()?;
        let status = self.child.take().expect("child present").wait()?;
        if status.success() {
            Ok(())
        } else {
            Err(std::io::Error::other(format!(
                "serving process exited with {status}"
            )))
        }
    }
}

impl Drop for Host {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}
