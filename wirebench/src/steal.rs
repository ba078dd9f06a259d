//! Stolen CPU time, and the quiet stretches of a phase.
//!
//! On a shared virtual machine the hypervisor takes CPU time from the
//! guest in bursts (the `steal` column of `/proc/stat`). On a 2-CPU
//! machine it ranged from 1.5% to 27% of a phase between runs, and a
//! run's median latency followed it up to fivefold. So one load thread reads the
//! counter every [`TICK`] of a phase, and the figures are computed over
//! the stretches whose steal is at most the phase's median: the server's
//! own behaviour, not the neighbours'. Every request is still sent,
//! checked and counted.

use std::time::{Duration, Instant};

/// Spacing of the readings: 50 jiffies on 2 CPUs at 100 Hz, so steal is
/// resolved to 2% of a stretch.
const TICK: Duration = Duration::from_millis(500);

/// `(stolen, all)` jiffies since boot, from the `cpu` line of `/proc/stat`.
pub fn read() -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = text
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|v| v.parse().ok())
        .collect();
    (fields.len() == 8).then(|| (fields[7], fields.iter().sum()))
}

/// Readings taken across one phase.
#[derive(Debug, Default, Clone)]
pub struct StealLog {
    samples: Vec<(Instant, u64, u64)>,
}

impl StealLog {
    /// Takes a reading if the last one is [`TICK`] old (or there is none).
    pub fn tick(&mut self, now: Instant) {
        if self.samples.last().is_none_or(|s| now - s.0 >= TICK) {
            self.force(now);
        }
    }

    /// Takes a reading now.
    pub fn force(&mut self, now: Instant) {
        if let Some((steal, total)) = read() {
            self.samples.push((now, steal, total));
        }
    }

    /// `(start, end, stolen share)` of each stretch between readings.
    fn stretches(&self) -> Vec<(Instant, Instant, f64)> {
        self.samples
            .windows(2)
            .map(|w| {
                let all = w[1].2.saturating_sub(w[0].2).max(1);
                (
                    w[0].0,
                    w[1].0,
                    w[1].1.saturating_sub(w[0].1) as f64 / all as f64,
                )
            })
            .collect()
    }

    /// Share of the phase's CPU time that was stolen.
    pub fn share(&self) -> f64 {
        match (self.samples.first(), self.samples.last()) {
            (Some(a), Some(b)) if b.2 > a.2 => (b.1 - a.1) as f64 / (b.2 - a.2) as f64,
            _ => 0.0,
        }
    }

    /// The stretches whose steal is at most the median stretch's: at least
    /// half of the phase. Without readings (no `/proc/stat`), the whole
    /// phase.
    pub fn quiet(&self) -> Quiet {
        let stretches = self.stretches();
        if stretches.is_empty() {
            return Quiet { spans: None };
        }
        let mut shares: Vec<f64> = stretches.iter().map(|s| s.2).collect();
        shares.sort_by(f64::total_cmp);
        let median = shares[(shares.len() - 1) / 2];
        Quiet {
            spans: Some(
                stretches
                    .into_iter()
                    .filter(|s| s.2 <= median)
                    .map(|s| (s.0, s.1))
                    .collect(),
            ),
        }
    }
}

/// The quiet part of a phase.
#[derive(Debug, Clone)]
pub struct Quiet {
    spans: Option<Vec<(Instant, Instant)>>,
}

impl Quiet {
    /// Whether `t` falls in a quiet stretch.
    pub fn contains(&self, t: Instant) -> bool {
        self.spans
            .as_ref()
            .is_none_or(|s| s.iter().any(|&(a, b)| a <= t && t < b))
    }

    /// Whether a request due at `due` and answered at `done` ran entirely
    /// in quiet stretches (both ends quiet).
    pub fn covers(&self, due: Instant, done: Instant) -> bool {
        self.contains(due) && self.contains(done)
    }

    /// Seconds of quiet stretches, or `whole` without readings.
    pub fn seconds(&self, whole: f64) -> f64 {
        self.spans.as_ref().map_or(whole, |s| {
            s.iter().map(|(a, b)| (*b - *a).as_secs_f64()).sum()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_quiet_half_excludes_the_robbed_stretches() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        // Four stretches: 0%, 20%, 0%, 40% stolen.
        let log = StealLog {
            samples: vec![
                (at(0), 0, 0),
                (at(500), 0, 100),
                (at(1000), 20, 200),
                (at(1500), 20, 300),
                (at(2000), 60, 400),
            ],
        };
        let quiet = log.quiet();
        assert!(quiet.contains(at(100)) && quiet.contains(at(1200)));
        assert!(!quiet.contains(at(700)) && !quiet.contains(at(1700)));
        assert!(!quiet.covers(at(400), at(600)));
        assert!((quiet.seconds(2.0) - 1.0).abs() < 1e-9);
        assert!((log.share() - 0.15).abs() < 1e-12);
        // Without readings the whole phase counts.
        let none = StealLog::default().quiet();
        assert!(none.contains(at(700)));
        assert_eq!(none.seconds(2.0), 2.0);
    }
}
