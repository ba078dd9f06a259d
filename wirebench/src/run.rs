//! The end-to-end run: set the server up (several times, for `setup_s`),
//! drive it through the workload's phases from this process, check every
//! reply, and print the end-to-end metrics.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cos_gate::json::Value;

use crate::host::Host;
use crate::inputs::{
    base, paced_schedule, post_request, Inputs, Key, Phases, Workload, INGEST_BATCH_RATE,
    PREDICT_SLA,
};
use crate::loadgen::{closed_loop, open_loop, Outcome, PhaseLog};
use crate::oracle::{reference, Oracle, TOLERANCE};
use crate::replay::Replay;
use crate::report::{
    fingerprint, percentile_detail, phases_detail, print_line, print_result, PhaseCounts,
};
use crate::stats::{median, percentile, supported_percentile, Percentile};
use crate::steal::StealLog;
use crate::wire::{tighten_timer_slack, Conn, Reply};
use crate::Args;

/// Set-ups before the phases (the last one's server stays up for them) and
/// after them. Splitting them keeps one burst of CPU time stolen by the
/// hypervisor from covering them all; `setup_s` is the median of the
/// set-ups that lost the least CPU time to it (see [`quiet_median`]).
const SETUPS_BEFORE: usize = 8;
const SETUPS_AFTER: usize = 7;
/// Median open-loop generator lateness (seconds) beyond which the run is
/// invalid: the generator fell behind its schedule. (Its p99 is reported;
/// on a 2-CPU virtual machine it follows bursts of stolen CPU time, and
/// every latency is timed from the schedule, so a late send is already
/// charged to its request.)
const LATE_MEDIAN_LIMIT: f64 = 100e-6;
/// Telemetry POSTs kept outstanding in the closed-loop telemetry phase:
/// enough that the server never idles between batches, so its CPU time per
/// event does not depend on how often its threads sleep and wake.
const INGEST_DEPTH: usize = 4;
/// Longest a fixed-work closed-loop phase may run.
const CAPACITY_CAP: f64 = 60.0;
/// How long any single set-up call may take.
const CALL_TIMEOUT: Duration = Duration::from_secs(30);

/// Generates the inputs and replays the set-up feed in-process.
pub fn prepare(workload: Workload, seed: u64, seconds: f64) -> (Inputs, Replay) {
    let base = base();
    let mut slot = None;
    let inputs = Inputs::generate(workload, seed, seconds, |tenants, feed| {
        let mut replay = Replay::new(base.clone(), tenants);
        for batch in feed {
            replay.apply(batch);
        }
        let params = replay.params(0).map(|p| (*p).clone());
        slot = Some(replay);
        params
    });
    (inputs, slot.expect("inputs replay their set-up feed"))
}

/// The key every set-up probes on each tenant.
pub fn probe_key(tenant: usize) -> Key {
    Key::Attainment {
        tenant,
        sla_q: (PREDICT_SLA / cos_serve::SLA_QUANTUM).round() as i64,
    }
}

/// Request bytes, reference value and epoch of each tenant's probe.
fn probes(inputs: &Inputs, replay: &Replay) -> Result<Vec<(Vec<u8>, f64, u64)>, String> {
    (0..inputs.tenants.len())
        .map(|t| {
            let epoch = replay.epoch(t);
            let params = replay.params(t).ok_or_else(|| {
                format!("tenant {} is not calibrated by set-up", inputs.tenants[t])
            })?;
            let key = probe_key(t);
            let want = reference(&params, &key).ok_or("probe without a reference")?;
            Ok((key.request(&inputs.tenants), want, epoch))
        })
        .collect()
}

/// Checks a probe reply: status 200, the expected epoch, the reference
/// value.
fn probe_ok(status: u16, body: &[u8], want: f64, epoch: u64) -> Result<(), String> {
    if status != 200 {
        return Err(format!(
            "status {status}: {}",
            String::from_utf8_lossy(body)
        ));
    }
    let doc = cos_gate::json::parse(std::str::from_utf8(body).map_err(|_| "non-UTF-8 body")?)?;
    let got_epoch = doc.f64_field("epoch")?;
    let value = doc.f64_field("value")?;
    if got_epoch != epoch as f64 {
        return Err(format!("epoch {got_epoch}, expected {epoch}"));
    }
    if (value - want).abs() > TOLERANCE * want.abs() {
        return Err(format!("value {value}, reference {want}"));
    }
    Ok(())
}

fn io(e: std::io::Error) -> String {
    e.to_string()
}

/// The median of `times` over the entries whose stolen share is at most
/// the median share: the same rule as the quiet stretches of a phase.
fn quiet_median(times: &[(f64, f64)]) -> f64 {
    let shares: Vec<f64> = times.iter().map(|t| t.1).collect();
    let limit = median(&shares);
    let quiet: Vec<f64> = times.iter().filter(|t| t.1 <= limit).map(|t| t.0).collect();
    median(&quiet)
}

/// One timed set-up.
struct SetUp {
    host: Host,
    /// Seconds from the calibration base built to the resident keys warm.
    secs: f64,
    /// Share of the machine's CPU time stolen meanwhile.
    stolen: f64,
    warm: PhaseLog,
}

/// One set-up: spawn the server, post the calibration feed, wait for a
/// correct answer on every tenant, warm the resident keys. The time counts
/// from when the serving process has built its calibration base.
fn setup(
    inputs: &Inputs,
    feed: &[Vec<u8>],
    probes: &[(Vec<u8>, f64, u64)],
) -> Result<SetUp, String> {
    let host = Host::spawn().map_err(io)?;
    let mut steal = StealLog::default();
    steal.force(Instant::now());
    let mut conn = Conn::connect(host.addr).map_err(io)?;
    let order: Vec<usize> = (0..feed.len()).collect();
    let posted = closed_loop(&mut conn, &order, feed, 4, 3600.0, false);
    if posted.outcomes.len() != feed.len() {
        return Err("set-up telemetry was not all answered".into());
    }
    for o in &posted.outcomes {
        match &o.reply {
            Some(r) if r.status == 200 => {}
            Some(r) => return Err(format!("set-up telemetry refused with {}", r.status)),
            None => return Err("set-up telemetry got no reply".into()),
        }
    }
    for (request, want, epoch) in probes {
        let reply = conn.call(request, CALL_TIMEOUT).map_err(io)?;
        probe_ok(reply.status, &reply.body, *want, *epoch)
            .map_err(|e| format!("set-up probe {}: {e}", String::from_utf8_lossy(request)))?;
    }
    let warm = closed_loop(
        &mut conn,
        &inputs.warm_keys,
        &inputs.key_requests,
        16,
        3600.0,
        false,
    );
    let secs = host.calibrated.elapsed().as_secs_f64();
    steal.force(Instant::now());
    Ok(SetUp {
        host,
        secs,
        stolen: steal.share(),
        warm,
    })
}

/// Runs `a` here and `b` on one more thread.
fn on_two_threads<A: Send, B: Send>(
    a: impl FnOnce() -> A + Send,
    b: impl FnOnce() -> B + Send,
) -> (A, B) {
    std::thread::scope(|s| {
        let other = s.spawn(|| {
            tighten_timer_slack();
            b()
        });
        tighten_timer_slack();
        let here = a();
        (here, other.join().expect("load thread panicked"))
    })
}

fn connect(host: &Host) -> Result<Conn, String> {
    Conn::connect(host.addr).map_err(io)
}

/// Two connections served by different reactor threads.
///
/// The kernel spreads accepted connections over the gate's reactors by a
/// hash of the client port, so two connections share a reactor in about
/// half of all runs, which halves capacity and couples their latencies.
/// A run would then measure the placement, not the server. The pair is
/// placed by probing: while the first connection waits on an uncached
/// question (a headroom search, milliseconds of work inline on its
/// reactor), a request the router refuses at once goes out on the second;
/// if that reply is held up too, both share a reactor and the second
/// connection is replaced.
fn connect_pair(
    addr: std::net::SocketAddr,
    tenants: &[cos_serve::TenantId],
) -> Result<(Conn, Conn), String> {
    // Uncached headroom searches queued on the first connection per probe:
    // tens of milliseconds of reactor work, far above scheduling noise.
    const SLOW: usize = 4;
    let mut probe = 0;
    let mut a = Conn::connect(addr).map_err(io)?;
    let refused = format!(
        "GET /v1/tenants/{}/none HTTP/1.1\r\nHost: bench\r\n\r\n",
        tenants[0]
    );
    for _ in 0..64 {
        let mut b = Conn::connect(addr).map_err(io)?;
        // The first request on a connection also waits for its accept.
        b.call(refused.as_bytes(), CALL_TIMEOUT).map_err(io)?;
        let mut slow = Vec::new();
        for _ in 0..SLOW {
            probe += 1;
            let request = format!(
                "GET /v1/tenants/{}/headroom?sla=0.2000&target={:.4} HTTP/1.1\r\nHost: bench\r\n\r\n",
                tenants[0],
                0.5 + 1e-4 * probe as f64
            );
            slow.extend_from_slice(request.as_bytes());
        }
        let sent = Instant::now();
        a.send(&slow).map_err(io)?;
        std::thread::sleep(Duration::from_millis(1));
        let fast = Instant::now();
        b.call(refused.as_bytes(), CALL_TIMEOUT).map_err(io)?;
        let fast = fast.elapsed();
        for _ in 0..SLOW {
            a.recv(Instant::now() + CALL_TIMEOUT)
                .map_err(io)?
                .ok_or("the placement probe got no reply")?;
        }
        if fast * 3 < sent.elapsed() {
            return Ok((a, b));
        }
    }
    Err("could not place two connections on different reactor threads".into())
}

/// Per-reply bookkeeping of a read phase: the outcome, whether it passed
/// the per-reply checks.
struct Checked<'a> {
    outcome: &'a Outcome,
    passed: bool,
}

/// Checks every reply of `logs`. A reply sharing its allocation with the
/// last one checked for its request is byte-identical to it and takes its
/// result.
fn check_reads<'a>(
    oracle: &mut Oracle,
    inputs: &Inputs,
    replay: &Replay,
    logs: &'a [PhaseLog],
) -> Vec<Checked<'a>> {
    let mut out = Vec::new();
    let mut last: Vec<Option<(&Arc<Reply>, bool)>> = vec![None; inputs.keys.len()];
    for log in logs {
        for o in &log.outcomes {
            let key = &inputs.keys[o.request];
            let passed = match (&o.reply, last[o.request]) {
                (Some(r), Some((prev, passed))) if Arc::ptr_eq(r, prev) => {
                    oracle.repeat(key, passed);
                    passed
                }
                (Some(r), _) => {
                    let passed = oracle.check(key, Some(r.status), &r.body, replay);
                    last[o.request] = Some((r, passed));
                    passed
                }
                (None, _) => oracle.check(key, None, &[], replay),
            };
            out.push(Checked { outcome: o, passed });
        }
    }
    out
}

/// Checks telemetry replies: `200` and every event accepted.
fn check_feed(inputs: &Inputs, log: &PhaseLog) -> u64 {
    log.outcomes
        .iter()
        .filter(|o| {
            let want = inputs.live_feed[o.request].events.len() as f64;
            let ok = o.reply.as_ref().is_some_and(|r| {
                r.status == 200
                    && std::str::from_utf8(&r.body)
                        .ok()
                        .and_then(|t| cos_gate::json::parse(t).ok())
                        .and_then(|v| v.f64_field("accepted").ok())
                        == Some(want)
            });
            !ok
        })
        .count() as u64
        + (log.sent - log.outcomes.len() as u64)
}

/// The end-to-end run.
pub fn run(args: &Args) -> Result<(), String> {
    let workload = args.workload;
    print_line(
        "fingerprint",
        fingerprint(workload.name(), args.seed, args.seconds, false),
    );
    let seconds = args.seconds as f64;
    let phases = Phases::new(seconds);
    let (inputs, replay) = prepare(workload, args.seed, seconds);
    let spec = inputs.spec;
    let setup_requests: Vec<Vec<u8>> = inputs
        .setup_feed
        .iter()
        .map(|b| post_request(&inputs.tenants, b))
        .collect();
    let probes = probes(&inputs, &replay)?;

    // Set-up, several times; the last server stays up for the phases.
    let mut setup_secs = Vec::new();
    let mut warm_logs = Vec::new();
    let mut set_up = |keep: bool| -> Result<Option<Host>, String> {
        let s = setup(&inputs, &setup_requests, &probes)?;
        setup_secs.push((s.secs, s.stolen));
        warm_logs.push(s.warm);
        if keep {
            return Ok(Some(s.host));
        }
        s.host.quit().map_err(io)?;
        Ok(None)
    };
    let mut host = None;
    for i in 0..SETUPS_BEFORE {
        host = set_up(i + 1 == SETUPS_BEFORE)?;
    }
    let host = host.expect("at least one set-up");

    // Phase 1: open-loop reads on both connections.
    let (mut c0, mut c1) = connect_pair(host.addr, &inputs.tenants)?;
    let start = Instant::now() + Duration::from_millis(20);
    let cpu_open = host.cpu_seconds().map_err(io)?;
    let (open_a, open_b) = on_two_threads(
        || {
            open_loop(
                &mut c0,
                &inputs.read_schedules[0],
                &inputs.key_requests,
                start,
                true,
            )
        },
        || {
            open_loop(
                &mut c1,
                &inputs.read_schedules[1],
                &inputs.key_requests,
                start,
                false,
            )
        },
    );
    let open_reads = [open_a, open_b];
    let cpu_open = host.cpu_seconds().map_err(io)? - cpu_open;

    // Phase 2: closed-loop read capacity, a fixed number of GETs on one
    // connection: one load thread and one busy reactor, a CPU each on a
    // 2-CPU box. Two connections would put four busy threads on two CPUs,
    // and capacity would follow where the scheduler placed them.
    let mut conn = connect(&host)?;
    let cpu_cap = host.cpu_seconds().map_err(io)?;
    let cap_log = closed_loop(
        &mut conn,
        &inputs.capacity_order,
        &inputs.key_requests,
        spec.pipeline_depth,
        CAPACITY_CAP,
        true,
    );
    let cpu_cap = host.cpu_seconds().map_err(io)? - cpu_cap;

    // The simulator-fed tenant's prediction after its final refit.
    let sim = inputs.tenants.len() - 1;
    let predict_key = probe_key(sim);
    let predict_reply = conn
        .call(&predict_key.request(&inputs.tenants), CALL_TIMEOUT)
        .map_err(io)?;
    let rss_mb = host.peak_rss_mb().map_err(io)?;

    // Phases 3 and 4: telemetry, open loop then closed loop.
    let schedule = paced_schedule(
        INGEST_BATCH_RATE,
        phases.ingest_open,
        inputs.live_requests.len(),
    );
    tighten_timer_slack();
    let ingest_open = open_loop(
        &mut conn,
        &schedule,
        &inputs.live_requests,
        Instant::now() + Duration::from_millis(5),
        true,
    );
    let next_batch = ingest_open.sent as usize;
    let capacity_batches = phases.capacity_batches();
    let order: Vec<usize> = (next_batch..next_batch + capacity_batches).collect();
    if next_batch + capacity_batches > inputs.live_requests.len() {
        return Err("the telemetry feed is shorter than its phases".into());
    }
    let cpu_ingest = host.cpu_seconds().map_err(io)?;
    let ingest_cap = closed_loop(
        &mut conn,
        &order,
        &inputs.live_requests,
        INGEST_DEPTH,
        CAPACITY_CAP,
        true,
    );
    let cpu_ingest = host.cpu_seconds().map_err(io)? - cpu_ingest;
    drop(conn);
    host.quit().map_err(io)?;
    for _ in 0..SETUPS_AFTER {
        set_up(false)?;
    }

    // Verification.
    let mut oracle = Oracle::new();
    let warm_checked = check_reads(&mut oracle, &inputs, &replay, &warm_logs);
    let open_checked = check_reads(&mut oracle, &inputs, &replay, &open_reads);
    let cap_checked = check_reads(
        &mut oracle,
        &inputs,
        &replay,
        std::slice::from_ref(&cap_log),
    );
    let predict_ok = oracle.check(
        &predict_key,
        Some(predict_reply.status),
        &predict_reply.body,
        &replay,
    );
    let predicted = cos_gate::json::parse(&String::from_utf8_lossy(&predict_reply.body))
        .ok()
        .and_then(|v| v.f64_field("value").ok());
    let verdict = oracle.finish(&replay, cos_par::default_workers().min(2));
    let predict_ok =
        predict_ok && predicted.is_some() && !verdict.failed_groups.contains(&predict_key);

    let group_failed = |c: &Checked| {
        !c.passed
            || verdict
                .failed_groups
                .contains(&inputs.keys[c.outcome.request])
    };
    let count = |phase: &str, checked: &[Checked], sent: u64| {
        let failed = checked.iter().filter(|c| group_failed(c)).count() as u64
            + (sent - checked.len() as u64);
        PhaseCounts {
            phase: phase.into(),
            sent,
            ok: sent - failed,
            failed,
        }
    };
    let feed_counts = |phase: &str, log: &PhaseLog| {
        let failed = check_feed(&inputs, log);
        PhaseCounts {
            phase: phase.into(),
            sent: log.sent,
            ok: log.sent - failed,
            failed,
        }
    };
    let mut counts = vec![
        count(
            "setup-warm",
            &warm_checked,
            warm_logs.iter().map(|l| l.sent).sum(),
        ),
        count(
            "open-reads",
            &open_checked,
            open_reads.iter().map(|l| l.sent).sum(),
        ),
        count("capacity-reads", &cap_checked, cap_log.sent),
        PhaseCounts {
            phase: "predict-probe".into(),
            sent: 1,
            ok: u64::from(predict_ok),
            failed: u64::from(!predict_ok),
        },
    ];
    counts.push(feed_counts("open-ingest", &ingest_open));
    counts.push(feed_counts("capacity-ingest", &ingest_cap));
    let attempted: u64 = counts.iter().map(|c| c.sent).sum();
    let failed: u64 = counts.iter().map(|c| c.failed).sum();

    // Latency and capacity figures, over each phase's quiet stretches.
    let due = |o: &Outcome| o.done - Duration::from_secs_f64(o.latency);
    let open_quiet = open_reads[0].steal.quiet();
    let is_query = |c: &&Checked| !matches!(inputs.keys[c.outcome.request], Key::Metrics);
    let quiet_reads: Vec<&Checked> = open_checked
        .iter()
        .filter(is_query)
        .filter(|c| open_quiet.covers(due(c.outcome), c.outcome.done))
        .collect();
    let query_lat: Vec<f64> = quiet_reads.iter().map(|c| c.outcome.latency).collect();
    let within = quiet_reads
        .iter()
        .filter(|c| !group_failed(c) && c.outcome.latency <= spec.sla_limit)
        .count();
    let query_sla_frac = within as f64 / query_lat.len().max(1) as f64;
    let cap_quiet = cap_log.steal.quiet();
    let cap_ok = cap_checked
        .iter()
        .filter(|c| !group_failed(c) && cap_quiet.contains(c.outcome.done))
        .count();
    let query_rps = cap_ok as f64 / cap_quiet.seconds(cap_log.elapsed);
    let ingest_log = &ingest_open;
    let ingest_quiet = ingest_log.steal.quiet();
    let ingest_lat: Vec<f64> = ingest_log
        .outcomes
        .iter()
        .filter(|o| ingest_quiet.covers(due(o), o.done))
        .map(|o| o.latency)
        .collect();
    let eps_quiet = ingest_cap.steal.quiet();
    let events: usize = ingest_cap
        .outcomes
        .iter()
        .filter(|o| o.reply.as_ref().is_some_and(|r| r.status == 200) && eps_quiet.contains(o.done))
        .map(|o| inputs.live_feed[o.request].events.len())
        .sum();
    let ingest_eps = events as f64 / eps_quiet.seconds(ingest_cap.elapsed);
    let cap_replies = cap_log.outcomes.len();
    let query_cpu_us = cpu_cap / cap_replies.max(1) as f64 * 1e6;
    let all_events: usize = ingest_cap
        .outcomes
        .iter()
        .map(|o| inputs.live_feed[o.request].events.len())
        .sum();
    let ingest_cpu_us = cpu_ingest / all_events.max(1) as f64 * 1e6;
    let open_requests: u64 = open_reads.iter().map(|l| l.sent).sum();
    let open_cpu_us = cpu_open / open_requests.max(1) as f64 * 1e6;
    let mut lateness: Vec<f64> = open_reads
        .iter()
        .flat_map(|l| l.lateness.iter().copied())
        .collect();
    lateness.extend(ingest_log.lateness.iter().copied());
    let late_p50 = percentile(&lateness, 0.50).ok_or("no open-loop sends")?;
    let late_p99 = percentile(&lateness, 0.99).ok_or("no open-loop sends")?;

    let q50 = percentile(&query_lat, 0.50).ok_or("no quiet open-loop reads")?;
    let q99 = supported_percentile(&query_lat, 0.99);
    let i50 = percentile(&ingest_lat, 0.50).ok_or("no quiet open-loop telemetry")?;
    let i99 = supported_percentile(&ingest_lat, 0.99);
    let steal = |log: &PhaseLog| Value::Number(log.steal.share());
    let predict_err = predicted.map(|p| (p - inputs.sim_observed).abs());

    let support = |p: &Option<Percentile>, scale: f64| {
        p.as_ref()
            .map_or(Value::String("fewer than 10 samples beyond".into()), |p| {
                percentile_detail(p, scale)
            })
    };
    let detail = vec![
        ("phases".to_string(), phases_detail(&counts)),
        (
            "setup_s_each".to_string(),
            Value::Array(
                setup_secs
                    .iter()
                    .map(|&(s, stolen)| {
                        Value::Object(vec![
                            ("s".into(), Value::Number(s)),
                            ("stolen".into(), Value::Number(stolen)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "query_fail_frac".to_string(),
            Value::Number(failed as f64 / attempted as f64),
        ),
        (
            "quiet".to_string(),
            Value::Object(vec![
                ("query_p50_us".into(), percentile_detail(&q50, 1e6)),
                ("query_p99_us".into(), support(&q99, 1e6)),
                ("query_sla_frac".into(), Value::Number(query_sla_frac)),
                ("query_rps".into(), Value::Number(query_rps)),
                ("ingest_eps".into(), Value::Number(ingest_eps)),
                ("ingest_p50_ms".into(), percentile_detail(&i50, 1e3)),
                ("ingest_p99_ms".into(), support(&i99, 1e3)),
            ]),
        ),
        (
            "open_cpu_us_per_request".to_string(),
            Value::Number(open_cpu_us),
        ),
        (
            "loadgen.late_p50_us".to_string(),
            percentile_detail(&late_p50, 1e6),
        ),
        (
            "loadgen.late_p99_us".to_string(),
            percentile_detail(&late_p99, 1e6),
        ),
        (
            "steal_share".to_string(),
            Value::Object(vec![
                ("open".into(), steal(&open_reads[0])),
                ("capacity".into(), steal(&cap_log)),
                ("open-ingest".into(), steal(ingest_log)),
                ("capacity-ingest".into(), steal(&ingest_cap)),
            ]),
        ),
        (
            "quiet_seconds".to_string(),
            Value::Object(vec![
                (
                    "open".into(),
                    Value::Number(open_quiet.seconds(phases.open)),
                ),
                (
                    "capacity".into(),
                    Value::Number(cap_quiet.seconds(cap_log.elapsed)),
                ),
                (
                    "open-ingest".into(),
                    Value::Number(ingest_quiet.seconds(0.0)),
                ),
                (
                    "capacity-ingest".into(),
                    Value::Number(eps_quiet.seconds(0.0)),
                ),
            ]),
        ),
        ("answer_err".to_string(), Value::Number(verdict.answer_err)),
        (
            "answers_referenced".to_string(),
            Value::Number(verdict.referenced as f64),
        ),
        (
            "percentiles_passed_on_attainment".to_string(),
            Value::Number(verdict.attainment_passes as f64),
        ),
        (
            "predict_err".to_string(),
            predict_err.map_or(Value::Null, Value::Number),
        ),
        (
            "sim_observed".to_string(),
            Value::Number(inputs.sim_observed),
        ),
        (
            "failures".to_string(),
            Value::Array(
                verdict
                    .reasons
                    .iter()
                    .map(|r| Value::String(r.clone()))
                    .collect(),
            ),
        ),
    ];
    print_line("detail", Value::Object(detail));

    if late_p50.value > LATE_MEDIAN_LIMIT {
        return Err(format!(
            "invalid run: the generator fell behind its schedule (late p50 {:.0} us, p99 {:.0} us)",
            late_p50.value * 1e6,
            late_p99.value * 1e6,
        ));
    }
    print_result(
        failed == 0,
        attempted,
        failed,
        &[
            ("setup_s", quiet_median(&setup_secs), "s"),
            ("query_cpu_us", query_cpu_us, "us"),
            ("ingest_cpu_us", ingest_cpu_us, "us"),
            ("rss_mb", rss_mb, "MiB"),
        ],
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::quiet_median;

    #[test]
    fn set_ups_that_lost_cpu_time_are_left_out_of_the_median() {
        let times = [
            (0.06, 0.0),
            (0.07, 0.0),
            (0.20, 0.3),
            (0.05, 0.0),
            (0.19, 0.2),
        ];
        assert_eq!(quiet_median(&times), 0.06);
        // Without stolen time every set-up counts.
        let calm = [(0.06, 0.0), (0.20, 0.0), (0.05, 0.0)];
        assert_eq!(quiet_median(&calm), 0.06);
    }
}
