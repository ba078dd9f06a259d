//! The traced run: per-layer costs of the same generated requests.
//!
//! Nothing inside the program is instrumented. The benchmark replays the
//! workload's requests in-process and times its own calls into each crate's
//! public functions:
//!
//! * `cos-gate` — `parse_one`, `handle_full`, `Value::encode`,
//!   `json::parse` + `decode_events`, the `/metrics` route, and a loopback
//!   `Gate` for transport cost, syscall and allocation counts;
//! * `cos-serve` — `SnapshotReader` reads (hits and misses by kind), cache
//!   counters over the replayed read stream, `SlaService::ingest_for`,
//!   `refit_fleet` and delta-publish accounting;
//! * `cos-model`, `cos-numeric`, `cos-queueing`, `cos-distr`, `cos-obs` —
//!   model build, one attainment, percentile searches, one Euler inversion
//!   and its transform evaluations, one device transform, one Gamma
//!   transform, one histogram record.
//!
//! The ladder reconciles one warm GET's loopback round trip with its parts:
//! `RTT ≈ parse + handle + wire`, where `wire` is measured apart, on a
//! request the router refuses at once.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use cos_distr::{Gamma, Lst};
use cos_gate::{handle_full, parse_one, Gate, GateConfig, ReadPath, Request};
use cos_model::{CodedReadModel, CodingSpec, ModelVariant, SystemModel, SystemParams};
use cos_numeric::{Complex64, CountingLaplaceFn, InversionConfig, QUANTILE_INVERSION_BUDGET};
use cos_par::alloc_probe::{tracked_allocs, CountingAlloc};
use cos_serve::{Query, ServiceClient, SlaService, SnapshotReader};

use crate::inputs::{base, serve_config, whatif_keys, Key, Phases};
use crate::loadgen::{open_loop, PhaseLog};
use crate::oracle::Oracle;
use crate::report::{fingerprint, phases_detail, print_line, print_result, PhaseCounts};
use crate::run::{prepare, probe_key};
use crate::stats::{median, percentile};
use crate::wire::{tighten_timer_slack, Conn};
use crate::Args;

static COUNT_ALLOCS: AtomicBool = AtomicBool::new(false);

/// The process allocator: the system allocator, counting allocations of
/// opted-in threads (the gate's reactors) only while the traced run has
/// switched counting on. End-to-end runs never switch it on.
pub struct GatedAlloc;

// SAFETY: every path hands the request to `System`, either directly or
// through `CountingAlloc`, which itself defers to `System` and only bumps a
// counter. Memory from either path is therefore `System` memory and may be
// freed or reallocated by either.
unsafe impl GlobalAlloc for GatedAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNT_ALLOCS.load(Ordering::Relaxed) {
            CountingAlloc.alloc(layout)
        } else {
            System.alloc(layout)
        }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNT_ALLOCS.load(Ordering::Relaxed) {
            CountingAlloc.alloc_zeroed(layout)
        } else {
            System.alloc_zeroed(layout)
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNT_ALLOCS.load(Ordering::Relaxed) {
            CountingAlloc.realloc(ptr, layout, new_size)
        } else {
            System.realloc(ptr, layout, new_size)
        }
    }
}

/// Median nanoseconds per call of `f`, timed in `batches` batches of
/// `per_batch` calls (one clock read per batch, so ns-scale calls are not
/// swamped by the clock).
fn ns_per_call(batches: usize, per_batch: usize, mut f: impl FnMut()) -> f64 {
    let mut per = Vec::with_capacity(batches);
    for _ in 0..batches {
        let start = Instant::now();
        for _ in 0..per_batch {
            f();
        }
        per.push(start.elapsed().as_nanos() as f64 / per_batch as f64);
    }
    median(&per)
}

/// Median microseconds of single calls of `f` over `calls` calls.
fn us_each(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let times: Vec<f64> = (0..calls)
        .map(|i| {
            let start = Instant::now();
            f(i);
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&times)
}

fn request(bytes: &[u8]) -> Request {
    parse_one(bytes)
        .expect("generated requests parse")
        .expect("generated requests are complete")
}

/// Collected metrics, in print order.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }
}

/// One single-outstanding loopback round trip per request, `n` times.
fn round_trips(conn: &mut Conn, bytes: &[u8], n: usize) -> Result<Vec<f64>, String> {
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let start = Instant::now();
        let reply = conn
            .call(bytes, Duration::from_secs(10))
            .map_err(|e| e.to_string())?;
        out.push(start.elapsed().as_secs_f64() * 1e6);
        black_box(reply);
    }
    Ok(out)
}

/// A miss metric: its name, the keys it times, and how many of them.
type MissKind = (&'static str, fn(&Key) -> bool, usize);

/// Per-kind miss costs against a reader whose cache holds none of the
/// keys asked: what-if keys over tenant 0's current fit.
fn miss_costs(
    reader: &SnapshotReader,
    tenant: &cos_serve::TenantId,
    params: &SystemParams,
    m: &mut Metrics,
) {
    let keys = whatif_keys(params);
    let pick = |want: fn(&Key) -> bool, n: usize| -> Vec<Key> {
        let all: Vec<Key> = keys.iter().filter(|k| want(k)).copied().collect();
        let step = (all.len() / n).max(1);
        all.into_iter().step_by(step).take(n).collect()
    };
    let q = || Query::tenant(tenant.clone());
    let ask = |key: &Key| {
        let answer = match *key {
            Key::AttainmentAt { sla_q, rate_q, .. } => reader.attainment(
                &q().sla(sla_q as f64 * cos_serve::SLA_QUANTUM)
                    .rate(rate_q as f64 * cos_serve::RATE_QUANTUM),
            ),
            Key::Percentile { p_q, .. } => {
                reader.latency_percentile(&q().p(p_q as f64 * cos_serve::FRACTION_QUANTUM))
            }
            Key::CodedPercentile { p_q, n, k, .. } => reader
                .latency_percentile(&q().p(p_q as f64 * cos_serve::FRACTION_QUANTUM).n_k(n, k)),
            Key::Headroom { sla_q, frac_q, .. } => reader.admissible_rate(
                &q().sla(sla_q as f64 * cos_serve::SLA_QUANTUM)
                    .target(frac_q as f64 * cos_serve::FRACTION_QUANTUM),
            ),
            _ => unreachable!("only what-if keys"),
        };
        black_box(answer.expect("what-if keys have answers"));
    };
    let kinds: [MissKind; 4] = [
        (
            "serve.read.miss_us.attainment_rate",
            |k| matches!(k, Key::AttainmentAt { .. }),
            40,
        ),
        (
            "serve.read.miss_us.percentile",
            |k| matches!(k, Key::Percentile { .. }),
            24,
        ),
        (
            "serve.read.miss_us.headroom",
            |k| matches!(k, Key::Headroom { .. }),
            8,
        ),
        (
            "serve.read.miss_us.coded_percentile",
            |k| matches!(k, Key::CodedPercentile { .. }),
            16,
        ),
    ];
    for (name, want, n) in kinds {
        let chosen = pick(want, n);
        m.put(name, us_each(chosen.len(), |i| ask(&chosen[i])), "us");
    }
}

/// Model, inversion, transform and histogram costs on tenant 0's fit.
fn model_costs(params: &SystemParams, headroom_us: f64, m: &mut Metrics) {
    let build = || SystemModel::new(params, ModelVariant::Full).expect("calibrated fit is stable");
    let model = build();
    let build_us = us_each(40, |_| {
        black_box(build());
    });
    let fraction_us = us_each(40, |_| {
        black_box(model.fraction_meeting_sla(black_box(0.05)));
    });
    m.put("model.build_us", build_us, "us");
    m.put("model.fraction_us", fraction_us, "us");
    m.put(
        "model.percentile_us",
        us_each(20, |_| {
            black_box(model.latency_percentile(black_box(0.95)));
        }),
        "us",
    );
    m.put(
        "model.coded_percentile_us",
        us_each(10, |_| {
            let coded = CodedReadModel::new(params, CodingSpec::new(6, 4)).expect("stable");
            black_box(coded.latency_percentile(black_box(0.95)));
        }),
        "us",
    );
    m.put(
        "numeric.euler_us",
        us_each(200, |_| {
            black_box(model.device_fraction_meeting(0, black_box(0.05)));
        }),
        "us",
    );
    let transform = |s: Complex64| model.device_response_lst(0, s);
    let counting = CountingLaplaceFn::new(&transform);
    black_box(cos_numeric::cdf_from_lst(
        &counting,
        0.05,
        &InversionConfig::default(),
    ));
    m.put(
        "numeric.evals_per_inversion",
        counting.evals() as f64 / counting.batch_calls().max(1) as f64,
        "count",
    );
    let mut probes = 0usize;
    black_box(cos_numeric::invert_monotone(
        |t| {
            probes += 1;
            model.fraction_meeting_sla(t)
        },
        0.95,
        model.mean_response().max(1e-6),
        40,
        QUANTILE_INVERSION_BUDGET,
    ));
    m.put("numeric.inversions_per_percentile", probes as f64, "count");
    m.put(
        "numeric.inversions_per_headroom",
        headroom_us / (build_us + fraction_us),
        "count",
    );
    let abscissae: Vec<Complex64> = (0..111)
        .map(|k| Complex64::new(9.2 / 0.05, k as f64 * std::f64::consts::PI / 0.05))
        .collect();
    let mut out = vec![Complex64::ZERO; abscissae.len()];
    m.put(
        "queueing.device_lst_ns",
        ns_per_call(50, 20, || {
            model.device_response_lst_batch(0, &abscissae, &mut out)
        }) / abscissae.len() as f64,
        "ns",
    );
    let gamma = Gamma::new(3.0, 250.0);
    let s = Complex64::new(184.0, 62.8);
    m.put(
        "distr.gamma_lst_ns",
        ns_per_call(50, 2000, || {
            black_box(gamma.lst(black_box(s)));
        }),
        "ns",
    );
    let hist = cos_obs::Hist::new();
    let mut x = 1_000u64;
    m.put(
        "obs.record_ns",
        ns_per_call(50, 2000, || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            hist.record_ns(black_box(x >> 44));
        }),
        "ns",
    );
}

fn cache_lookups(client: &ServiceClient) -> (u64, u64) {
    let s = client.read_status().expect("the service is up");
    (s.engine.cache.hits, s.engine.cache.misses)
}

/// The traced run.
pub fn run(args: &Args) -> Result<(), String> {
    let workload = args.workload;
    print_line(
        "fingerprint",
        fingerprint(workload.name(), args.seed, args.seconds, true),
    );
    let phases = Phases::new(args.seconds as f64);
    let (inputs, mut replay) = prepare(workload, args.seed, args.seconds as f64);
    let mut m = Metrics::default();
    let mut counts: Vec<PhaseCounts> = Vec::new();
    let mut oracle = Oracle::new();

    // The same service the serving process runs, in-process, set up through
    // the route handler with the same bytes.
    let registry = cos_obs::Registry::new();
    let handle = SlaService::new(base(), serve_config(registry.clone())).spawn();
    let client = handle.client();
    let setup_posts: Vec<Vec<u8>> = inputs
        .setup_feed
        .iter()
        .map(|b| crate::inputs::post_request(&inputs.tenants, b))
        .collect();
    for bytes in &setup_posts {
        let resp = handle_full(&client, None, ReadPath::Snapshot, &request(bytes));
        if resp.status != 200 {
            return Err(format!("set-up telemetry refused with {}", resp.status));
        }
    }
    let mut setup_ok = 0;
    for &k in &inputs.warm_keys {
        let resp = handle_full(
            &client,
            None,
            ReadPath::Snapshot,
            &request(&inputs.key_requests[k]),
        );
        setup_ok +=
            u64::from(oracle.check(&inputs.keys[k], Some(resp.status), &resp.body, &replay));
    }
    counts.push(PhaseCounts {
        phase: "setup-warm".into(),
        sent: inputs.warm_keys.len() as u64,
        ok: setup_ok,
        failed: inputs.warm_keys.len() as u64 - setup_ok,
    });

    // Replay the first connection's open-loop reads in schedule order.
    let (hits0, misses0) = cache_lookups(&client);
    let (mut parse_ns, mut handle_ns) = (Vec::new(), Vec::new());
    let mut replay_ok = 0u64;
    let reads = &inputs.read_schedules[0];
    for &(_, i) in reads {
        let bytes = &inputs.key_requests[i];
        let t0 = Instant::now();
        let req = request(bytes);
        let t1 = Instant::now();
        let resp = handle_full(&client, None, ReadPath::Snapshot, &req);
        let t2 = Instant::now();
        parse_ns.push((t1 - t0).as_nanos() as f64);
        handle_ns.push((t2 - t1).as_nanos() as f64);
        replay_ok +=
            u64::from(oracle.check(&inputs.keys[i], Some(resp.status), &resp.body, &replay));
    }
    let (hits1, misses1) = cache_lookups(&client);
    let replay_sent = reads.len() as u64;
    counts.push(PhaseCounts {
        phase: "replay".into(),
        sent: replay_sent,
        ok: replay_ok,
        failed: replay_sent - replay_ok,
    });
    let lookups = (hits1 - hits0) + (misses1 - misses0);
    m.put(
        "serve.cache.hit_ratio",
        (hits1 - hits0) as f64 / lookups.max(1) as f64,
        "ratio",
    );
    m.put("serve.cache.lookups", lookups as f64, "count");
    m.put(
        "serve.cache.misses_per_query",
        (misses1 - misses0) as f64 / replay_sent.max(1) as f64,
        "count",
    );
    m.put("gate.replay.parse_p50_ns", median(&parse_ns), "ns");
    m.put("gate.replay.handle_p50_us", median(&handle_ns) / 1e3, "us");

    // Gate layer costs on one warm GET (tenant 0's prewarmed attainment).
    let warm = probe_key(0).request(&inputs.tenants);
    let warm_req = request(&warm);
    let parse_warm = ns_per_call(41, 500, || {
        black_box(parse_one(black_box(&warm)).ok());
    });
    let handle_warm = ns_per_call(41, 500, || {
        black_box(handle_full(&client, None, ReadPath::Snapshot, &warm_req));
    });
    m.put("gate.http.parse_ns", parse_warm, "ns");
    m.put("gate.routes.handle_ns", handle_warm, "ns");
    let body = handle_full(&client, None, ReadPath::Snapshot, &warm_req).body;
    let doc = cos_gate::json::parse(std::str::from_utf8(&body).map_err(|_| "non-UTF-8 body")?)?;
    m.put(
        "gate.json.encode_ns",
        ns_per_call(41, 500, || {
            black_box(doc.encode());
        }),
        "ns",
    );
    // The scrape as the serving gate renders it: service summary, tenant
    // block and every instrument registered by the service and the gate.
    let scrape = request(b"GET /metrics HTTP/1.1\r\nHost: bench\r\n\r\n");
    let gate_obs = cos_gate::GateObs::register(&registry);
    m.put(
        "gate.metrics.render_us",
        us_each(200, |_| {
            black_box(handle_full(
                &client,
                Some(&gate_obs),
                ReadPath::Snapshot,
                &scrape,
            ));
        }),
        "us",
    );
    let posts = &inputs.live_requests[..200.min(inputs.live_requests.len())];
    m.put(
        "gate.http.parse_post_us",
        us_each(posts.len(), |i| {
            black_box(parse_one(&posts[i]).ok());
        }),
        "us",
    );
    let bodies: Vec<Request> = posts.iter().map(|p| request(p)).collect();
    m.put(
        "gate.routes.decode_events_us",
        us_each(bodies.len(), |i| {
            let text = std::str::from_utf8(&bodies[i].body).expect("UTF-8 body");
            let doc = cos_gate::json::parse(text).expect("valid JSON");
            black_box(cos_gate::decode_events(&doc).ok());
        }),
        "us",
    );

    // Tracing overhead: the same warm calls with and without a clock read
    // around each, in alternating rounds; the median of the rounds' ratios.
    let round = 2_000;
    let mut ratios = Vec::new();
    for _ in 0..11 {
        let bare = Instant::now();
        for _ in 0..round {
            black_box(handle_full(
                &client,
                None,
                ReadPath::Snapshot,
                &request(&warm),
            ));
        }
        let bare = bare.elapsed().as_secs_f64();
        let traced = Instant::now();
        let mut sink = 0u128;
        for _ in 0..round {
            let t0 = Instant::now();
            let req = request(&warm);
            let t1 = Instant::now();
            black_box(handle_full(&client, None, ReadPath::Snapshot, &req));
            sink += (t1 - t0).as_nanos() + t1.elapsed().as_nanos();
        }
        black_box(sink);
        ratios.push(traced.elapsed().as_secs_f64() / bare - 1.0);
    }
    m.put("trace.overhead_frac", median(&ratios), "ratio");

    // Loopback gate: a short open-loop slice of the workload's reads (for
    // generator lateness), then the ladder's single-outstanding round trips
    // with syscall and allocation counts.
    let gate = Gate::bind(
        "127.0.0.1:0",
        client.clone(),
        GateConfig {
            obs: registry,
            ..GateConfig::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let mut conn = Conn::connect(gate.local_addr()).map_err(|e| e.to_string())?;
    tighten_timer_slack();
    let slice: Vec<(f64, usize)> = inputs.read_schedules[0]
        .iter()
        .copied()
        .take_while(|s| s.0 < 1.0)
        .filter(|s| !matches!(inputs.keys[s.1], Key::Metrics))
        .collect();
    let wire_log: PhaseLog = open_loop(
        &mut conn,
        &slice,
        &inputs.key_requests,
        Instant::now() + Duration::from_millis(5),
        false,
    );
    let mut wire_ok = 0;
    for o in &wire_log.outcomes {
        let (status, body) = match &o.reply {
            Some(r) => (Some(r.status), r.body.as_slice()),
            None => (None, &[][..]),
        };
        wire_ok += u64::from(oracle.check(&inputs.keys[o.request], status, body, &replay));
    }
    counts.push(PhaseCounts {
        phase: "wire-open".into(),
        sent: wire_log.sent,
        ok: wire_ok,
        failed: wire_log.sent - wire_ok,
    });
    let late = percentile(&wire_log.lateness, 0.99).ok_or("no open-loop sends")?;

    let refused = b"GET /v1/tenants/tenant-000/none HTTP/1.1\r\nHost: bench\r\n\r\n".to_vec();
    let refused_req = request(&refused);
    let parse_refused = ns_per_call(41, 500, || {
        black_box(parse_one(black_box(&refused)).ok());
    });
    let handle_refused = ns_per_call(41, 500, || {
        black_box(handle_full(&client, None, ReadPath::Snapshot, &refused_req));
    });
    round_trips(&mut conn, &warm, 2_000)?;
    let rtt_refused = median(&round_trips(&mut conn, &refused, 10_000)?);
    let sys0 = gate.syscalls();
    cos_par::alloc_probe::track_current_thread(false);
    COUNT_ALLOCS.store(true, Ordering::SeqCst);
    let allocs0 = tracked_allocs();
    let ladder_n = 10_000;
    let rtt_warm = median(&round_trips(&mut conn, &warm, ladder_n)?);
    let allocs = tracked_allocs() - allocs0;
    COUNT_ALLOCS.store(false, Ordering::SeqCst);
    let sys = gate.syscalls().since(&sys0);
    let wire_us = rtt_refused - (parse_refused + handle_refused) / 1e3;
    m.put("gate.wire_us", wire_us, "us");
    m.put("ladder.rtt_us", rtt_warm, "us");
    m.put(
        "ladder.unattributed_frac",
        (rtt_warm - wire_us - (parse_warm + handle_warm) / 1e3) / rtt_warm,
        "ratio",
    );
    let per = |x: u64| x as f64 / ladder_n as f64;
    m.put("gate.syscalls_per_req", per(sys.total()), "count");
    m.put("gate.waits_per_req", per(sys.waits), "count");
    m.put("gate.reads_per_req", per(sys.reads), "count");
    m.put("gate.writevs_per_req", per(sys.writevs), "count");
    m.put("gate.allocs_per_req", per(allocs), "count");
    drop(conn);
    gate.shutdown();

    // Snapshot reads on the live service.
    let reader = client.reader();
    let t0 = inputs.tenants[0].clone();
    m.put(
        "serve.snapshot.read_ns",
        ns_per_call(41, 2000, || {
            black_box(reader.state_for(black_box(&t0)).ok());
        }),
        "ns",
    );
    let hit = Query::tenant(t0.clone()).sla(crate::inputs::PREDICT_SLA);
    m.put(
        "serve.read.hit_ns",
        ns_per_call(41, 2000, || {
            black_box(reader.attainment(black_box(&hit)).ok());
        }),
        "ns",
    );
    let sim = inputs
        .tenants
        .last()
        .expect("the simulator-fed tenant")
        .clone();
    let predicted = reader
        .attainment(&Query::tenant(sim).sla(crate::inputs::PREDICT_SLA))
        .map_err(|e| format!("the simulator-fed tenant gave no prediction: {e}"))?;
    handle.shutdown().map_err(|e| e.to_string())?;

    // Misses, model and numeric layers against the synchronous replay, whose
    // cache has only its refits' prewarmed answers.
    let params = replay.params(0).ok_or("tenant 0 has no fit")?;
    let sync_reader = replay.service_mut().reader();
    miss_costs(&sync_reader, &t0, &params, &mut m);
    let headroom_us =
        m.0.iter()
            .find(|(n, _, _)| *n == "serve.read.miss_us.headroom")
            .map(|x| x.1)
            .expect("measured above");
    model_costs(&params, headroom_us, &mut m);

    // Ingest, refit and publish on the next batches of the feed.
    let service = replay.service_mut();
    let generation = |s: &SlaService| s.reader().generation();
    let (mut ingest_ns, mut ingest_events) = (0u128, 0usize);
    let (mut delta_bytes, mut republished, mut publishes) = (0usize, 0usize, 0usize);
    let capacity = phases.capacity_batches();
    for batch in &inputs.live_feed[..capacity.min(inputs.live_feed.len())] {
        let tenant = &inputs.tenants[batch.tenant];
        let before = generation(service);
        let start = Instant::now();
        for ev in &batch.events {
            service.ingest_for(tenant, *ev);
        }
        let took = start.elapsed().as_nanos();
        if generation(service) != before {
            let stats = service.last_publish_stats();
            delta_bytes += stats.delta_bytes;
            republished += stats.republished;
            publishes += 1;
        } else {
            ingest_ns += took;
            ingest_events += batch.events.len();
        }
    }
    m.put(
        "serve.ingest_ns_per_event",
        ingest_ns as f64 / ingest_events.max(1) as f64,
        "ns",
    );
    m.put(
        "serve.publish.delta_bytes",
        delta_bytes as f64 / publishes.max(1) as f64,
        "bytes",
    );
    m.put(
        "serve.publish.republished",
        republished as f64 / publishes.max(1) as f64,
        "count",
    );
    let workers = cos_par::default_workers();
    let refits: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            service.refit_fleet(workers);
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    m.put("serve.refit_ms", median(&refits), "ms");

    let verdict = oracle.finish(&replay, cos_par::default_workers().min(2));
    let sent: u64 = counts.iter().map(|c| c.sent).sum();
    // Every request went through the oracle, whose count includes answers
    // that failed the reference comparison.
    let failed = verdict.failed;
    m.put("oracle.answer_err", verdict.answer_err, "ratio");
    m.put(
        "oracle.predict_err",
        (predicted.value - inputs.sim_observed).abs(),
        "abs",
    );
    m.put("loadgen.sent", sent as f64, "count");
    m.put("loadgen.ok", (sent - failed.min(sent)) as f64, "count");
    m.put("loadgen.late_p99_us", late.value * 1e6, "us");
    print_line(
        "detail",
        cos_gate::json::Value::Object(vec![
            ("phases".into(), phases_detail(&counts)),
            (
                "loadgen.failed".into(),
                cos_gate::json::Value::Number(failed as f64),
            ),
            (
                "answers_referenced".into(),
                cos_gate::json::Value::Number(verdict.referenced as f64),
            ),
            (
                "failures".into(),
                cos_gate::json::Value::Array(
                    verdict
                        .reasons
                        .iter()
                        .map(|r| cos_gate::json::Value::String(r.clone()))
                        .collect(),
                ),
            ),
        ]),
    );
    print_result(failed == 0, sent, failed, &m.0);
    Ok(())
}
