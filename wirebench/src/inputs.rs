//! Everything the benchmark sends, generated from the seed before any
//! timing starts: the service deployment both processes build, the
//! telemetry feeds, the read key space, and the open-loop schedules.
//!
//! The serving process receives only the bytes produced here. The same
//! seed always yields byte-identical request streams (tested below).

use std::sync::mpsc::channel;

use cos_bench::scenario::calibrate;
use cos_gate::encode_events;
use cos_model::{ModelVariant, SystemModel, SystemParams};
use cos_serve::{
    CalibrationBase, CalibratorConfig, OpClass, ServeConfig, TelemetryEvent, TenantId,
    FRACTION_QUANTUM, RATE_QUANTUM, SLA_QUANTUM,
};
use cos_storesim::{
    ClusterConfig, DiskOpKind, FleetConfig, FleetScenario, MetricsConfig, SimTelemetry, Simulation,
};
use cos_workload::TraceEvent;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The SLAs the service tracks and the dashboard polls (seconds).
const SLAS: [f64; 3] = [0.010, 0.050, 0.100];
/// Event-time seconds between the service's automatic re-fits.
const REFIT_INTERVAL: f64 = 5.0;
/// Event-time seconds of telemetry each tenant is calibrated on at set-up.
const CALIBRATION_SPAN: f64 = 12.0;
/// Devices per tenant (the S1 cluster's width).
const DEVICES: usize = 4;
/// `FleetScenario` tenants every workload calibrates (the simulator-fed
/// `sim-s1` comes on top).
const FLEET_TENANTS: usize = 16;
/// Arrival rate per device of each fleet tenant's telemetry (req/s, event
/// time). With one tenant-tick per batch, 1000 batches per wall second move
/// the fleet's clock about 15 s, so it crosses the 5 s refit interval about
/// three times a second: refits then delay a few percent of the batches,
/// and the telemetry p99 sits in the refit tail instead of on its edge.
const RATE_PER_DEVICE: f64 = 4.0;
/// Telemetry POST batches per wall second in every open-loop ingest phase.
pub const INGEST_BATCH_RATE: f64 = 1000.0;
/// Telemetry batches the closed-loop ingest phase posts per second of its
/// nominal length: a fixed amount of work, sized to take at most about that
/// long on a 2-CPU box, so the pre-encoded feed stays bounded.
const CAPACITY_BATCHES_PER_S: f64 = 8_000.0;
/// Arrival rate (req/s) of the simulated S1 cluster feeding `sim-s1`.
const SIM_RATE: f64 = 80.0;
/// Keep-alive connections the generator reads over, one thread each.
const READ_CONNECTIONS: usize = 2;
/// The SLA of the `predict_err` comparison (seconds).
pub const PREDICT_SLA: f64 = 0.050;

/// The benchmark workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 16 calibrated tenants polled on a resident key set: every answer is
    /// a cache hit, so the time is transport, parse, route and JSON.
    WarmDashboard,
    /// Capacity-planner what-if questions on one tenant of the fleet over a
    /// key space larger than the inversion cache: model builds and
    /// inversions.
    WhatifCold,
}

impl Workload {
    /// Parses a workload name as `BENCHMARK.json` spells it.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "warm-dashboard" => Some(Workload::WarmDashboard),
            "whatif-cold" => Some(Workload::WhatifCold),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmDashboard => "warm-dashboard",
            Workload::WhatifCold => "whatif-cold",
        }
    }

    /// The frozen load of this workload.
    pub fn spec(self) -> Spec {
        match self {
            Workload::WarmDashboard => Spec {
                read_rate: 4000.0,
                sla_limit: 0.001,
                pipeline_depth: 16,
                capacity_rate: 80_000.0,
            },
            Workload::WhatifCold => Spec {
                read_rate: 250.0,
                sla_limit: 0.050,
                pipeline_depth: 4,
                capacity_rate: 4_000.0,
            },
        }
    }
}

/// The frozen load of one workload: identical for every commit measured.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Open-loop GET rate over both connections (req/s).
    pub read_rate: f64,
    /// Latency limit of `query_sla_frac` (seconds).
    pub sla_limit: f64,
    /// Outstanding requests per connection in the closed-loop phases.
    pub pipeline_depth: usize,
    /// GETs per second of its nominal length the closed-loop read phase
    /// sends: a fixed amount of work, sized to take at most about that long
    /// on a 2-CPU box. Fixed work keeps the phase's cache history, and so
    /// its cost per GET, the same however fast the server is.
    pub capacity_rate: f64,
}

/// The disk and parse laws every tenant is calibrated against: the paper's
/// §IV-A benchmark run on the S1 cluster. Deterministic (the cluster
/// carries its own seed), so the serving process and the reference replay
/// build identical services.
pub fn base() -> CalibrationBase {
    let cluster = ClusterConfig::paper_s1();
    let c = calibrate(&cluster, 4_000);
    CalibrationBase {
        index_law: c.index_law,
        meta_law: c.meta_law,
        data_law: c.data_law,
        parse_be: c.parse_be,
        parse_fe: c.parse_fe,
        devices: cluster.devices,
        processes_per_device: cluster.processes_per_device,
        frontend_processes: cluster.frontend_processes,
    }
}

/// The service configuration both the serving process and the reference
/// replay use.
pub fn serve_config(obs: cos_obs::Registry) -> ServeConfig {
    ServeConfig {
        slas: SLAS.to_vec(),
        calibrator: CalibratorConfig {
            window: 20.0,
            buckets: 40,
            ..CalibratorConfig::default()
        },
        refit_interval: REFIT_INTERVAL,
        obs,
        ..ServeConfig::default()
    }
}

/// One `POST /v1/tenants/{tenant}/telemetry` body and what it carries.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Index into [`Inputs::tenants`].
    pub tenant: usize,
    /// Events in ingest order.
    pub events: Vec<TelemetryEvent>,
}

/// One read the generator can ask. Inputs are kept in their quantized
/// cells, so the wire text lands exactly on a cache key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Key {
    /// Attainment at the calibrated rate.
    Attainment { tenant: usize, sla_q: i64 },
    /// What-if attainment at another total rate.
    AttainmentAt {
        tenant: usize,
        sla_q: i64,
        rate_q: i64,
    },
    /// Response-latency percentile.
    Percentile { tenant: usize, p_q: i64 },
    /// Percentile of `k`-of-`n` erasure-coded reads.
    CodedPercentile {
        tenant: usize,
        p_q: i64,
        n: u16,
        k: u16,
    },
    /// Largest admissible rate meeting `sla` for a `frac` share.
    Headroom {
        tenant: usize,
        sla_q: i64,
        frac_q: i64,
    },
    /// The tenant's health summary.
    Status { tenant: usize },
    /// The Prometheus-style scrape.
    Metrics,
}

fn fixed(q: i64, quantum: f64, decimals: usize) -> String {
    format!("{:.*}", decimals, q as f64 * quantum)
}

impl Key {
    /// The tenant the key reads, if any.
    pub fn tenant(&self) -> Option<usize> {
        match *self {
            Key::Attainment { tenant, .. }
            | Key::AttainmentAt { tenant, .. }
            | Key::Percentile { tenant, .. }
            | Key::CodedPercentile { tenant, .. }
            | Key::Headroom { tenant, .. }
            | Key::Status { tenant } => Some(tenant),
            Key::Metrics => None,
        }
    }

    /// The request target (path and query).
    pub fn target(&self, tenants: &[TenantId]) -> String {
        let base = |t: usize| format!("/v1/tenants/{}", tenants[t]);
        match *self {
            Key::Attainment { tenant, sla_q } => {
                format!(
                    "{}/attainment?sla={}",
                    base(tenant),
                    fixed(sla_q, SLA_QUANTUM, 4)
                )
            }
            Key::AttainmentAt {
                tenant,
                sla_q,
                rate_q,
            } => format!(
                "{}/attainment?sla={}&rate={}",
                base(tenant),
                fixed(sla_q, SLA_QUANTUM, 4),
                fixed(rate_q, RATE_QUANTUM, 1)
            ),
            Key::Percentile { tenant, p_q } => {
                format!(
                    "{}/percentile?p={}",
                    base(tenant),
                    fixed(p_q, FRACTION_QUANTUM, 4)
                )
            }
            Key::CodedPercentile { tenant, p_q, n, k } => format!(
                "{}/percentile?p={}&n={n}&k={k}",
                base(tenant),
                fixed(p_q, FRACTION_QUANTUM, 4)
            ),
            Key::Headroom {
                tenant,
                sla_q,
                frac_q,
            } => format!(
                "{}/headroom?sla={}&target={}",
                base(tenant),
                fixed(sla_q, SLA_QUANTUM, 4),
                fixed(frac_q, FRACTION_QUANTUM, 4)
            ),
            Key::Status { tenant } => format!("{}/status", base(tenant)),
            Key::Metrics => "/metrics".to_string(),
        }
    }

    /// The full request bytes.
    pub fn request(&self, tenants: &[TenantId]) -> Vec<u8> {
        format!(
            "GET {} HTTP/1.1\r\nHost: bench\r\n\r\n",
            self.target(tenants)
        )
        .into_bytes()
    }
}

/// The request bytes of one telemetry batch.
pub fn post_request(tenants: &[TenantId], batch: &Batch) -> Vec<u8> {
    let body = encode_events(&batch.events);
    let mut out = format!(
        "POST /v1/tenants/{}/telemetry HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
        tenants[batch.tenant],
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body.as_bytes());
    out
}

/// One scheduled send: offset from the phase start (seconds) and the index
/// of the request in its pool.
pub type Schedule = Vec<(f64, usize)>;

/// A Poisson arrival schedule at `rate` per second over `seconds`, drawing
/// each send's request uniformly (`pick`) from a pool.
fn poisson_schedule(
    rng: &mut SmallRng,
    rate: f64,
    seconds: f64,
    mut pick: impl FnMut(&mut SmallRng) -> usize,
) -> Schedule {
    let mut out = Vec::with_capacity((rate * seconds * 1.1) as usize + 16);
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.gen::<f64>()).ln() / rate;
        if t >= seconds {
            return out;
        }
        let i = pick(rng);
        out.push((t, i));
    }
}

/// A fixed-rate schedule sending pool entries `0, 1, 2, …` in order.
pub fn paced_schedule(rate: f64, seconds: f64, available: usize) -> Schedule {
    let n = ((rate * seconds) as usize).min(available);
    (0..n).map(|i| (i as f64 / rate, i)).collect()
}

/// Everything generated from one seed.
pub struct Inputs {
    /// The workload's frozen load.
    pub spec: Spec,
    /// Fleet tenants, then `sim-s1` last.
    pub tenants: Vec<TenantId>,
    /// Calibration feed posted during set-up.
    pub setup_feed: Vec<Batch>,
    /// The continuing feed, one tenant-tick per batch, posted by the
    /// ingest phases in order.
    pub live_feed: Vec<Batch>,
    /// Pre-encoded requests of `live_feed`.
    pub live_requests: Vec<Vec<u8>>,
    /// The read key pool the open-loop and closed-loop phases draw from.
    pub keys: Vec<Key>,
    /// Pre-encoded requests of `keys`.
    pub key_requests: Vec<Vec<u8>>,
    /// Keys every set-up warms (empty for the cold workload).
    pub warm_keys: Vec<usize>,
    /// Open-loop read schedules, one per connection.
    pub read_schedules: Vec<Schedule>,
    /// The closed-loop read phase's requests, in order.
    pub capacity_order: Vec<usize>,
    /// Simulator-observed share of `sim-s1` requests meeting
    /// [`PREDICT_SLA`] over everything it fed.
    pub sim_observed: f64,
}

/// Seconds of each phase for a run of `seconds`.
#[derive(Debug, Clone, Copy)]
pub struct Phases {
    /// Open-loop reads.
    pub open: f64,
    /// Closed-loop read capacity.
    pub capacity: f64,
    /// Open-loop telemetry.
    pub ingest_open: f64,
    /// Closed-loop telemetry capacity.
    pub ingest_capacity: f64,
}

impl Phases {
    /// Splits a run of `seconds` into its phases.
    pub fn new(seconds: f64) -> Phases {
        Phases {
            open: 0.2 * seconds,
            capacity: 0.5 * seconds,
            ingest_open: 0.1 * seconds,
            ingest_capacity: 0.2 * seconds,
        }
    }

    /// Batches the open-loop telemetry phase sends.
    pub fn open_batches(&self) -> usize {
        (INGEST_BATCH_RATE * self.ingest_open) as usize
    }

    /// Batches the closed-loop telemetry phase posts.
    pub fn capacity_batches(&self) -> usize {
        (CAPACITY_BATCHES_PER_S * self.ingest_capacity) as usize
    }
}

fn convert(event: SimTelemetry) -> TelemetryEvent {
    let class = |kind: DiskOpKind| match kind {
        DiskOpKind::Index => OpClass::Index,
        DiskOpKind::Meta => OpClass::Meta,
        DiskOpKind::Data => OpClass::Data,
    };
    match event {
        SimTelemetry::Routed { at, device } => TelemetryEvent::Arrival {
            at,
            device: device as usize,
        },
        SimTelemetry::DataRead { at, device } => TelemetryEvent::DataRead {
            at,
            device: device as usize,
        },
        SimTelemetry::Op {
            at,
            device,
            kind,
            latency,
            ..
        } => TelemetryEvent::Op {
            at,
            device: device as usize,
            class: class(kind),
            latency,
        },
        SimTelemetry::Completed {
            arrival,
            latency,
            device,
            ..
        } => TelemetryEvent::Completion {
            arrival,
            latency,
            device: device as usize,
        },
    }
}

/// Simulates the S1 cluster for `span` seconds at [`SIM_RATE`]; returns its
/// telemetry (time-ordered) and the observed share meeting
/// [`PREDICT_SLA`].
fn simulate_s1(seed: u64, span: f64) -> (Vec<TelemetryEvent>, f64) {
    let cluster = ClusterConfig {
        seed: seed ^ 0x51_u64,
        ..ClusterConfig::paper_s1()
    };
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x005E_ED51);
    let mut t = 0.0;
    let mut trace = Vec::new();
    loop {
        t += -(1.0 - rng.gen::<f64>()).ln() / SIM_RATE;
        if t >= span {
            break;
        }
        trace.push(TraceEvent {
            at: t,
            object: rng.gen_range(0..100_000),
            size: cluster.chunk_size / 2,
        });
    }
    let (tx, rx) = channel();
    let metrics = Simulation::new(
        cluster,
        MetricsConfig {
            slas: vec![PREDICT_SLA],
            windows: vec![(0.0, span, SIM_RATE)],
            collect_raw: false,
            op_sample_stride: 0,
        },
    )
    .with_telemetry(Box::new(tx))
    .run(trace);
    let mut events: Vec<TelemetryEvent> = rx.iter().map(convert).collect();
    events.sort_by(|a, b| a.time().total_cmp(&b.time()));
    let observed = metrics
        .observed_fraction(0, 0)
        .expect("the simulated cluster completed requests");
    (events, observed)
}

/// Splits time-ordered `events` into per-slice batches: slice `i` holds the
/// events with `time()` in `[i·dt, (i+1)·dt)`.
fn slices(events: &[TelemetryEvent], dt: f64, count: usize) -> Vec<Vec<TelemetryEvent>> {
    let mut out = vec![Vec::new(); count];
    for ev in events {
        let i = ((ev.time() / dt) as usize).min(count - 1);
        out[i].push(*ev);
    }
    out
}

/// The key space of a workload.
fn key_space(workload: Workload, params: Option<&SystemParams>) -> Vec<Key> {
    let sla_q = |s: f64| (s / SLA_QUANTUM).round() as i64;
    let p_q = |p: f64| (p / FRACTION_QUANTUM).round() as i64;
    match workload {
        Workload::WarmDashboard => {
            let mut keys = Vec::new();
            for tenant in 0..FLEET_TENANTS {
                for sla in SLAS {
                    keys.push(Key::Attainment {
                        tenant,
                        sla_q: sla_q(sla),
                    });
                }
                for p in [0.95, 0.99] {
                    keys.push(Key::Percentile {
                        tenant,
                        p_q: p_q(p),
                    });
                }
                keys.push(Key::Status { tenant });
            }
            keys
        }
        Workload::WhatifCold => {
            let params = params.expect("the what-if key space needs the fitted parameters");
            whatif_keys(params)
        }
    }
}

/// Total rate (req/s) at which the fitted system saturates.
fn saturation_rate(params: &SystemParams) -> f64 {
    let stable = |r: f64| SystemModel::new(&params.scaled_to_rate(r), ModelVariant::Full).is_ok();
    let current: f64 = params.devices.iter().map(|d| d.arrival_rate).sum();
    let (mut lo, mut hi) = (current, current * 2.0);
    assert!(stable(lo), "the calibrated operating point is stable");
    while stable(hi) {
        lo = hi;
        hi *= 2.0;
    }
    for _ in 0..40 {
        let mid = 0.5 * (lo + hi);
        if stable(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// The what-if key space over tenant 0: 55% what-if attainment, 25%
/// percentiles, 10% headroom and 10% coded percentiles by count, all at
/// rates below saturation and at goals reachable at low load, so every
/// question has a `200` answer. Sized at 4.5× the inversion cache's
/// result capacity (8 shards × 512).
pub fn whatif_keys(params: &SystemParams) -> Vec<Key> {
    const TOTAL: usize = 18_432;
    let saturation = saturation_rate(params);
    let rate_lo = (0.15 * saturation / RATE_QUANTUM).ceil() as i64;
    let rate_hi = (0.85 * saturation / RATE_QUANTUM).floor() as i64;
    let slas: Vec<i64> = (0..128).map(|i| 100 + 5 * i).collect(); // 10–73.5 ms
    let attainment = TOTAL * 55 / 100;
    let mut keys = Vec::with_capacity(TOTAL);
    let rates = (rate_hi - rate_lo + 1) as usize;
    assert!(
        rates * slas.len() >= attainment,
        "saturation {saturation} req/s leaves too few what-if rates"
    );
    for i in 0..attainment {
        keys.push(Key::AttainmentAt {
            tenant: 0,
            sla_q: slas[i % slas.len()],
            rate_q: rate_lo + ((i / slas.len()) * 7919 % rates) as i64,
        });
    }
    for i in 0..TOTAL * 25 / 100 {
        keys.push(Key::Percentile {
            tenant: 0,
            p_q: 5000 + (i as i64 * 4999 / (TOTAL as i64 * 25 / 100)),
        });
    }
    // Headroom goals: SLA between 60 and 140 ms, target below what the
    // fitted system attains at 1% of its calibrated load.
    let light = SystemModel::new(
        &params.scaled_to_rate(saturation * 0.01),
        ModelVariant::Full,
    )
    .expect("a lightly loaded system is stable");
    let headroom = TOTAL * 10 / 100;
    let goal_slas: Vec<i64> = (0..16).map(|i| 600 + 50 * i).collect();
    for i in 0..headroom {
        let sla = goal_slas[i % goal_slas.len()];
        let ceiling = light.fraction_meeting_sla(sla as f64 * SLA_QUANTUM) - 0.05;
        let j = i / goal_slas.len();
        let per = headroom / goal_slas.len();
        let frac = 0.30 + (ceiling - 0.30) * j as f64 / per as f64;
        keys.push(Key::Headroom {
            tenant: 0,
            sla_q: sla,
            frac_q: (frac / FRACTION_QUANTUM).floor() as i64,
        });
    }
    let coded = (TOTAL - keys.len()) as i64;
    for j in 0..coded {
        keys.push(Key::CodedPercentile {
            tenant: 0,
            p_q: 5000 + j * 4899 / coded,
            n: 6,
            k: 4,
        });
    }
    keys.sort_by_key(|k| format!("{k:?}"));
    keys.dedup();
    keys
}

/// A seed-shuffled popularity ranking of `keys` in which every stretch of
/// ranks holds the question kinds in their key-space proportions: keys are
/// shuffled within their kind, and the `j`-th of `n` keys of a kind takes
/// the fractional rank `(j + ½) / n`. Zipf draws over it then ask the same
/// mix of cheap and expensive questions at every popularity level, so the
/// miss cost per query does not swing with which kind the seed happened to
/// make popular.
fn stratified_ranking(keys: &[Key], rng: &mut SmallRng) -> Vec<usize> {
    let kind = |k: &Key| std::mem::discriminant(k);
    let mut by_kind: Vec<Vec<usize>> = Vec::new();
    for (i, k) in keys.iter().enumerate() {
        match by_kind.iter_mut().find(|g| kind(&keys[g[0]]) == kind(k)) {
            Some(group) => group.push(i),
            None => by_kind.push(vec![i]),
        }
    }
    let mut placed: Vec<(f64, usize)> = Vec::with_capacity(keys.len());
    for group in &mut by_kind {
        for i in (1..group.len()).rev() {
            group.swap(i, rng.gen_range(0..=i));
        }
        let n = group.len() as f64;
        placed.extend(
            group
                .iter()
                .enumerate()
                .map(|(j, &i)| ((j as f64 + 0.5) / n, i)),
        );
    }
    placed.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    placed.into_iter().map(|(_, i)| i).collect()
}

/// Zipf(`s`) sampler over ranks `0..n` by inverse-CDF lookup.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// A sampler over `n` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 1..=n {
            acc += 1.0 / (r as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// One rank.
    pub fn sample(&self, rng: &mut SmallRng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

impl Inputs {
    /// Generates every input of `workload` from `seed` for a run of
    /// `seconds`. `params` are tenant 0's fitted parameters after set-up
    /// (the what-if key space is drawn below their saturation rate); pass
    /// them from [`crate::replay`].
    pub fn generate(
        workload: Workload,
        seed: u64,
        seconds: f64,
        params_of: impl FnOnce(&[TenantId], &[Batch]) -> Option<SystemParams>,
    ) -> Inputs {
        let spec = workload.spec();
        let phases = Phases::new(seconds);
        let fleet = FleetScenario::new(FleetConfig {
            tenants: FLEET_TENANTS,
            devices: DEVICES,
            rate_per_device: RATE_PER_DEVICE,
            duration: 1.0, // resized below
            seed,
        })
        .expect("valid fleet");
        let mut tenants: Vec<TenantId> = (0..FLEET_TENANTS).map(|i| fleet.tenant_id(i)).collect();
        tenants.push(TenantId::new("sim-s1").expect("valid tenant id"));
        let sim = FLEET_TENANTS;

        // Event-time span: calibration plus enough live ticks for the feed.
        let dt = 1.0 / RATE_PER_DEVICE;
        // One batch per fleet tenant per tick, plus the simulator's when it
        // has events; count only the fleet's.
        let batches = phases.open_batches() + phases.capacity_batches();
        let live_slices = batches.div_ceil(FLEET_TENANTS);
        let span = CALIBRATION_SPAN + live_slices as f64 * dt;
        let fleet = FleetScenario::new(FleetConfig {
            duration: span,
            ..*fleet.config()
        })
        .expect("valid fleet");
        let (sim_events, sim_observed) = simulate_s1(seed, span);
        let per_tenant: Vec<Vec<TelemetryEvent>> =
            (0..FLEET_TENANTS).map(|i| fleet.events_for(i)).collect();
        let per_tick = DEVICES * (3 + OpClass::ALL.len());
        let total_ticks = per_tenant[0].len() / per_tick;
        let sim_slices = slices(&sim_events, dt, total_ticks);

        // Set-up: one batch per tenant per event-second; live: one batch
        // per tenant per tick, the simulator's slice after the fleet's.
        let cal_ticks = (CALIBRATION_SPAN / dt).round() as usize;
        let chunk = (1.0 / dt).round() as usize;
        let mut setup_feed = Vec::new();
        for start in (0..cal_ticks).step_by(chunk) {
            let end = (start + chunk).min(cal_ticks);
            for (tenant, events) in per_tenant.iter().enumerate() {
                setup_feed.push(Batch {
                    tenant,
                    events: events[start * per_tick..end * per_tick].to_vec(),
                });
            }
            let sim_chunk: Vec<TelemetryEvent> =
                sim_slices[start..end].iter().flatten().copied().collect();
            if !sim_chunk.is_empty() {
                setup_feed.push(Batch {
                    tenant: sim,
                    events: sim_chunk,
                });
            }
        }
        let mut live_feed = Vec::new();
        for tick in cal_ticks..total_ticks {
            for (tenant, events) in per_tenant.iter().enumerate() {
                live_feed.push(Batch {
                    tenant,
                    events: events[tick * per_tick..(tick + 1) * per_tick].to_vec(),
                });
            }
            if !sim_slices[tick].is_empty() {
                live_feed.push(Batch {
                    tenant: sim,
                    events: sim_slices[tick].clone(),
                });
            }
        }
        let live_requests = live_feed
            .iter()
            .map(|b| post_request(&tenants, b))
            .collect();

        let params = params_of(&tenants, &setup_feed);
        let keys = key_space(workload, params.as_ref());
        let key_requests: Vec<Vec<u8>> = keys.iter().map(|k| k.request(&tenants)).collect();

        let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xB3);
        let per_conn = spec.read_rate / READ_CONNECTIONS as f64;
        let capacity_len = (spec.capacity_rate * phases.capacity) as usize;
        let (warm_keys, read_schedules, capacity_order) = match workload {
            Workload::WhatifCold => {
                let ranking = stratified_ranking(&keys, &mut rng);
                let zipf = Zipf::new(keys.len(), 1.2);
                let schedules = (0..READ_CONNECTIONS)
                    .map(|_| {
                        poisson_schedule(&mut rng, per_conn, phases.open, |r| {
                            ranking[zipf.sample(r)]
                        })
                    })
                    .collect();
                let order = (0..capacity_len)
                    .map(|_| ranking[zipf.sample(&mut rng)])
                    .collect();
                (Vec::new(), schedules, order)
            }
            _ => {
                let n = keys.len();
                let schedules: Vec<Schedule> = (0..READ_CONNECTIONS)
                    .map(|_| {
                        poisson_schedule(&mut rng, per_conn, phases.open, |r| r.gen_range(0..n))
                    })
                    .collect();
                let order = (0..capacity_len).map(|_| rng.gen_range(0..n)).collect();
                ((0..n).collect(), schedules, order)
            }
        };
        let mut keys = keys;
        let mut key_requests = key_requests;
        // One scrape per second on the first read connection.
        keys.push(Key::Metrics);
        key_requests.push(Key::Metrics.request(&tenants));
        let metrics_key = keys.len() - 1;
        let mut read_schedules: Vec<Schedule> = read_schedules;
        let mut t = 0.5;
        while t < phases.open {
            read_schedules[0].push((t, metrics_key));
            t += 1.0;
        }
        read_schedules[0].sort_by(|a, b| a.0.total_cmp(&b.0));

        Inputs {
            spec,
            tenants,
            setup_feed,
            live_feed,
            live_requests,
            keys,
            key_requests,
            warm_keys,
            read_schedules,
            capacity_order,
            sim_observed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Set-up posts, live posts, read requests, and read schedules (with
    /// times as bits).
    type Streams = (
        Vec<Vec<u8>>,
        Vec<Vec<u8>>,
        Vec<Vec<u8>>,
        Vec<Vec<(u64, usize)>>,
    );

    fn streams(seed: u64) -> Streams {
        let inputs = Inputs::generate(Workload::WarmDashboard, seed, 2.0, |_, _| None);
        let setup = inputs
            .setup_feed
            .iter()
            .map(|b| post_request(&inputs.tenants, b))
            .collect();
        let schedules = inputs
            .read_schedules
            .iter()
            .map(|s| s.iter().map(|&(t, i)| (t.to_bits(), i)).collect())
            .collect();
        (setup, inputs.live_requests, inputs.key_requests, schedules)
    }

    #[test]
    fn one_seed_gives_byte_identical_request_streams() {
        let a = streams(5);
        let b = streams(5);
        assert!(a == b, "the same seed must give the same bytes");
        let c = streams(6);
        assert!(
            a.0 != c.0 && a.1 != c.1 && a.3 != c.3,
            "another seed must give other inputs"
        );
        assert_eq!(a.2, c.2, "the dashboard key set is fixed");
    }

    #[test]
    fn the_what_if_key_space_is_four_times_the_cache() {
        let (_, replay) = crate::run::prepare(Workload::WhatifCold, 9, 2.0);
        let params = replay.params(0).expect("calibrated");
        let keys = whatif_keys(&params);
        assert!(keys.len() >= 4 * 8 * 512, "{} keys", keys.len());
        let share =
            |f: fn(&Key) -> bool| keys.iter().filter(|k| f(k)).count() as f64 / keys.len() as f64;
        assert!((share(|k| matches!(k, Key::AttainmentAt { .. })) - 0.55).abs() < 0.02);
        assert!((share(|k| matches!(k, Key::Percentile { .. })) - 0.25).abs() < 0.02);
        assert!((share(|k| matches!(k, Key::Headroom { .. })) - 0.10).abs() < 0.02);
        assert!((share(|k| matches!(k, Key::CodedPercentile { .. })) - 0.10).abs() < 0.02);
    }
}
