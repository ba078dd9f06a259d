//! Rate sweeps: the hoisted attainment probe of [`SystemModel::rate_sweep`]
//! against rebuilding the model at every rate.
//!
//! * The hoisted fraction is bit-identical to `at_rate(r)` for every model
//!   variant, on S1-style (`N_be = 1`) and mixed systems.
//! * `N_be > 1` devices fall back to a full rebuild and match a model built
//!   from `scaled_to_rate` parameters bit for bit.
//! * Headroom answers agree with the rebuild-per-probe bisection.
//! * The disk laws' transforms are evaluated once per device per headroom
//!   question, not once per probe.

use cos_distr::{Degenerate, Gamma};
use cos_model::params::{DeviceParams, FrontendParams};
use cos_model::{
    max_admissible_rate, FrontendModel, FrontendSetParams, ModelError, ModelVariant, SlaGoal,
    SystemModel, SystemParams,
};
use cos_numeric::Complex64;
use cos_queueing::{from_distribution, DynServiceTime, ServiceTime};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const VARIANTS: [ModelVariant; 4] = [
    ModelVariant::Full,
    ModelVariant::NoWta,
    ModelVariant::Odopr,
    ModelVariant::ResidualWta,
];

fn device(rate: f64, processes: usize) -> DeviceParams {
    DeviceParams {
        arrival_rate: rate,
        data_read_rate: rate * 1.1,
        miss_index: 0.3,
        miss_meta: 0.25,
        miss_data: 0.4,
        index_disk: from_distribution(Gamma::new(3.0, 250.0)),
        meta_disk: from_distribution(Gamma::new(2.5, 312.5)),
        data_disk: from_distribution(Gamma::new(3.5, 245.0)),
        parse_be: from_distribution(Degenerate::new(0.0005)),
        processes,
    }
}

/// The S1 testbed shape: four single-process devices, three frontend
/// processes.
fn s1_params(total: f64) -> SystemParams {
    SystemParams {
        frontend: FrontendParams {
            arrival_rate: total,
            processes: 3,
            parse_fe: from_distribution(Degenerate::new(0.0003)),
        },
        devices: (0..4).map(|_| device(total / 4.0, 1)).collect(),
    }
}

/// Unequal traffic shares, miss ratios and extra reads.
fn skewed_params(total: f64) -> SystemParams {
    let mut p = s1_params(total);
    for (i, d) in p.devices.iter_mut().enumerate() {
        let share = [0.4, 0.3, 0.2, 0.1][i];
        d.arrival_rate = total * share;
        d.data_read_rate = d.arrival_rate * (1.0 + 0.15 * i as f64);
        d.miss_data = 0.3 + 0.1 * i as f64;
    }
    p
}

/// S16-style warm-cache devices, sixteen processes each.
fn s16_params(total: f64) -> SystemParams {
    let mut p = s1_params(total);
    for d in &mut p.devices {
        d.miss_index = 0.10;
        d.miss_meta = 0.08;
        d.miss_data = 0.18;
        d.processes = 16;
    }
    p
}

fn same_bits(a: Result<f64, ModelError>, b: Result<f64, ModelError>, what: &str) {
    match (a, b) {
        (Ok(a), Ok(b)) => assert_eq!(a.to_bits(), b.to_bits(), "{what}: {a} vs {b}"),
        (Err(a), Err(b)) => assert_eq!(a, b, "{what}"),
        (a, b) => panic!("{what}: {a:?} vs {b:?}"),
    }
}

/// Rates from light load to past saturation (the S1 devices saturate near
/// 320 req/s in total).
const RATES: [f64; 10] = [
    3.0, 17.5, 60.0, 111.1, 150.0, 203.7, 250.0, 290.0, 315.0, 400.0,
];

#[test]
fn hoisted_fraction_is_bit_identical_to_at_rate() {
    for variant in VARIANTS {
        for (shape, params) in [("s1", s1_params(100.0)), ("skewed", skewed_params(80.0))] {
            let template = SystemModel::new(&params, variant).unwrap();
            for sla in [0.01, 0.06, 0.14] {
                let sweep = template.rate_sweep(sla);
                for rate in RATES {
                    same_bits(
                        sweep.fraction_meeting_sla(rate),
                        template.at_rate(rate).map(|m| m.fraction_meeting_sla(sla)),
                        &format!("{variant:?}/{shape} sla={sla} rate={rate}"),
                    );
                }
            }
        }
    }
}

#[test]
fn hoisted_fraction_holds_for_a_heterogeneous_frontend() {
    let sets = [
        FrontendSetParams {
            share: 0.7,
            processes: 2,
            parse_fe: from_distribution(Degenerate::new(0.0003)),
        },
        FrontendSetParams {
            share: 0.3,
            processes: 1,
            parse_fe: from_distribution(Gamma::new(2.0, 2000.0)),
        },
    ];
    for variant in VARIANTS {
        let template = SystemModel::new(&s1_params(100.0), variant)
            .unwrap()
            .with_frontend(FrontendModel::heterogeneous(100.0, &sets).unwrap());
        let sweep = template.rate_sweep(0.05);
        for rate in RATES {
            same_bits(
                sweep.fraction_meeting_sla(rate),
                template.at_rate(rate).map(|m| m.fraction_meeting_sla(0.05)),
                &format!("{variant:?} rate={rate}"),
            );
            // The moved frontend is the one built afresh at that rate.
            let fresh = FrontendModel::heterogeneous(rate, &sets);
            let moved = template.frontend().at_rate(rate);
            match (fresh, moved) {
                (Ok(f), Ok(m)) => {
                    let s = Complex64::new(90.0, 400.0);
                    let (a, b) = (f.sojourn_lst(s), m.sojourn_lst(s));
                    assert_eq!(a.re.to_bits(), b.re.to_bits());
                    assert_eq!(a.im.to_bits(), b.im.to_bits());
                }
                (Err(f), Err(m)) => assert_eq!(f, m),
                (f, m) => panic!("rate={rate}: {f:?} vs {m:?}"),
            }
        }
    }
}

#[test]
fn at_rate_matches_a_rebuild_up_to_the_shared_extra_reads() {
    // `at_rate` keeps the template's union laws, whose extra-read mean
    // `p = (r_data − r)/r` a rebuild would recompute from rescaled rates:
    // the two agree up to rounding.
    let params = skewed_params(80.0);
    for variant in VARIANTS {
        let template = SystemModel::new(&params, variant).unwrap();
        for rate in RATES {
            let moved = template.at_rate(rate).map(|m| m.fraction_meeting_sla(0.06));
            let rebuilt = SystemModel::new(&params.scaled_to_rate(rate), variant)
                .map(|m| m.fraction_meeting_sla(0.06));
            match (moved, rebuilt) {
                (Ok(a), Ok(b)) => assert!((a - b).abs() <= 1e-12, "{variant:?} {rate}: {a} {b}"),
                (Err(a), Err(b)) => assert_eq!(a, b),
                (a, b) => panic!("{variant:?} rate={rate}: {a:?} vs {b:?}"),
            }
        }
    }
}

#[test]
fn multi_process_devices_fall_back_to_a_full_rebuild() {
    let mut mixed = s16_params(300.0);
    mixed.devices[1].processes = 1;
    mixed.devices[1].miss_index = 0.3;
    mixed.devices[1].miss_meta = 0.25;
    mixed.devices[1].miss_data = 0.4;
    for variant in VARIANTS {
        let params = s16_params(300.0);
        let template = SystemModel::new(&params, variant).unwrap();
        assert!(template
            .devices()
            .iter()
            .all(|d| !d.backend().rate_invariant()));
        for sla in [0.02, 0.1] {
            let sweep = template.rate_sweep(sla);
            for rate in [5.0, 80.0, 300.0, 610.0, 900.0, 1400.0, 2500.0, 4000.0] {
                let rebuilt = SystemModel::new(&params.scaled_to_rate(rate), variant)
                    .map(|m| m.fraction_meeting_sla(sla));
                let what = format!("{variant:?} sla={sla} rate={rate}");
                same_bits(sweep.fraction_meeting_sla(rate), rebuilt.clone(), &what);
                same_bits(
                    template.at_rate(rate).map(|m| m.fraction_meeting_sla(sla)),
                    rebuilt,
                    &what,
                );
            }
        }
        // A system mixing both kinds hoists only its single-process device.
        let template = SystemModel::new(&mixed, variant).unwrap();
        let invariant: Vec<bool> = template
            .devices()
            .iter()
            .map(|d| d.backend().rate_invariant())
            .collect();
        assert_eq!(invariant, [false, true, false, false]);
        let sweep = template.rate_sweep(0.05);
        for rate in [5.0, 150.0, 300.0, 420.0] {
            same_bits(
                sweep.fraction_meeting_sla(rate),
                template.at_rate(rate).map(|m| m.fraction_meeting_sla(0.05)),
                &format!("{variant:?} mixed rate={rate}"),
            );
        }
    }
}

/// The headroom search as it was before rate sweeps: rebuild the model
/// from rescaled parameters at every probe.
fn rebuild_per_probe(
    template: &SystemParams,
    variant: ModelVariant,
    goal: SlaGoal,
    upper: f64,
    mut on_probe: impl FnMut(),
) -> Option<f64> {
    let mut ok = |rate: f64| -> bool {
        SystemModel::new(&template.scaled_to_rate(rate), variant)
            .map(|m| {
                on_probe();
                goal.met_by(&m)
            })
            .unwrap_or(false)
    };
    let mut lo = upper * 1e-4;
    if !ok(lo) {
        return None;
    }
    let mut hi = upper;
    if ok(hi) {
        return Some(hi);
    }
    for _ in 0..50 {
        let mid = 0.5 * (lo + hi);
        if ok(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(lo)
}

/// Relative difference of two headroom answers; `None` must match `None`.
fn relative_gap(a: Option<f64>, b: Option<f64>, what: &str) -> f64 {
    match (a, b) {
        (Some(a), Some(b)) => (a - b).abs() / b,
        (a, b) => {
            assert_eq!(a, b, "{what}");
            0.0
        }
    }
}

/// Asserts that the rate-sweep headroom answer is within 1e-12 relative of
/// the rebuild-per-probe answer.
///
/// Where the goal is crossed on a stretch on which the attainment barely
/// moves with the rate, the bisection's answer is sensitive to the last
/// bits of the attainment, and the rebuild-per-probe search itself moves
/// by more than 1e-12 when its template is rescaled (an exact no-op in
/// real arithmetic, as `scaled_to_rate` preserves every device share).
/// There the gap may reach, but not exceed, that spread of the old search.
fn assert_same_headroom(
    rescale: impl Fn(f64) -> SystemParams,
    variant: ModelVariant,
    goal: SlaGoal,
    upper: f64,
) {
    let what = format!("{variant:?} {goal:?} upper={upper}");
    let new = max_admissible_rate(&rescale(100.0), variant, goal, upper);
    let old = rebuild_per_probe(&rescale(100.0), variant, goal, upper, || {});
    let gap = relative_gap(new, old, &what);
    if gap <= 1e-12 {
        return;
    }
    let spread = [37.0, 250.0, 1.0]
        .iter()
        .map(|&t| {
            let other = rebuild_per_probe(&rescale(t), variant, goal, upper, || {});
            relative_gap(other, old, &what)
        })
        .fold(0.0, f64::max);
    assert!(
        gap <= spread,
        "{what}: {new:?} vs {old:?} ({gap:.1e} relative; the old search spreads {spread:.1e})"
    );
}

#[test]
fn headroom_agrees_with_rebuilding_at_every_probe() {
    let (mut none, mut at_upper, mut interior) = (0, 0, 0);
    for upper in [60.0, 400.0] {
        for sla in [0.001, 0.03, 0.06, 0.1, 0.14] {
            for target in [0.5, 0.8, 0.9, 0.95, 0.99] {
                let goal = SlaGoal::new(sla, target);
                assert_same_headroom(s1_params, ModelVariant::Full, goal, upper);
                match max_admissible_rate(&s1_params(100.0), ModelVariant::Full, goal, upper) {
                    None => none += 1,
                    Some(r) if r == upper => at_upper += 1,
                    Some(_) => interior += 1,
                }
            }
        }
    }
    assert!(
        none > 0 && at_upper > 0 && interior >= 10,
        "grid must cover every outcome: {none} None, {at_upper} at upper, {interior} interior"
    );
    for variant in VARIANTS {
        assert_same_headroom(skewed_params, variant, SlaGoal::new(0.08, 0.9), 3000.0);
        assert_same_headroom(s16_params, variant, SlaGoal::new(0.05, 0.95), 3000.0);
    }
}

/// A service law that counts how often its transform is evaluated.
struct Counting {
    inner: DynServiceTime,
    batches: AtomicUsize,
    scalars: AtomicUsize,
}

impl ServiceTime for Counting {
    fn lst(&self, s: Complex64) -> Complex64 {
        self.scalars.fetch_add(1, Ordering::Relaxed);
        self.inner.lst(s)
    }
    fn mean(&self) -> f64 {
        self.inner.mean()
    }
    fn second_moment(&self) -> f64 {
        self.inner.second_moment()
    }
    fn lst_batch(&self, s: &[Complex64], out: &mut [Complex64]) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.inner.lst_batch(s, out)
    }
}

#[test]
fn disk_transforms_are_evaluated_once_per_device_per_headroom_question() {
    let counting = Arc::new(Counting {
        inner: from_distribution(Gamma::new(3.5, 245.0)),
        batches: AtomicUsize::new(0),
        scalars: AtomicUsize::new(0),
    });
    let mut params = s1_params(100.0);
    for d in &mut params.devices {
        d.data_disk = counting.clone();
    }
    let devices = params.devices.len();
    let goal = SlaGoal::new(0.1, 0.9);

    let answer = max_admissible_rate(&params, ModelVariant::Full, goal, 1000.0).unwrap();
    assert!(answer > 10.0 && answer < 1000.0, "interior answer {answer}");
    assert_eq!(counting.batches.swap(0, Ordering::Relaxed), devices);
    assert_eq!(counting.scalars.load(Ordering::Relaxed), 0);

    // Rebuilding per probe evaluates it once per device per stable probe.
    let mut probes = 0;
    rebuild_per_probe(&params, ModelVariant::Full, goal, 1000.0, || probes += 1);
    assert!(probes > 40, "{probes} probes");
    assert_eq!(counting.batches.load(Ordering::Relaxed), devices * probes);
    assert_eq!(counting.scalars.load(Ordering::Relaxed), 0);
}
