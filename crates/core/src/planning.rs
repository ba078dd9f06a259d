//! What-if analyses (§I): the applications the paper motivates the model
//! with — capacity planning, overload control, bottleneck identification,
//! and elastic storage — built on [`SystemModel`].
//!
//! All of these evaluate the model at hypothetical operating points, which
//! is exactly what an analytic (rather than simulation-based) model is for:
//! each evaluation is a few Laplace inversions, microseconds not minutes.

use crate::backend::ModelError;
use crate::params::{DeviceParams, FrontendParams, SystemParams};
use crate::system::SystemModel;
use crate::variant::ModelVariant;

/// An SLA target: at least `target_fraction` of requests within `sla`
/// seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlaGoal {
    /// Latency bound in seconds.
    pub sla: f64,
    /// Required fraction of requests meeting the bound, in `(0, 1)`.
    pub target_fraction: f64,
}

impl SlaGoal {
    /// Creates a goal.
    ///
    /// # Panics
    /// Panics on out-of-range values.
    pub fn new(sla: f64, target_fraction: f64) -> Self {
        assert!(
            sla > 0.0 && sla.is_finite(),
            "SLA must be positive, got {sla}"
        );
        assert!(
            target_fraction > 0.0 && target_fraction < 1.0,
            "target fraction must be in (0,1), got {target_fraction}"
        );
        SlaGoal {
            sla,
            target_fraction,
        }
    }

    /// Whether a model meets this goal.
    pub fn met_by(&self, model: &SystemModel) -> bool {
        model.fraction_meeting_sla(self.sla) >= self.target_fraction
    }
}

impl SystemParams {
    /// Returns a copy scaled to a new total arrival rate, preserving each
    /// device's traffic share and data-read ratio.
    ///
    /// # Panics
    /// Panics unless `total_rate` is positive and finite.
    pub fn scaled_to_rate(&self, total_rate: f64) -> SystemParams {
        assert!(
            total_rate.is_finite() && total_rate > 0.0,
            "rate must be positive"
        );
        let current: f64 = self.devices.iter().map(|d| d.arrival_rate).sum();
        let k = total_rate / current;
        let devices = self
            .devices
            .iter()
            .map(|d| DeviceParams {
                arrival_rate: d.arrival_rate * k,
                data_read_rate: d.data_read_rate * k,
                ..d.clone()
            })
            .collect();
        SystemParams {
            frontend: FrontendParams {
                arrival_rate: total_rate,
                ..self.frontend.clone()
            },
            devices,
        }
    }
}

/// Overload control (§I): the largest total arrival rate at which the goal
/// still holds, scaling `template` by [`SystemParams::scaled_to_rate`].
///
/// The search starts from the bracket `[upper·1e-4, upper]`. It returns
/// `None` if the goal fails already at `upper·1e-4`, `Some(upper)` if it
/// holds at `upper`, and otherwise the passing end of the bracket after 50
/// bisection halvings.
///
/// The model is built once, at `upper·1e-4`, and every probe moves it with
/// [`SystemModel::at_rate`] through one [`SystemModel::rate_sweep`] at the
/// goal's SLA, so the component transforms are evaluated once per call
/// rather than once per probe.
pub fn max_admissible_rate(
    template: &SystemParams,
    variant: ModelVariant,
    goal: SlaGoal,
    upper: f64,
) -> Option<f64> {
    assert!(
        upper > 0.0 && upper.is_finite(),
        "upper bound must be positive"
    );
    let mut lo = upper * 1e-4;
    let base = model_at_rate(template, variant, lo).ok()?;
    let sweep = base.rate_sweep(goal.sla);
    let ok = |rate: f64| -> bool {
        sweep
            .fraction_meeting_sla(rate)
            .is_ok_and(|f| f >= goal.target_fraction)
    };
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

/// Capacity planning (§I): the smallest number of identical devices that
/// meets the goal at `total_rate`, up to `max_devices`.
pub fn min_devices(
    device_template: &DeviceParams,
    frontend: &FrontendParams,
    variant: ModelVariant,
    goal: SlaGoal,
    total_rate: f64,
    max_devices: usize,
) -> Option<usize> {
    for n in 1..=max_devices {
        let per_device = total_rate / n as f64;
        let k = per_device / device_template.arrival_rate;
        let device = DeviceParams {
            arrival_rate: per_device,
            data_read_rate: device_template.data_read_rate * k,
            ..device_template.clone()
        };
        let params = SystemParams {
            frontend: FrontendParams {
                arrival_rate: total_rate,
                ..frontend.clone()
            },
            devices: vec![device; n],
        };
        if let Ok(m) = SystemModel::new(&params, variant) {
            if goal.met_by(&m) {
                return Some(n);
            }
        }
    }
    None
}

/// Elastic storage (§I): minimum device counts for a sequence of
/// anticipated rates (e.g. a diurnal profile), one entry per rate.
pub fn elastic_plan(
    device_template: &DeviceParams,
    frontend: &FrontendParams,
    variant: ModelVariant,
    goal: SlaGoal,
    rates: &[f64],
    max_devices: usize,
) -> Vec<Option<usize>> {
    rates
        .iter()
        .map(|&r| min_devices(device_template, frontend, variant, goal, r, max_devices))
        .collect()
}

/// Bottleneck identification (§I): ranks devices by their predicted
/// fraction of requests meeting the SLA, worst first. Returns
/// `(device_index, fraction)` pairs.
pub fn rank_bottlenecks(model: &SystemModel, sla: f64) -> Vec<(usize, f64)> {
    let mut out: Vec<(usize, f64)> = (0..model.devices().len())
        .map(|i| (i, model.device_fraction_meeting(i, sla)))
        .collect();
    out.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite fractions"));
    out
}

/// Builds the model at a hypothetical rate, surfacing instability as the
/// typed error (useful for dashboards that distinguish "SLA violated" from
/// "no steady state").
pub fn model_at_rate(
    template: &SystemParams,
    variant: ModelVariant,
    total_rate: f64,
) -> Result<SystemModel, ModelError> {
    SystemModel::new(&template.scaled_to_rate(total_rate), variant)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cos_distr::{Degenerate, Gamma};
    use cos_queueing::from_distribution;

    fn device(rate: f64) -> DeviceParams {
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
            processes: 1,
        }
    }

    fn frontend(rate: f64) -> FrontendParams {
        FrontendParams {
            arrival_rate: rate,
            processes: 3,
            parse_fe: from_distribution(Degenerate::new(0.0003)),
        }
    }

    fn template(rate: f64) -> SystemParams {
        SystemParams {
            frontend: frontend(rate),
            devices: (0..4).map(|_| device(rate / 4.0)).collect(),
        }
    }

    #[test]
    fn scaling_preserves_shares_and_ratios() {
        let mut t = template(100.0);
        t.devices[0].arrival_rate = 40.0;
        t.devices[0].data_read_rate = 44.0;
        for d in &mut t.devices[1..] {
            d.arrival_rate = 20.0;
            d.data_read_rate = 22.0;
        }
        let scaled = t.scaled_to_rate(200.0);
        assert!((scaled.devices[0].arrival_rate - 80.0).abs() < 1e-9);
        assert!((scaled.devices[1].arrival_rate - 40.0).abs() < 1e-9);
        assert!(
            (scaled.devices[0].data_read_rate / scaled.devices[0].arrival_rate - 1.1).abs() < 1e-9
        );
        assert!((scaled.frontend.arrival_rate - 200.0).abs() < 1e-12);
    }

    #[test]
    fn admissible_rate_is_consistent_with_goal() {
        let goal = SlaGoal::new(0.100, 0.90);
        let t = template(100.0);
        let limit = max_admissible_rate(&t, ModelVariant::Full, goal, 1000.0).unwrap();
        assert!(limit > 10.0 && limit < 1000.0, "limit {limit}");
        // Goal holds just below, fails just above.
        let below = model_at_rate(&t, ModelVariant::Full, limit * 0.98).unwrap();
        assert!(goal.met_by(&below));
        let above = model_at_rate(&t, ModelVariant::Full, limit * 1.05);
        assert!(above.map(|m| !goal.met_by(&m)).unwrap_or(true));
    }

    #[test]
    fn admissible_rate_none_for_impossible_goal() {
        // Disk-bound latencies can never put 99.9% under 1 ms.
        let goal = SlaGoal::new(0.001, 0.999);
        assert_eq!(
            max_admissible_rate(&template(100.0), ModelVariant::Full, goal, 500.0),
            None
        );
    }

    #[test]
    fn min_devices_monotone_in_rate() {
        let goal = SlaGoal::new(0.100, 0.90);
        let d = device(25.0);
        let fe = frontend(100.0);
        let n1 = min_devices(&d, &fe, ModelVariant::Full, goal, 100.0, 64).unwrap();
        let n2 = min_devices(&d, &fe, ModelVariant::Full, goal, 400.0, 64).unwrap();
        assert!(
            n2 >= n1,
            "more load cannot need fewer devices ({n1} -> {n2})"
        );
        assert!(n1 >= 1);
    }

    #[test]
    fn elastic_plan_tracks_rates() {
        let goal = SlaGoal::new(0.100, 0.90);
        let d = device(25.0);
        let fe = frontend(100.0);
        let plan = elastic_plan(
            &d,
            &fe,
            ModelVariant::Full,
            goal,
            &[50.0, 200.0, 800.0],
            128,
        );
        assert_eq!(plan.len(), 3);
        let counts: Vec<usize> = plan.iter().map(|p| p.unwrap()).collect();
        assert!(
            counts[0] <= counts[1] && counts[1] <= counts[2],
            "{counts:?}"
        );
    }

    #[test]
    fn bottleneck_ranking_finds_the_hot_device() {
        let mut t = template(120.0);
        t.devices[2].miss_index = 0.6;
        t.devices[2].miss_data = 0.7;
        let m = SystemModel::new(&t, ModelVariant::Full).unwrap();
        let ranked = rank_bottlenecks(&m, 0.05);
        assert_eq!(ranked[0].0, 2, "hot device must rank worst: {ranked:?}");
        assert!(ranked[0].1 < ranked[3].1);
    }

    #[test]
    #[should_panic]
    fn goal_rejects_bad_fraction() {
        SlaGoal::new(0.1, 1.5);
    }
}
