//! The answer oracle. Every reply is parsed and checked:
//!
//! * status `200`, and a JSON body (or Prometheus text for `/metrics`);
//! * `value` finite, echoed inputs equal to the request's;
//! * `epoch` the tenant's epoch after set-up (no telemetry reaches the
//!   server while it answers reads);
//! * every reply to one question carries the same bits;
//! * the value agrees with a reference computed here from that epoch's
//!   `SystemParams` with a higher Euler order than the server's (and, for
//!   percentiles, a converged root search), to within [`TOLERANCE`]
//!   relative deviation, or [`PERCENTILE_TOLERANCE`] for percentiles; a
//!   percentile outside that passes only if the reference attainment at
//!   the served latency matches `p` (see [`attains_p`]).
//!
//! A reply failing any check counts as failed.

use std::collections::{HashMap, HashSet};

use cos_gate::json::{self, Value};
use cos_model::{ModelVariant, SlaGoal, SystemModel, SystemParams};
use cos_numeric::{InversionAlgorithm, InversionConfig};
use cos_serve::{DEFAULT_HEADROOM_UPPER, FRACTION_QUANTUM, RATE_QUANTUM, SLA_QUANTUM};

use crate::inputs::Key;
use crate::replay::Replay;

/// Euler burn-in terms of the reference inversions (the server uses the
/// default, 100).
const REFERENCE_TERMS: usize = 200;

/// Root-search probes of the reference percentiles (the server stops at
/// `QUANTILE_INVERSION_BUDGET`, 16).
const REFERENCE_PROBES: usize = 100;

/// Largest relative deviation from the reference an attainment or headroom
/// value may show: those differ from it only by inversion order.
pub const TOLERANCE: f64 = 1e-6;

/// Largest relative deviation of a percentile: the server's root search
/// stops after a fixed probe budget, so its answers carry the bracket's
/// width on top of the inversion error.
const PERCENTILE_TOLERANCE: f64 = 1e-2;

/// A percentile that misses [`PERCENTILE_TOLERANCE`] in value still passes
/// if the reference attainment at the served latency matches `p`: the share
/// of requests slower than the answer is within [`TAIL_TOLERANCE`] of
/// `1 - p`, and at most [`ATTAINMENT_TOLERANCE`] from it, `p` is below
/// [`ATTAINMENT_MAX_P`], and the value is within a factor of
/// [`VALUE_FACTOR`] of the reference.
///
/// This is for the plateau after the step that all-cache-hit requests make
/// in the attainment curve: a near-constant latency of about 1.3 ms carries
/// about half of all requests, and the curve then rises only about two
/// points over the next 1.5 ms. Euler inversion rings after the step by
/// ±0.7 points at orders 100, 200 and 400 alike, so there the percentile is
/// not determined to better than tens of percent in value by the server's
/// inversion or by the reference's, while the attainment at the answer is.
/// In a steep stretch the same attainment bound allows only a few percent.
/// The value deviation is still reported in `answer_err`, and the number of
/// answers that passed this way in [`Verdict::attainment_passes`].
fn attains_p(params: &SystemParams, key: &Key, served: f64, want: f64) -> bool {
    let Some(p) = asked_p(key) else {
        return false;
    };
    if p >= ATTAINMENT_MAX_P || served > want * VALUE_FACTOR || served * VALUE_FACTOR < want {
        return false;
    }
    reference_attainment(params, key, served)
        .is_some_and(|f| (f - p).abs() <= (TAIL_TOLERANCE * (1.0 - p)).min(ATTAINMENT_TOLERANCE))
}

/// Largest relative deviation of the tail share `1 - F` at a percentile
/// answer from `1 - p`.
const TAIL_TOLERANCE: f64 = 0.1;

/// Largest absolute deviation of the attainment at a percentile answer
/// from `p`.
const ATTAINMENT_TOLERANCE: f64 = 0.01;

/// Percentiles at or above this `p` pass on their value only.
const ATTAINMENT_MAX_P: f64 = 0.99;

/// Largest factor between a percentile passing on its attainment and the
/// reference value.
const VALUE_FACTOR: f64 = 2.0;

/// The reference attainment at `t` of a percentile question's population
/// (plain or `k`-of-`n` coded reads), or `None` for other questions.
fn reference_attainment(params: &SystemParams, key: &Key, t: f64) -> Option<f64> {
    match *key {
        Key::Percentile { .. } => Some(reference_model(params)?.fraction_meeting_sla(t)),
        Key::CodedPercentile { n, k, .. } => Some(coded_fraction(
            &reference_model(params)?,
            n as usize,
            k as usize,
            t,
        )),
        _ => None,
    }
}

/// The `p` a percentile question asks for.
fn asked_p(key: &Key) -> Option<f64> {
    match *key {
        Key::Percentile { p_q, .. } | Key::CodedPercentile { p_q, .. } => Some(frac(p_q)),
        _ => None,
    }
}

/// Most distinct questions compared with a reference per run. Beyond it an
/// evenly spaced, seed-independent subset is referenced; every reply still
/// gets every other check, including bit-consistency with its group.
const MAX_REFERENCED: usize = 800;

/// The relative tolerance of `key`'s value.
fn tolerance(key: &Key) -> f64 {
    match key {
        Key::Percentile { .. } | Key::CodedPercentile { .. } => PERCENTILE_TOLERANCE,
        _ => TOLERANCE,
    }
}

fn reference_model(params: &SystemParams) -> Option<SystemModel> {
    SystemModel::new(params, ModelVariant::Full).ok().map(|m| {
        m.with_inversion(InversionConfig {
            algorithm: InversionAlgorithm::Euler,
            terms: REFERENCE_TERMS,
        })
    })
}

fn sla(q: i64) -> f64 {
    q as f64 * SLA_QUANTUM
}

fn frac(q: i64) -> f64 {
    q as f64 * FRACTION_QUANTUM
}

/// Fraction of `k`-of-`n` coded reads done by `t`: branch `i` runs on
/// device `i mod devices` (the server's fold), combined as independent.
fn coded_fraction(model: &SystemModel, n: usize, k: usize, t: f64) -> f64 {
    let devices = model.devices().len();
    let per_device: Vec<f64> = (0..devices.min(n))
        .map(|d| model.device_fraction_meeting(d, t))
        .collect();
    let probs: Vec<f64> = (0..n).map(|i| per_device[i % devices]).collect();
    cos_queueing::k_of_n_tail(&probs, k)
}

/// Largest total rate at which the reference model meets `goal`, by the
/// same bisection over `(upper·1e-4, upper]` the server runs.
fn headroom(params: &SystemParams, goal: SlaGoal, upper: f64) -> Option<f64> {
    let ok = |rate: f64| {
        reference_model(&params.scaled_to_rate(rate))
            .map(|m| m.fraction_meeting_sla(goal.sla) >= goal.target_fraction)
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

/// The reference answer to `key` under `params`, or `None` where the
/// question has no answer (the server must then not have answered `200`).
pub fn reference(params: &SystemParams, key: &Key) -> Option<f64> {
    match *key {
        Key::Attainment { sla_q, .. } => {
            Some(reference_model(params)?.fraction_meeting_sla(sla(sla_q)))
        }
        Key::AttainmentAt { sla_q, rate_q, .. } => Some(
            reference_model(&params.scaled_to_rate(rate_q as f64 * RATE_QUANTUM))?
                .fraction_meeting_sla(sla(sla_q)),
        ),
        Key::Percentile { p_q, .. } => {
            let model = reference_model(params)?;
            cos_numeric::invert_monotone(
                |t| model.fraction_meeting_sla(t),
                frac(p_q),
                model.mean_response().max(1e-6),
                40,
                REFERENCE_PROBES,
            )
        }
        Key::CodedPercentile { p_q, n, k, .. } => {
            let model = reference_model(params)?;
            cos_numeric::invert_monotone(
                |t| coded_fraction(&model, n as usize, k as usize, t),
                frac(p_q),
                model.mean_response().max(1e-6),
                40,
                REFERENCE_PROBES,
            )
        }
        Key::Headroom { sla_q, frac_q, .. } => {
            let upper = (DEFAULT_HEADROOM_UPPER / RATE_QUANTUM).round() * RATE_QUANTUM;
            let goal = SlaGoal::new(sla(sla_q), frac(frac_q).min(1.0 - FRACTION_QUANTUM));
            headroom(params, goal, upper)
        }
        Key::Status { .. } | Key::Metrics => None,
    }
}

/// Inputs a prediction reply must echo, as `(field, value)`.
fn echoes(key: &Key) -> Vec<(&'static str, f64)> {
    match *key {
        Key::Attainment { sla_q, .. } | Key::AttainmentAt { sla_q, .. } => {
            vec![("sla", sla(sla_q))]
        }
        Key::Percentile { p_q, .. } => vec![("p", frac(p_q))],
        Key::CodedPercentile { p_q, n, k, .. } => {
            vec![("p", frac(p_q)), ("n", n as f64), ("k", k as f64)]
        }
        Key::Headroom { sla_q, frac_q, .. } => vec![("sla", sla(sla_q)), ("target", frac(frac_q))],
        Key::Status { .. } | Key::Metrics => Vec::new(),
    }
}

/// One distinct question the server answered.
#[derive(Debug, Clone)]
struct Group {
    bits: u64,
    replies: u64,
    consistent: bool,
}

/// What the oracle concluded about a set of replies.
#[derive(Debug, Clone, Default)]
pub struct Verdict {
    /// Replies checked.
    pub attempted: u64,
    /// Replies that failed a check.
    pub failed: u64,
    /// Largest relative deviation of any checked value from its reference.
    pub answer_err: f64,
    /// Distinct questions whose value was compared to a reference.
    pub referenced: usize,
    /// Of those, percentiles that missed [`PERCENTILE_TOLERANCE`] but
    /// passed on their attainment ([`attains_p`]).
    pub attainment_passes: usize,
    /// The first few failure reasons.
    pub reasons: Vec<String>,
    /// Questions whose answer failed a whole-group check.
    pub failed_groups: HashSet<Key>,
}

impl Verdict {
    fn fail(&mut self, replies: u64, reason: String) {
        self.failed += replies;
        if self.reasons.len() < 5 {
            self.reasons.push(reason);
        }
    }
}

/// Collects replies, then checks them against the replay.
#[derive(Default)]
pub struct Oracle {
    groups: HashMap<Key, Group>,
    verdict: Verdict,
}

fn parse_body(body: &[u8]) -> Result<Value, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    json::parse(text)
}

impl Oracle {
    /// A fresh oracle.
    pub fn new() -> Oracle {
        Oracle::default()
    }

    /// Checks everything about one reply that needs no reference, and files
    /// its value for the reference comparison in [`Oracle::finish`].
    /// Returns `false` if the reply already failed; one that passes may
    /// still fail the reference comparison (see [`Verdict::failed_groups`]).
    pub fn check(&mut self, key: &Key, status: Option<u16>, body: &[u8], replay: &Replay) -> bool {
        self.verdict.attempted += 1;
        match self.check_inner(key, status, body, replay) {
            Ok(()) => true,
            Err(reason) => {
                self.verdict.fail(1, format!("{key:?}: {reason}"));
                false
            }
        }
    }

    /// Counts one more reply to `key` byte-identical to the last one
    /// checked, which `passed` or not.
    pub fn repeat(&mut self, key: &Key, passed: bool) {
        self.verdict.attempted += 1;
        if !passed {
            self.verdict.failed += 1;
        } else if let Some(group) = self.groups.get_mut(key) {
            group.replies += 1;
        }
    }

    fn check_inner(
        &mut self,
        key: &Key,
        status: Option<u16>,
        body: &[u8],
        replay: &Replay,
    ) -> Result<(), String> {
        match status {
            None => return Err("no reply".into()),
            Some(200) => {}
            Some(s) => return Err(format!("status {s}: {}", String::from_utf8_lossy(body))),
        }
        let Some(tenant) = key.tenant() else {
            let text = std::str::from_utf8(body).map_err(|_| "scrape is not UTF-8")?;
            return if text.contains("# TYPE cos_epoch") {
                Ok(())
            } else {
                Err("scrape lacks the service metrics".into())
            };
        };
        let doc = parse_body(body)?;
        let epoch = doc.f64_field("epoch")?;
        let want = replay.epoch(tenant);
        if want == 0 || epoch != want as f64 {
            return Err(format!("epoch {epoch}, expected {want}"));
        }
        if matches!(key, Key::Status { .. }) {
            return Ok(());
        }
        let value = doc.f64_field("value")?;
        if !value.is_finite() {
            return Err(format!("value {value} is not finite"));
        }
        for (field, want) in echoes(key) {
            let got = doc.f64_field(field)?;
            if (got - want).abs() > 1e-12 * want.abs().max(1.0) {
                return Err(format!("echoed {field} {got} for {want}"));
            }
        }
        let group = self.groups.entry(*key).or_insert(Group {
            bits: value.to_bits(),
            replies: 0,
            consistent: true,
        });
        group.replies += 1;
        if group.bits != value.to_bits() {
            group.consistent = false;
        }
        Ok(())
    }

    /// Compares every distinct answered value with its reference (over
    /// `workers` threads) and returns the verdict.
    pub fn finish(mut self, replay: &Replay, workers: usize) -> Verdict {
        let mut groups: Vec<(Key, Group)> = self.groups.drain().collect();
        groups.sort_by_key(|(k, _)| format!("{k:?}"));
        let step = groups.len().div_ceil(MAX_REFERENCED).max(1);
        let results: Vec<Comparison> =
            cos_par::par_map(workers.max(1), &groups, |i, (key, group)| {
                if !group.consistent {
                    return Comparison::failed("replies to one question disagree".into());
                }
                if i % step != 0 {
                    return Comparison::default();
                }
                let tenant = key.tenant().expect("only tenant questions are filed");
                let Some(params) = replay.params(tenant) else {
                    return Comparison::failed(format!("tenant {tenant} has no fit"));
                };
                let served = f64::from_bits(group.bits);
                let Some(want) = reference(&params, key) else {
                    return Comparison::failed("the reference has no answer".into());
                };
                let dev = (served - want).abs() / want.abs().max(1e-12);
                let attains = dev > tolerance(key) && attains_p(&params, key, served, want);
                let problem = (dev > tolerance(key) && !attains).then(|| {
                    let at = reference_attainment(&params, key, served)
                        .map_or(String::new(), |f| {
                            format!(", reference attainment there {f}")
                        });
                    format!("served {served}, reference {want} (deviation {dev:.2e}){at}")
                });
                Comparison {
                    dev: Some(dev),
                    attains,
                    problem,
                }
            });
        for ((key, group), c) in groups.iter().zip(results) {
            if let Some(dev) = c.dev {
                self.verdict.referenced += 1;
                self.verdict.answer_err = self.verdict.answer_err.max(dev);
            }
            self.verdict.attainment_passes += usize::from(c.attains);
            if let Some(reason) = c.problem {
                self.verdict.failed_groups.insert(*key);
                self.verdict
                    .fail(group.replies, format!("{key:?}: {reason}"));
            }
        }
        self.verdict
    }
}

/// One group's reference comparison.
#[derive(Default)]
struct Comparison {
    /// Relative deviation from the reference, if compared.
    dev: Option<f64>,
    /// Passed on its attainment only.
    attains: bool,
    /// Why the group failed, if it did.
    problem: Option<String>,
}

impl Comparison {
    fn failed(reason: String) -> Comparison {
        Comparison {
            problem: Some(reason),
            ..Comparison::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::Workload;
    use crate::run::prepare;

    /// A `200` body answering `key` with `value` at `epoch`, echoing the
    /// key's inputs.
    fn body(key: &Key, value: f64, epoch: u64) -> Vec<u8> {
        let mut fields: Vec<(String, Value)> = echoes(key)
            .into_iter()
            .map(|(f, v)| (f.to_string(), Value::Number(v)))
            .collect();
        fields.push(("value".into(), Value::Number(value)));
        fields.push(("epoch".into(), Value::Number(epoch as f64)));
        fields.push(("stale".into(), Value::Bool(false)));
        Value::Object(fields).encode().into_bytes()
    }

    /// The verdict on `replies` served values for `key`.
    fn judge(replay: &Replay, key: &Key, value: f64, replies: usize) -> Verdict {
        let epoch = replay.epoch(key.tenant().expect("a tenant question"));
        let mut oracle = Oracle::new();
        for _ in 0..replies {
            assert!(oracle.check(key, Some(200), &body(key, value, epoch), replay));
        }
        oracle.finish(replay, 1)
    }

    #[test]
    fn a_corrupted_answer_is_counted_as_failed() {
        let (_, replay) = prepare(Workload::WarmDashboard, 3, 2.0);
        let key = Key::Attainment {
            tenant: 0,
            sla_q: 500,
        };
        let epoch = replay.epoch(0);
        let params = replay.params(0).expect("tenant 0 is calibrated");
        let want = reference(&params, &key).expect("attainment has a reference");

        // The exact reference value passes.
        let verdict = judge(&replay, &key, want, 1);
        assert_eq!((verdict.attempted, verdict.failed), (1, 0));

        // One part in a thousand off the reference fails, and every reply
        // carrying that value is charged.
        let verdict = judge(&replay, &key, want * 1.001, 3);
        assert_eq!((verdict.attempted, verdict.failed), (3, 3));
        assert!(verdict.answer_err > 5e-4, "{}", verdict.answer_err);
        assert!(verdict.failed_groups.contains(&key));

        // A wrong epoch, a refusal, a non-finite value and two different
        // answers to one question all fail too.
        let mut oracle = Oracle::new();
        assert!(!oracle.check(&key, Some(200), &body(&key, want, epoch + 1), &replay));
        assert!(!oracle.check(&key, Some(503), b"{}", &replay));
        assert!(!oracle.check(&key, None, b"", &replay));
        let nan = b"{\"sla\":0.05,\"value\":null,\"epoch\":1,\"stale\":false}";
        assert!(!oracle.check(&key, Some(200), nan, &replay));
        assert!(oracle.check(&key, Some(200), &body(&key, want, epoch), &replay));
        let next = f64::from_bits(want.to_bits() + 1);
        assert!(oracle.check(&key, Some(200), &body(&key, next, epoch), &replay));
        let verdict = oracle.finish(&replay, 1);
        assert_eq!((verdict.attempted, verdict.failed), (6, 6));
    }

    #[test]
    fn a_scaled_percentile_is_counted_as_failed() {
        let (_, replay) = prepare(Workload::WarmDashboard, 3, 2.0);
        let params = replay.params(0).expect("tenant 0 is calibrated");
        let percentile = |p_q| Key::Percentile { tenant: 0, p_q };
        let coded = Key::CodedPercentile {
            tenant: 0,
            p_q: 9500,
            n: 6,
            k: 4,
        };
        for key in [percentile(7000), percentile(9500), percentile(9900), coded] {
            let want = reference(&params, &key).expect("percentiles have a reference");
            let verdict = judge(&replay, &key, want, 1);
            assert_eq!(verdict.failed, 0, "{key:?}: the reference itself passes");
            for scale in [0.8, 0.95, 1.05, 1.2, 1.5, 10.0] {
                let verdict = judge(&replay, &key, want * scale, 2);
                assert_eq!(
                    (verdict.failed, verdict.attainment_passes),
                    (2, 0),
                    "{key:?} scaled by {scale} must fail: {:?}",
                    verdict.reasons
                );
            }
        }
    }

    #[test]
    fn on_the_plateau_after_the_cache_hit_step_a_percentile_passes_on_its_attainment() {
        // Seed 5's tenant 0: about half of all requests take a near-constant
        // ~1.3 ms, and the curve then rises from 0.50 to 0.52 over 1.3-3 ms.
        let (_, replay) = prepare(Workload::WhatifCold, 5, 2.0);
        let params = replay.params(0).expect("tenant 0 is calibrated");
        let key = Key::Percentile {
            tenant: 0,
            p_q: 5077,
        };
        let want = reference(&params, &key).expect("percentiles have a reference");
        let served = 1.972e-3;
        let attained = reference_attainment(&params, &key, served).expect("a percentile");
        assert!((attained - 0.5077).abs() < 0.002, "{attained}");
        let verdict = judge(&replay, &key, served, 1);
        assert_eq!(verdict.failed, 0, "{:?}", verdict.reasons);
        assert!(verdict.answer_err > PERCENTILE_TOLERANCE, "{want}");
        assert_eq!(verdict.attainment_passes, 1);
        // Twice the reference is still a failure there.
        let verdict = judge(&replay, &key, 2.5 * want, 1);
        assert_eq!(verdict.failed, 1);
    }
}
