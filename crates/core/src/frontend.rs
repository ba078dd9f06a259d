//! Frontend-tier model (§III-C).
//!
//! Each of the `N_fe` homogeneous frontend processes is an M/G/1 queue with
//! request-parsing service times and per-process arrival rate `r / N_fe`;
//! the distribution of `S_q` (queueing + parsing at the frontend) equals
//! that of any single process.

use crate::backend::ModelError;
use crate::params::FrontendParams;
use cos_numeric::Complex64;
use cos_queueing::{Mg1, QueueError};

/// One homogeneous set of a (possibly heterogeneous) frontend tier.
#[derive(Clone)]
pub struct FrontendSetParams {
    /// Fraction of total traffic this set receives, in `(0, 1]`.
    pub share: f64,
    /// Processes in this set.
    pub processes: usize,
    /// Parse law of this set's servers.
    pub parse_fe: cos_queueing::DynServiceTime,
}

impl std::fmt::Debug for FrontendSetParams {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrontendSetParams")
            .field("share", &self.share)
            .field("processes", &self.processes)
            .finish_non_exhaustive()
    }
}

/// The frontend-tier model: one M/G/1 per homogeneous set; `S_q` is the
/// share-weighted mixture over sets (§III-C: "the frontend tier of
/// heterogeneous servers can be divided into several sets of homogeneous
/// servers, and the distribution of queueing latencies can be calculated
/// separately").
pub struct FrontendModel {
    sets: Vec<FrontendSet>,
}

/// One homogeneous set: its normalized traffic share, process count and
/// per-process parse queue.
struct FrontendSet {
    share: f64,
    processes: usize,
    queue: Mg1,
}

impl std::fmt::Debug for FrontendModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrontendModel")
            .field("sets", &self.sets.len())
            .field("utilization", &self.utilization())
            .finish()
    }
}

fn frontend_queue(queue: Result<Mg1, QueueError>) -> Result<Mg1, ModelError> {
    queue.map_err(|e| match e {
        QueueError::Unstable { utilization } => ModelError::UnstableFrontend { utilization },
        QueueError::InvalidArrivalRate(r) => panic!("validated params produced invalid rate {r}"),
    })
}

impl FrontendModel {
    /// Builds a homogeneous frontend model.
    pub fn new(params: &FrontendParams) -> Result<Self, ModelError> {
        params.validate();
        let queue = frontend_queue(Mg1::new(params.per_process_rate(), params.parse_fe.clone()))?;
        Ok(FrontendModel {
            sets: vec![FrontendSet {
                share: 1.0,
                processes: params.processes,
                queue,
            }],
        })
    }

    /// Builds a heterogeneous frontend model from homogeneous sets. Shares
    /// must be positive and are normalized internally.
    ///
    /// # Panics
    /// Panics on an empty set list or non-positive shares/rates.
    pub fn heterogeneous(total_rate: f64, sets: &[FrontendSetParams]) -> Result<Self, ModelError> {
        assert!(!sets.is_empty(), "need at least one frontend set");
        assert!(
            total_rate.is_finite() && total_rate > 0.0,
            "total rate must be positive"
        );
        let share_sum: f64 = sets.iter().map(|s| s.share).sum();
        assert!(
            sets.iter().all(|s| s.share > 0.0) && share_sum > 0.0,
            "shares must be positive"
        );
        let mut out = Vec::with_capacity(sets.len());
        for set in sets {
            assert!(set.processes >= 1, "each set needs at least one process");
            let share = set.share / share_sum;
            let per_process = total_rate * share / set.processes as f64;
            out.push(FrontendSet {
                share,
                processes: set.processes,
                queue: frontend_queue(Mg1::new(per_process, set.parse_fe.clone()))?,
            });
        }
        Ok(FrontendModel { sets: out })
    }

    /// The same tier at another total arrival rate: same sets, shares and
    /// parse laws, per-process queues rebuilt. Equal to a fresh
    /// [`FrontendModel::new`] / [`FrontendModel::heterogeneous`] at
    /// `total_rate` to the last bit.
    pub fn at_rate(&self, total_rate: f64) -> Result<Self, ModelError> {
        let sets = self
            .sets
            .iter()
            .map(|set| {
                let per_process = total_rate * set.share / set.processes as f64;
                Ok(FrontendSet {
                    queue: frontend_queue(set.queue.at_rate(per_process))?,
                    ..*set
                })
            })
            .collect::<Result<_, ModelError>>()?;
        Ok(FrontendModel { sets })
    }

    /// Traffic-weighted utilization across sets.
    pub fn utilization(&self) -> f64 {
        self.sets
            .iter()
            .map(|set| set.share * set.queue.utilization())
            .sum()
    }

    /// LST of `S_q`: the share-weighted mixture of per-set P–K sojourn
    /// transforms.
    pub fn sojourn_lst(&self, s: Complex64) -> Complex64 {
        self.sets
            .iter()
            .map(|set| set.queue.sojourn_lst(s) * set.share)
            .fold(Complex64::ZERO, |a, b| a + b)
    }

    /// Batch [`FrontendModel::sojourn_lst`]: one parse-law batch per set
    /// ([`FrontendModel::parse_lst_batch`]), finished by
    /// [`FrontendModel::sojourn_lst_given_parse_batch`]. Bit-identical to
    /// the scalar path.
    pub fn sojourn_lst_batch(&self, s: &[Complex64], out: &mut [Complex64]) {
        let parse = self.parse_lst_batch(s);
        self.sojourn_lst_given_parse_batch(s, &parse, out);
    }

    /// The rate-invariant half of [`FrontendModel::sojourn_lst_batch`]:
    /// each set's parse-law LST at every abscissa, in set order.
    pub fn parse_lst_batch(&self, s: &[Complex64]) -> Vec<Vec<Complex64>> {
        self.sets
            .iter()
            .map(|set| {
                let mut lb = vec![Complex64::ZERO; s.len()];
                set.queue.service().lst_batch(s, &mut lb);
                lb
            })
            .collect()
    }

    /// The rate-dependent half of [`FrontendModel::sojourn_lst_batch`]: the
    /// per-set P–K sojourns from `parse` (as returned by
    /// [`FrontendModel::parse_lst_batch`] for these abscissae, possibly by a
    /// model of the same tier at another rate), accumulated in set order
    /// (the scalar fold).
    pub fn sojourn_lst_given_parse_batch(
        &self,
        s: &[Complex64],
        parse: &[Vec<Complex64>],
        out: &mut [Complex64],
    ) {
        assert_eq!(s.len(), out.len(), "abscissa/output length mismatch");
        assert_eq!(parse.len(), self.sets.len(), "one parse batch per set");
        out.fill(Complex64::ZERO);
        for (set, lb) in self.sets.iter().zip(parse) {
            for i in 0..s.len() {
                out[i] += set.queue.sojourn_lst_given_service(s[i], lb[i]) * set.share;
            }
        }
    }

    /// Mean frontend sojourn (share-weighted).
    pub fn mean_sojourn(&self) -> f64 {
        self.sets
            .iter()
            .map(|set| set.share * set.queue.mean_sojourn())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cos_distr::Degenerate;
    use cos_queueing::from_distribution;

    fn params(rate: f64, nfe: usize) -> FrontendParams {
        FrontendParams {
            arrival_rate: rate,
            processes: nfe,
            parse_fe: from_distribution(Degenerate::new(0.0003)),
        }
    }

    #[test]
    fn light_load_sojourn_is_parse_time() {
        let m = FrontendModel::new(&params(30.0, 3)).unwrap();
        assert!((m.mean_sojourn() - 0.0003).abs() < 1e-6);
        assert!(m.utilization() < 0.01);
    }

    #[test]
    fn splits_rate_across_processes() {
        let one = FrontendModel::new(&params(1000.0, 1)).unwrap();
        let three = FrontendModel::new(&params(1000.0, 3)).unwrap();
        assert!((one.utilization() - 3.0 * three.utilization()).abs() < 1e-12);
        assert!(three.mean_sojourn() < one.mean_sojourn());
    }

    #[test]
    fn rejects_overload() {
        // 0.3 ms parse ⇒ one process saturates at ~3333 req/s.
        let err = FrontendModel::new(&params(4000.0, 1)).unwrap_err();
        assert!(matches!(err, ModelError::UnstableFrontend { .. }));
    }

    #[test]
    fn sojourn_lst_near_origin() {
        let m = FrontendModel::new(&params(300.0, 3)).unwrap();
        let near = m.sojourn_lst(Complex64::from_real(1e-8));
        assert!((near - Complex64::ONE).abs() < 1e-5);
    }

    #[test]
    fn heterogeneous_single_set_equals_homogeneous() {
        use crate::frontend::FrontendSetParams;
        let homo = FrontendModel::new(&params(300.0, 3)).unwrap();
        let hetero = FrontendModel::heterogeneous(
            300.0,
            &[FrontendSetParams {
                share: 1.0,
                processes: 3,
                parse_fe: from_distribution(Degenerate::new(0.0003)),
            }],
        )
        .unwrap();
        let s = Complex64::new(2.0, 5.0);
        assert!((homo.sojourn_lst(s) - hetero.sojourn_lst(s)).abs() < 1e-14);
        assert!((homo.mean_sojourn() - hetero.mean_sojourn()).abs() < 1e-15);
    }

    #[test]
    fn heterogeneous_mixes_fast_and_slow_sets() {
        use crate::frontend::FrontendSetParams;
        // Half the traffic on servers with 4x slower parsing.
        let hetero = FrontendModel::heterogeneous(
            600.0,
            &[
                FrontendSetParams {
                    share: 0.5,
                    processes: 2,
                    parse_fe: from_distribution(Degenerate::new(0.0003)),
                },
                FrontendSetParams {
                    share: 0.5,
                    processes: 2,
                    parse_fe: from_distribution(Degenerate::new(0.0012)),
                },
            ],
        )
        .unwrap();
        let fast_only = FrontendModel::new(&params(600.0, 4)).unwrap();
        assert!(hetero.mean_sojourn() > fast_only.mean_sojourn());
        // Mixture mean = average of the two per-set sojourns.
        let fast = FrontendModel::new(&FrontendParams {
            arrival_rate: 300.0,
            processes: 2,
            parse_fe: from_distribution(Degenerate::new(0.0003)),
        })
        .unwrap();
        let slow = FrontendModel::new(&FrontendParams {
            arrival_rate: 300.0,
            processes: 2,
            parse_fe: from_distribution(Degenerate::new(0.0012)),
        })
        .unwrap();
        let want = 0.5 * fast.mean_sojourn() + 0.5 * slow.mean_sojourn();
        assert!((hetero.mean_sojourn() - want).abs() < 1e-12);
    }

    #[test]
    fn heterogeneous_rejects_overloaded_set() {
        use crate::frontend::FrontendSetParams;
        let err = FrontendModel::heterogeneous(
            8000.0,
            &[FrontendSetParams {
                share: 1.0,
                processes: 2,
                parse_fe: from_distribution(Degenerate::new(0.0003)),
            }],
        )
        .unwrap_err();
        assert!(matches!(err, ModelError::UnstableFrontend { .. }));
    }
}
