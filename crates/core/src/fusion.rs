//! Verdict fusion: combining per-detector votes into one alarm decision.
//!
//! Each [`Detector`](crate::detector::Detector) in a
//! [`DetectionPipeline`](crate::pipeline::DetectionPipeline) votes
//! independently on every observation; a [`FusionPolicy`] reduces the
//! votes of one domain (per-encryption traces and continuous windows
//! fuse separately) to the single suspected/clean decision that raises
//! or withholds the alarm.
//!
//! All policies return `false` when no vote is cast — an observation
//! no detector judged can never alarm (there is no vacuous [`And`]).
//!
//! [`And`]: FusionPolicy::And

/// How per-detector votes combine into one alarm decision.
#[derive(Debug, Clone, Default, PartialEq)]
#[non_exhaustive]
pub enum FusionPolicy {
    /// Alarm when any detector votes suspected (maximum sensitivity —
    /// the union of the detectors' coverage). This is the default, and
    /// the paper's two-detector monitor (Euclidean + spectral).
    #[default]
    Or,
    /// Alarm only when every detector votes suspected (minimum false
    /// positives — each detector must confirm).
    And,
    /// Alarm when strictly more than half the detectors vote suspected.
    Majority,
    /// Alarm when the summed weight of the suspected votes reaches
    /// `threshold`. Votes beyond the weight list count as weight `0.0`.
    Weighted {
        /// Per-detector weights, in the pipeline's registration order.
        weights: Vec<f64>,
        /// Minimum suspected-weight sum that alarms (inclusive).
        threshold: f64,
    },
}

impl FusionPolicy {
    /// Reduces one domain's votes (`true` = suspected, in detector
    /// registration order) to the fused alarm decision, in one pass
    /// over them: a pipeline passes its verdicts' flags without copying
    /// them out.
    ///
    /// No votes at all is always `false`, for every policy.
    pub fn decide(&self, votes: impl IntoIterator<Item = bool>) -> bool {
        let (mut cast, mut suspected, mut weight) = (0usize, 0usize, 0.0);
        for (i, vote) in votes.into_iter().enumerate() {
            cast += 1;
            if vote {
                suspected += 1;
                if let FusionPolicy::Weighted { weights, .. } = self {
                    weight += weights.get(i).copied().unwrap_or(0.0);
                }
            }
        }
        if cast == 0 {
            return false;
        }
        match self {
            FusionPolicy::Or => suspected > 0,
            FusionPolicy::And => suspected == cast,
            FusionPolicy::Majority => 2 * suspected > cast,
            FusionPolicy::Weighted { threshold, .. } => weight >= *threshold,
        }
    }

    /// Stable label for telemetry and artifacts.
    pub fn label(&self) -> &'static str {
        match self {
            FusionPolicy::Or => "or",
            FusionPolicy::And => "and",
            FusionPolicy::Majority => "majority",
            FusionPolicy::Weighted { .. } => "weighted",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The reduction over a slice of flags that `decide` replaced.
    fn slice_decision(p: &FusionPolicy, votes: &[bool]) -> bool {
        if votes.is_empty() {
            return false;
        }
        match p {
            FusionPolicy::Or => votes.iter().any(|&v| v),
            FusionPolicy::And => votes.iter().all(|&v| v),
            FusionPolicy::Majority => 2 * votes.iter().filter(|&&v| v).count() > votes.len(),
            FusionPolicy::Weighted { weights, threshold } => {
                let sum: f64 = votes
                    .iter()
                    .enumerate()
                    .filter(|&(_, &v)| v)
                    .map(|(i, _)| weights.get(i).copied().unwrap_or(0.0))
                    .sum();
                sum >= *threshold
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn decide_matches_the_slice_reduction(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let votes: Vec<bool> = (0..rng.gen_range(0..8usize))
                .map(|_| rng.gen_range(0..2u32) == 1)
                .collect();
            let weights = (0..rng.gen_range(0..8usize))
                .map(|_| [0.0, -0.0, 0.5, -1.0, 2.0][rng.gen_range(0..5usize)])
                .collect();
            let threshold = [0.0, -0.0, 0.5, 1.0, 2.5][rng.gen_range(0..5usize)];
            for p in [
                FusionPolicy::Or,
                FusionPolicy::And,
                FusionPolicy::Majority,
                FusionPolicy::Weighted { weights, threshold },
            ] {
                prop_assert_eq!(
                    p.decide(votes.iter().copied()),
                    slice_decision(&p, &votes),
                    "{:?} on {:?}",
                    p,
                    votes
                );
            }
        }
    }

    #[test]
    fn or_fires_on_any_vote() {
        let p = FusionPolicy::Or;
        assert!(!p.decide([false, false, false]));
        assert!(p.decide([false, true, false]));
        assert!(p.decide([true, true, true]));
    }

    #[test]
    fn and_requires_every_vote() {
        let p = FusionPolicy::And;
        assert!(!p.decide([true, false, true]));
        assert!(p.decide([true, true, true]));
        assert!(p.decide([true]));
    }

    #[test]
    fn majority_needs_a_strict_majority() {
        let p = FusionPolicy::Majority;
        assert!(!p.decide([true, false])); // 1/2 is a tie, not a majority
        assert!(p.decide([true, true, false]));
        assert!(!p.decide([true, false, false]));
        assert!(p.decide([true]));
    }

    #[test]
    fn weighted_sums_the_suspected_weights() {
        let p = FusionPolicy::Weighted {
            weights: vec![0.5, 0.3, 0.2],
            threshold: 0.5,
        };
        assert!(p.decide([true, false, false])); // 0.5 >= 0.5 (inclusive)
        assert!(p.decide([false, true, true])); // 0.3 + 0.2
        assert!(!p.decide([false, true, false]));
        // A vote past the weight list carries weight 0.
        assert!(!p.decide([false, false, false, true]));
    }

    #[test]
    fn empty_votes_never_alarm() {
        for p in [
            FusionPolicy::Or,
            FusionPolicy::And,
            FusionPolicy::Majority,
            FusionPolicy::Weighted {
                weights: vec![],
                threshold: 0.0,
            },
        ] {
            assert!(!p.decide([]), "{p:?} must not fire vacuously");
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(FusionPolicy::Or.label(), "or");
        assert_eq!(FusionPolicy::And.label(), "and");
        assert_eq!(FusionPolicy::Majority.label(), "majority");
        assert_eq!(
            FusionPolicy::Weighted {
                weights: vec![1.0],
                threshold: 1.0
            }
            .label(),
            "weighted"
        );
        assert_eq!(FusionPolicy::default(), FusionPolicy::Or);
    }
}
