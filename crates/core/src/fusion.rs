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
}

impl FusionPolicy {
    /// Reduces one domain's votes (`true` = suspected, in detector
    /// registration order) to the fused alarm decision, in one pass
    /// over them: a pipeline passes its verdicts' flags without copying
    /// them out.
    ///
    /// No votes at all is always `false`, for every policy.
    pub fn decide(&self, votes: impl IntoIterator<Item = bool>) -> bool {
        let (mut cast, mut suspected) = (0usize, 0usize);
        for vote in votes {
            cast += 1;
            suspected += usize::from(vote);
        }
        if cast == 0 {
            return false;
        }
        match self {
            FusionPolicy::Or => suspected > 0,
            FusionPolicy::And => suspected == cast,
        }
    }

    /// Stable label for telemetry and artifacts.
    pub fn label(&self) -> &'static str {
        match self {
            FusionPolicy::Or => "or",
            FusionPolicy::And => "and",
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
            for p in [FusionPolicy::Or, FusionPolicy::And] {
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
    fn empty_votes_never_alarm() {
        for p in [FusionPolicy::Or, FusionPolicy::And] {
            assert!(!p.decide([]), "{p:?} must not fire vacuously");
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(FusionPolicy::Or.label(), "or");
        assert_eq!(FusionPolicy::And.label(), "and");
        assert_eq!(FusionPolicy::default(), FusionPolicy::Or);
    }
}
