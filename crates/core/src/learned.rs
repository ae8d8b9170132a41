//! A zero-dependency logistic-regression model, [`LogisticModel`],
//! trained by full-batch gradient descent under a [`TrainSpec`].
//!
//! The register-level attribution harness trains one per held-out
//! Trojan: under leave-one-Trojan-out it learns from the labeled cells
//! of the three Trojans left *in* and re-ranks the held-out Trojan's
//! cells (`emtrust-bench`'s `attribution` module). MacLeR-style runtime
//! Trojan detection shows a lightweight classifier is viable on
//! constrained devices; this model keeps to two hard constraints:
//!
//! - **No dependencies.** The model is plain batch gradient descent
//!   over standardized features — a few dozen lines of arithmetic, no
//!   linear-algebra crate.
//! - **Deterministic training.** Training uses no randomness at all
//!   (zero-initialized weights, full-batch descent in a fixed order),
//!   so two fits from the same material are bit-identical, and
//!   prediction is pure, so results are bit-identical across worker
//!   counts too.

use crate::TrustError;

/// Numerically safe logistic function.
fn sigmoid(z: f64) -> f64 {
    let z = z.clamp(-40.0, 40.0);
    1.0 / (1.0 + (-z).exp())
}

/// Gradient-descent knobs of a [`LogisticModel`] fit. Training is
/// full-batch in a fixed order with zero-initialized weights, so a
/// spec plus a training set determines the model bit for bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainSpec {
    /// Full-batch gradient-descent epochs.
    pub epochs: usize,
    /// Step size.
    pub learning_rate: f64,
    /// L2 weight penalty (never applied to the bias).
    pub l2: f64,
    /// Re-weight classes inversely to their frequency — essential when
    /// positives are rare (a Trojan's cells are a sliver of the die).
    pub balance: bool,
}

impl Default for TrainSpec {
    fn default() -> Self {
        Self {
            epochs: 200,
            learning_rate: 0.5,
            l2: 1e-3,
            balance: true,
        }
    }
}

impl TrainSpec {
    /// Checks every invariant the trainer relies on.
    ///
    /// # Errors
    ///
    /// [`TrustError::InvalidParameter`] naming the violated bound.
    pub fn validate(&self) -> Result<(), TrustError> {
        if self.epochs == 0 {
            return Err(TrustError::InvalidParameter {
                what: "logistic training needs at least one epoch",
            });
        }
        if !(self.learning_rate.is_finite() && self.learning_rate > 0.0) {
            return Err(TrustError::InvalidParameter {
                what: "learning_rate must be positive and finite",
            });
        }
        if !(self.l2.is_finite() && self.l2 >= 0.0) {
            return Err(TrustError::InvalidParameter {
                what: "l2 must be non-negative and finite",
            });
        }
        Ok(())
    }
}

/// A fitted logistic-regression model: per-dimension standardization
/// (learned from the training set) followed by `σ(w·x + b)`.
///
/// Prediction is pure and self-contained, so a model can be handed to
/// worker threads or across crates (the attribution harness in
/// `emtrust-bench` trains one per held-out Trojan).
#[derive(Debug, Clone, PartialEq)]
pub struct LogisticModel {
    mean: Vec<f64>,
    scale: Vec<f64>,
    weights: Vec<f64>,
    bias: f64,
}

impl LogisticModel {
    /// Trains on `features` (row per example) against boolean `labels`
    /// (`true` = anomalous / Trojan class). Deterministic — see the
    /// module docs.
    ///
    /// # Errors
    ///
    /// [`TrustError::InvalidParameter`] on an empty or ragged training
    /// set, non-finite values, a label-count mismatch, a single-class
    /// set, or an out-of-range spec.
    pub fn train(
        features: &[Vec<f64>],
        labels: &[bool],
        spec: TrainSpec,
    ) -> Result<Self, TrustError> {
        spec.validate()?;
        let n = features.len();
        if n == 0 || labels.len() != n {
            return Err(TrustError::InvalidParameter {
                what: "logistic training needs one label per feature row",
            });
        }
        let dims = features[0].len();
        if dims == 0 {
            return Err(TrustError::InvalidParameter {
                what: "logistic training needs at least one feature dimension",
            });
        }
        for row in features {
            if row.len() != dims {
                return Err(TrustError::InvalidParameter {
                    what: "logistic training set is ragged",
                });
            }
            if row.iter().any(|x| !x.is_finite()) {
                return Err(TrustError::InvalidParameter {
                    what: "logistic training features must be finite",
                });
            }
        }
        let positives = labels.iter().filter(|&&l| l).count();
        if positives == 0 || positives == n {
            return Err(TrustError::InvalidParameter {
                what: "logistic training needs both classes represented",
            });
        }

        // Standardize per dimension; a constant dimension gets unit
        // scale so it contributes nothing rather than a division blowup.
        let mut mean = vec![0.0; dims];
        for row in features {
            for (m, &x) in mean.iter_mut().zip(row) {
                *m += x;
            }
        }
        for m in &mut mean {
            *m /= n as f64;
        }
        let mut scale = vec![0.0; dims];
        for row in features {
            for ((s, &m), &x) in scale.iter_mut().zip(&mean).zip(row) {
                let d = x - m;
                *s += d * d;
            }
        }
        for s in &mut scale {
            *s = (*s / n as f64).sqrt();
            if *s <= f64::EPSILON {
                *s = 1.0;
            }
        }

        // Inverse-frequency class weights (mean weight 1.0) when
        // balancing; uniform otherwise.
        let (w_pos, w_neg) = if spec.balance {
            let p = positives as f64;
            let q = (n - positives) as f64;
            (n as f64 / (2.0 * p), n as f64 / (2.0 * q))
        } else {
            (1.0, 1.0)
        };

        let std_rows: Vec<Vec<f64>> = features
            .iter()
            .map(|row| {
                row.iter()
                    .zip(&mean)
                    .zip(&scale)
                    .map(|((&x, &m), &s)| (x - m) / s)
                    .collect()
            })
            .collect();

        let mut weights = vec![0.0; dims];
        let mut bias = 0.0;
        let mut grad = vec![0.0; dims];
        for _ in 0..spec.epochs {
            grad.iter_mut().for_each(|g| *g = 0.0);
            let mut grad_b = 0.0;
            for (row, &label) in std_rows.iter().zip(labels) {
                let z = bias + weights.iter().zip(row).map(|(&w, &x)| w * x).sum::<f64>();
                let err = sigmoid(z) - f64::from(u8::from(label));
                let cw = if label { w_pos } else { w_neg };
                for (g, &x) in grad.iter_mut().zip(row) {
                    *g += cw * err * x;
                }
                grad_b += cw * err;
            }
            let inv_n = 1.0 / n as f64;
            for (w, &g) in weights.iter_mut().zip(&grad) {
                *w -= spec.learning_rate * (g * inv_n + spec.l2 * *w);
            }
            bias -= spec.learning_rate * grad_b * inv_n;
        }
        Ok(Self {
            mean,
            scale,
            weights,
            bias,
        })
    }

    /// Feature dimensionality the model was trained on.
    pub fn dims(&self) -> usize {
        self.weights.len()
    }

    /// The learned weights, in standardized feature space.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The learned bias.
    pub fn bias(&self) -> f64 {
        self.bias
    }

    /// The raw decision value `w·x̂ + b` over standardized features.
    ///
    /// # Errors
    ///
    /// [`TrustError::InvalidParameter`] on a dimension mismatch or a
    /// non-finite feature.
    pub fn decision(&self, features: &[f64]) -> Result<f64, TrustError> {
        if features.len() != self.weights.len() {
            return Err(TrustError::InvalidParameter {
                what: "feature length does not match the logistic model",
            });
        }
        if features.iter().any(|x| !x.is_finite()) {
            return Err(TrustError::InvalidParameter {
                what: "logistic features must be finite",
            });
        }
        Ok(self.bias
            + self
                .weights
                .iter()
                .zip(features)
                .zip(self.mean.iter().zip(&self.scale))
                .map(|((&w, &x), (&m, &s))| w * ((x - m) / s))
                .sum::<f64>())
    }

    /// The predicted anomaly probability `σ(decision)`.
    ///
    /// # Errors
    ///
    /// Forwarded from [`Self::decision`].
    pub fn predict(&self, features: &[f64]) -> Result<f64, TrustError> {
        Ok(sigmoid(self.decision(features)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A noisy two-class set: negatives around the origin, positives
    /// shifted along every dimension.
    fn two_class_set(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<bool>) {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let label = i % 3 == 0;
                let shift = if label { 1.5 } else { 0.0 };
                let row = (0..4).map(|_| shift + rng.gen_range(-1.0..1.0)).collect();
                (row, label)
            })
            .unzip()
    }

    fn model_bits(m: &LogisticModel) -> Vec<u64> {
        m.weights()
            .iter()
            .chain([&m.bias()])
            .map(|x| x.to_bits())
            .collect()
    }

    #[test]
    fn training_is_bit_identical_on_repeat() {
        let (features, labels) = two_class_set(48, 1);
        let spec = TrainSpec::default();
        let a = LogisticModel::train(&features, &labels, spec).unwrap();
        let b = LogisticModel::train(&features, &labels, spec).unwrap();
        assert_eq!(
            model_bits(&a),
            model_bits(&b),
            "same material must train bit-identically"
        );
        let probe = &features[5];
        assert_eq!(
            a.decision(probe).unwrap().to_bits(),
            b.decision(probe).unwrap().to_bits()
        );
        // The comparison has teeth: another spec trains another model.
        let c = LogisticModel::train(
            &features,
            &labels,
            TrainSpec {
                epochs: spec.epochs + 1,
                ..spec
            },
        )
        .unwrap();
        assert_ne!(model_bits(&a), model_bits(&c));
    }

    #[test]
    fn train_spec_bounds_are_enforced() {
        let (features, labels) = two_class_set(12, 2);
        assert!(LogisticModel::train(&features, &labels, TrainSpec::default()).is_ok());
        let cases = [
            TrainSpec {
                epochs: 0,
                ..TrainSpec::default()
            },
            TrainSpec {
                learning_rate: 0.0,
                ..TrainSpec::default()
            },
            TrainSpec {
                learning_rate: f64::NAN,
                ..TrainSpec::default()
            },
            TrainSpec {
                l2: -1e-3,
                ..TrainSpec::default()
            },
        ];
        for spec in cases {
            assert!(
                LogisticModel::train(&features, &labels, spec).is_err(),
                "{spec:?} must be rejected"
            );
        }
    }

    #[test]
    fn logistic_model_validates_inputs() {
        assert!(LogisticModel::train(&[], &[], TrainSpec::default()).is_err());
        assert!(
            LogisticModel::train(&[vec![1.0], vec![2.0]], &[true], TrainSpec::default()).is_err()
        );
        // One-class sets are rejected.
        assert!(LogisticModel::train(
            &[vec![1.0], vec![2.0]],
            &[false, false],
            TrainSpec::default()
        )
        .is_err());
        // Ragged rows are rejected.
        assert!(LogisticModel::train(
            &[vec![1.0], vec![2.0, 3.0]],
            &[false, true],
            TrainSpec::default()
        )
        .is_err());
        let m = LogisticModel::train(
            &[
                vec![0.0, 1.0],
                vec![0.1, 1.1],
                vec![2.0, 3.0],
                vec![2.1, 3.2],
            ],
            &[false, false, true, true],
            TrainSpec::default(),
        )
        .unwrap();
        assert_eq!(m.dims(), 2);
        assert!(m.predict(&[0.0, 1.0]).unwrap() < 0.5);
        assert!(m.predict(&[2.0, 3.0]).unwrap() > 0.5);
        assert!(m.predict(&[1.0]).is_err());
        assert!(m.predict(&[f64::NAN, 0.0]).is_err());
    }

    #[test]
    fn balanced_training_handles_rare_positives() {
        // 60 negatives around 0, 4 positives around 3: an unbalanced fit
        // could drown the positives; the balanced one must rank every
        // positive above every negative.
        let mut rng = StdRng::seed_from_u64(5);
        let mut features = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..60 {
            features.push(vec![rng.gen_range(-0.5..0.5), rng.gen_range(-0.5..0.5)]);
            labels.push(false);
        }
        for _ in 0..4 {
            features.push(vec![
                3.0 + rng.gen_range(-0.2..0.2),
                3.0 + rng.gen_range(-0.2..0.2),
            ]);
            labels.push(true);
        }
        let m = LogisticModel::train(&features, &labels, TrainSpec::default()).unwrap();
        let worst_pos = features
            .iter()
            .zip(&labels)
            .filter(|(_, &l)| l)
            .map(|(f, _)| m.predict(f).unwrap())
            .fold(f64::INFINITY, f64::min);
        let best_neg = features
            .iter()
            .zip(&labels)
            .filter(|(_, &l)| !l)
            .map(|(f, _)| m.predict(f).unwrap())
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(worst_pos > best_neg);
    }
}
