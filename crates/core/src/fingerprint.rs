//! The golden fingerprint and the paper's Eq. 1 decision rule.

use crate::acquisition::TraceSet;
use crate::features::{bin_rms, l2_norm, DEFAULT_RMS_BIN};
use crate::parallel::ParallelConfig;
use crate::TrustError;
use emtrust_dsp::distance;
use emtrust_dsp::pca::Pca;
use emtrust_telemetry as telemetry;

/// Configuration of the fingerprinting front-end.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FingerprintConfig {
    /// Samples per RMS feature bin.
    pub rms_bin: usize,
    /// Retained PCA components; `None` disables PCA (the paper's §III-D
    /// recommends it; the ablation bench measures its effect).
    pub pca_components: Option<usize>,
    /// Threshold head-room multiplier on Eq. 1 (1.0 = the literal paper
    /// rule).
    pub threshold_margin: f64,
    /// Worker pool for the per-trace work of fitting (features and PCA
    /// projections) and of batch evaluation; the Eq. 1 and pairwise
    /// scans run on the calling thread. Only affects wall-clock time:
    /// every result is bit-identical for every worker count.
    pub parallel: ParallelConfig,
}

impl Default for FingerprintConfig {
    fn default() -> Self {
        Self {
            rms_bin: DEFAULT_RMS_BIN,
            pca_components: Some(8),
            threshold_margin: 1.0,
            parallel: ParallelConfig::serial(),
        }
    }
}

/// The golden (Trojan-free) fingerprint of a chip.
#[derive(Debug, Clone)]
pub struct GoldenFingerprint {
    config: FingerprintConfig,
    /// Scale divisor: mean feature-vector norm of the golden set.
    scale: f64,
    pca: Option<Pca>,
    /// Golden observations in detection space.
    golden: Vec<Vec<f64>>,
    centroid: Vec<f64>,
    threshold: f64,
    /// Sample count of the golden traces (every suspect must match).
    trace_len: usize,
}

impl GoldenFingerprint {
    /// Fits the fingerprint on a golden trace set: extracts each
    /// trace's RMS features, then fits [`Self::from_features`] on them.
    ///
    /// # Errors
    ///
    /// - [`TrustError::InvalidParameter`] if fewer than two traces are
    ///   supplied or the configuration is degenerate,
    /// - forwarded DSP errors from PCA/distance computation.
    pub fn fit(golden: &TraceSet, config: FingerprintConfig) -> Result<Self, TrustError> {
        let _span = telemetry::span("fit");
        // Feature extraction, one trace per work item.
        let traces = golden.traces();
        let raw: Vec<Vec<f64>> = {
            let _span = telemetry::span("features");
            config
                .parallel
                .try_map(traces.len(), |i| bin_rms(&traces[i], config.rms_bin))?
        };
        Self::from_features(&raw, traces.first().map_or(0, Vec::len), config)
    }

    /// Fits the fingerprint on golden traces already reduced to their
    /// raw RMS features ([`Self::features`] at `config.rms_bin`), each
    /// row from a trace of `trace_len` samples. On the features of a
    /// trace set it is bit-identical to [`Self::fit`] on that set. It
    /// opens no telemetry span; [`Self::fit`]'s `fit` span covers it.
    ///
    /// # Errors
    ///
    /// - [`TrustError::InvalidParameter`] if fewer than two rows are
    ///   supplied, a row is not the `rms_bin`-sample bins of
    ///   `trace_len` samples, or the configuration is degenerate,
    /// - forwarded DSP errors from PCA/distance computation.
    pub fn from_features(
        raw: &[Vec<f64>],
        trace_len: usize,
        config: FingerprintConfig,
    ) -> Result<Self, TrustError> {
        if raw.len() < 2 {
            return Err(TrustError::InvalidParameter {
                what: "fingerprint needs at least two golden traces",
            });
        }
        if config.threshold_margin <= 0.0 {
            return Err(TrustError::InvalidParameter {
                what: "threshold margin must be positive",
            });
        }
        let bins = (config.rms_bin > 0).then(|| trace_len.div_ceil(config.rms_bin));
        if trace_len == 0 || raw.iter().any(|f| Some(f.len()) != bins) {
            return Err(TrustError::InvalidParameter {
                what: "golden features must be the RMS bins of trace_len samples",
            });
        }
        // Scale normalization: golden magnitude becomes O(1) so distances
        // are dimensionless (comparable to the paper's 0.05–0.28 range).
        let scale = raw.iter().map(|f| l2_norm(f)).sum::<f64>() / raw.len() as f64;
        if scale == 0.0 {
            return Err(TrustError::InvalidParameter {
                what: "golden traces contain no energy",
            });
        }
        let scaled: Vec<Vec<f64>> = raw
            .iter()
            .map(|f| f.iter().map(|x| x / scale).collect())
            .collect();
        // Optional PCA on the scaled features.
        let (pca, projected) = match config.pca_components {
            Some(k) => {
                let _span = telemetry::span("project");
                let k = k.min(scaled[0].len());
                let pca = Pca::fit(&scaled, k)?;
                let projected = config
                    .parallel
                    .try_map(scaled.len(), |i| -> Result<_, TrustError> {
                        Ok(pca.project(&scaled[i])?)
                    })?;
                (Some(pca), projected)
            }
            None => (None, scaled),
        };
        let centroid = distance::centroid(&projected)?;
        // The O(n²) Eq. 1 pair scan.
        let threshold = {
            let _span = telemetry::span("threshold_scan");
            distance::eq1_threshold(&projected)? * config.threshold_margin
        };
        telemetry::gauge("fingerprint.threshold", threshold);
        Ok(Self {
            config,
            scale,
            pca,
            golden: projected,
            centroid,
            threshold,
            trace_len,
        })
    }

    /// Extracts the raw RMS energy features of a trace (the first stage
    /// of [`Self::project`]). The detection pipeline computes this once
    /// per trace and shares the result between the sanitizer's energy
    /// screen and the distance scorer.
    ///
    /// # Errors
    ///
    /// Forwarded feature-extraction errors (empty trace).
    pub fn features(&self, samples: &[f64]) -> Result<Vec<f64>, TrustError> {
        bin_rms(samples, self.config.rms_bin)
    }

    /// Maps pre-computed RMS features into detection space (scale
    /// normalization, then the optional PCA projection) — the second
    /// stage of [`Self::project`].
    ///
    /// # Errors
    ///
    /// Forwarded PCA errors (wrong feature length).
    pub fn project_features(&self, feats: &[f64]) -> Result<Vec<f64>, TrustError> {
        let scaled: Vec<f64> = feats.iter().map(|x| x / self.scale).collect();
        Ok(match &self.pca {
            Some(p) => p.project(&scaled)?,
            None => scaled,
        })
    }

    /// Maps a raw trace into detection space.
    ///
    /// # Errors
    ///
    /// Forwarded feature/PCA errors (wrong trace length, empty trace).
    pub fn project(&self, samples: &[f64]) -> Result<Vec<f64>, TrustError> {
        let feats = self.features(samples)?;
        self.project_features(&feats)
    }

    /// Distance of a detection-space projection to the golden centroid —
    /// the final stage of [`Self::distance`].
    ///
    /// # Errors
    ///
    /// Forwarded distance errors (dimension mismatch).
    pub fn distance_of_projection(&self, projection: &[f64]) -> Result<f64, TrustError> {
        Ok(distance::euclidean(projection, &self.centroid)?)
    }

    /// Distance of a raw trace to the golden centroid.
    ///
    /// # Errors
    ///
    /// Forwarded projection errors.
    pub fn distance(&self, samples: &[f64]) -> Result<f64, TrustError> {
        self.distance_of_projection(&self.project(samples)?)
    }

    /// Distances of every trace in a set to the golden centroid, fanned
    /// across the configured worker pool (trace order preserved).
    ///
    /// # Errors
    ///
    /// Forwarded projection errors.
    pub fn set_distances(&self, set: &TraceSet) -> Result<Vec<f64>, TrustError> {
        let traces = set.traces();
        self.config
            .parallel
            .try_map(traces.len(), |i| self.distance(&traces[i]))
    }

    /// The paper's §IV-C scalar: Euclidean distance between the golden
    /// centroid and the suspect set's centroid, in detection space.
    ///
    /// # Errors
    ///
    /// Forwarded projection/centroid errors.
    pub fn centroid_distance(&self, suspect: &TraceSet) -> Result<f64, TrustError> {
        let projected: Vec<Vec<f64>> = suspect
            .traces()
            .iter()
            .map(|t| self.project(t))
            .collect::<Result<_, _>>()?;
        let c = distance::centroid(&projected)?;
        Ok(distance::euclidean(&c, &self.centroid)?)
    }

    /// Pairwise distances within the golden set (the red histograms of
    /// Fig. 6).
    ///
    /// # Errors
    ///
    /// Forwarded distance errors.
    pub fn golden_pairwise(&self) -> Result<Vec<f64>, TrustError> {
        Ok(distance::pairwise_distances(&self.golden)?)
    }

    /// Cross distances between the golden set and a suspect set (the blue
    /// histograms of Fig. 6).
    ///
    /// # Errors
    ///
    /// Forwarded projection/distance errors.
    pub fn cross_distances(&self, suspect: &TraceSet) -> Result<Vec<f64>, TrustError> {
        let projected: Vec<Vec<f64>> = suspect
            .traces()
            .iter()
            .map(|t| self.project(t))
            .collect::<Result<_, _>>()?;
        Ok(distance::cross_distances(&self.golden, &projected)?)
    }

    /// Feature-energy ratio of a raw trace relative to the golden scale
    /// (clean traces sit near 1.0). The sanitizer's energy screen uses
    /// this to catch gain faults before distance scoring.
    ///
    /// # Errors
    ///
    /// Forwarded feature-extraction errors.
    pub fn energy_ratio(&self, samples: &[f64]) -> Result<f64, TrustError> {
        let feats = self.features(samples)?;
        Ok(self.energy_ratio_of_features(&feats))
    }

    /// Feature-energy ratio of pre-computed RMS features relative to the
    /// golden scale ([`Self::energy_ratio`] with the extraction stage
    /// already done).
    pub fn energy_ratio_of_features(&self, feats: &[f64]) -> f64 {
        l2_norm(feats) / self.scale
    }

    /// The scale divisor (mean golden feature-vector norm) that makes
    /// distances dimensionless.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Sample count of the golden traces the fingerprint was fitted on.
    pub fn expected_trace_len(&self) -> usize {
        self.trace_len
    }

    /// The golden centroid in detection space.
    pub fn centroid(&self) -> &[f64] {
        &self.centroid
    }

    /// The Eq. 1 threshold in effect (margin applied).
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The configuration used at fit time.
    pub fn config(&self) -> FingerprintConfig {
        self.config
    }

    /// Number of golden observations.
    pub fn golden_count(&self) -> usize {
        self.golden.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic_set(n: usize, amplitude: f64, seed: u64) -> TraceSet {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let traces: Vec<Vec<f64>> = (0..n)
            .map(|_| {
                (0..256)
                    .map(|j| amplitude * ((j as f64 / 7.0).sin() + 0.02 * rng.gen_range(-1.0..1.0)))
                    .collect()
            })
            .collect();
        TraceSet::new(traces, 640e6).unwrap()
    }

    #[test]
    fn golden_traces_stay_under_threshold() {
        let golden = synthetic_set(32, 1.0, 1);
        let fp = GoldenFingerprint::fit(&golden, FingerprintConfig::default()).unwrap();
        let fresh = synthetic_set(8, 1.0, 2);
        for t in fresh.traces() {
            let d = fp.distance(t).unwrap();
            assert!(
                d <= fp.threshold(),
                "false alarm: d={d} th={}",
                fp.threshold()
            );
        }
    }

    #[test]
    fn amplitude_anomalies_are_flagged() {
        let golden = synthetic_set(32, 1.0, 1);
        let fp = GoldenFingerprint::fit(&golden, FingerprintConfig::default()).unwrap();
        let trojan = synthetic_set(4, 1.3, 3);
        for t in trojan.traces() {
            assert!(fp.distance(t).unwrap() > fp.threshold());
        }
    }

    #[test]
    fn centroid_distance_grows_with_anomaly_size() {
        let golden = synthetic_set(32, 1.0, 1);
        let fp = GoldenFingerprint::fit(&golden, FingerprintConfig::default()).unwrap();
        let small = fp.centroid_distance(&synthetic_set(16, 1.02, 4)).unwrap();
        let large = fp.centroid_distance(&synthetic_set(16, 1.3, 5)).unwrap();
        assert!(large > 3.0 * small, "small {small} large {large}");
    }

    #[test]
    fn distances_are_dimensionless() {
        // The same data at 1000x the voltage gives the same distances.
        let a = synthetic_set(16, 1.0, 1);
        let b = TraceSet::new(
            a.traces()
                .iter()
                .map(|t| t.iter().map(|x| 1000.0 * x).collect())
                .collect(),
            a.sample_rate_hz(),
        )
        .unwrap();
        let fa = GoldenFingerprint::fit(&a, FingerprintConfig::default()).unwrap();
        let fb = GoldenFingerprint::fit(&b, FingerprintConfig::default()).unwrap();
        assert!((fa.threshold() - fb.threshold()).abs() < 1e-9);
    }

    #[test]
    fn pca_can_be_disabled() {
        let golden = synthetic_set(16, 1.0, 1);
        let cfg = FingerprintConfig {
            pca_components: None,
            ..Default::default()
        };
        let fp = GoldenFingerprint::fit(&golden, cfg).unwrap();
        assert!(fp.distance(&synthetic_set(1, 1.4, 9).traces()[0]).unwrap() > fp.threshold());
    }

    #[test]
    fn histogram_materials_have_expected_counts() {
        let golden = synthetic_set(10, 1.0, 1);
        let fp = GoldenFingerprint::fit(&golden, FingerprintConfig::default()).unwrap();
        assert_eq!(fp.golden_pairwise().unwrap().len(), 45);
        let suspect = synthetic_set(5, 1.1, 2);
        assert_eq!(fp.cross_distances(&suspect).unwrap().len(), 50);
        assert_eq!(fp.golden_count(), 10);
    }

    #[test]
    fn degenerate_fits_are_rejected() {
        let one = synthetic_set(1, 1.0, 1);
        assert!(GoldenFingerprint::fit(&one, FingerprintConfig::default()).is_err());
        let golden = synthetic_set(4, 1.0, 1);
        let cfg = FingerprintConfig {
            threshold_margin: 0.0,
            ..Default::default()
        };
        assert!(GoldenFingerprint::fit(&golden, cfg).is_err());
        let silent = TraceSet::new(vec![vec![0.0; 64]; 4], 1.0).unwrap();
        assert!(GoldenFingerprint::fit(&silent, FingerprintConfig::default()).is_err());
    }

    #[test]
    fn features_of_another_shape_are_refused() {
        let golden = synthetic_set(4, 1.0, 1);
        let cfg = FingerprintConfig::default();
        let raw: Vec<Vec<f64>> = golden
            .traces()
            .iter()
            .map(|t| bin_rms(t, cfg.rms_bin).unwrap())
            .collect();
        assert!(GoldenFingerprint::from_features(&raw, 256, cfg).is_ok());
        // 264 samples make 33 bins, not 32; no samples make none.
        for trace_len in [264, 0] {
            assert!(GoldenFingerprint::from_features(&raw, trace_len, cfg).is_err());
        }
        for rms_bin in [16, 0] {
            let cfg = FingerprintConfig { rms_bin, ..cfg };
            assert!(GoldenFingerprint::from_features(&raw, 256, cfg).is_err());
        }
        let mut ragged = raw.clone();
        ragged[2].pop();
        assert!(GoldenFingerprint::from_features(&ragged, 256, cfg).is_err());
        assert!(GoldenFingerprint::from_features(&raw[..1], 256, cfg).is_err());
    }

    #[test]
    fn staged_helpers_compose_to_the_one_shot_paths() {
        let golden = synthetic_set(16, 1.0, 1);
        let fp = GoldenFingerprint::fit(&golden, FingerprintConfig::default()).unwrap();
        let suspect_set = synthetic_set(1, 1.2, 7);
        let t = &suspect_set.traces()[0];
        let feats = fp.features(t).unwrap();
        let projection = fp.project_features(&feats).unwrap();
        assert_eq!(projection, fp.project(t).unwrap());
        assert_eq!(
            fp.distance_of_projection(&projection).unwrap(),
            fp.distance(t).unwrap()
        );
        assert_eq!(
            fp.energy_ratio_of_features(&feats),
            fp.energy_ratio(t).unwrap()
        );
        assert!(fp.scale() > 0.0);
    }

    #[test]
    fn threshold_margin_loosens_detection() {
        let golden = synthetic_set(32, 1.0, 1);
        let tight = GoldenFingerprint::fit(&golden, FingerprintConfig::default()).unwrap();
        let loose = GoldenFingerprint::fit(
            &golden,
            FingerprintConfig {
                threshold_margin: 100.0,
                ..Default::default()
            },
        )
        .unwrap();
        let suspect_set = synthetic_set(1, 1.3, 3);
        let suspect = &suspect_set.traces()[0];
        assert!(tight.distance(suspect).unwrap() > tight.threshold());
        assert!(loose.distance(suspect).unwrap() <= loose.threshold());
    }
}
