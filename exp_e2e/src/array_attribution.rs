//! `array_attribution`: the 4×2 sensor array localizing each armed
//! Trojan, built like `exp_attribution`.

use crate::ledger::Ledger;
use crate::replay;
use crate::stats::Digest;
use crate::workload::{Metric, Op, Workload};
use crate::{derive, KEY, TROJANS};
use emtrust::acquisition::TraceSet;
use emtrust::array::SensorArray;
use emtrust::attribution::CellEvidence;
use emtrust::fingerprint::FingerprintConfig;
use emtrust::ParallelConfig;
use emtrust_em::array::EmArray;
use emtrust_sim::ToggleActivity;
use emtrust_trojan::{ProtectedChip, TrojanKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

const ROWS: usize = 4;
const COLS: usize = 2;
const TURNS: usize = 8;
/// Encryptions per campaign, golden and suspect alike.
const CAMPAIGN: usize = 16;
/// A round: op 0 is the golden campaign and fit, ops 1–4 attribute
/// T1–T4 in turn.
const CYCLE: u64 = 5;
/// The armed Trojan's placement region must rank within the top 3.
const HIT_AT: usize = 3;

const STREAM_ROUND: u64 = 1;

/// One tile's traces of a campaign.
type TileTraces = Vec<Vec<f64>>;

pub struct Chips {
    trojan: ProtectedChip,
}

impl Chips {
    pub fn new() -> Self {
        Self {
            trojan: ProtectedChip::with_all_trojans(),
        }
    }
}

/// `SensorArray::collect_with_activity`'s fixed plaintext for a campaign
/// seed.
fn campaign_plaintext(seed: u64) -> [u8; 16] {
    StdRng::seed_from_u64(seed ^ 0x97).gen()
}

pub struct ArrayAttribution<'c> {
    chip: &'c ProtectedChip,
    seed: u64,
    array: SensorArray<'c>,
    /// The array's sub-coils rebuilt from their parts (traced runs).
    replay: Option<EmArray>,
    /// The current round's golden switching activity.
    golden_activity: ToggleActivity,
    digest: Digest,
    campaigns: u64,
    alarmed: u64,
    hits: u64,
}

impl<'c> ArrayAttribution<'c> {
    pub fn setup(chips: &'c Chips, seed: u64, ledger: Option<&mut Ledger>) -> Result<Self, String> {
        let chip = &chips.trojan;
        let serial = ParallelConfig::serial();
        let mut digest = Digest::default();
        let first = campaign_plaintext(derive(seed, STREAM_ROUND, 0));
        crate::check_ciphertexts(chip, &[first], &mut digest)?;
        // Raw per-tile energy features, no PCA: T3's CDMA leak is an
        // order of magnitude weaker than the other Trojans and a per-tile
        // PCA basis projects it away.
        let fingerprint = FingerprintConfig {
            pca_components: None,
            parallel: serial,
            ..FingerprintConfig::default()
        };
        let array = SensorArray::builder(chip)
            .with_grid(ROWS, COLS)
            .and_then(|b| b.with_turns(TURNS))
            .map_err(|e| e.to_string())?
            .with_fingerprint(fingerprint)
            .with_parallel(serial)
            .build()
            .map_err(|e| e.to_string())?;
        let replay = match ledger {
            Some(l) => Some(l.segment(|l| {
                let floorplan = replay::place(l, chip)?;
                l.span("em.build", 0, || {
                    EmArray::build(
                        chip.netlist(),
                        &floorplan,
                        replay::reference_model(),
                        ROWS,
                        COLS,
                        TURNS,
                    )
                    .map_err(|e| e.to_string())
                })
            })?),
            None => None,
        };
        Ok(Self {
            chip,
            seed,
            array,
            replay,
            golden_activity: ToggleActivity::new(),
            digest,
            campaigns: 0,
            alarmed: 0,
            hits: 0,
        })
    }

    /// One campaign through the program; when tracing, also replayed
    /// layer by layer and checked bit for bit, toggle counts included.
    fn acquire(
        &self,
        ledger: Option<&mut Ledger>,
        armed: Option<TrojanKind>,
        seed: u64,
    ) -> Result<(Vec<TraceSet>, ToggleActivity), String> {
        let collect = || {
            self.array
                .collect_with_activity(KEY, CAMPAIGN, armed, seed)
                .map_err(|e| e.to_string())
        };
        let Some(l) = ledger else {
            return collect();
        };
        let (sets, activity) = l.reference("acquisition", CAMPAIGN as u64, collect)?;
        let (tiles, replayed_activity) = l.segment(|l| self.replay(l, armed, seed))?;
        let same = sets.len() == tiles.len()
            && sets
                .iter()
                .zip(&tiles)
                .all(|(s, t)| replay::same_traces(s.traces(), t))
            && activity == replayed_activity;
        if !same {
            return Err(format!(
                "replayed {armed:?} campaign differs from the program's"
            ));
        }
        Ok((sets, activity))
    }

    /// `collect_with_activity` rebuilt: one simulator warmed up with the
    /// campaign plaintext, then per encryption one shared synthesis pass
    /// for every tile.
    fn replay(
        &self,
        l: &mut Ledger,
        armed: Option<TrojanKind>,
        seed: u64,
    ) -> Result<(Vec<TileTraces>, ToggleActivity), String> {
        let em = self.replay.as_ref().ok_or("no replay array")?;
        let pt = campaign_plaintext(seed);
        let mut sim = replay::simulator(l, self.chip, KEY, armed, Some(pt))?;
        let mut tiles: Vec<TileTraces> = vec![Vec::with_capacity(CAMPAIGN); em.len()];
        let mut activity = ToggleActivity::new();
        for i in 0..CAMPAIGN {
            let rec = replay::encrypt(l, &mut sim, self.chip, KEY, &[pt], armed)?;
            let traces =
                replay::measure_array(l, em, self.chip, &rec, replay::trace_seed(seed, i))?;
            for (tile, trace) in tiles.iter_mut().zip(traces) {
                tile.push(trace);
            }
            l.span("core.attribution.absorb", 1, || {
                activity.absorb(&rec.activity)
            });
        }
        Ok((tiles, activity))
    }
}

impl Workload for ArrayAttribution<'_> {
    fn cycle_len(&self) -> u64 {
        CYCLE
    }

    fn detect_span(&self) -> &'static str {
        "core.attribution"
    }

    fn op(&mut self, index: u64, mut ledger: Option<&mut Ledger>) -> Result<Op, String> {
        let round = index / CYCLE;
        let seed = derive(self.seed, STREAM_ROUND, round);
        let first_round = index < CYCLE;
        let Some(kind) = (index % CYCLE)
            .checked_sub(1)
            .and_then(|k| TROJANS.get(k as usize).copied())
        else {
            let (golden, activity) = self.acquire(ledger.as_deref_mut(), None, seed)?;
            let array = &mut self.array;
            let mut fit = || array.fit_golden(&golden).map_err(|e| e.to_string());
            match ledger {
                Some(l) => {
                    l.count("core.fingerprint.fits", 1);
                    l.segment(|l| l.span("core.fingerprint", CAMPAIGN as u64, fit))?
                }
                None => fit()?,
            }
            if first_round {
                self.digest.u64(activity.total_toggles());
            }
            self.golden_activity = activity;
            return Ok(Op {
                traces: CAMPAIGN as u64,
                latency_ms: None,
                failures: Vec::new(),
            });
        };
        let t0 = Instant::now();
        let (suspects, activity) = self.acquire(ledger.as_deref_mut(), Some(kind), seed)?;
        let evidence = CellEvidence {
            baseline: &self.golden_activity,
            suspect: &activity,
        };
        let array = &mut self.array;
        let mut attribute = || {
            array
                .attribute(&suspects, Some(&evidence))
                .map_err(|e| e.to_string())
        };
        let attribution = match ledger {
            Some(l) => l.segment(|l| l.span("core.attribution", CAMPAIGN as u64, attribute))?,
            None => attribute()?,
        };
        let latency_ms = t0.elapsed().as_secs_f64() * 1e3;

        let mut failures = Vec::new();
        let alarmed = attribution.alarmed();
        let hit = attribution.hit_at(kind.module_tag(), HIT_AT);
        if !alarmed {
            failures.push(format!(
                "op {index}: armed {kind:?} campaign raised no alarm"
            ));
        }
        if !hit {
            failures.push(format!(
                "op {index}: {} not in the top {HIT_AT} regions ({:?})",
                kind.module_tag(),
                attribution
                    .regions()
                    .take(HIT_AT)
                    .map(|r| r.region.as_str())
                    .collect::<Vec<_>>()
            ));
        }
        self.campaigns += 1;
        self.alarmed += u64::from(alarmed);
        self.hits += u64::from(hit);
        if first_round {
            self.digest.bool(alarmed);
            for r in attribution.regions().take(HIT_AT) {
                self.digest.str(&r.region);
            }
            self.digest.u64(activity.total_toggles());
        }
        Ok(Op {
            traces: CAMPAIGN as u64,
            latency_ms: Some(latency_ms),
            failures,
        })
    }

    fn digest(&self) -> u64 {
        self.digest.value()
    }

    fn time_to_detect_ops(&self) -> f64 {
        // Each armed campaign is its own episode, judged in one op.
        f64::from(u8::from(self.alarmed > 0))
    }

    fn extras(&self, _ledger: Option<&Ledger>) -> Vec<Metric> {
        vec![
            Metric::new("campaigns", self.campaigns as f64, "count"),
            Metric::new("campaigns_alarmed", self.alarmed as f64, "count"),
            Metric::new(format!("hit_at_{HIT_AT}"), self.hits as f64, "count"),
        ]
    }
}
