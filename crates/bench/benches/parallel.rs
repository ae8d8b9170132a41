//! Serial vs. parallel benchmarks for the acquisition → fingerprint →
//! batch-evaluation engine. Each group sweeps the worker count so
//! `cargo bench` doubles as the speedup report (`exp_throughput` writes
//! the machine-readable version to `BENCH_parallel.json`). The
//! `simulate` group covers both widths of the word-parallel simulator, a
//! 48-block recording and the Trojans' state-cone pass, with and without
//! the chip's memo; the `synthesize` group compares binning a stored
//! recording with binning the simulator's toggle words as it runs, on
//! one lane, on 16 lanes of one plaintext (blocks the lanes share are
//! binned once) and on 64 lanes of distinct plaintexts. The `frontend` and `fleet` groups time the
//! per-trace work of a fleet shard on 768-sample traces digitized as
//! `fleet_replay`'s 16-bit front end digitizes them: the trace screen
//! alone (also on the stock 12-bit channel), one `ingest_trace` through
//! a fitted per-chip pipeline, and a whole shard epoch through one
//! `PipelineStore`. The `array`
//! group times one `array_attribution` round: a golden campaign and the
//! four armed campaigns that replay its seed and its noise; then one
//! armed campaign's attribution, by the tiles alone and with the cell
//! ranking.

use criterion::{
    criterion_group, criterion_main, BenchmarkGroup, BenchmarkId, Criterion, Throughput,
};
use emtrust::acquisition::{Stimulus, TestBench};
use emtrust::array::SensorArray;
use emtrust::attribution::CellEvidence;
use emtrust::fingerprint::{FingerprintConfig, GoldenFingerprint};
use emtrust::parallel::ParallelConfig;
use emtrust::telemetry::LabelSet;
use emtrust::{DetectionPipeline, EuclideanDetector, TraceSanitizer, TraceSet};
use emtrust_aes::netlist::{
    drive_encryption, run_encryption, run_encryption_stepped, run_encryptions,
    run_encryptions_stepped,
};
use emtrust_bench::EXPERIMENT_KEY;
use emtrust_fleet::{BaselineMode, FleetConfig, PipelineStore};
use emtrust_netlist::library::Library;
use emtrust_power::{ClockConfig, CurrentModel};
use emtrust_silicon::{Channel, FabricatedChip, Oscilloscope, ProcessVariation};
use emtrust_sim::{ToggleActivity, LANES};
use emtrust_trojan::digital::ALL_DIGITAL_TROJANS;
use emtrust_trojan::{ProtectedChip, TrojanKind};

const WORKER_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// A fresh 8-trace golden campaign per iteration; it simulates on the
/// calling thread, so only its measurements fan across the pool.
fn parallel_collect(c: &mut Criterion) {
    let chip = ProtectedChip::golden();
    let n_traces = 8usize;
    let mut g = c.benchmark_group("parallel_collect");
    g.sample_size(10);
    g.throughput(Throughput::Elements(n_traces as u64));
    for workers in WORKER_SWEEP {
        let bench = TestBench::simulation(&chip)
            .expect("bench")
            .with_parallel(ParallelConfig::default().with_workers(workers));
        // A fresh seed (so a fresh plaintext) per iteration: the bench
        // keeps a fixed-stimulus campaign, and a repeat would time
        // kept blocks instead of a simulation.
        let mut seed = 42;
        g.bench_with_input(BenchmarkId::from_parameter(workers), &workers, |b, _| {
            b.iter(|| {
                seed += 1;
                bench
                    .collect(EXPERIMENT_KEY, n_traces, None, Channel::OnChipSensor, seed)
                    .unwrap()
            })
        });
    }
    g.finish();
}

fn parallel_fit(c: &mut Criterion) {
    // Feature extraction and projection fan across the pool; the O(n²)
    // Eq. 1 pair scan runs on the calling thread.
    let chip = ProtectedChip::golden();
    let golden = TestBench::simulation(&chip)
        .expect("bench")
        .collect(EXPERIMENT_KEY, 24, None, Channel::OnChipSensor, 7)
        .expect("golden set");
    let mut g = c.benchmark_group("parallel_fit");
    g.sample_size(10);
    g.throughput(Throughput::Elements(golden.len() as u64));
    for workers in WORKER_SWEEP {
        let config = FingerprintConfig {
            parallel: ParallelConfig::default().with_workers(workers),
            ..FingerprintConfig::default()
        };
        g.bench_with_input(BenchmarkId::from_parameter(workers), &workers, |b, _| {
            b.iter(|| GoldenFingerprint::fit(&golden, config).unwrap())
        });
    }
    g.finish();
}

/// 16 traces of a kept campaign measured on a fabricated die: the warm-up
/// call simulates the campaign and every timed one reads its blocks from
/// the bench's memo, so the timed loop is the measurement fan-out alone.
fn parallel_measure(c: &mut Criterion) {
    let chip = ProtectedChip::golden();
    let mut g = c.benchmark_group("parallel_measure");
    g.sample_size(10);
    g.throughput(Throughput::Elements(16));
    for workers in [1, 2] {
        let pool = ParallelConfig::default().with_workers(workers);
        let bench = TestBench::silicon(&chip, 3)
            .expect("bench")
            .with_parallel(pool);
        let collect = || bench.collect(EXPERIMENT_KEY, 16, None, Channel::OnChipSensor, 9);
        g.bench_with_input(BenchmarkId::from_parameter(workers), &workers, |b, _| {
            b.iter(collect)
        });
    }
    g.finish();
}

fn parallel_ingest_batch(c: &mut Criterion) {
    let chip = ProtectedChip::golden();
    let bench = TestBench::simulation(&chip).expect("bench");
    let golden = bench
        .collect(EXPERIMENT_KEY, 16, None, Channel::OnChipSensor, 7)
        .expect("golden set");
    let suspects = bench
        .collect(EXPERIMENT_KEY, 16, None, Channel::OnChipSensor, 8)
        .expect("suspect set");
    let fp = GoldenFingerprint::fit(&golden, FingerprintConfig::default()).expect("fit");
    let mut g = c.benchmark_group("parallel_ingest_batch");
    g.sample_size(10);
    g.throughput(Throughput::Elements(suspects.len() as u64));
    for workers in WORKER_SWEEP {
        let mut pipeline = DetectionPipeline::builder()
            .detector(Box::new(EuclideanDetector::new(fp.clone())))
            .parallel(ParallelConfig::default().with_workers(workers))
            .build();
        g.bench_with_input(BenchmarkId::from_parameter(workers), &workers, |b, _| {
            b.iter(|| pipeline.ingest_batch(suspects.traces()))
        });
    }
    g.finish();
}

/// Recorded encryptions at both lane widths: one live lane on the
/// all-Trojan chip with T1 armed (a one-lane recording, as a campaign's
/// power-on block and the sim tests run), and a full word of lanes on
/// the golden chip. Then a 48-block one-lane recording of the golden
/// chip under fresh plaintexts, the window `spectral_watch` records to
/// check its ciphertexts and to replay a measurement. Then a 16-encryption T1-armed campaign on the
/// all-Trojan chip, as `monitor` collects a batch, each under a fresh
/// plaintext, and then one campaign repeated, whose blocks every
/// iteration after the second reads from the bench's memo and only
/// measures; a campaign of 16 random plaintexts under one seed, which
/// the bench never keeps but whose warm-up every iteration after the
/// second restores from the chip's memo (`_warm`: a commit without the
/// warm start times the same body with the warm-up simulated); the
/// serial pass over the Trojans' state cone alone that a
/// first campaign under a key runs; and the same 17 entry states read
/// back from the chip's memo, as every later campaign under that key
/// does.
fn simulate(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulate");
    g.sample_size(10);

    let armed = ProtectedChip::with_all_trojans();
    let mut sim = armed.simulator().expect("simulator");
    armed.disarm_all(&mut sim);
    armed.arm(&mut sim, TrojanKind::T1AmLeaker, true);
    g.throughput(Throughput::Elements(1));
    g.bench_function("one_lane_t1_armed", |b| {
        b.iter(|| {
            sim.start_recording();
            let ct = run_encryption(&mut sim, armed.aes_ports(), EXPERIMENT_KEY, [0x3c; 16]);
            (ct, sim.take_recording())
        })
    });

    let golden = ProtectedChip::golden();
    let mut sim = golden.simulator().expect("simulator");
    let plaintexts: Vec<[u8; 16]> = (0..LANES as u8).map(|i| [i; 16]).collect();
    g.throughput(Throughput::Elements(LANES as u64));
    g.bench_function("lanes_64_golden", |b| {
        b.iter(|| {
            sim.start_recording();
            let cts = run_encryptions(&mut sim, golden.aes_ports(), EXPERIMENT_KEY, &plaintexts);
            (cts, sim.take_lane_recordings())
        })
    });

    let mut sim = golden.simulator().expect("simulator");
    let mut block = 0u128;
    g.throughput(Throughput::Elements(48));
    g.bench_function("record_48_blocks_one_lane", |b| {
        b.iter(|| {
            sim.start_recording();
            for _ in 0..48 {
                block += 1;
                let pt = block.wrapping_mul(0x9E37_79B9_7F4A_7C15_F39C_C060_5CED_C835);
                let _ = run_encryption(
                    &mut sim,
                    golden.aes_ports(),
                    EXPERIMENT_KEY,
                    pt.to_le_bytes(),
                );
            }
            sim.take_recording()
        })
    });

    let bench = TestBench::simulation(&armed).expect("bench");
    let t1 = Some(TrojanKind::T1AmLeaker);
    g.throughput(Throughput::Elements(16));
    let mut seed = 5;
    g.bench_function("campaign_16_t1_armed", |b| {
        b.iter(|| {
            seed += 1;
            bench
                .collect(EXPERIMENT_KEY, 16, t1, Channel::OnChipSensor, seed)
                .expect("campaign")
        })
    });
    g.bench_function("campaign_16_t1_armed_repeat", |b| {
        b.iter(|| {
            bench
                .collect(EXPERIMENT_KEY, 16, t1, Channel::OnChipSensor, 5)
                .expect("campaign")
        })
    });
    g.bench_function("campaign_16_t1_armed_warm", |b| {
        b.iter(|| {
            bench
                .collect_with(
                    EXPERIMENT_KEY,
                    Stimulus::RandomPerTrace,
                    16,
                    t1,
                    Channel::OnChipSensor,
                    5,
                )
                .expect("campaign")
        })
    });
    let cone = armed.state_cone().expect("state cone");
    let mut sim = armed.simulator().expect("simulator");
    armed.disarm_all(&mut sim);
    armed.arm(&mut sim, TrojanKind::T1AmLeaker, true);
    g.bench_function("cone_pass_16_t1_armed", |b| {
        b.iter(|| {
            (0..16u8)
                .map(|i| {
                    let entry = sim.cone_state(cone);
                    let pt = [i; 16];
                    drive_encryption(&mut sim, armed.aes_ports(), EXPERIMENT_KEY, pt, |s| {
                        s.step_cone(cone)
                    });
                    entry
                })
                .collect::<Vec<_>>()
        })
    });
    let stream = [[0x5a; 16]; 17];
    armed
        .cone_entries(EXPERIMENT_KEY, t1, &stream)
        .expect("cone entries");
    g.bench_function("cone_memo_16_t1_armed", |b| {
        b.iter(|| {
            armed
                .cone_entries(EXPERIMENT_KEY, t1, &stream)
                .expect("cone entries")
        })
    });
    g.finish();
}

/// Eight weighted currents of one T1-armed encryption (a 4×2 array's
/// worth) from a charge table compiled once: a recording binned after it
/// is stored, against the simulator's toggle words binned as it runs.
/// Then 16 lanes of one plaintext on the all-Trojan chip with T1 armed,
/// each lane warmed up and loaded with its own state-cone entry, as a
/// `monitor` batch (1 set) or an `array_attribution` campaign (8 sets)
/// streams them: the blocks every lane toggles alike are binned and
/// counted once. Last, one weighted current each of 64 fresh encryptions
/// on the golden chip, one per lane, as `spectral_watch`'s windows
/// stream them, where few blocks are shared.
fn synthesize(c: &mut Criterion) {
    let chip = ProtectedChip::with_all_trojans();
    let netlist = chip.netlist();
    let model = CurrentModel::new(Library::generic_180nm(), ClockConfig::reference());
    let weights = |cells: usize, s: usize| -> Vec<f64> {
        (0..cells)
            .map(|i| 0.2 + ((i * (s + 3)) % 17) as f64 / 17.0)
            .collect()
    };
    let weights8: Vec<Vec<f64>> = (0..8).map(|s| weights(netlist.cell_count(), s)).collect();
    let sets: Vec<Option<&[f64]>> = weights8.iter().map(|w| Some(w.as_slice())).collect();
    let table = model.charge_table(netlist, &sets).expect("charge table");
    let table_t1 = model
        .charge_table(netlist, &sets[..1])
        .expect("charge table");
    let mut sim = chip.simulator().expect("simulator");
    chip.disarm_all(&mut sim);
    chip.arm(&mut sim, TrojanKind::T1AmLeaker, true);
    let pt = [0x3c; 16];

    let golden = ProtectedChip::golden();
    let weights1 = weights(golden.netlist().cell_count(), 0);
    let table1 = model
        .charge_table(golden.netlist(), &[Some(&weights1)])
        .expect("charge table");
    let mut lanes_sim = golden.simulator().expect("simulator");
    let plaintexts: Vec<[u8; 16]> = (0..LANES as u8).map(|i| [i.wrapping_mul(37); 16]).collect();

    let mut g = c.benchmark_group("synthesize");
    g.sample_size(10);
    g.throughput(Throughput::Elements(1));
    g.bench_function("stored_words_to_bins_8_sets", |b| {
        b.iter(|| {
            sim.start_recording();
            let _ = run_encryption(&mut sim, chip.aes_ports(), EXPERIMENT_KEY, pt);
            let activity = sim.take_recording();
            let bins = table.bin_trace(&activity, 1);
            table.render(&bins, None).expect("render")
        })
    });
    g.bench_function("streamed_to_bins_8_sets", |b| {
        b.iter(|| {
            let mut bins = [table.bins()];
            let _ = run_encryption_stepped(&mut sim, chip.aes_ports(), EXPERIMENT_KEY, pt, |s| {
                s.step_words(|words| table.bin_words(words, &mut bins))
            });
            table.render(&bins[0], None).expect("render")
        })
    });
    let t1 = Some(TrojanKind::T1AmLeaker);
    let fixed = [pt; 16];
    let entries = chip
        .cone_entries(EXPERIMENT_KEY, t1, &[pt; 17])
        .expect("cone entries");
    let cone = chip.state_cone().expect("state cone");
    g.throughput(Throughput::Elements(16));
    for (sets, table) in [(1, &table_t1), (8, &table)] {
        let mut fixed_sim = chip.power_on(t1).expect("simulator");
        let _ = run_encryptions(&mut fixed_sim, chip.aes_ports(), EXPERIMENT_KEY, &fixed);
        fixed_sim.load_cone(cone, &entries[1..]);
        let name = format!("streamed_16_lanes_fixed_t1_{sets}_sets");
        g.bench_function(name.as_str(), |b| {
            b.iter(|| {
                let mut bins = vec![table.bins(); 16];
                let mut toggles = ToggleActivity::new();
                let ports = chip.aes_ports();
                let _ =
                    run_encryptions_stepped(&mut fixed_sim, ports, EXPERIMENT_KEY, &fixed, |s| {
                        s.step_words(|words| {
                            table.bin_words(words, &mut bins);
                            toggles.absorb_words(words);
                        })
                    });
                (bins, toggles)
            })
        });
    }
    g.throughput(Throughput::Elements(LANES as u64));
    g.bench_function("streamed_64_lanes_to_bins_1_set", |b| {
        b.iter(|| {
            let mut bins = vec![table1.bins(); LANES];
            let ports = golden.aes_ports();
            let _ =
                run_encryptions_stepped(&mut lanes_sim, ports, EXPERIMENT_KEY, &plaintexts, |s| {
                    s.step_words(|words| table1.bin_words(words, &mut bins))
                });
            bins.iter()
                .map(|bins| table1.render(bins, None).expect("render"))
                .collect::<Vec<_>>()
        })
    });
    g.finish();
}

/// One armed campaign's attribution on the same array, fitted to a
/// 16-trace golden campaign: a T3 campaign of 16 scored by the tiles
/// alone (`attribute(.., None)`), and with its toggle counts ranked
/// cell by cell too. Their difference is the cell tier.
fn attribute(g: &mut BenchmarkGroup<'_>, chip: &ProtectedChip) {
    const TILES_ONLY: &str = "attribute_16_tiles_only";
    const WITH_CELLS: &str = "attribute_16_with_cells";
    if !g.selects(TILES_ONLY) && !g.selects(WITH_CELLS) {
        return;
    }
    let mut array = SensorArray::builder(chip)
        .with_grid(4, 2)
        .and_then(|b| b.with_turns(8))
        .expect("grid")
        .build()
        .expect("array");
    let (golden, baseline) = array
        .collect_with_activity(EXPERIMENT_KEY, 16, None, 1)
        .expect("golden campaign");
    array.fit_golden(&golden).expect("fit");
    let (suspects, suspect) = array
        .collect_with_activity(EXPERIMENT_KEY, 16, Some(TrojanKind::T3CdmaLeaker), 1)
        .expect("T3 campaign");
    let evidence = CellEvidence {
        baseline: &baseline,
        suspect: &suspect,
    };
    g.sample_size(100);
    g.throughput(Throughput::Elements(16));
    g.bench_function(TILES_ONLY, |b| {
        b.iter(|| array.attribute(&suspects, None).expect("attribute"))
    });
    g.bench_function(WITH_CELLS, |b| {
        b.iter(|| {
            array
                .attribute(&suspects, Some(&evidence))
                .expect("attribute")
        })
    });
}

/// 768-sample on-chip traces of the golden chip under one fixed
/// plaintext, as `fleet_replay` acquires them for a fleet shard: one
/// encryption after a warm-up, measured on a fabricated die whose
/// on-chip front end digitizes at `bits` bits, a noise seed per trace.
/// At 16 bits (`fleet_replay`'s front end) about 2 % of adjacent pairs
/// repeat; at the stock 12 bits about 29 %, as `monitor`'s do.
fn fleet_traces(n: usize, bits: u32) -> TraceSet {
    const PT: [u8; 16] = [0x6b; 16];
    let chip = ProtectedChip::golden();
    let stock = Oscilloscope::onchip_channel();
    let scope = Oscilloscope::new(
        stock.bandwidth_hz(),
        stock.input_noise_rms_v(),
        bits,
        stock.full_scale_v(),
    )
    .expect("front end");
    let mut die =
        FabricatedChip::fabricate(chip.netlist(), 11, ProcessVariation::nominal()).expect("die");
    die.set_scope(Channel::OnChipSensor, scope);
    let mut sim = chip.simulator().expect("simulator");
    run_encryption(&mut sim, chip.aes_ports(), EXPERIMENT_KEY, PT);
    sim.start_recording();
    run_encryption(&mut sim, chip.aes_ports(), EXPERIMENT_KEY, PT);
    let activity = sim.take_recording();
    let (traces, rates): (Vec<_>, Vec<_>) = (0..n as u64)
        .map(|seed| {
            let trace = die
                .measure_with(
                    chip.netlist(),
                    &activity,
                    Channel::OnChipSensor,
                    None,
                    &[],
                    seed,
                    1,
                )
                .expect("trace");
            (trace.samples().to_vec(), trace.sample_rate_hz())
        })
        .unzip();
    assert!(traces.iter().all(|t| t.len() == 768));
    TraceSet::new(traces, rates[0]).expect("trace set")
}

/// The screen alone on 16- and 12-bit traces, then one trace through a
/// per-chip pipeline built like the fleet store's (Euclidean on raw RMS
/// features, default sanitizer). Each iteration takes the next of 40
/// traces.
fn frontend(c: &mut Criterion) {
    let set = fleet_traces(40, 16);
    let traces = set.traces();
    let mut g = c.benchmark_group("frontend");
    g.sample_size(20_000);
    g.throughput(Throughput::Elements(1));
    let screen = TraceSanitizer::default().with_expected_len(768);
    let mut i = 0;
    g.bench_function("sanitize_768", |b| {
        b.iter(|| {
            i = (i + 1) % traces.len();
            screen.inspect(&traces[i])
        })
    });
    if g.selects("sanitize_768_12bit") {
        let stock = fleet_traces(40, 12);
        let stock = stock.traces();
        g.bench_function("sanitize_768_12bit", |b| {
            b.iter(|| {
                i = (i + 1) % stock.len();
                screen.inspect(&stock[i])
            })
        });
    }
    let golden = TraceSet::new(traces[..8].to_vec(), set.sample_rate_hz()).expect("golden");
    let config = FingerprintConfig {
        pca_components: None,
        threshold_margin: 1.25,
        ..FingerprintConfig::default()
    };
    let fp = GoldenFingerprint::fit(&golden, config).expect("fit");
    let mut pipeline = DetectionPipeline::builder()
        .detector(Box::new(EuclideanDetector::new(fp)))
        .sanitizer(TraceSanitizer::default())
        .build();
    g.bench_function("ingest_trace_768", |b| {
        b.iter(|| {
            i = (i + 1) % traces.len();
            pipeline.ingest_trace(&traces[i])
        })
    });
    g.finish();
}

/// A new chip's cold start in a fresh store: its 8 warm-up traces in
/// one batch, and the fingerprint fit the eighth completes. Then one
/// shard epoch as `fleet_replay` drives it, without the service's
/// thread: 1024 chips, each 8 batches of 4 traces in a row, through one
/// store of 512 hot chips (so every chip past the 512th evicts one).
/// Each chip reads the 40-trace pool from its own offset.
fn fleet(c: &mut Criterion) {
    let set = fleet_traces(40, 16);
    let pool = set.traces();
    let chips: Vec<String> = (0..1024).map(|c| format!("chip-{c:05}")).collect();
    let cfg = FleetConfig::default();
    let mut g = c.benchmark_group("fleet");
    g.sample_size(2_000);
    g.throughput(Throughput::Elements(8));
    g.bench_function("new_chip_warmup_and_fit_768", |b| {
        b.iter(|| {
            let mut store = PipelineStore::new(
                cfg.store,
                cfg.golden_traces,
                BaselineMode::Golden,
                LabelSet::new(),
            );
            let out = store.ingest(&chips[0], &pool[..8]).expect("ingest");
            assert!(out.fitted_now);
            store
        })
    });
    g.sample_size(5);
    g.throughput(Throughput::Elements(1024 * 8 * 4));
    g.bench_function("store_1024_chips_4x768", |b| {
        b.iter(|| {
            let mut store = PipelineStore::new(
                cfg.store,
                cfg.golden_traces,
                BaselineMode::Golden,
                LabelSet::new(),
            );
            for (c, id) in chips.iter().enumerate() {
                for round in 0..8 {
                    let batch: Vec<Vec<f64>> = (0..4)
                        .map(|j| pool[(c * 7 + round * 4 + j) % pool.len()].clone())
                        .collect();
                    store.ingest(id, &batch).expect("ingest");
                }
            }
            store.evictions()
        })
    });
    g.finish();
}

/// One round of the all-Trojan chip's 4×2 array (8 turns, serial), as
/// `array_attribution` runs it: a 16-trace golden campaign under a fresh
/// seed per iteration, then T1–T4 armed at the same seed, each with its
/// toggle counts. The golden campaign draws the round's environment
/// noise; the armed ones add the array's kept draws.
fn array(c: &mut Criterion) {
    let mut g = c.benchmark_group("array");
    g.sample_size(10);
    let chip = ProtectedChip::with_all_trojans();
    let array = SensorArray::builder(&chip)
        .with_grid(4, 2)
        .and_then(|b| b.with_turns(8))
        .expect("grid")
        .build()
        .expect("array");
    g.throughput(Throughput::Elements(5 * 16));
    let mut seed = 0;
    g.bench_function("round_golden_and_four_armed", |b| {
        b.iter(|| {
            seed += 1;
            let armed = std::iter::once(None).chain(ALL_DIGITAL_TROJANS.map(Some));
            armed
                .map(|kind| {
                    array
                        .collect_with_activity(EXPERIMENT_KEY, 16, kind, seed)
                        .expect("campaign")
                })
                .collect::<Vec<_>>()
        })
    });
    attribute(&mut g, &chip);
    g.finish();
}

criterion_group!(
    parallel,
    array,
    frontend,
    fleet,
    simulate,
    synthesize,
    parallel_collect,
    parallel_fit,
    parallel_measure,
    parallel_ingest_batch
);
criterion_main!(parallel);
