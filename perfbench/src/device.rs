//! `device_stream`: one `EdgeDevice` on the paper backbone (f32)
//! streams windows one at a time through `push_frames`, a closed loop
//! with one caller, with a fixed sequence of on-device updates
//! interleaved.

use crate::inputs::{device_pool, pretrain, FrameWindow};
use crate::layers;
use crate::report::{peak_rss_mb, LayerFigures, Metrics, Outcome, Record};
use crate::stats::{median, more_setups, percentile, second_best};
use magneto_core::{EdgeBundle, EdgeConfig, EdgeDevice};
use magneto_dsp::PreprocessingPipeline;
use magneto_sensors::{ActivityKind, PersonProfile, SensorDataset};
use magneto_tensor::SeededRng;
use std::time::Instant;

/// Simulated people in the window pool.
const PERSONS: usize = 24;
/// Consecutive windows per (person, activity) segment.
const SEGMENT: usize = 6;
/// Windows streamed per second of `--seconds`.
const WINDOWS_PER_SECOND: usize = 6000;
/// Seconds of each update recording (the paper's 20-30 s capture).
const RECORDING_S: f64 = 25.0;

/// Windows are timed in this many consecutive rounds; each latency
/// percentile and the throughput are taken per round and the
/// second-best round is reported (see `stats::second_best`).
const ROUNDS: usize = 30;

/// The on-device updates, in order (`true` learns a new activity,
/// `false` calibrates a known one). They are spread evenly over the
/// stream.
const UPDATES: [(ActivityKind, bool); 5] = [
    (ActivityKind::GestureHi, true),
    (ActivityKind::Walk, false),
    (ActivityKind::Jump, true),
    (ActivityKind::Run, false),
    (ActivityKind::GestureHi, false),
];

/// Everything one run streams, made from the seed.
struct Plan {
    pool: Vec<FrameWindow>,
    /// Pool index of each streamed window.
    order: Vec<usize>,
    /// Stream position before which each update runs.
    update_at: Vec<usize>,
    recordings: Vec<SensorDataset>,
}

impl Plan {
    fn new(seed: u64, seconds: u64) -> Self {
        let pool = device_pool(PERSONS, SEGMENT, seed);
        let segments = pool.len() / SEGMENT;
        let n = WINDOWS_PER_SECOND * seconds as usize;
        let mut rng = SeededRng::new(seed ^ 0x5E);
        let mut order = Vec::with_capacity(n);
        while order.len() < n {
            let s = rng.index(segments);
            order.extend((s * SEGMENT..(s + 1) * SEGMENT).take(n - order.len()));
        }
        let update_at = (1..=UPDATES.len())
            .map(|k| k * n / (UPDATES.len() + 1))
            .collect();
        let person = PersonProfile::sample(&mut rng);
        let recordings = UPDATES
            .iter()
            .enumerate()
            .map(|(k, (kind, _))| {
                SensorDataset::record_session(
                    kind.label(),
                    *kind,
                    person,
                    RECORDING_S,
                    seed ^ (k as u64 + 0xA0),
                )
            })
            .collect();
        Plan {
            pool,
            order,
            update_at,
            recordings,
        }
    }
}

/// One set-up: corpus, Cloud pre-training, bundle `to_bytes` →
/// `from_bytes`, `EdgeDevice::deploy`.
struct Setup {
    device: EdgeDevice,
    pipeline: PreprocessingPipeline,
    pretrain_s: f64,
    deploy_s: f64,
    total_s: f64,
}

fn set_up(seed: u64) -> Setup {
    let start = Instant::now();
    let (bundle, pretrain_s) = pretrain();
    let deploy_start = Instant::now();
    let bundle = EdgeBundle::from_bytes(&bundle.to_bytes(false)).expect("bundle round trip");
    let pipeline = bundle.pipeline.clone();
    let device = EdgeDevice::deploy(
        bundle,
        EdgeConfig {
            seed,
            ..EdgeConfig::default()
        },
    )
    .expect("deploy a fresh bundle");
    Setup {
        device,
        pipeline,
        pretrain_s,
        deploy_s: deploy_start.elapsed().as_secs_f64(),
        total_s: start.elapsed().as_secs_f64(),
    }
}

/// What one pass over the plan measured.
#[derive(Default)]
struct Pass {
    latency_us: Vec<f64>,
    correct: u64,
    windows: u64,
    errors: u64,
    update_ms: Vec<f64>,
    featurize_ms: Vec<f64>,
    committed: u64,
    violations: Vec<String>,
}

/// Stream the plan through `device`. When `traced`, each update's
/// recording is also featurized through `pipeline` first, timed on its
/// own, so the update splits into featurize and train.
fn run_pass(
    device: &mut EdgeDevice,
    plan: &Plan,
    pipeline: &PreprocessingPipeline,
    traced: bool,
) -> Pass {
    let mut pass = Pass::default();
    let mut next_update = 0;
    for (k, &w) in plan.order.iter().enumerate() {
        if plan.update_at.get(next_update) == Some(&k) {
            let (kind, learn) = UPDATES[next_update];
            let recording = &plan.recordings[next_update];
            if traced {
                let t = Instant::now();
                let mut row = vec![0.0f32; pipeline.output_dim()];
                for win in &recording.windows {
                    pipeline
                        .process_into(&win.channels, &mut row)
                        .expect("recording featurizes");
                    std::hint::black_box(&row);
                }
                pass.featurize_ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
            let t = Instant::now();
            let outcome = if learn {
                device.learn_new_activity(kind.label(), recording)
            } else {
                device.calibrate_activity(kind.label(), recording)
            };
            pass.update_ms.push(t.elapsed().as_secs_f64() * 1e3);
            match outcome {
                Ok(o) => pass.committed += u64::from(o.is_committed()),
                Err(e) => {
                    pass.errors += 1;
                    pass.violations
                        .push(format!("update {next_update} failed: {e}"));
                }
            }
            next_update += 1;
        }
        let window = &plan.pool[w];
        let t = Instant::now();
        let result = device.push_frames(&window.frames);
        let dt = t.elapsed().as_secs_f64();
        pass.windows += 1;
        match result {
            Ok(preds) if preds.len() == 1 => {
                pass.latency_us.push(dt * 1e6);
                pass.correct += u64::from(preds[0].raw.label == window.label);
            }
            Ok(preds) => {
                pass.errors += 1;
                pass.violations.push(format!(
                    "window {k}: {} predictions for one window",
                    preds.len()
                ));
            }
            Err(e) => {
                pass.errors += 1;
                pass.violations.push(format!("window {k}: {e}"));
            }
        }
    }
    pass
}

/// `f(round latencies)` of each round.
fn per_round(latency_us: &[f64], f: impl Fn(&mut [f64]) -> f64) -> Vec<f64> {
    let size = latency_us.len().div_ceil(ROUNDS).max(1);
    latency_us
        .chunks(size)
        .map(|c| f(&mut c.to_vec()))
        .collect()
}

/// Second-best round's percentile `p` of latency.
fn round_latency(latency_us: &[f64], p: f64) -> f64 {
    second_best(&per_round(latency_us, |c| percentile(c, p)), true)
}

/// Run `device_stream`. Untraced: several set-ups (median reported), one
/// pass. Traced: at least two set-ups, an untraced and a traced pass on the same
/// inputs, then the per-layer timings.
pub fn run(seed: u64, seconds: u64, trace: bool, record: &mut Record) -> Outcome {
    let plan = Plan::new(seed, seconds);
    record.put("windows", plan.order.len());
    record.put("pool_windows", plan.pool.len());
    record.put("updates", UPDATES.len());
    record.put("update_recording_s", RECORDING_S);
    record.put("stream", "closed loop, 1 caller, default StreamConfig");

    // Set up several times and keep only the devices the passes need:
    // the oldest is dropped before the next set-up starts, so
    // `peak_rss_mb` holds no device that only the benchmark keeps.
    let kept = if trace { 2 } else { 1 };
    let mut times: Vec<[f64; 3]> = Vec::new();
    let mut setups: Vec<Setup> = Vec::new();
    while more_setups(
        &times.iter().map(|t| t[0]).collect::<Vec<_>>(),
        if trace { 2 } else { 5 },
    ) {
        if setups.len() == kept {
            setups.remove(0);
        }
        let s = set_up(seed);
        times.push([s.total_s, s.pretrain_s, s.deploy_s]);
        setups.push(s);
    }
    let med = |i: usize| median(&times.iter().map(|t| t[i]).collect::<Vec<_>>());
    let (setup_s, pretrain_s, deploy_s) = (med(0), med(1), med(2));

    let mut last = setups.pop().expect("at least one set-up");
    let (plain, traced) = match setups.pop() {
        Some(mut first) => {
            let plain = run_pass(&mut first.device, &plan, &first.pipeline, false);
            drop(first);
            let traced = run_pass(&mut last.device, &plan, &last.pipeline, true);
            (plain, Some(traced))
        }
        None => (
            run_pass(&mut last.device, &plan, &last.pipeline, false),
            None,
        ),
    };

    let mut violations = plain.violations.clone();
    let attempted = plain.windows + UPDATES.len() as u64;
    let failed = plain.errors;
    let accuracy = plain.correct as f64 / plain.windows.max(1) as f64;
    let p50 = round_latency(&plain.latency_us, 50.0);

    let mut m = Metrics::default();
    if let Some(traced) = traced {
        violations.extend(traced.violations.iter().cloned());
        if traced.correct != plain.correct || traced.committed != plain.committed {
            violations.push(format!(
                "same seed, different results: correct {} vs {}, committed {} vs {}",
                plain.correct, traced.correct, plain.committed, traced.committed
            ));
        }
        let state = last.device.state();
        let windows: Vec<Vec<Vec<f32>>> = plan.pool.iter().map(FrameWindow::channels).collect();
        let rows = layers::feature_rows(&last.pipeline, &windows);
        let (guard_us, features_us, process_us) = layers::dsp(&last.pipeline, &windows);
        let (b1_us, b64_row_us) = layers::embed(&state.model, &rows);
        let classify_us = layers::ncm(&state.model, &state.ncm, &rows);
        let macs = layers::macs_per_window(&state.model);
        let featurize_ms = median(&traced.featurize_ms);
        let update_ms = median(&traced.update_ms);
        let layer = LayerFigures {
            guard_us,
            features_us,
            process_us,
            b1_us,
            b64_row_us,
            macs,
            weight_bytes: state.model.resident_bytes() as f64,
            classify_us,
            ncm_rows: state.ncm.num_rows() as f64,
            featurize_ms,
            train_ms: update_ms - featurize_ms,
            commit_ratio: traced.committed as f64 / UPDATES.len() as f64,
            e2e_p50_us: p50,
            e2e_p90_us: round_latency(&plain.latency_us, 90.0),
            e2e_p99_us: percentile(&mut plain.latency_us.clone(), 99.0),
            e2e_update_ms: median(&plain.update_ms),
            traced_p50_us: round_latency(&traced.latency_us, 50.0),
            failed_ratio: failed as f64 / attempted as f64,
            pretrain_s,
            deploy_s,
            ..LayerFigures::default()
        };
        layer.put(&mut m);
    } else {
        m.put("setup_s", setup_s, "s");
        m.put("latency_p50_us", p50, "us");
        m.put(
            "throughput_wps",
            second_best(
                &per_round(&plain.latency_us, |c| {
                    c.len() as f64 * 1e6 / c.iter().sum::<f64>()
                }),
                false,
            ),
            "1/s",
        );
        m.put("accuracy", accuracy, "ratio");
        m.put("ok_ratio", 1.0 - failed as f64 / attempted as f64, "ratio");
        m.put("bytes_per_user", last.device.resident_bytes() as f64, "B");
        m.put("peak_rss_mb", peak_rss_mb(), "MB");
    }
    record.put("accuracy", accuracy);
    record.put("updates_committed", plain.committed);
    Outcome {
        attempted,
        failed,
        violations,
        metrics: m,
    }
}
