//! Inputs made from the seed: the Cloud pre-training run and the small
//! pools of labelled windows the workloads replay. The program under
//! test only ever sees the generated windows, never the generator.

use magneto_core::{CloudConfig, CloudInitializer, EdgeBundle};
use magneto_nn::TrainerConfig;
use magneto_sensors::stream::StreamConfig;
use magneto_sensors::{
    ActivityKind, GeneratorConfig, LabeledWindow, PersonProfile, SensorDataset, SensorFrame,
    SensorStream,
};
use magneto_tensor::SeededRng;
use std::time::Instant;

/// Samples per window (1 s at 120 Hz, the paper's window).
const WINDOW_LEN: usize = 120;

/// The Cloud step's trainer on the paper's `[80, 1024, 512, 128, 64, 128]`
/// backbone (`CloudConfig::default()`): 3 epochs of 1024 pairs instead
/// of the shipped `TrainerConfig::default()` (20 epochs of 2048 pairs,
/// about 13x the work). The benchmark times what runs on the Edge, so
/// the Cloud step only has to produce a working model of the right
/// shape; the shipped trainer would make each set-up about 13x longer
/// and leave too few set-ups per run for a steady median. It also
/// leaves the base model less trained, so `accuracy` is that of this
/// base. The record states this trainer (`cloud_trainer`).
pub fn cloud_trainer() -> TrainerConfig {
    TrainerConfig {
        epochs: 3,
        pairs_per_epoch: 1024,
        batch_pairs: 128,
        seed: BASE_MODEL_SEED,
        ..TrainerConfig::default()
    }
}

/// Seed of the Cloud step. The base model stands for the one a vendor
/// ships, so it is the same in every run; `--seed` varies the people and
/// the windows they send.
const BASE_MODEL_SEED: u64 = 7;

/// Generate the pre-training corpus and run the Cloud step on the paper
/// backbone. Returns the bundle and the seconds it took.
pub fn pretrain() -> (EdgeBundle, f64) {
    let start = Instant::now();
    let corpus = SensorDataset::generate(&GeneratorConfig::base_five(60), BASE_MODEL_SEED);
    let config = CloudConfig {
        trainer: cloud_trainer(),
        seed: BASE_MODEL_SEED,
        ..CloudConfig::default()
    };
    let (bundle, _) = CloudInitializer::new(config)
        .pretrain(&corpus)
        .expect("pre-training a generated corpus succeeds");
    (bundle, start.elapsed().as_secs_f64())
}

/// Consecutive full windows of one continuous stream, as frames (the
/// stream skips dropped samples, so every window has `WINDOW_LEN`
/// frames).
fn stream_windows(
    kind: ActivityKind,
    person: PersonProfile,
    count: usize,
    rng: SeededRng,
) -> Vec<Vec<SensorFrame>> {
    let mut stream = SensorStream::new(kind.profile(), person, StreamConfig::default(), rng);
    (0..count)
        .map(|_| stream.by_ref().take(WINDOW_LEN).collect())
        .collect()
}

/// A labelled window kept as the frames a phone would deliver.
pub struct FrameWindow {
    pub label: &'static str,
    pub frames: Vec<SensorFrame>,
}

impl FrameWindow {
    /// The channel-major window the batch path takes.
    pub fn channels(&self) -> Vec<Vec<f32>> {
        LabeledWindow::from_frames(self.label, &self.frames).channels
    }
}

/// The device pool: `persons` simulated people, each streaming every
/// base activity for `per_activity` consecutive windows. Segment `i`
/// (one person doing one activity) is `pool[i * per_activity..]`.
pub fn device_pool(persons: usize, per_activity: usize, seed: u64) -> Vec<FrameWindow> {
    let mut rng = SeededRng::new(seed ^ 0xD0);
    let mut pool = Vec::new();
    for _ in 0..persons {
        let person = PersonProfile::sample(&mut rng);
        for kind in ActivityKind::BASE_FIVE {
            for frames in stream_windows(kind, person, per_activity, rng.split("segment")) {
                pool.push(FrameWindow {
                    label: kind.label(),
                    frames,
                });
            }
        }
    }
    pool
}

/// The fleet pool: `persons` people with `per_person` windows each
/// (activities cycle through the base five), plus `calib` windows per
/// person of one activity for calibration. Window `j` of person `p` is
/// `windows[p * per_person + j]`.
pub struct FleetPool {
    pub per_person: usize,
    pub windows: Vec<(&'static str, Vec<Vec<f32>>)>,
    pub calibration: Vec<(&'static str, Vec<Vec<Vec<f32>>>)>,
}

impl FleetPool {
    pub fn new(persons: usize, per_person: usize, calib: usize, seed: u64) -> Self {
        let mut rng = SeededRng::new(seed ^ 0xF0);
        let mut windows = Vec::with_capacity(persons * per_person);
        let mut calibration = Vec::with_capacity(persons);
        let kinds = ActivityKind::BASE_FIVE;
        for p in 0..persons {
            let person = PersonProfile::sample(&mut rng);
            for j in 0..per_person {
                let kind = kinds[(p + j) % kinds.len()];
                let frames = stream_windows(kind, person, 1, rng.split("window")).remove(0);
                windows.push((
                    kind.label(),
                    LabeledWindow::from_frames(kind.label(), &frames).channels,
                ));
            }
            let kind = kinds[p % kinds.len()];
            let calib_windows = stream_windows(kind, person, calib, rng.split("calibration"))
                .iter()
                .map(|f| LabeledWindow::from_frames(kind.label(), f).channels)
                .collect();
            calibration.push((kind.label(), calib_windows));
        }
        FleetPool {
            per_person,
            windows,
            calibration,
        }
    }
}
