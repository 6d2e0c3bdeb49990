//! Per-layer timings for the traced run: each layer's public function
//! is called from here, on the workload's own windows and model, and
//! timed call by call. The medians are reported.

use crate::stats::median;
use magneto_core::{storage, NcmClassifier, NcmDecision, NcmScratch, PersonalDelta, ResidentModel};
use magneto_dsp::{FrameGuard, PreprocessingPipeline, NUM_FEATURES};
use magneto_tensor::{Matrix, Workspace};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Least time spent timing one function.
const MIN_TIME: Duration = Duration::from_millis(150);
/// Least number of timed calls of one function.
const MIN_CALLS: usize = 64;

/// Call `f(i)` for `i = 0, 1, ...` until both minimums are met and
/// return the median call time in µs.
fn time_calls(mut f: impl FnMut(usize)) -> f64 {
    let mut samples = Vec::new();
    let start = Instant::now();
    let mut i = 0;
    while samples.len() < MIN_CALLS || start.elapsed() < MIN_TIME {
        let t = Instant::now();
        f(i);
        samples.push(t.elapsed().as_secs_f64() * 1e6);
        i += 1;
    }
    median(&samples)
}

/// `(dsp.guard_us, dsp.features_us, dsp.process_us)` over channel-major
/// windows: the guard scrubs one window's frames, the other two run the
/// pipeline on one window.
pub fn dsp(pipeline: &PreprocessingPipeline, windows: &[Vec<Vec<f32>>]) -> (f64, f64, f64) {
    let frames: Vec<Vec<Vec<f32>>> = windows
        .iter()
        .map(|w| {
            (0..w[0].len())
                .map(|t| w.iter().map(|c| c[t]).collect())
                .collect()
        })
        .collect();
    let mut guard = FrameGuard::new(windows[0].len(), pipeline.config().guard);
    let mut buf = Vec::new();
    let guard_us = time_calls(|i| {
        for frame in &frames[i % frames.len()] {
            buf.clear();
            buf.extend_from_slice(frame);
            black_box(guard.scrub(&mut buf));
        }
    });
    let mut out = vec![0.0f32; NUM_FEATURES];
    let features_us = time_calls(|i| {
        pipeline
            .raw_features_into(black_box(&windows[i % windows.len()]), &mut out)
            .expect("pool windows featurize");
        black_box(&out);
    });
    let process_us = time_calls(|i| {
        black_box(
            pipeline
                .process_checked_into(black_box(&windows[i % windows.len()]), &mut out)
                .expect("pool windows featurize"),
        );
    });
    (guard_us, features_us, process_us)
}

/// Multiply-accumulates of one embedding forward pass, computed from
/// the layer widths (`dims()`), not measured.
pub fn macs_per_window(model: &ResidentModel) -> f64 {
    model.dims().windows(2).map(|d| (d[0] * d[1]) as f64).sum()
}

/// `(embed.b1_us, embed.b64_row_us)`: `embed_into` at 1 row and at 64
/// rows (per row), on feature rows of the workload's windows.
pub fn embed(model: &ResidentModel, rows: &[Vec<f32>]) -> (f64, f64) {
    let mut ws = Workspace::default();
    let mut out = Matrix::default();
    let singles: Vec<Matrix> = rows.iter().map(|r| Matrix::from_row(r)).collect();
    let b1_us = time_calls(|i| {
        model
            .embed_into(black_box(&singles[i % singles.len()]), &mut out, &mut ws)
            .expect("embed one row");
        black_box(&out);
    });
    let batch: Vec<Vec<f32>> = (0..64).map(|i| rows[i % rows.len()].clone()).collect();
    let batch = Matrix::from_rows(&batch).expect("64 equal rows");
    let b64_us = time_calls(|_| {
        model
            .embed_into(black_box(&batch), &mut out, &mut ws)
            .expect("embed 64 rows");
        black_box(&out);
    });
    (b1_us, b64_us / 64.0)
}

/// `ncm.classify_us`: `classify_into` on embeddings of the workload's
/// windows.
pub fn ncm(model: &ResidentModel, ncm: &NcmClassifier, rows: &[Vec<f32>]) -> f64 {
    let embeddings: Vec<Vec<f32>> = rows
        .iter()
        .map(|r| model.embed_one(r).expect("embed one row"))
        .collect();
    let mut scratch = NcmScratch::new();
    let mut out = NcmDecision::default();
    time_calls(|i| {
        ncm.classify_into(
            black_box(&embeddings[i % embeddings.len()]),
            &mut scratch,
            &mut out,
        )
        .expect("classify");
        black_box(&out);
    })
}

/// `(spool.save_us, spool.load_us, delta.decode_us)` over encoded
/// deltas: crash-safe framed save and load in `dir`, and the delta
/// decoder.
pub fn spool(deltas: &[Vec<u8>], dir: &Path) -> (f64, f64, f64) {
    std::fs::create_dir_all(dir).expect("create spool scratch dir");
    let path = |i: usize| dir.join(format!("delta-{}.bin", i % deltas.len()));
    let save_us = time_calls(|i| {
        storage::save_framed(black_box(&deltas[i % deltas.len()]), &path(i)).expect("save frame");
    });
    let load_us = time_calls(|i| {
        black_box(storage::load_framed(&path(i)).expect("load frame"));
    });
    let decode_us = time_calls(|i| {
        black_box(
            PersonalDelta::from_bytes(black_box(&deltas[i % deltas.len()])).expect("decode delta"),
        );
    });
    let _ = std::fs::remove_dir_all(dir);
    (save_us, load_us, decode_us)
}

/// Feature rows of `windows` through `pipeline`.
pub fn feature_rows(pipeline: &PreprocessingPipeline, windows: &[Vec<Vec<f32>>]) -> Vec<Vec<f32>> {
    windows
        .iter()
        .map(|w| {
            pipeline
                .process_checked(w)
                .expect("pool windows featurize")
                .0
        })
        .collect()
}
