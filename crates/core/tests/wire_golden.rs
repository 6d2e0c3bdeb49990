//! Golden wire bytes: the bundle a small seeded fixture serializes to,
//! at both wire precisions, and the snapshot an f32 and an int8 device
//! write right after deploy.
//!
//! The support section is what `ModelKey::of_bundle` hashes, so any
//! change to how a support set is stored must leave these bytes alone.
//! The fixture fills each class with more candidates than the budget,
//! so the set's `seen` counters differ from the rows it keeps; an int8
//! device's snapshot records the rows it keeps as `seen`.
//!
//! Weights and exemplars are drawn with `SeededRng::uniform` only (no
//! `ln`/`cos` from the platform libm), and nothing is trained, so no
//! GEMM backend enters the bytes.

use magneto_core::{
    EdgeBundle, EdgeConfig, EdgeDevice, Fnv64, LabelRegistry, Precision, SelectionStrategy,
    SupportSet,
};
use magneto_dsp::{PipelineConfig, PreprocessingPipeline};
use magneto_nn::{Mlp, SiameseNetwork};
use magneto_tensor::SeededRng;

const BUDGET: usize = 4;
/// Candidates offered per class, all above the budget.
const CANDIDATES: [(&str, usize); 3] = [("run", 7), ("still", 5), ("walk", 9)];

fn uniform_rows(n: usize, dim: usize, rng: &mut SeededRng) -> Vec<Vec<f32>> {
    (0..n)
        .map(|_| (0..dim).map(|_| rng.uniform(-2.0, 2.0)).collect())
        .collect()
}

fn fixture() -> EdgeBundle {
    let mut rng = SeededRng::new(0x601d);
    let mut backbone = Mlp::new(&[80, 12, 6], &mut rng).unwrap();
    for layer in backbone.layers_mut() {
        for w in layer.weights.as_mut_slice() {
            *w = rng.uniform(-0.3, 0.3);
        }
        for b in &mut layer.bias {
            *b = rng.uniform(-0.1, 0.1);
        }
    }
    let mut support = SupportSet::new(BUDGET, SelectionStrategy::Random);
    for (label, n) in CANDIDATES {
        let rows = uniform_rows(n, 80, &mut rng);
        support.set_class(label, &rows, &mut rng).unwrap();
    }
    EdgeBundle {
        pipeline: PreprocessingPipeline::new(PipelineConfig::default()),
        model: SiameseNetwork::new(backbone, 1.25).into(),
        support_set: support,
        registry: LabelRegistry::from_labels(CANDIDATES.map(|(label, _)| label)),
        lineage: None,
    }
}

fn digest(bytes: &[u8]) -> u64 {
    let mut d = Fnv64::new();
    d.update(bytes);
    d.finish()
}

fn deploy(precision: Precision) -> EdgeDevice {
    EdgeDevice::deploy(
        fixture(),
        EdgeConfig {
            precision,
            ..EdgeConfig::default()
        },
    )
    .unwrap()
}

/// The `"seen":{...}` object of a serialized support set.
fn seen_json(set: &SupportSet) -> String {
    let json = serde_json::to_string(set).unwrap();
    let start = json.find("\"seen\":").expect("a seen field");
    json[start..].trim_end_matches('}').to_string() + "}"
}

#[test]
fn fixture_keeps_fewer_rows_than_it_saw() {
    let bundle = fixture();
    assert_eq!(
        bundle.support_set.total_samples(),
        BUDGET * CANDIDATES.len()
    );
    assert_eq!(
        seen_json(&bundle.support_set),
        r#""seen":{"run":7,"still":5,"walk":9}"#
    );
    let int8 = deploy(Precision::Int8).as_bundle();
    assert_eq!(
        seen_json(&int8.support_set),
        r#""seen":{"run":4,"still":4,"walk":4}"#
    );
    let f32_snapshot = deploy(Precision::F32).as_bundle();
    assert_eq!(f32_snapshot.support_set, bundle.support_set);
}

#[test]
fn bundle_wire_bytes_are_pinned() {
    let bundle = fixture();
    let f32_bytes = bundle.to_bytes(false);
    let int8_bytes = bundle.to_bytes(true);
    assert_eq!(
        (f32_bytes.len(), digest(&f32_bytes)),
        (23450, 2506929909273533228),
        "f32 wire bytes moved"
    );
    assert_eq!(
        (int8_bytes.len(), digest(&int8_bytes)),
        (20430, 4892829869336124861),
        "int8 wire bytes moved"
    );
    // Both decode back to the same wire bytes.
    assert_eq!(
        EdgeBundle::from_bytes(&f32_bytes).unwrap().to_bytes(false),
        f32_bytes
    );
    assert_eq!(
        EdgeBundle::from_bytes(&int8_bytes).unwrap().to_bytes(true),
        int8_bytes
    );
}

#[test]
fn device_snapshots_and_resident_bytes_are_pinned() {
    let mut pinned = Vec::new();
    for precision in [Precision::F32, Precision::Int8] {
        let device = deploy(precision);
        let snapshot = device.as_bundle();
        let f32_bytes = snapshot.to_bytes(false);
        let int8_bytes = snapshot.to_bytes(true);
        pinned.push((
            precision,
            device.resident_bytes(),
            digest(&f32_bytes),
            digest(&int8_bytes),
        ));
    }
    assert_eq!(
        pinned,
        vec![
            (
                Precision::F32,
                8040,
                2506929909273533228,
                4892829869336124861
            ),
            (
                Precision::Int8,
                2184,
                7187443151050311635,
                8228888573879530030
            ),
        ],
        "device snapshots moved"
    );
}
