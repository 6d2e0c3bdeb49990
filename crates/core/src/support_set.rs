//! The support set: a budgeted, per-class exemplar store.
//!
//! §3.2 item 3: "it is necessary to keep a minimal dataset to update the
//! learning model … The support set, containing a limited amount of data
//! samples which are representative for each class … This support set has
//! a two-fold mission: (i) serving to calculating the class prototypes
//! for building the NCM classifier, (ii) updating the model by combining
//! with the new activity data as training set."
//!
//! Exemplars are stored as *pre-processed feature vectors* (80 floats)
//! rather than raw windows — 33× smaller and exactly what both missions
//! need. Three selection strategies are provided for the A2 ablation:
//! random sampling, iCaRL-style herding (greedy mean-matching), and
//! streaming reservoir sampling.
//!
//! A set keeps its rows at one [`Precision`]: f32, or int8 with one
//! symmetric scale per row ([`qdist::quantize_row`]), about a quarter of
//! the bytes — the int8 deploy policy's support half. Selection always
//! runs on the f32 candidates and only the kept rows are quantised, so
//! both precisions keep the same rows. Readers get f32 rows back
//! (dequantised for int8). The serialized form — the bundle's support
//! section — is f32 at either precision, so the precision is not part of
//! it.

use crate::error::CoreError;
use crate::label::LabelRegistry;
use crate::Result;
use magneto_tensor::{qdist, vector, Matrix, Precision, SeededRng};
use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeMap;

/// How exemplars are chosen when a class exceeds its budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum SelectionStrategy {
    /// Uniform random subset.
    Random,
    /// Herding (Welling 2009 / iCaRL): greedily pick samples whose running
    /// mean best matches the class mean — the strongest prototype fidelity.
    #[default]
    Herding,
    /// Streaming reservoir sampling — O(1) memory for continuous capture.
    Reservoir,
}

/// Budgeted per-class feature store.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct SupportSet {
    budget_per_class: usize,
    strategy: SelectionStrategy,
    /// How rows are stored; the wire form is f32 either way.
    #[serde(skip)]
    precision: Precision,
    classes: BTreeMap<String, ClassRows>,
    /// Streaming counters for reservoir sampling, per class.
    seen: BTreeMap<String, u64>,
}

/// One class's exemplars at the set's precision.
#[derive(Debug, Clone, PartialEq)]
enum ClassRows {
    F32(Vec<Vec<f32>>),
    /// Row-major `n × dim` payload with one scale per row, so each row's
    /// error is bounded by half an int8 step of its *own* magnitude.
    Int8 {
        dim: usize,
        data: Vec<i8>,
        scales: Vec<f32>,
    },
}

impl ClassRows {
    fn into_precision(self, precision: Precision) -> ClassRows {
        match (self, precision) {
            (ClassRows::F32(rows), Precision::Int8) => {
                let dim = rows.first().map_or(0, Vec::len);
                let mut data = Vec::with_capacity(rows.len() * dim);
                let scales = rows
                    .iter()
                    .map(|row| qdist::quantize_row(row, &mut data))
                    .collect();
                ClassRows::Int8 { dim, data, scales }
            }
            (int8 @ ClassRows::Int8 { .. }, Precision::F32) => ClassRows::F32(int8.to_rows()),
            (same, _) => same,
        }
    }

    fn len(&self) -> usize {
        match self {
            ClassRows::F32(rows) => rows.len(),
            ClassRows::Int8 { scales, .. } => scales.len(),
        }
    }

    /// Width of the first row, `None` for an empty class.
    fn width(&self) -> Option<usize> {
        match self {
            ClassRows::F32(rows) => rows.first().map(Vec::len),
            ClassRows::Int8 { dim, scales, .. } => (!scales.is_empty()).then_some(*dim),
        }
    }

    /// Width of the first row that is not `dim` wide, if any.
    fn odd_width(&self, dim: usize) -> Option<usize> {
        match self {
            ClassRows::F32(rows) => rows.iter().map(Vec::len).find(|&w| w != dim),
            ClassRows::Int8 { .. } => self.width().filter(|&w| w != dim),
        }
    }

    fn bytes(&self) -> usize {
        match self {
            ClassRows::F32(rows) => rows.iter().map(|f| f.len() * 4).sum(),
            ClassRows::Int8 { data, scales, .. } => data.len() + scales.len() * 4,
        }
    }

    /// Write row `r` as f32 into `out`, which is as wide as the row.
    fn row_into(&self, r: usize, out: &mut [f32]) {
        match self {
            ClassRows::F32(rows) => out.copy_from_slice(&rows[r]),
            ClassRows::Int8 { dim, data, scales } => {
                let src = &data[r * dim..(r + 1) * dim];
                for (o, &q) in out.iter_mut().zip(src) {
                    *o = f32::from(q) * scales[r];
                }
            }
        }
    }

    fn to_rows(&self) -> Vec<Vec<f32>> {
        match self {
            ClassRows::F32(rows) => rows.clone(),
            ClassRows::Int8 { dim, .. } => (0..self.len())
                .map(|r| {
                    let mut row = vec![0.0f32; *dim];
                    self.row_into(r, &mut row);
                    row
                })
                .collect(),
        }
    }

    /// Store `row` at index `j`, appending when `j` is one past the end.
    fn put(&mut self, j: usize, row: Vec<f32>) {
        match self {
            ClassRows::F32(rows) if j < rows.len() => rows[j] = row,
            ClassRows::F32(rows) => rows.push(row),
            ClassRows::Int8 { dim, data, scales } => {
                let mut q = Vec::with_capacity(row.len());
                let scale = qdist::quantize_row(&row, &mut q);
                if j < scales.len() {
                    data[j * *dim..(j + 1) * *dim].copy_from_slice(&q);
                    scales[j] = scale;
                } else {
                    *dim = row.len();
                    data.extend(q);
                    scales.push(scale);
                }
            }
        }
    }
}

/// The wire form: a sequence of f32 rows.
impl Serialize for ClassRows {
    fn to_value(&self) -> Value {
        match self {
            ClassRows::F32(rows) => rows.to_value(),
            ClassRows::Int8 { .. } => self.to_rows().to_value(),
        }
    }
}

impl Deserialize for ClassRows {
    fn from_value(v: &Value) -> serde::Result<Self> {
        Vec::from_value(v).map(ClassRows::F32)
    }
}

/// The bundle's support section, which `ModelKey` hashes: these four
/// fields in this order, at f32. An int8 set writes its f32 copy.
impl Serialize for SupportSet {
    fn to_value(&self) -> Value {
        if self.precision == Precision::Int8 {
            return self.clone().into_precision(Precision::F32).to_value();
        }
        Value::Map(vec![
            ("budget_per_class".into(), self.budget_per_class.to_value()),
            ("strategy".into(), self.strategy.to_value()),
            ("classes".into(), self.classes.to_value()),
            ("seen".into(), self.seen.to_value()),
        ])
    }
}

impl SupportSet {
    /// Create an empty f32 support set. The paper's default budget is 200
    /// observations per class.
    pub fn new(budget_per_class: usize, strategy: SelectionStrategy) -> Self {
        SupportSet {
            budget_per_class: budget_per_class.max(1),
            strategy,
            precision: Precision::F32,
            classes: BTreeMap::new(),
            seen: BTreeMap::new(),
        }
    }

    /// The precision rows are stored at.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Store the rows at `precision`: f32 → int8 quantises each row,
    /// int8 → f32 dequantises, same precision moves them untouched.
    ///
    /// The f32 copy of an int8 set records the rows it keeps as `seen`,
    /// as an int8 device's bundle snapshot always has: its exemplars are
    /// all that crossed the quantisation.
    pub fn into_precision(self, precision: Precision) -> SupportSet {
        let seen = if self.precision == Precision::Int8 && precision == Precision::F32 {
            self.classes
                .iter()
                .map(|(label, rows)| (label.clone(), rows.len() as u64))
                .collect()
        } else {
            self.seen
        };
        SupportSet {
            budget_per_class: self.budget_per_class,
            strategy: self.strategy,
            precision,
            classes: self
                .classes
                .into_iter()
                .map(|(label, rows)| (label, rows.into_precision(precision)))
                .collect(),
            seen,
        }
    }

    /// Budget per class.
    pub fn budget(&self) -> usize {
        self.budget_per_class
    }

    /// Active selection strategy.
    pub fn strategy(&self) -> SelectionStrategy {
        self.strategy
    }

    /// Class labels currently stored (sorted).
    pub fn classes(&self) -> Vec<&str> {
        self.classes.keys().map(String::as_str).collect()
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// Exemplars stored for `label`, as f32 rows (dequantised at int8).
    pub fn samples(&self, label: &str) -> Option<Vec<Vec<f32>>> {
        self.classes.get(label).map(ClassRows::to_rows)
    }

    /// Total exemplars across classes.
    pub fn total_samples(&self) -> usize {
        self.classes.values().map(ClassRows::len).sum()
    }

    /// Bytes of stored feature data at the stored precision: 4 per f32
    /// value — the quantity the paper's "roughly 0.5 MB" estimate refers
    /// to — or 1 per int8 value plus a 4-byte scale per row.
    pub fn bytes(&self) -> usize {
        self.classes.values().map(ClassRows::bytes).sum()
    }

    /// Replace the exemplars of a class with a budget-sized selection from
    /// `samples` (used at Cloud initialisation, when learning a new class,
    /// and verbatim by calibration, which the paper describes as exactly
    /// this replacement).
    ///
    /// # Errors
    /// [`CoreError::InsufficientData`] when `samples` is empty.
    pub fn set_class(
        &mut self,
        label: &str,
        samples: &[Vec<f32>],
        rng: &mut SeededRng,
    ) -> Result<()> {
        if samples.is_empty() {
            return Err(CoreError::InsufficientData(format!(
                "no samples for class `{label}`"
            )));
        }
        let selected = ClassRows::F32(self.select(samples, rng)).into_precision(self.precision);
        self.classes.insert(label.to_string(), selected);
        self.seen.insert(label.to_string(), samples.len() as u64);
        Ok(())
    }

    /// Stream one sample into a class (reservoir semantics regardless of
    /// the configured batch strategy — streaming has no alternative).
    pub fn push_sample(&mut self, label: &str, sample: Vec<f32>, rng: &mut SeededRng) {
        let precision = self.precision;
        let entry = self
            .classes
            .entry(label.to_string())
            .or_insert_with(|| ClassRows::F32(Vec::new()).into_precision(precision));
        let seen = self.seen.entry(label.to_string()).or_insert(0);
        *seen += 1;
        if entry.len() < self.budget_per_class {
            entry.put(entry.len(), sample);
        } else {
            // Classic reservoir: replace with probability budget/seen.
            let j = rng.index(*seen as usize);
            if j < self.budget_per_class {
                entry.put(j, sample);
            }
        }
    }

    /// Remove a class entirely.
    pub fn remove_class(&mut self, label: &str) -> bool {
        self.seen.remove(label);
        self.classes.remove(label).is_some()
    }

    /// Per-class arithmetic mean of the stored feature vectors.
    pub fn class_means(&self) -> BTreeMap<String, Vec<f32>> {
        self.classes
            .iter()
            .filter_map(|(label, rows)| {
                let rows = rows.to_rows();
                let refs: Vec<&[f32]> = rows.iter().map(Vec::as_slice).collect();
                vector::mean_vector(&refs).map(|m| (label.clone(), m))
            })
            .collect()
    }

    /// Flatten into a training `(features, labels)` pair using `registry`
    /// ids — mission (ii): the re-training set (always f32: training
    /// consumes full-precision features).
    ///
    /// # Errors
    /// [`CoreError::UnknownClass`] if a stored class is missing from the
    /// registry.
    pub fn training_data(&self, registry: &LabelRegistry) -> Result<(Matrix, Vec<usize>)> {
        let mut features = Matrix::default();
        let mut labels = Vec::new();
        self.training_data_into(registry, &mut features, &mut labels)?;
        Ok((features, labels))
    }

    /// [`training_data`](Self::training_data) writing into caller-provided
    /// buffers, so retraining loops can reuse one feature matrix across
    /// updates instead of re-cloning every exemplar row.
    ///
    /// # Errors
    /// [`CoreError::UnknownClass`] if a stored class is missing from the
    /// registry, [`CoreError::InsufficientData`] on an empty support set.
    pub fn training_data_into(
        &self,
        registry: &LabelRegistry,
        features: &mut Matrix,
        labels: &mut Vec<usize>,
    ) -> Result<()> {
        let total = self.total_samples();
        let dim = self
            .classes
            .values()
            .find_map(ClassRows::width)
            .ok_or_else(|| CoreError::InsufficientData("support set is empty".into()))?;
        features.resize(total, dim);
        labels.clear();
        labels.reserve(total);
        let mut r = 0;
        for (label, rows) in &self.classes {
            let id = registry
                .id_of(label)
                .ok_or_else(|| CoreError::UnknownClass(label.clone()))?;
            if let Some(width) = rows.odd_width(dim) {
                return Err(CoreError::InsufficientData(format!(
                    "class `{label}` has a {width}-dim exemplar, expected {dim}"
                )));
            }
            for row in 0..rows.len() {
                rows.row_into(row, features.row_mut(r));
                labels.push(id);
                r += 1;
            }
        }
        Ok(())
    }

    /// Stack the exemplars of one class into a caller-provided matrix —
    /// the staging step for batched prototype construction.
    ///
    /// # Errors
    /// [`CoreError::UnknownClass`] for an unstored label,
    /// [`CoreError::InsufficientData`] for a class with no exemplars.
    pub fn class_features_into(&self, label: &str, out: &mut Matrix) -> Result<()> {
        let rows = self
            .classes
            .get(label)
            .ok_or_else(|| CoreError::UnknownClass(label.to_string()))?;
        let dim = rows
            .width()
            .ok_or_else(|| CoreError::InsufficientData(format!("class `{label}` is empty")))?;
        out.resize(rows.len(), dim);
        for r in 0..rows.len() {
            rows.row_into(r, out.row_mut(r));
        }
        Ok(())
    }

    fn select(&self, samples: &[Vec<f32>], rng: &mut SeededRng) -> Vec<Vec<f32>> {
        if samples.len() <= self.budget_per_class {
            return samples.to_vec();
        }
        match self.strategy {
            SelectionStrategy::Random | SelectionStrategy::Reservoir => {
                // Batch context: reservoir over a known set == uniform
                // random subset.
                rng.sample_indices(samples.len(), self.budget_per_class)
                    .into_iter()
                    .map(|i| samples[i].clone())
                    .collect()
            }
            SelectionStrategy::Herding => herding_select(samples, self.budget_per_class),
        }
    }
}

/// Greedy herding selection: at step k pick the sample that brings the
/// running exemplar mean closest to the true class mean.
fn herding_select(samples: &[Vec<f32>], budget: usize) -> Vec<Vec<f32>> {
    let dim = samples[0].len();
    let refs: Vec<&[f32]> = samples.iter().map(Vec::as_slice).collect();
    let target = vector::mean_vector(&refs).unwrap_or_else(|| vec![0.0; dim]);
    let mut chosen: Vec<usize> = Vec::with_capacity(budget);
    let mut running_sum = vec![0.0f32; dim];
    let mut used = vec![false; samples.len()];
    for k in 0..budget.min(samples.len()) {
        let mut best_idx = usize::MAX;
        let mut best_dist = f32::INFINITY;
        for (i, s) in samples.iter().enumerate() {
            if used[i] {
                continue;
            }
            // Candidate running mean if we added sample i.
            let inv = 1.0 / (k + 1) as f32;
            let mut dist = 0.0f32;
            for d in 0..dim {
                let m = (running_sum[d] + s[d]) * inv;
                let diff = m - target[d];
                dist += diff * diff;
            }
            if dist < best_dist {
                best_dist = dist;
                best_idx = i;
            }
        }
        used[best_idx] = true;
        chosen.push(best_idx);
        for d in 0..dim {
            running_sum[d] += samples[best_idx][d];
        }
    }
    chosen.into_iter().map(|i| samples[i].clone()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const BOTH: [Precision; 2] = [Precision::F32, Precision::Int8];
    const STRATEGIES: [SelectionStrategy; 3] = [
        SelectionStrategy::Random,
        SelectionStrategy::Herding,
        SelectionStrategy::Reservoir,
    ];

    fn gaussian_samples(n: usize, dim: usize, center: f32, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = SeededRng::new(seed);
        (0..n)
            .map(|_| (0..dim).map(|_| rng.normal_with(center, 1.0)).collect())
            .collect()
    }

    /// Each row of `back` is within half an int8 step (of the matching
    /// `orig` row's own magnitude) of that row.
    fn assert_within_half_step(orig: &[Vec<f32>], back: &[Vec<f32>]) {
        assert_eq!(orig.len(), back.len());
        for (o, b) in orig.iter().zip(back) {
            let step = o.iter().fold(0.0f32, |m, v| m.max(v.abs())) / 127.0;
            for (x, y) in o.iter().zip(b) {
                assert!((x - y).abs() <= step * 0.5 + 1e-7, "{x} vs {y}");
            }
        }
    }

    #[test]
    fn budget_is_enforced() {
        let mut rng = SeededRng::new(1);
        for precision in BOTH {
            for strategy in STRATEGIES {
                let mut ss = SupportSet::new(10, strategy).into_precision(precision);
                ss.set_class("walk", &gaussian_samples(50, 4, 0.0, 2), &mut rng)
                    .unwrap();
                assert_eq!(ss.samples("walk").unwrap().len(), 10, "{strategy:?}");
                assert_eq!(ss.precision(), precision);
            }
        }
    }

    #[test]
    fn under_budget_keeps_everything() {
        let mut rng = SeededRng::new(3);
        let mut ss = SupportSet::new(100, SelectionStrategy::Herding);
        let samples = gaussian_samples(7, 4, 1.0, 4);
        ss.set_class("run", &samples, &mut rng).unwrap();
        assert_eq!(ss.samples("run").unwrap(), samples.as_slice());
    }

    #[test]
    fn empty_class_rejected() {
        let mut rng = SeededRng::new(5);
        for precision in BOTH {
            let mut ss = SupportSet::new(10, SelectionStrategy::Random).into_precision(precision);
            assert!(matches!(
                ss.set_class("x", &[], &mut rng),
                Err(CoreError::InsufficientData(_))
            ));
        }
    }

    #[test]
    fn herding_mean_beats_random_mean() {
        // Herding's running mean should track the class mean better than a
        // random subset of the same size.
        let samples = gaussian_samples(400, 8, 0.5, 6);
        let refs: Vec<&[f32]> = samples.iter().map(Vec::as_slice).collect();
        let target = vector::mean_vector(&refs).unwrap();

        let mut rng = SeededRng::new(7);
        let mut herd = SupportSet::new(10, SelectionStrategy::Herding);
        herd.set_class("c", &samples, &mut rng).unwrap();
        let herd_mean = &herd.class_means()["c"];
        let herd_err = vector::euclidean(herd_mean, &target);

        // Average random error over a few draws.
        let mut total_rand_err = 0.0;
        for s in 0..5 {
            let mut rng2 = SeededRng::new(100 + s);
            let mut rand = SupportSet::new(10, SelectionStrategy::Random);
            rand.set_class("c", &samples, &mut rng2).unwrap();
            total_rand_err += vector::euclidean(&rand.class_means()["c"], &target);
        }
        let rand_err = total_rand_err / 5.0;
        assert!(
            herd_err < rand_err * 0.5,
            "herding err {herd_err}, random err {rand_err}"
        );
    }

    #[test]
    fn reservoir_streaming_respects_budget_and_distribution() {
        for precision in BOTH {
            let mut rng = SeededRng::new(8);
            let mut ss =
                SupportSet::new(20, SelectionStrategy::Reservoir).into_precision(precision);
            for i in 0..1000 {
                ss.push_sample("s", vec![i as f32], &mut rng);
            }
            let stored = ss.samples("s").unwrap();
            assert_eq!(stored.len(), 20);
            // A reservoir over 0..1000 should contain late elements too.
            let max = stored.iter().map(|v| v[0]).fold(0.0f32, f32::max);
            assert!(max > 500.0, "reservoir biased to early items: max {max}");
            assert_eq!(ss.total_samples(), 20);
        }
    }

    #[test]
    fn class_means_and_training_data() {
        let mut rng = SeededRng::new(9);
        let mut ss = SupportSet::new(50, SelectionStrategy::Random);
        ss.set_class("a", &vec![vec![1.0, 2.0]; 5], &mut rng).unwrap();
        ss.set_class("b", &vec![vec![3.0, 4.0]; 3], &mut rng).unwrap();
        let means = ss.class_means();
        assert_eq!(means["a"], vec![1.0, 2.0]);
        assert_eq!(means["b"], vec![3.0, 4.0]);

        let registry = LabelRegistry::from_labels(["a", "b"]);
        let (features, labels) = ss.training_data(&registry).unwrap();
        assert_eq!(features.shape(), (8, 2));
        assert_eq!(labels.iter().filter(|&&l| l == 0).count(), 5);
        assert_eq!(labels.iter().filter(|&&l| l == 1).count(), 3);

        // Missing registry entry is an error.
        let incomplete = LabelRegistry::from_labels(["a"]);
        assert!(matches!(
            ss.training_data(&incomplete),
            Err(CoreError::UnknownClass(_))
        ));
    }

    #[test]
    fn byte_accounting_matches_paper_arithmetic() {
        // 200 exemplars x 80 f32 features per class; five classes ≈
        // 0.3 MB total, within the paper's "roughly 0.5 MB" envelope.
        let mut rng = SeededRng::new(10);
        let mut ss = SupportSet::new(200, SelectionStrategy::Random);
        for label in ["drive", "e_scooter", "run", "still", "walk"] {
            ss.set_class(label, &gaussian_samples(200, 80, 0.0, 11), &mut rng)
                .unwrap();
        }
        assert_eq!(ss.bytes(), 5 * 200 * 80 * 4);
        let mb = ss.bytes() as f64 / (1024.0 * 1024.0);
        assert!(mb < 0.5, "support set {mb:.2} MiB");
        assert_eq!(ss.num_classes(), 5);
        assert_eq!(ss.classes().len(), 5);
    }

    #[test]
    fn remove_and_replace_class() {
        let mut rng = SeededRng::new(12);
        let mut ss = SupportSet::new(10, SelectionStrategy::Random);
        ss.set_class("walk", &gaussian_samples(5, 4, 0.0, 13), &mut rng)
            .unwrap();
        assert!(ss.remove_class("walk"));
        assert!(!ss.remove_class("walk"));
        assert!(ss.samples("walk").is_none());

        // Calibration path: replace with user-specific data.
        ss.set_class("walk", &gaussian_samples(5, 4, 10.0, 14), &mut rng)
            .unwrap();
        let mean = &ss.class_means()["walk"];
        assert!(mean[0] > 5.0, "replacement data should dominate");
    }

    #[test]
    fn serde_roundtrip() {
        let mut rng = SeededRng::new(15);
        let mut ss = SupportSet::new(5, SelectionStrategy::Herding);
        ss.set_class("x", &gaussian_samples(8, 3, 0.0, 16), &mut rng)
            .unwrap();
        let json = serde_json::to_string(&ss).unwrap();
        let back: SupportSet = serde_json::from_str(&json).unwrap();
        assert_eq!(ss, back);

        // An int8 set writes its f32 copy and decodes as that copy.
        let int8 = ss.clone().into_precision(Precision::Int8);
        let json = serde_json::to_string(&int8).unwrap();
        assert_eq!(
            json,
            serde_json::to_string(&int8.clone().into_precision(Precision::F32)).unwrap()
        );
        let back: SupportSet = serde_json::from_str(&json).unwrap();
        assert_eq!(back.precision(), Precision::F32);
        assert_eq!(back, int8.clone().into_precision(Precision::F32));
    }

    #[test]
    fn int8_rows_are_within_half_a_step() {
        let mut rng = SeededRng::new(5);
        let mut set = SupportSet::new(16, SelectionStrategy::Herding);
        set.set_class("walk", &gaussian_samples(12, 8, 0.0, 6), &mut rng)
            .unwrap();
        set.set_class("run", &gaussian_samples(10, 8, 0.0, 7), &mut rng)
            .unwrap();
        let q = set.clone().into_precision(Precision::Int8);
        assert_eq!(q.precision(), Precision::Int8);
        assert_eq!(q.num_classes(), 2);
        assert_eq!(q.total_samples(), set.total_samples());
        assert_eq!(q.budget(), 16);
        assert_eq!(q.strategy(), SelectionStrategy::Herding);
        for label in ["walk", "run"] {
            assert_within_half_step(&set.samples(label).unwrap(), &q.samples(label).unwrap());
        }
        // Back to f32: the dequantised rows, nothing else lost.
        let back = q.clone().into_precision(Precision::F32);
        assert_eq!(back.precision(), Precision::F32);
        assert_eq!(back.samples("run"), q.samples("run"));
        assert_eq!(back.total_samples(), set.total_samples());
    }

    #[test]
    fn int8_bytes_are_under_three_tenths_of_f32() {
        let mut rng = SeededRng::new(8);
        let mut set = SupportSet::new(32, SelectionStrategy::Random);
        for label in ["a", "b", "c"] {
            set.set_class(label, &gaussian_samples(32, 80, 0.0, 9), &mut rng)
                .unwrap();
        }
        let q = set.clone().into_precision(Precision::Int8);
        // 1 byte per value plus a 4-byte scale per row.
        assert_eq!(q.bytes(), 3 * 32 * (80 + 4));
        let ratio = q.bytes() as f64 / set.bytes() as f64;
        assert!(ratio < 0.30, "quantised support ratio {ratio:.3}");
    }

    #[test]
    fn int8_zero_rows_quantize_without_dividing_by_zero() {
        let mut rng = SeededRng::new(15);
        let mut set = SupportSet::new(4, SelectionStrategy::Random).into_precision(Precision::Int8);
        set.set_class("still", &vec![vec![0.0f32; 6]; 3], &mut rng)
            .unwrap();
        for row in set.samples("still").unwrap() {
            assert!(row.iter().all(|&v| v == 0.0));
        }
    }

    #[test]
    fn int8_class_features_training_data_and_remove() {
        let mut rng = SeededRng::new(10);
        let mut q = SupportSet::new(8, SelectionStrategy::Herding).into_precision(Precision::Int8);
        q.set_class("walk", &gaussian_samples(20, 6, 0.0, 11), &mut rng)
            .unwrap();
        q.set_class("run", &gaussian_samples(4, 6, 0.0, 12), &mut rng)
            .unwrap();
        assert_eq!(q.samples("run").unwrap().len(), 4);

        let registry = LabelRegistry::from_labels(["run", "walk"]);
        let (features, labels) = q.training_data(&registry).unwrap();
        assert_eq!(features.shape(), (12, 6));
        assert_eq!(labels, [vec![0; 4], vec![1; 8]].concat());
        let walk = q.samples("walk").unwrap();
        assert_eq!(features.row(4), walk[0].as_slice());

        let mut staged = Matrix::default();
        q.class_features_into("walk", &mut staged).unwrap();
        assert_eq!(staged.shape(), (8, 6));
        assert_eq!(staged.row(7), walk[7].as_slice());
        assert!(matches!(
            q.class_features_into("missing", &mut staged),
            Err(CoreError::UnknownClass(_))
        ));

        assert!(q.remove_class("run"));
        assert!(!q.remove_class("run"));
        assert!(q.samples("run").is_none());
    }

    /// `set_class` at int8 keeps the rows it keeps at f32, given the same
    /// rng: selection runs on the f32 candidates, then quantises.
    fn assert_int8_selects_like_f32(strategy: SelectionStrategy) {
        let candidates = gaussian_samples(40, 8, 0.3, 20);
        let mut f32_set = SupportSet::new(6, strategy);
        let mut int8_set = f32_set.clone().into_precision(Precision::Int8);
        f32_set
            .set_class("walk", &candidates, &mut SeededRng::new(21))
            .unwrap();
        int8_set
            .set_class("walk", &candidates, &mut SeededRng::new(21))
            .unwrap();
        assert_within_half_step(
            &f32_set.samples("walk").unwrap(),
            &int8_set.samples("walk").unwrap(),
        );
    }

    #[test]
    fn int8_random_selection_matches_f32() {
        assert_int8_selects_like_f32(SelectionStrategy::Random);
    }

    #[test]
    fn int8_herding_selection_matches_f32() {
        assert_int8_selects_like_f32(SelectionStrategy::Herding);
    }

    #[test]
    fn int8_reservoir_selection_matches_f32() {
        assert_int8_selects_like_f32(SelectionStrategy::Reservoir);
    }
}
