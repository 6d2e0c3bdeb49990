//! Batched embedding: many feature windows through the backbone in one
//! forward pass.
//!
//! Everywhere the platform used to loop `embed_one` over a backlog —
//! prototype construction, rejection-threshold calibration, streaming
//! catch-up after a stall — now stacks the rows into one `(batch, 80)`
//! matrix and runs a single matmul chain per layer. A [`BatchEmbedder`]
//! owns the feature staging matrix and the kernel [`Workspace`], so
//! repeated batches reuse the same allocations.

use crate::error::CoreError;
use crate::ncm::{NcmClassifier, NcmDecision, NcmScratch};
use crate::precision::ResidentModel;
use crate::Result;
use magneto_tensor::{Matrix, Workspace};

/// Reusable batched-embedding state: a staging matrix for stacked
/// feature rows plus the scratch pool the forward kernels draw from.
/// Classification scratch rides along so the batch serve path
/// ([`crate::inference::infer_batch`]) reuses one set of NCM buffers
/// across every job of every batch, and that path keeps the batch's
/// feature and embedding rows here until the next batch, so a caller
/// can reuse a served window's features ([`staged_row`](Self::staged_row))
/// or classify its embedding again
/// ([`reclassify`](crate::inference::reclassify)) without recomputing
/// either.
#[derive(Debug, Default)]
pub struct BatchEmbedder {
    ws: Workspace,
    features: Matrix,
    embeddings: Matrix,
    ncm_scratch: NcmScratch,
    decision: NcmDecision,
}

impl BatchEmbedder {
    /// An empty embedder; buffers grow on first use and are reused after.
    pub fn new() -> Self {
        BatchEmbedder::default()
    }

    /// The micro-kernel backend this embedder's forward GEMMs dispatch
    /// to (scalar / avx2 / neon).
    pub fn backend(&self) -> magneto_tensor::Backend {
        self.ws.backend()
    }

    /// Embed a slice of feature rows in one forward pass, writing the
    /// `(rows.len(), emb_dim)` embedding batch into `out`.
    ///
    /// # Errors
    /// [`CoreError::InsufficientData`] on an empty slice or ragged rows;
    /// embedding failures are propagated.
    pub fn embed_rows(
        &mut self,
        model: &ResidentModel,
        rows: &[Vec<f32>],
        out: &mut Matrix,
    ) -> Result<()> {
        if rows.is_empty() {
            return Err(CoreError::InsufficientData(
                "no feature rows to embed".into(),
            ));
        }
        let dim = rows[0].len();
        self.features.resize(rows.len(), dim);
        for (i, row) in rows.iter().enumerate() {
            if row.len() != dim {
                return Err(CoreError::InsufficientData(format!(
                    "ragged feature rows: row 0 has {dim} features, row {i} has {}",
                    row.len()
                )));
            }
            self.features.row_mut(i).copy_from_slice(row);
        }
        model.embed_into(&self.features, out, &mut self.ws)?;
        Ok(())
    }

    /// Embed an already-stacked feature matrix in one forward pass.
    ///
    /// # Errors
    /// Shape mismatch on malformed input.
    pub fn embed_matrix(
        &mut self,
        model: &ResidentModel,
        features: &Matrix,
        out: &mut Matrix,
    ) -> Result<()> {
        model.embed_into(features, out, &mut self.ws)?;
        Ok(())
    }

    /// Borrow the staging matrix mutably: resize it, fill rows in place
    /// (e.g. via `PreprocessingPipeline::process_into`), then call
    /// [`embed_staged`](Self::embed_staged).
    pub fn staging(&mut self) -> &mut Matrix {
        &mut self.features
    }

    /// Embed whatever is currently staged in [`staging`](Self::staging).
    ///
    /// # Errors
    /// Shape mismatch on malformed staged input.
    pub fn embed_staged(&mut self, model: &ResidentModel, out: &mut Matrix) -> Result<()> {
        model.embed_into(&self.features, out, &mut self.ws)?;
        Ok(())
    }

    /// Feature row `r` of the staged batch (what
    /// [`infer_batch`](crate::inference::infer_batch) featurized for its
    /// `r`-th job).
    ///
    /// # Panics
    /// When `r` is not a row of the staged batch.
    pub fn staged_row(&self, r: usize) -> &[f32] {
        self.features.row(r)
    }

    /// Embed the staged batch into the embedder's own embedding matrix,
    /// kept until the next batch.
    pub(crate) fn embed_staged_kept(&mut self, model: &ResidentModel) -> Result<()> {
        model.embed_into(&self.features, &mut self.embeddings, &mut self.ws)?;
        Ok(())
    }

    /// Classify row `r` of the kept embedding batch against `ncm`
    /// through the embedder's resident scratch.
    pub(crate) fn classify_kept(&mut self, r: usize, ncm: &NcmClassifier) -> Result<&NcmDecision> {
        ncm.classify_into(
            self.embeddings.row(r),
            &mut self.ncm_scratch,
            &mut self.decision,
        )?;
        Ok(&self.decision)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::precision::Precision;
    use magneto_nn::{Mlp, SiameseNetwork};
    use magneto_tensor::SeededRng;

    fn model() -> ResidentModel {
        let mut rng = SeededRng::new(7);
        ResidentModel::from(SiameseNetwork::new(
            Mlp::new(&[6, 12, 4], &mut rng).unwrap(),
            1.0,
        ))
    }

    #[test]
    fn batch_matches_per_sample_embedding() {
        let model = model();
        let mut rng = SeededRng::new(8);
        let rows: Vec<Vec<f32>> = (0..9)
            .map(|_| (0..6).map(|_| rng.normal()).collect())
            .collect();
        let mut embedder = BatchEmbedder::new();
        let mut out = Matrix::default();
        embedder.embed_rows(&model, &rows, &mut out).unwrap();
        assert_eq!(out.shape(), (9, 4));
        for (i, row) in rows.iter().enumerate() {
            let single = model.embed_one(row).unwrap();
            assert_eq!(out.row(i), single.as_slice(), "row {i}");
        }
    }

    #[test]
    fn int8_batch_matches_int8_per_sample_embedding() {
        let model = model().into_precision(Precision::Int8).unwrap();
        let mut rng = SeededRng::new(9);
        let rows: Vec<Vec<f32>> = (0..7)
            .map(|_| (0..6).map(|_| rng.normal()).collect())
            .collect();
        let mut embedder = BatchEmbedder::new();
        let mut out = Matrix::default();
        embedder.embed_rows(&model, &rows, &mut out).unwrap();
        assert_eq!(out.shape(), (7, 4));
        for (i, row) in rows.iter().enumerate() {
            let single = model.embed_one(row).unwrap();
            assert_eq!(out.row(i), single.as_slice(), "row {i}");
        }
    }

    #[test]
    fn rejects_empty_and_ragged_batches() {
        let model = model();
        let mut embedder = BatchEmbedder::new();
        let mut out = Matrix::default();
        assert!(matches!(
            embedder.embed_rows(&model, &[], &mut out),
            Err(CoreError::InsufficientData(_))
        ));
        let ragged = vec![vec![0.0; 6], vec![0.0; 5]];
        assert!(matches!(
            embedder.embed_rows(&model, &ragged, &mut out),
            Err(CoreError::InsufficientData(_))
        ));
    }

    #[test]
    fn staged_embedding_reuses_buffers() {
        let model = model();
        let mut embedder = BatchEmbedder::new();
        let mut out = Matrix::default();
        for round in 0..3 {
            let staged = embedder.staging();
            staged.resize(4, 6);
            for r in 0..4 {
                for v in staged.row_mut(r) {
                    *v = round as f32 * 0.1;
                }
            }
            embedder.embed_staged(&model, &mut out).unwrap();
            assert_eq!(out.shape(), (4, 4));
        }
    }
}
