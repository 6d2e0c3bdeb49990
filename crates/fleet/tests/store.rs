//! Tiered session store integration tests: delta apply/revert
//! exactness (property-tested), base+delta serving equivalence, shared
//! -key batching for personalized sessions, and the headline guarantee
//! — a paged-out then rehydrated session serves *bit-identical*
//! predictions.

use magneto_core::{
    CloudConfig, CloudInitializer, EdgeBundle, EdgeConfig, EdgeDevice, Lineage, ModelVersion,
    NcmClassifier, PersonalDelta, Precision, Prediction, RollbackReason,
};
use magneto_fleet::{
    Fleet, FleetConfig, FleetReply, ModelKey, ReplayOutcome, SessionId, StoreError, SubmitError,
};
use magneto_sensors::pool::StreamPool;
use magneto_sensors::stream::StreamConfig;
use magneto_sensors::{ActivityKind, GeneratorConfig, SensorDataset};
use magneto_tensor::vector::DistanceMetric;
use proptest::prelude::*;
use std::sync::mpsc::Receiver;
use std::sync::OnceLock;
use std::time::Duration;

fn bundle() -> &'static EdgeBundle {
    static BUNDLE: OnceLock<EdgeBundle> = OnceLock::new();
    BUNDLE.get_or_init(|| {
        let corpus = SensorDataset::generate(&GeneratorConfig::tiny(), 1);
        CloudInitializer::new(CloudConfig::fast_demo())
            .pretrain(&corpus)
            .unwrap()
            .0
    })
}

fn windows(count: usize, seed: u64) -> Vec<Vec<Vec<f32>>> {
    let mut pool = StreamPool::new(1, &ActivityKind::BASE_FIVE, 120, StreamConfig::ideal(), seed);
    (0..count).map(|_| pool.next_round().remove(0)).collect()
}

fn spool_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "magneto_store_test_{tag}_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn recv_ok(rx: &Receiver<FleetReply>) -> Prediction {
    rx.recv_timeout(Duration::from_secs(30))
        .expect("reply")
        .outcome
        .expect("prediction")
}

/// Bitwise prediction equality, ignoring wall-clock latency.
fn assert_bit_identical(a: &Prediction, b: &Prediction) {
    assert_eq!(a.label, b.label);
    assert_eq!(a.confidence.to_bits(), b.confidence.to_bits());
    assert_eq!(a.distances.len(), b.distances.len());
    for (x, y) in a.distances.iter().zip(&b.distances) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
    assert_eq!(a.quality, b.quality);
}

// ---------------------------------------------------------------------
// Satellite: streamed FNV key == reference over the full serialized copy.
// ---------------------------------------------------------------------

#[test]
fn streamed_model_key_matches_full_buffer_fnv() {
    let bytes = bundle().to_bytes(false);
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in &bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    let reference = ModelKey::shared(hash); // masks the unique bit
    assert_eq!(ModelKey::of_bundle(bundle()), reference);
    assert!(!ModelKey::of_bundle(bundle()).is_unique());
}

// ---------------------------------------------------------------------
// Property: delta apply → revert restores the classifier byte-for-byte.
// ---------------------------------------------------------------------

fn arb_ncm(dim: usize) -> impl Strategy<Value = NcmClassifier> {
    prop::collection::vec(
        prop::collection::vec(-1.0e3f32..1.0e3, dim),
        1..5,
    )
    .prop_map(move |protos| {
        let named = protos
            .into_iter()
            .enumerate()
            .map(|(i, p)| (format!("base_{i}"), p))
            .collect();
        NcmClassifier::new(DistanceMetric::Euclidean, named).unwrap()
    })
}

fn arb_delta(dim: usize) -> impl Strategy<Value = PersonalDelta> {
    // Labels overlap base labels (replacements) and add fresh ones;
    // duplicate draws collapse in the delta's ordered map.
    let labels: Vec<String> = (0..5)
        .map(|i| format!("base_{i}"))
        .chain((0..3).map(|i| format!("user_{i}")))
        .collect();
    prop::collection::vec(
        (
            prop::sample::select(labels),
            prop::collection::vec(-1.0e3f32..1.0e3, dim),
        ),
        0..6,
    )
    .prop_map(|entries| {
        let mut d = PersonalDelta::new();
        for (label, proto) in entries {
            d.set_prototype(&label, proto);
        }
        d
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn apply_revert_is_byte_identical(ncm in arb_ncm(6), delta in arb_delta(6)) {
        let mut live = ncm.clone();
        let before = serde_json::to_vec(&live).unwrap();
        let undo = delta.apply(&mut live).unwrap();
        undo.revert(&mut live);
        prop_assert_eq!(serde_json::to_vec(&live).unwrap(), before);
    }

    #[test]
    fn delta_bytes_roundtrip_rebuilds_identical_overlay(
        ncm in arb_ncm(6),
        delta in arb_delta(6),
    ) {
        // The rehydration path: delta → bytes → delta → apply must equal
        // a direct apply on the same base.
        let back = PersonalDelta::from_bytes(&delta.to_bytes()).unwrap();
        let mut direct = ncm.clone();
        let mut via_bytes = ncm.clone();
        delta.apply(&mut direct).unwrap();
        back.apply(&mut via_bytes).unwrap();
        prop_assert_eq!(
            serde_json::to_vec(&direct).unwrap(),
            serde_json::to_vec(&via_bytes).unwrap()
        );
    }
}

// ---------------------------------------------------------------------
// Serving equivalence and shared-key batching.
// ---------------------------------------------------------------------

#[test]
fn empty_delta_session_serves_like_a_device() {
    let mut fleet = Fleet::new(FleetConfig::deterministic()).unwrap();
    let key = fleet.register_base(bundle(), Precision::F32).unwrap();
    let device = EdgeDevice::deploy(bundle().clone(), EdgeConfig::default()).unwrap();
    let (dev_id, dev_rx) = fleet.register(device, key);
    let (delta_id, delta_rx) = fleet.register_from_base(key, Precision::F32).unwrap();

    // Same shared key — the scheduler batches them into one forward.
    assert_eq!(fleet.session_key(dev_id).unwrap(), key);
    assert_eq!(fleet.session_key(delta_id).unwrap(), key);

    for window in windows(4, 11) {
        fleet.submit(dev_id, window.clone()).unwrap();
        fleet.submit(delta_id, window).unwrap();
        fleet.pump();
        let a = recv_ok(&dev_rx);
        let b = recv_ok(&delta_rx);
        assert_bit_identical(&a, &b);
    }
    let stats = fleet.shard_stats();
    assert!(
        stats.iter().any(|s| s.max_batch >= 2),
        "device + delta session sharing a key never batched together"
    );
    fleet.shutdown();
}

#[test]
fn calibration_keeps_the_shared_key_and_stays_batchable() {
    let mut fleet = Fleet::new(FleetConfig::deterministic()).unwrap();
    let key = fleet.register_base(bundle(), Precision::F32).unwrap();
    let (a, a_rx) = fleet.register_from_base(key, Precision::F32).unwrap();
    let (b, b_rx) = fleet.register_from_base(key, Precision::F32).unwrap();

    // Personalize session `a` only.
    fleet
        .calibrate_session(a, "user_move", &windows(3, 21))
        .unwrap();
    fleet.set_session_threshold(a, 0.75).unwrap();

    // Unlike update_session, personalization does NOT fork the key.
    assert_eq!(fleet.session_key(a).unwrap(), key);
    assert!(!fleet.session_key(a).unwrap().is_unique());
    let delta = fleet.session_delta(a).unwrap();
    assert!(delta.prototype("user_move").is_some());
    assert_eq!(delta.threshold(), Some(0.75));

    // Both sessions still serve — and still batch together.
    let w = windows(1, 33).remove(0);
    fleet.submit(a, w.clone()).unwrap();
    fleet.submit(b, w.clone()).unwrap();
    fleet.pump();
    let pa = recv_ok(&a_rx);
    let pb = recv_ok(&b_rx);
    // The personalized session sees one more class than the base peer.
    assert_eq!(pa.distances.len(), pb.distances.len() + 1);
    assert!(fleet.shard_stats().iter().any(|s| s.max_batch >= 2));
    fleet.shutdown();
}

// ---------------------------------------------------------------------
// Tier lifecycle: evict → rehydrate is bit-identical, stats track it.
// ---------------------------------------------------------------------

#[test]
fn paged_out_session_rehydrates_bit_identically() {
    let spool = spool_dir("rehydrate");
    let mut fleet = Fleet::new(FleetConfig::deterministic()).unwrap();
    fleet.set_spool_dir(&spool).unwrap();
    let key = fleet.register_base(bundle(), Precision::F32).unwrap();
    let (id, rx) = fleet.register_from_base(key, Precision::F32).unwrap();
    fleet
        .calibrate_session(id, "user_move", &windows(3, 5))
        .unwrap();

    let probes = windows(3, 77);
    let before: Vec<Prediction> = probes
        .iter()
        .map(|w| {
            fleet.submit(id, w.clone()).unwrap();
            fleet.pump();
            recv_ok(&rx)
        })
        .collect();

    // Evict: the delta leaves RAM for a crash-safe framed spool file.
    assert!(fleet.page_out(id).unwrap());
    let stats = fleet.shard_stats();
    assert_eq!(stats.iter().map(|s| s.paged_sessions).sum::<usize>(), 1);
    assert!(
        std::fs::read_dir(&spool).unwrap().count() > 0,
        "no spool file written"
    );

    // Submitting to the cold session rehydrates it on the drain path.
    let after: Vec<Prediction> = probes
        .iter()
        .map(|w| {
            fleet.submit(id, w.clone()).unwrap();
            fleet.pump();
            recv_ok(&rx)
        })
        .collect();
    for (a, b) in before.iter().zip(&after) {
        assert_bit_identical(a, b);
    }
    let stats = fleet.shard_stats();
    assert_eq!(stats.iter().map(|s| s.paged_sessions).sum::<usize>(), 0);
    assert!(stats.iter().map(|s| s.rehydrations).sum::<u64>() >= 1);

    // The rehydrated delta equals the pre-eviction one exactly.
    let delta = fleet.deregister_delta(id).unwrap();
    assert!(delta.prototype("user_move").is_some());
    fleet.shutdown();
    let _ = std::fs::remove_dir_all(&spool);
}

#[test]
fn lru_capacity_evicts_coldest_and_resident_bytes_shrink() {
    let spool = spool_dir("lru");
    let config = FleetConfig {
        hot_delta_capacity: 2,
        ..FleetConfig::deterministic()
    };
    let mut fleet = Fleet::new(config).unwrap();
    fleet.set_spool_dir(&spool).unwrap();
    let key = fleet.register_base(bundle(), Precision::F32).unwrap();
    let ids: Vec<SessionId> = (0..5)
        .map(|_| fleet.register_from_base(key, Precision::F32).unwrap().0)
        .collect();

    let stats = fleet.shard_stats();
    assert_eq!(stats.iter().map(|s| s.hot_sessions).sum::<usize>(), 2);
    assert_eq!(stats.iter().map(|s| s.paged_sessions).sum::<usize>(), 3);

    // Touching a paged session pages it back in (and pushes another out).
    let w = windows(1, 9).remove(0);
    fleet.submit(ids[0], w).unwrap();
    fleet.pump();
    let stats = fleet.shard_stats();
    assert!(stats.iter().map(|s| s.rehydrations).sum::<u64>() >= 1);
    assert_eq!(stats.iter().map(|s| s.hot_sessions).sum::<usize>(), 2);
    assert_eq!(stats.iter().map(|s| s.paged_sessions).sum::<usize>(), 3);

    // Tiered deltas are orders of magnitude below one resident device.
    let per_session: usize = stats.iter().map(|s| s.resident_bytes).sum();
    let naive = EdgeDevice::deploy(bundle().clone(), EdgeConfig::default())
        .unwrap()
        .resident_bytes();
    assert!(
        per_session < naive,
        "5 tiered sessions ({per_session} B) should undercut ONE device ({naive} B)"
    );
    fleet.shutdown();
    let _ = std::fs::remove_dir_all(&spool);
}

// ---------------------------------------------------------------------
// API boundaries between device-backed and base+delta sessions.
// ---------------------------------------------------------------------

#[test]
fn device_and_delta_apis_reject_the_wrong_session_kind() {
    let fleet = Fleet::new(FleetConfig::deterministic()).unwrap();
    let key = fleet.register_base(bundle(), Precision::F32).unwrap();
    let (delta_id, _delta_rx) = fleet.register_from_base(key, Precision::F32).unwrap();
    let device = EdgeDevice::deploy(bundle().clone(), EdgeConfig::default()).unwrap();
    let (dev_id, _dev_rx) = fleet.register(device, key);

    // Device APIs on a delta session.
    assert_eq!(
        fleet.with_session(delta_id, |d| d.classes()).unwrap_err(),
        SubmitError::NotDeviceBacked(delta_id)
    );
    assert_eq!(
        fleet.update_session(delta_id, |_| ()).unwrap_err(),
        SubmitError::NotDeviceBacked(delta_id)
    );
    assert_eq!(
        fleet.deregister(delta_id).unwrap_err(),
        SubmitError::NotDeviceBacked(delta_id)
    );

    // Delta APIs on a device session.
    assert_eq!(
        fleet.deregister_delta(dev_id).unwrap_err(),
        StoreError::NotDelta(dev_id)
    );
    assert!(fleet.session_delta(dev_id).is_err());
    // Devices never page.
    assert!(!fleet.page_out(dev_id).unwrap());

    // Unknown base is reported as such.
    let missing = fleet.register_from_base(ModelKey::shared(424_242), Precision::F32);
    assert!(matches!(missing, Err(StoreError::UnknownBase(_, _))));

    // Both still deregister cleanly through their own APIs.
    fleet.deregister_delta(delta_id).unwrap();
    fleet.deregister(dev_id).unwrap().classes();
    fleet.shutdown();
}

// ---------------------------------------------------------------------
// Versioned base migration: transactional replay, byte-exact rollback.
// ---------------------------------------------------------------------

/// The seed bundle stamped as version 1, and its version-2 successor.
/// Same weights (only the lineage differs), so a committed migration's
/// replayed prototypes must be bit-identical to a fresh calibration.
fn versioned_pair() -> (EdgeBundle, EdgeBundle) {
    let v1 = bundle().clone().with_lineage(Lineage::root(1));
    let v2 = v1.clone().with_lineage(v1.child_lineage());
    (v1, v2)
}

#[test]
fn migration_replays_calibration_onto_new_base() {
    let (v1, v2) = versioned_pair();
    let mut fleet = Fleet::new(FleetConfig::deterministic()).unwrap();
    let key1 = fleet.register_base(&v1, Precision::F32).unwrap();
    let key2 = fleet.register_base(&v2, Precision::F32).unwrap();
    assert_ne!(key1, key2, "lineage must fork the model key");

    let calib = windows(3, 41);
    let (id, rx) = fleet.register_from_base(key1, Precision::F32).unwrap();
    fleet.calibrate_session(id, "user_move", &calib).unwrap();
    assert_eq!(fleet.session_version(id).unwrap(), ModelVersion(1));
    assert_eq!(
        fleet.session_delta(id).unwrap().base_version(),
        Some(ModelVersion(1))
    );

    // A control session calibrated directly on v2: the migrated session
    // must end up serving bit-identically to it.
    let (control, control_rx) = fleet.register_from_base(key2, Precision::F32).unwrap();
    fleet
        .calibrate_session(control, "user_move", &calib)
        .unwrap();

    // Migrate through a page-out so the replay crosses the cold tier.
    assert!(fleet.page_out(id).unwrap());
    let outcome = fleet.migrate_session(id, key2, Precision::F32).unwrap();
    assert!(
        matches!(
            outcome,
            ReplayOutcome::Committed {
                replayed_prototypes: 1,
                ..
            }
        ),
        "{outcome:?}"
    );
    assert_eq!(fleet.session_version(id).unwrap(), ModelVersion(2));
    assert_eq!(fleet.session_key(id).unwrap(), key2);
    assert_eq!(
        fleet.session_delta(id).unwrap().base_version(),
        Some(ModelVersion(2))
    );

    for w in windows(3, 43) {
        fleet.submit(id, w.clone()).unwrap();
        fleet.submit(control, w).unwrap();
        fleet.pump();
        let migrated = recv_ok(&rx);
        let fresh = recv_ok(&control_rx);
        assert_bit_identical(&migrated, &fresh);
    }
    fleet.shutdown();
}

#[test]
fn failed_migration_rolls_back_byte_exactly() {
    let (v1, v2) = versioned_pair();
    let fleet = Fleet::new(FleetConfig::deterministic()).unwrap();
    let key1 = fleet.register_base(&v1, Precision::F32).unwrap();
    let key2 = fleet.register_base(&v2, Precision::F32).unwrap();
    let (id, _rx) = fleet.register_from_base(key1, Precision::F32).unwrap();

    // A prototype with no support rows cannot be replayed through a new
    // backbone — inject one (at the base's true embedding dim) to force
    // the MissingReplaySource gate.
    fleet
        .calibrate_session(id, "user_move", &windows(2, 51))
        .unwrap();
    let dim = fleet
        .session_delta(id)
        .unwrap()
        .prototype("user_move")
        .unwrap()
        .len();
    let mut orphan = PersonalDelta::new();
    orphan.set_prototype("ghost", vec![0.5; dim]);
    orphan.pin_base(ModelVersion(1));
    fleet
        .restore_session(id, key1, Precision::F32, orphan)
        .unwrap();
    let before = fleet.session_delta(id).unwrap().to_bytes();

    let outcome = fleet.migrate_session(id, key2, Precision::F32).unwrap();
    assert_eq!(
        outcome.rollback_reason(),
        Some(RollbackReason::MissingReplaySource)
    );
    assert!(!outcome.is_committed());

    // The rolled-back session is byte-identical to its pre-migration
    // state and still serves version 1 under the old key.
    assert_eq!(fleet.session_delta(id).unwrap().to_bytes(), before);
    assert_eq!(fleet.session_version(id).unwrap(), ModelVersion(1));
    assert_eq!(fleet.session_key(id).unwrap(), key1);

    // Migrating to an unregistered base is a typed error, not a panic.
    assert!(matches!(
        fleet.migrate_session(id, ModelKey::shared(7), Precision::F32),
        Err(StoreError::UnknownBase(_, _))
    ));
    fleet.shutdown();
}

// ---------------------------------------------------------------------
// Int8 exemplar index: calibrated support rows serve through the
// session's quantized NCM index and survive a page-out/rehydrate cycle.
// ---------------------------------------------------------------------

#[test]
fn int8_session_exemplars_survive_paging_and_serve_through_index() {
    let spool = spool_dir("int8_exemplars");
    let mut fleet = Fleet::new(FleetConfig::deterministic()).unwrap();
    fleet.set_spool_dir(&spool).unwrap();
    let key = fleet.register_base(bundle(), Precision::Int8).unwrap();
    let (id, rx) = fleet.register_from_base(key, Precision::Int8).unwrap();

    // Before calibration the session serves off the shared base: no
    // exemplar rows on the index.
    assert_eq!(fleet.session_exemplar_rows(id).unwrap(), 0);

    let calib = windows(4, 13);
    fleet.calibrate_session(id, "user_move", &calib).unwrap();

    // The overlay indexed one int8 exemplar row per calibration window,
    // embedded through the int8 backbone (no f32 weights exist for this
    // precision — there is nothing to rehydrate).
    assert_eq!(fleet.session_exemplar_rows(id).unwrap(), calib.len());

    let probes = windows(3, 99);
    let before: Vec<Prediction> = probes
        .iter()
        .map(|w| {
            fleet.submit(id, w.clone()).unwrap();
            fleet.pump();
            recv_ok(&rx)
        })
        .collect();

    // Page out, then serve again: the rehydrated overlay rebuilds the
    // same exemplar index and predictions stay bit-identical.
    assert!(fleet.page_out(id).unwrap());
    let after: Vec<Prediction> = probes
        .iter()
        .map(|w| {
            fleet.submit(id, w.clone()).unwrap();
            fleet.pump();
            recv_ok(&rx)
        })
        .collect();
    for (a, b) in before.iter().zip(&after) {
        assert_bit_identical(a, b);
    }
    assert_eq!(fleet.session_exemplar_rows(id).unwrap(), calib.len());

    // The exemplar accessor itself rehydrates a cold session.
    assert!(fleet.page_out(id).unwrap());
    assert_eq!(fleet.session_exemplar_rows(id).unwrap(), calib.len());

    fleet.shutdown();
    let _ = std::fs::remove_dir_all(&spool);
}

// ---------------------------------------------------------------------
// Tentpole: per-session self-healing under concept drift for delta
// sessions — streaming detection on the reply path, transactional delta
// recalibration, shard counters.
// ---------------------------------------------------------------------

/// `count` windows of walk data with `plan`'s drift applied, in the
/// channel-major layout `submit` expects.
fn drifted_walk_windows(
    count: usize,
    seed: u64,
    plan: magneto_sensors::DriftPlan,
) -> Vec<Vec<Vec<f32>>> {
    use magneto_sensors::{ActivityKind, PersonProfile, SensorStream, NUM_CHANNELS};
    let mut stream = SensorStream::new(
        ActivityKind::Walk.profile(),
        PersonProfile::nominal(),
        StreamConfig::ideal(),
        magneto_tensor::SeededRng::new(seed),
    );
    let frames: Vec<_> = (0..count * 120).map(|_| stream.next().unwrap()).collect();
    let frames = plan.injector().apply(&frames);
    frames
        .chunks(120)
        .map(|chunk| {
            let mut w = vec![vec![0.0f32; chunk.len()]; NUM_CHANNELS];
            for (t, f) in chunk.iter().enumerate() {
                for (c, v) in f.values.iter().enumerate() {
                    w[c][t] = *v;
                }
            }
            w
        })
        .collect()
}

fn healing_fleet(healing: magneto_core::SelfHealingConfig) -> Fleet {
    Fleet::new(FleetConfig {
        healing: Some(healing),
        ..FleetConfig::deterministic()
    })
    .unwrap()
}

fn drain_replies(fleet: &mut Fleet, id: SessionId, rx: &Receiver<FleetReply>, windows: &[Vec<Vec<f32>>]) -> Vec<Prediction> {
    windows
        .iter()
        .map(|w| {
            fleet.submit(id, w.clone()).unwrap();
            fleet.pump();
            recv_ok(rx)
        })
        .collect()
}

#[test]
fn delta_session_detects_drift_and_recalibrates_transactionally() {
    let healing = magneto_core::SelfHealingConfig {
        min_confidence: 0.05,
        ..magneto_core::SelfHealingConfig::default()
    };
    let mut fleet = healing_fleet(healing);
    let key = fleet.register_base(bundle(), Precision::F32).unwrap();
    let (id, rx) = fleet.register_from_base(key, Precision::F32).unwrap();
    // Calibrate from a disjoint recording: served windows must not be
    // their own calibration exemplars or live distances start at ~0.
    let calib = drifted_walk_windows(4, 76, magneto_sensors::DriftPlan::none(0));
    fleet.calibrate_session(id, "user_walk", &calib).unwrap();
    let clean = drifted_walk_windows(8, 77, magneto_sensors::DriftPlan::none(0));

    // Clean serving: every reply carries a drift status, none alert.
    let preds = drain_replies(&mut fleet, id, &rx, &clean);
    assert!(preds.iter().all(|p| p.drift.is_some()));
    let stats = fleet.session_healing_stats(id).unwrap().unwrap();
    assert_eq!(stats.drift_alerts, 0, "clean stream alerted: {stats:?}");

    // Gait drift: distances blow past the live baseline.
    let drifted = drifted_walk_windows(30, 78, magneto_sensors::DriftPlan::gait_change(79, 1.6, 600));
    let preds = drain_replies(&mut fleet, id, &rx, &drifted);
    assert!(preds.iter().any(|p| matches!(
        p.drift,
        Some(magneto_core::drift::DriftStatus::Drifted { .. })
    )));
    let stats = fleet.session_healing_stats(id).unwrap().unwrap();
    assert!(stats.drift_alerts >= 1, "no alert: {stats:?}");
    assert!(
        stats.auto_recals + stats.recal_rollbacks >= 1,
        "sustained drift never attempted recalibration: {stats:?}"
    );
    // Shard counters mirror the per-session stats.
    let shard: u64 = fleet.shard_stats().iter().map(|s| s.drift_alerts).sum();
    assert!(shard >= 1);
    let attempts: u64 = fleet
        .shard_stats()
        .iter()
        .map(|s| s.auto_recals + s.recal_rollbacks)
        .sum();
    assert!(attempts >= 1);
    fleet.shutdown();
}

#[test]
fn rejected_fleet_recalibration_leaves_delta_bytes_exact() {
    // Three labels calibrated from identical windows cannot all be
    // classified correctly, and one recalibration can refresh only one
    // of them, so a replay floor of 1.0 rejects every candidate — each
    // attempt must roll back leaving the delta byte-identical, and
    // strikes must degrade the loop.
    let healing = magneto_core::SelfHealingConfig {
        min_confidence: 0.05,
        cooldown: 4,
        max_strikes: 2,
        ..magneto_core::SelfHealingConfig::default()
    };
    let mut fleet = Fleet::new(FleetConfig {
        healing: Some(healing),
        replay_accuracy_floor: 1.0,
        ..FleetConfig::deterministic()
    })
    .unwrap();
    let key = fleet.register_base(bundle(), Precision::F32).unwrap();
    let (id, rx) = fleet.register_from_base(key, Precision::F32).unwrap();
    let calib = windows(3, 91);
    fleet.calibrate_session(id, "user_a", &calib).unwrap();
    fleet.calibrate_session(id, "user_b", &calib).unwrap();
    fleet.calibrate_session(id, "user_c", &calib).unwrap();
    let before = fleet.session_delta(id).unwrap().to_bytes();

    let clean = drifted_walk_windows(8, 92, magneto_sensors::DriftPlan::none(0));
    drain_replies(&mut fleet, id, &rx, &clean);
    let drifted = drifted_walk_windows(60, 93, magneto_sensors::DriftPlan::gait_change(94, 1.6, 600));
    drain_replies(&mut fleet, id, &rx, &drifted);

    let stats = fleet.session_healing_stats(id).unwrap().unwrap();
    assert_eq!(stats.auto_recals, 0, "impossible floor committed: {stats:?}");
    assert!(stats.recal_rollbacks >= 1, "no rollback recorded: {stats:?}");
    if stats.recal_rollbacks >= 2 {
        assert!(stats.degraded, "strikes exhausted but not degraded: {stats:?}");
    }
    assert_eq!(
        before,
        fleet.session_delta(id).unwrap().to_bytes(),
        "rolled-back recalibration mutated the delta"
    );
    fleet.shutdown();
}

// ---------------------------------------------------------------------
// Self-healing is independent of batching, and harvests the features
// the batch already computed.
// ---------------------------------------------------------------------

/// The self-healing policy of [`batching_healing_fleet`].
fn batching_healing_config() -> magneto_core::SelfHealingConfig {
    magneto_core::SelfHealingConfig {
        min_confidence: 0.05,
        cooldown: 4,
        ..magneto_core::SelfHealingConfig::default()
    }
}

/// A healing fleet with room for a 64-window batch from one session.
fn batching_healing_fleet() -> Fleet {
    Fleet::new(FleetConfig {
        healing: Some(batching_healing_config()),
        max_batch: 64,
        max_inflight_per_session: 64,
        ..FleetConfig::deterministic()
    })
    .unwrap()
}

/// The seeded healing scenario: a calibration recording, then clean
/// walking, then a sustained gait change that drives recalibrations.
fn healing_scenario() -> (Vec<Vec<Vec<f32>>>, Vec<Vec<Vec<f32>>>) {
    let calib = drifted_walk_windows(4, 76, magneto_sensors::DriftPlan::none(0));
    let mut served = drifted_walk_windows(8, 77, magneto_sensors::DriftPlan::none(0));
    served.extend(drifted_walk_windows(
        56,
        78,
        magneto_sensors::DriftPlan::gait_change(79, 1.6, 600),
    ));
    (calib, served)
}

/// Serve `windows` on a fresh calibrated session of a fresh healing
/// fleet, queueing `per_pump` windows before each `pump`.
fn serve_healing(
    precision: Precision,
    per_pump: usize,
) -> (Vec<Prediction>, magneto_core::HealingStats, PersonalDelta) {
    let (calib, served) = healing_scenario();
    let mut fleet = batching_healing_fleet();
    let key = fleet.register_base(bundle(), precision).unwrap();
    let (id, rx) = fleet.register_from_base(key, precision).unwrap();
    fleet.calibrate_session(id, "user_walk", &calib).unwrap();
    let mut preds = Vec::new();
    for chunk in served.chunks(per_pump) {
        for w in chunk {
            fleet.submit(id, w.clone()).unwrap();
        }
        while fleet.pump() > 0 {}
        preds.extend(chunk.iter().map(|_| recv_ok(&rx)));
    }
    let stats = fleet.session_healing_stats(id).unwrap().unwrap();
    let delta = fleet.session_delta(id).unwrap();
    fleet.shutdown();
    (preds, stats, delta)
}

#[test]
fn healing_replies_do_not_depend_on_batch_composition() {
    for precision in [Precision::Int8, Precision::F32] {
        let (single, single_stats, single_delta) = serve_healing(precision, 1);
        let (batched, batched_stats, batched_delta) = serve_healing(precision, 64);
        assert!(
            single_stats.auto_recals >= 1,
            "{precision}: the scenario must commit a recalibration mid-stream: {single_stats:?}"
        );
        assert_eq!(single.len(), batched.len());
        for (i, (a, b)) in single.iter().zip(&batched).enumerate() {
            assert_eq!(a.drift, b.drift, "{precision}: reply {i} drift status");
            assert_bit_identical(a, b);
        }
        assert_eq!(single_stats, batched_stats, "{precision}: healing counters");
        assert_eq!(single_delta.to_bytes(), batched_delta.to_bytes(), "{precision}: delta");
    }
}

#[test]
fn heal_harvest_reuses_the_served_features_exactly() {
    let (_, served) = healing_scenario();
    // The served windows featurized independently of the fleet.
    let pipeline = &bundle().pipeline;
    let features: Vec<Vec<f32>> = served
        .iter()
        .map(|w| {
            let mut row = vec![0.0f32; pipeline.output_dim()];
            pipeline.process_checked_into(w, &mut row).unwrap();
            row
        })
        .collect();
    let bits = |rows: &[Vec<f32>]| -> Vec<Vec<u32>> {
        rows.iter().map(|r| r.iter().map(|v| v.to_bits()).collect()).collect()
    };
    for per_pump in [1, 64] {
        let (preds, stats, delta) = serve_healing(Precision::Int8, per_pump);
        // Counters of this seeded scenario as served when the harvest
        // still featurized every eligible window a second time: reusing
        // the batch's feature rows must not move any of them.
        assert_eq!(
            (stats.drifted_windows, stats.drift_alerts, stats.auto_recals, stats.recal_rollbacks),
            PINNED_HEALING_COUNTS,
            "per_pump {per_pump}: {stats:?}"
        );
        // Replay the harvest policy over the replies, offering the
        // independently featurized rows: the candidate it commits first
        // (the only recalibration, per the counters) must be the
        // recalibrated label's whole support set, row for row and bit
        // for bit.
        let mut policy = magneto_core::Recalibrator::new(batching_healing_config()).unwrap();
        let (label, expected) = preds
            .iter()
            .zip(&features)
            .find_map(|(pred, row)| {
                policy.offer(&pred.label, row, pred.confidence, pred.quality);
                let status = pred.drift.expect("a healing session reports drift");
                if policy.observe(status) {
                    policy.candidate()
                } else {
                    None
                }
            })
            .expect("the scenario commits a recalibration");
        let support = bits(delta.support(&label).expect("the recalibrated label has support"));
        let expected = bits(&expected);
        assert_eq!(support.len(), expected.len(), "per_pump {per_pump}: rows of {label}");
        let differs = support.iter().zip(&expected).position(|(a, b)| a != b);
        assert_eq!(
            differs, None,
            "per_pump {per_pump}: support row of {label} is not the served features"
        );
    }
}

/// `(drifted_windows, drift_alerts, auto_recals, recal_rollbacks)` of
/// [`heal_harvest_reuses_the_served_features_exactly`].
const PINNED_HEALING_COUNTS: (u64, u64, u64, u64) = (3, 1, 1, 0);
