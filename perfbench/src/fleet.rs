//! `fleet_hot`: one `Fleet` worker serving 400 base+delta sessions on
//! one shared paper-backbone int8 base, all hot, with self-healing on.
//! Each run alternates, for a fixed number of rounds, an open-loop
//! Poisson slice and a closed-loop saturation slice at a fixed depth of
//! outstanding windows, then times `calibrate_session` on fresh
//! sessions. Alternating spreads every metric over the whole run, so a
//! few slow seconds on a shared host move all of them a little instead
//! of one of them a lot.

use crate::inputs::{pretrain, FleetPool};
use crate::layers;
use crate::report::{peak_rss_mb, LayerFigures, Metrics, Outcome, Record};
use crate::stats::{median, more_setups, percentile, poisson_due, second_best, OpenLoopLog};
use magneto_core::{EdgeBundle, EdgeConfig, EdgeDevice, Precision, Prediction, SelfHealingConfig};
use magneto_fleet::{Fleet, FleetConfig, FleetReply, ModelKey, SessionId, ShardStats};
use magneto_tensor::SeededRng;
use std::collections::{BTreeMap, VecDeque};
use std::ops::Range;
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::time::{Duration, Instant};

/// Sessions served, all hot. With 1000, each streaming at
/// `WINDOWS_PER_USER_S`, the worker was ~60% busy at batch 1 and the
/// open-loop p50 followed the host's speed (see README.md).
const SESSIONS: usize = 400;
/// Resident precision of the shared base.
const PRECISION: Precision = Precision::Int8;
/// Windows each user sends per second: the device's non-overlapping 1 s
/// windows (`EdgeConfig::window_len` = 120 samples at 120 Hz).
const WINDOWS_PER_USER_S: f64 = 1.0;
/// Open-loop arrival rate: every session streaming at once.
const RATE_WPS: f64 = SESSIONS as f64 * WINDOWS_PER_USER_S;
/// Seconds of open-loop arrivals per second of `--seconds`.
const OPEN_SHARE: f64 = 0.8;
/// Saturation windows per second of `--seconds`.
const SAT_WINDOWS_PER_S: usize = 2500;
/// Every `CALIBRATE_EVERY`-th session is calibrated at set-up: 2% of
/// users carry a personal delta with support exemplars.
const CALIBRATE_EVERY: usize = 50;
/// Simulated people; session `s` replays person `s % PERSONS`.
const PERSONS: usize = 200;
/// Windows kept outstanding in the saturation slices: the fleet's
/// `max_batch`, so every drain can fill a batch.
const DEPTH: usize = 64;
// Sessions take turns (`Traffic::new`): with fewer windows outstanding
// than sessions, no session has two outstanding at once.
const _: () = assert!(DEPTH < SESSIONS);
/// Open-loop + saturation slices per run.
const ROUNDS: usize = 20;
/// Fresh sessions calibrated (timed) after each round.
const PROBES_PER_ROUND: usize = 20;
/// Longest wait for one reply before the window counts as lost.
const REPLY_TIMEOUT: Duration = Duration::from_secs(20);
/// Sessions whose every reply is replayed through a `workers == 0`
/// fleet and compared bit for bit.
const REPLAY_SESSIONS: usize = 6;
/// Calibration windows per calibrated session.
const CALIB_WINDOWS: usize = 2;
/// Pool windows per simulated person.
const PER_PERSON: usize = 4;

fn config() -> FleetConfig {
    FleetConfig {
        shards: 1,
        workers: 1,
        // Room for every arrival of a run: the benchmark measures
        // waiting, not refusals.
        queue_capacity: 1 << 16,
        max_batch: DEPTH,
        max_inflight_per_session: 1 << 16,
        max_inflight_global: 1 << 16,
        hot_delta_capacity: 0,
        healing: Some(SelfHealingConfig::default()),
        ..FleetConfig::default()
    }
}

fn person_of(session: usize) -> usize {
    session % PERSONS
}

/// The traffic of one run, made from the seed.
struct Traffic {
    pool: FleetPool,
    /// `(session, pool window)` of every arrival, in submission order.
    arrivals: Vec<(usize, usize)>,
    /// Due time of each open-loop arrival, seconds from the start of its
    /// slice (0 for saturation arrivals).
    due: Vec<f64>,
    /// Per round, the open-loop slice then the saturation slice, as
    /// ranges of `arrivals`.
    rounds: Vec<(Range<usize>, Range<usize>)>,
}

impl Traffic {
    fn new(seed: u64, seconds: u64) -> Self {
        let pool = FleetPool::new(PERSONS, PER_PERSON, CALIB_WINDOWS, seed);
        let open_n = (RATE_WPS * seconds as f64 * OPEN_SHARE / ROUNDS as f64).round() as usize;
        let sat_n = SAT_WINDOWS_PER_S * seconds as usize / ROUNDS;
        // Sessions take turns in one seeded order, so each user sends a
        // window once every `SESSIONS` arrivals: about once a second in
        // the open loop, as a device streaming 1 s windows does.
        let mut order: Vec<usize> = (0..SESSIONS).collect();
        SeededRng::new(seed ^ 0xB2).shuffle(&mut order);
        let mut turn = 0usize;
        let mut sent = vec![0usize; SESSIONS];
        let mut next = || {
            let session = order[turn % SESSIONS];
            turn += 1;
            // Each session replays its own person's windows in turn.
            let j = sent[session] % pool.per_person;
            sent[session] += 1;
            (session, person_of(session) * pool.per_person + j)
        };
        let mut arrivals = Vec::new();
        let mut due = Vec::new();
        let mut rounds = Vec::new();
        for r in 0..ROUNDS {
            let open_start = arrivals.len();
            due.extend(poisson_due(RATE_WPS, open_n, seed ^ (0xA1 + r as u64)));
            arrivals.extend((0..open_n).map(|_| next()));
            let sat_start = arrivals.len();
            due.extend(std::iter::repeat_n(0.0, sat_n));
            arrivals.extend((0..sat_n).map(|_| next()));
            rounds.push((open_start..sat_start, sat_start..arrivals.len()));
        }
        Traffic {
            pool,
            arrivals,
            due,
            rounds,
        }
    }

    fn window(&self, w: usize) -> Vec<Vec<f32>> {
        self.pool.windows[w].1.clone()
    }

    fn open_len(&self) -> usize {
        self.rounds.iter().map(|(o, _)| o.len()).sum()
    }
}

/// One set-up, timed in parts.
struct Setup {
    fleet: Fleet,
    bundle: EdgeBundle,
    key: ModelKey,
    ids: Vec<SessionId>,
    receivers: Vec<Receiver<FleetReply>>,
    pretrain_s: f64,
    deploy_s: f64,
    register_s: f64,
    total_s: f64,
}

/// Corpus, Cloud pre-training, bundle round trip, `register_base`, then
/// `register_from_base` for every session and all calibrations.
fn set_up(traffic: &Traffic) -> Setup {
    let start = Instant::now();
    let (bundle, pretrain_s) = pretrain();
    let deploy_start = Instant::now();
    let bundle = EdgeBundle::from_bytes(&bundle.to_bytes(PRECISION == Precision::Int8))
        .expect("bundle round trip");
    let fleet = Fleet::new(config()).expect("valid fleet config");
    let key = fleet
        .register_base(&bundle, PRECISION)
        .expect("register the shared base");
    let deploy_s = deploy_start.elapsed().as_secs_f64();
    let register_start = Instant::now();
    let (ids, receivers): (Vec<_>, Vec<_>) = (0..SESSIONS).map(|_| register(&fleet, key)).unzip();
    for s in (0..SESSIONS).step_by(CALIBRATE_EVERY) {
        let (label, windows) = &traffic.pool.calibration[person_of(s)];
        fleet
            .calibrate_session(ids[s], label, windows)
            .expect("calibrate a session");
    }
    Setup {
        fleet,
        bundle,
        key,
        ids,
        receivers,
        pretrain_s,
        deploy_s,
        register_s: register_start.elapsed().as_secs_f64(),
        total_s: start.elapsed().as_secs_f64(),
    }
}

fn register(fleet: &Fleet, key: ModelKey) -> (SessionId, Receiver<FleetReply>) {
    fleet
        .register_from_base(key, PRECISION)
        .expect("base is registered")
}

/// A prediction reduced to the bits the replay compares.
#[derive(PartialEq, Debug)]
struct Bits {
    label: String,
    confidence: u32,
    distances: Vec<u32>,
}

impl Bits {
    fn of(p: &Prediction) -> Self {
        Bits {
            label: p.label.clone(),
            confidence: p.confidence.to_bits(),
            distances: p.distances.iter().map(|d| d.to_bits()).collect(),
        }
    }
}

/// Windows served and batches run, from `ShardStats` deltas.
#[derive(Default, Clone, Copy)]
struct Served {
    windows: u64,
    batches: u64,
    rehydrations: u64,
}

impl Served {
    fn add(&mut self, before: &[ShardStats], after: &[ShardStats]) {
        self.windows += sum(after, |s| s.windows) - sum(before, |s| s.windows);
        self.batches += sum(after, |s| s.batches) - sum(before, |s| s.batches);
        self.rehydrations += sum(after, |s| s.rehydrations) - sum(before, |s| s.rehydrations);
    }

    fn mean_batch(&self) -> f64 {
        self.windows as f64 / self.batches.max(1) as f64
    }
}

fn sum(stats: &[ShardStats], f: impl Fn(&ShardStats) -> u64) -> u64 {
    stats.iter().map(f).sum()
}

/// What one traffic pass measured and saw.
#[derive(Default)]
struct Pass {
    open: OpenLoopLog,
    calibrate_ms: Vec<f64>,
    /// Per round: open-loop p50 and p90, saturation throughput.
    round_p50_us: Vec<f64>,
    round_p90_us: Vec<f64>,
    round_wps: Vec<f64>,
    submit_us: Vec<f64>,
    replies: u64,
    correct: u64,
    eligible: u64,
    rejected: u64,
    error_replies: u64,
    lost: u64,
    violations: Vec<String>,
    /// Every reply of the replayed sessions, in order.
    replayed: BTreeMap<usize, Vec<Bits>>,
    open_served: Served,
    sat_served: Served,
    /// Drift alerts, automatic recalibrations, recalibration rollbacks.
    heal: [u64; 3],
}

/// The generator's view of the fleet: submits, and receives replies in
/// submission order (one shard and one worker serve FIFO, so the oldest
/// outstanding window is always answered first).
struct Generator<'a> {
    setup: &'a Setup,
    traffic: &'a Traffic,
    traced: bool,
    /// `(arrival, seq)` of each outstanding window.
    outstanding: VecDeque<(usize, u64)>,
    pass: Pass,
}

impl Generator<'_> {
    fn submit(&mut self, arrival: usize) -> bool {
        let (session, w) = self.traffic.arrivals[arrival];
        let window = self.traffic.window(w);
        let t = Instant::now();
        let result = self.setup.fleet.submit(self.setup.ids[session], window);
        if self.traced {
            self.pass.submit_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        match result {
            Ok(seq) => {
                self.outstanding.push_back((arrival, seq));
                true
            }
            Err(e) => {
                self.pass.rejected += 1;
                self.pass.violations.push(format!("submit rejected: {e}"));
                false
            }
        }
    }

    /// Wait up to `timeout` for the oldest outstanding reply and check
    /// it. Returns the arrival it answered.
    fn receive(&mut self, timeout: Duration) -> Option<usize> {
        let &(arrival, seq) = self.outstanding.front()?;
        let (session, w) = self.traffic.arrivals[arrival];
        let id = self.setup.ids[session];
        let reply = match self.setup.receivers[session].recv_timeout(timeout) {
            Ok(reply) => reply,
            Err(RecvTimeoutError::Timeout) if timeout < REPLY_TIMEOUT => return None,
            Err(e) => {
                self.pass.lost += self.outstanding.len() as u64;
                self.pass.violations.push(format!(
                    "{} windows lost waiting for replies: {e}",
                    self.outstanding.len()
                ));
                self.outstanding.clear();
                return None;
            }
        };
        self.outstanding.pop_front();
        self.pass.replies += 1;
        if reply.session != id || reply.seq != seq {
            self.pass.violations.push(format!(
                "reply {} seq {} arrived for {id} seq {seq}",
                reply.session, reply.seq
            ));
        }
        match &reply.outcome {
            Ok(pred) => {
                self.pass.correct += u64::from(pred.label == self.traffic.pool.windows[w].0);
                let min_confidence = SelfHealingConfig::default().min_confidence;
                self.pass.eligible +=
                    u64::from(pred.confidence >= min_confidence && !pred.quality.is_degraded());
                if let Some(log) = self.pass.replayed.get_mut(&session) {
                    log.push(Bits::of(pred));
                }
            }
            Err(e) => {
                self.pass.error_replies += 1;
                self.pass.violations.push(format!("error reply: {e}"));
            }
        }
        Some(arrival)
    }

    /// Open loop: send each arrival at its due time whatever the fleet
    /// is doing; between sends, block on the oldest reply until the next
    /// arrival is due. (A polling generator would take CPU from the
    /// worker's int8 GEMM.)
    fn open_slice(&mut self, slice: Range<usize>) {
        let start = Instant::now();
        let due = &self.traffic.due;
        let mut next = slice.start;
        while (next < slice.end || !self.outstanding.is_empty()) && self.pass.lost == 0 {
            let now = start.elapsed().as_secs_f64();
            if next < slice.end && now >= due[next] {
                if self.submit(next) {
                    self.pass
                        .open
                        .sent(due[next], start.elapsed().as_secs_f64());
                }
                next += 1;
                continue;
            }
            if self.outstanding.is_empty() {
                std::thread::sleep(Duration::from_secs_f64(due[next] - now));
                continue;
            }
            let wait = if next < slice.end {
                Duration::from_secs_f64(due[next] - now)
            } else {
                REPLY_TIMEOUT
            };
            if let Some(arrival) = self.receive(wait) {
                self.pass
                    .open
                    .received(due[arrival], start.elapsed().as_secs_f64());
            }
        }
    }

    /// Closed loop at `DEPTH` outstanding windows: send the next window
    /// as soon as the oldest is answered. Returns windows per second.
    fn saturation_slice(&mut self, slice: Range<usize>) -> f64 {
        let start = Instant::now();
        let mut sent = 0u64;
        for arrival in slice {
            while self.outstanding.len() >= DEPTH && self.pass.lost == 0 {
                self.receive(REPLY_TIMEOUT);
            }
            if self.pass.lost > 0 {
                break;
            }
            sent += u64::from(self.submit(arrival));
        }
        while !self.outstanding.is_empty() && self.pass.lost == 0 {
            self.receive(REPLY_TIMEOUT);
        }
        sent as f64 / start.elapsed().as_secs_f64()
    }

    /// Time `calibrate_session` on fresh sessions that send no traffic,
    /// removing each afterwards.
    fn calibration_probes(&mut self, round: usize) {
        let fleet = &self.setup.fleet;
        for k in 0..PROBES_PER_ROUND {
            let (id, _replies) = register(fleet, self.setup.key);
            let (label, windows) =
                &self.traffic.pool.calibration[(round * PROBES_PER_ROUND + k) % PERSONS];
            let t = Instant::now();
            let calibrated = fleet.calibrate_session(id, label, windows);
            self.pass.calibrate_ms.push(t.elapsed().as_secs_f64() * 1e3);
            if let Err(e) = calibrated {
                self.pass
                    .violations
                    .push(format!("calibrate_session failed: {e}"));
            }
            fleet.deregister_delta(id).expect("remove a probe session");
        }
    }
}

fn run_pass(setup: &Setup, traffic: &Traffic, replay: &[usize], traced: bool) -> Pass {
    let mut generator = Generator {
        setup,
        traffic,
        traced,
        outstanding: VecDeque::new(),
        pass: Pass {
            replayed: replay.iter().map(|&s| (s, Vec::new())).collect(),
            ..Pass::default()
        },
    };
    let fleet = &setup.fleet;
    for (round, (open, sat)) in traffic.rounds.iter().enumerate() {
        let before = fleet.shard_stats();
        let seen = generator.pass.open.latency_us.len();
        generator.open_slice(open.clone());
        let mut slice = generator.pass.open.latency_us[seen..].to_vec();
        generator
            .pass
            .round_p50_us
            .push(percentile(&mut slice, 50.0));
        generator
            .pass
            .round_p90_us
            .push(percentile(&mut slice, 90.0));
        let mid = fleet.shard_stats();
        let wps = generator.saturation_slice(sat.clone());
        generator.pass.round_wps.push(wps);
        let after = fleet.shard_stats();
        generator.pass.open_served.add(&before, &mid);
        generator.pass.sat_served.add(&mid, &after);
        generator.calibration_probes(round);
    }
    let stats = fleet.shard_stats();
    generator.pass.heal = [
        sum(&stats, |s| s.drift_alerts),
        sum(&stats, |s| s.auto_recals),
        sum(&stats, |s| s.recal_rollbacks),
    ];
    // Anything still queued for a session now would be a reply nobody
    // asked for.
    let stray: usize = setup.receivers.iter().map(|rx| rx.try_iter().count()).sum();
    if stray > 0 {
        generator
            .pass
            .violations
            .push(format!("{stray} unexpected replies"));
    }
    generator.pass
}

/// A `workers == 0` fleet on the run's base model, driven by `pump`.
fn replay_fleet(setup: &Setup) -> (Fleet, ModelKey) {
    let fleet = Fleet::new(FleetConfig {
        workers: 0,
        ..config()
    })
    .expect("valid replay config");
    let key = fleet
        .register_base(&setup.bundle, PRECISION)
        .expect("register the shared base");
    (fleet, key)
}

/// Serve one session's windows of the run again on a fresh session of
/// `fleet`, queueing `per_pump` windows before each `pump`, and return
/// every reply.
fn replay_session(
    fleet: &mut Fleet,
    key: ModelKey,
    traffic: &Traffic,
    session: usize,
    per_pump: usize,
) -> Vec<Bits> {
    let (id, rx) = register(fleet, key);
    if session.is_multiple_of(CALIBRATE_EVERY) {
        let (label, windows) = &traffic.pool.calibration[person_of(session)];
        fleet
            .calibrate_session(id, label, windows)
            .expect("calibrate a replay session");
    }
    let windows: Vec<usize> = traffic
        .arrivals
        .iter()
        .filter(|(s, _)| *s == session)
        .map(|&(_, w)| w)
        .collect();
    for chunk in windows.chunks(per_pump) {
        for &w in chunk {
            fleet.submit(id, traffic.window(w)).expect("replay submit");
        }
        fleet.pump();
    }
    rx.try_iter()
        .map(|r| Bits::of(&r.outcome.expect("replay serves")))
        .collect()
}

/// Replay the chosen sessions' traffic one window per `pump`, the
/// sequential reference every schedule must match, and compare every
/// reply bit for bit.
fn replay_check(setup: &Setup, traffic: &Traffic, pass: &Pass) -> Vec<String> {
    let mut violations = Vec::new();
    let (mut fleet, key) = replay_fleet(setup);
    for (&session, served) in &pass.replayed {
        let replayed = replay_session(&mut fleet, key, traffic, session, 1);
        if replayed.len() != served.len() {
            violations.push(format!(
                "session {session}: {} replies served, {} replayed",
                served.len(),
                replayed.len()
            ));
        } else if let Some(i) = (0..served.len()).find(|&i| served[i] != replayed[i]) {
            violations.push(format!(
                "session {session}: reply {i} differs from the pump replay: {:?} vs {:?}",
                served[i], replayed[i]
            ));
        }
    }
    fleet.shutdown();
    violations
}

/// The batch-composition finding (README.md), measured: for every
/// session that committed an automatic recalibration in the run, serve
/// its windows `DEPTH` to a batch and count the replies that differ
/// from the one-window-per-`pump` reference. Reads 0 once a
/// recalibration reaches the rest of its batch.
fn stale_in_batch(setup: &Setup, traffic: &Traffic) -> usize {
    let (mut fleet, key) = replay_fleet(setup);
    let mut stale = 0;
    for (session, &id) in setup.ids.iter().enumerate() {
        let healed = setup
            .fleet
            .session_healing_stats(id)
            .expect("registered session")
            .is_some_and(|h| h.auto_recals > 0);
        if healed {
            let reference = replay_session(&mut fleet, key, traffic, session, 1);
            let batched = replay_session(&mut fleet, key, traffic, session, DEPTH);
            stale += reference
                .iter()
                .zip(&batched)
                .filter(|(a, b)| a != b)
                .count();
        }
    }
    fleet.shutdown();
    stale
}

/// Run `fleet_hot`. Untraced: several set-ups (median reported) and one
/// pass. Traced: at least two set-ups, an untraced and a traced pass on
/// the same traffic, then the per-layer timings.
pub fn run(seed: u64, seconds: u64, trace: bool, record: &mut Record) -> Outcome {
    let traffic = Traffic::new(seed, seconds);
    record.put("sessions", SESSIONS);
    record.put("precision", format!("{PRECISION:?}"));
    record.put("rounds", ROUNDS);
    record.put("open_rate_wps", RATE_WPS);
    record.put(
        "open_rate_basis",
        format!(
            "{SESSIONS} sessions x {WINDOWS_PER_USER_S} window/s (non-overlapping 1 s windows)"
        ),
    );
    record.put("open_arrivals", traffic.open_len());
    record.put("saturation_depth", DEPTH);
    record.put(
        "saturation_windows",
        traffic.arrivals.len() - traffic.open_len(),
    );
    record.put("calibration_probes", ROUNDS * PROBES_PER_ROUND);
    record.put("hot_capacity", "0 (all sessions hot, no cold store)");
    record.put("calibrated_sessions", SESSIONS.div_ceil(CALIBRATE_EVERY));
    record.put("popularity", "uniform");
    record.put("healing", true);
    record.put("open_loop_generator", "blocks on replies");
    record.put("pool_windows", traffic.pool.windows.len());

    // Sessions replayed bit for bit: a calibrated one and a few drawn
    // from the seed (every session sends the same number of windows).
    let mut rng = SeededRng::new(seed ^ 0xC3);
    let calibrated = rng.index(SESSIONS.div_ceil(CALIBRATE_EVERY));
    let mut replay: Vec<usize> = vec![CALIBRATE_EVERY * calibrated];
    while replay.len() < REPLAY_SESSIONS {
        let session = rng.index(SESSIONS);
        if !replay.contains(&session) {
            replay.push(session);
        }
    }

    // Set up several times and keep only the fleets the passes need:
    // the oldest is shut down before the next set-up starts.
    let (min_setups, kept) = if trace { (2, 2) } else { (5, 1) };
    let mut times: Vec<[f64; 4]> = Vec::new();
    let mut setups: VecDeque<Setup> = VecDeque::new();
    while more_setups(&times.iter().map(|t| t[0]).collect::<Vec<_>>(), min_setups) {
        if setups.len() == kept {
            setups.pop_front().expect("non-empty").fleet.shutdown();
        }
        let s = set_up(&traffic);
        times.push([s.total_s, s.pretrain_s, s.deploy_s, s.register_s]);
        setups.push_back(s);
    }
    let med = |i: usize| median(&times.iter().map(|t| t[i]).collect::<Vec<_>>());

    let last = setups.pop_back().expect("at least one set-up");
    let (plain, traced) = match setups.pop_back() {
        Some(first) => {
            let plain = run_pass(&first, &traffic, &replay, false);
            first.fleet.shutdown();
            (plain, Some(run_pass(&last, &traffic, &replay, true)))
        }
        None => (run_pass(&last, &traffic, &replay, false), None),
    };

    let mut violations = plain.violations.clone();
    violations.extend(replay_check(&last, &traffic, &plain));
    let attempted = traffic.arrivals.len() as u64;
    let failed = plain.rejected + plain.error_replies + plain.lost;
    if plain.replies + plain.lost + plain.rejected != attempted {
        violations.push(format!(
            "{attempted} windows attempted but {} answered, {} lost, {} rejected",
            plain.replies, plain.lost, plain.rejected
        ));
    }
    let accuracy = plain.correct as f64 / plain.replies.max(1) as f64;
    record.put("accuracy", accuracy);
    record.put("heal_counts", format!("{:?}", plain.heal));

    let mut m = Metrics::default();
    if let Some(traced) = traced {
        violations.extend(traced.violations.iter().cloned());
        if traced.correct != plain.correct || traced.heal != plain.heal {
            violations.push(format!(
                "same seed, different results: correct {} vs {}, heal counts {:?} vs {:?}",
                plain.correct, traced.correct, plain.heal, traced.heal
            ));
        }
        let mut figures = layer_figures(&last, &traffic, &traced);
        figures.e2e_p50_us = median(&plain.round_p50_us);
        figures.e2e_p90_us = median(&plain.round_p90_us);
        figures.e2e_update_ms = median(&plain.calibrate_ms);
        figures.e2e_p99_us = percentile(&mut plain.open.latency_us.clone(), 99.0);
        figures.failed_ratio = failed as f64 / attempted as f64;
        figures.pretrain_s = med(1);
        figures.deploy_s = med(2);
        figures.register_s = med(3);
        figures.put(&mut m);
    } else {
        let stats = last.fleet.shard_stats();
        let session_bytes: usize = stats.iter().map(|s| s.resident_bytes).sum();
        let bytes_per_user =
            (session_bytes + last.fleet.bases_resident_bytes()) as f64 / SESSIONS as f64;
        m.put("setup_s", med(0), "s");
        m.put("latency_p50_us", median(&plain.round_p50_us), "us");
        m.put(
            "throughput_wps",
            second_best(&plain.round_wps, false),
            "1/s",
        );
        m.put("accuracy", accuracy, "ratio");
        m.put("ok_ratio", 1.0 - failed as f64 / attempted as f64, "ratio");
        m.put("bytes_per_user", bytes_per_user, "B");
        m.put("peak_rss_mb", peak_rss_mb(), "MB");
    }
    last.fleet.shutdown();
    Outcome {
        attempted,
        failed,
        violations,
        metrics: m,
    }
}

/// Per-layer figures of the traced pass, plus the layer functions timed
/// on this workload's windows, base model and deltas.
fn layer_figures(setup: &Setup, traffic: &Traffic, pass: &Pass) -> LayerFigures {
    let pool: Vec<Vec<Vec<f32>>> = traffic
        .pool
        .windows
        .iter()
        .map(|(_, w)| w.clone())
        .collect();
    let device = EdgeDevice::deploy(
        setup.bundle.clone(),
        EdgeConfig {
            precision: PRECISION,
            ..EdgeConfig::default()
        },
    )
    .expect("deploy the base");
    let state = device.state();
    let pipeline = &setup.bundle.pipeline;
    let rows = layers::feature_rows(pipeline, &pool);
    let (guard_us, features_us, process_us) = layers::dsp(pipeline, &pool);
    let (b1_us, b64_row_us) = layers::embed(&state.model, &rows);
    let classify_us = layers::ncm(&state.model, &state.ncm, &rows);

    let calibrated: Vec<SessionId> = (0..SESSIONS)
        .step_by(CALIBRATE_EVERY)
        .take(64)
        .map(|s| setup.ids[s])
        .collect();
    let deltas: Vec<Vec<u8>> = calibrated
        .iter()
        .map(|&id| {
            setup
                .fleet
                .session_delta(id)
                .expect("delta session")
                .to_bytes()
        })
        .collect();
    // Before the page-outs below, while every session is hot.
    let stale = stale_in_batch(setup, traffic);
    let (save_us, load_us, decode_us) =
        layers::spool(&deltas, std::path::Path::new(".perfbench_spool"));
    let mut page_out_us = Vec::new();
    for &id in &calibrated {
        let t = Instant::now();
        if setup.fleet.page_out(id).expect("page out a delta session") {
            page_out_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    let windows = pass.open_served.windows + pass.sat_served.windows;
    let rehydrations = pass.open_served.rehydrations + pass.sat_served.rehydrations;
    LayerFigures {
        guard_us,
        features_us,
        process_us,
        b1_us,
        b64_row_us,
        macs: layers::macs_per_window(&state.model),
        weight_bytes: state.model.resident_bytes() as f64,
        classify_us,
        ncm_rows: state.ncm.num_rows() as f64,
        save_us,
        load_us,
        decode_us,
        delta_bytes: deltas.iter().map(Vec::len).sum::<usize>() as f64 / deltas.len().max(1) as f64,
        submit_us: median(&pass.submit_us),
        page_out_us: median(&page_out_us),
        mean_batch: pass.sat_served.mean_batch(),
        mean_batch_open: pass.open_served.mean_batch(),
        hit_ratio: 1.0 - rehydrations as f64 / windows.max(1) as f64,
        rejected: pass.rejected as f64,
        lag_p99_us: percentile(&mut pass.open.lag_us.clone(), 99.0),
        eligible_ratio: pass.eligible as f64 / pass.replies.max(1) as f64,
        drift_alerts: pass.heal[0] as f64,
        auto_recals: pass.heal[1] as f64,
        recal_rollbacks: pass.heal[2] as f64,
        stale_in_batch: stale as f64,
        traced_p50_us: median(&pass.round_p50_us),
        ..LayerFigures::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sessions_take_turns() {
        let traffic = Traffic::new(7, 1);
        let first: std::collections::BTreeSet<usize> = traffic.arrivals[..SESSIONS]
            .iter()
            .map(|&(s, _)| s)
            .collect();
        assert_eq!(first.len(), SESSIONS, "every session once per turn");
        for i in SESSIONS..traffic.arrivals.len() {
            assert_eq!(traffic.arrivals[i].0, traffic.arrivals[i - SESSIONS].0);
        }
    }
}
