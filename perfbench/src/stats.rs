//! Percentiles, the second-best-round reduction, the arrival schedule
//! and open-loop accounting — the helpers the workloads share.

use magneto_tensor::SeededRng;

/// Nearest-rank percentile (`p` in `0..=100`) of `values`, found by
/// selection rather than a full sort. Reorders `values`. Returns 0 for
/// an empty slice.
pub fn percentile(values: &mut [f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let n = values.len();
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1;
    let (_, v, _) = values.select_nth_unstable_by(rank, f64::total_cmp);
    *v
}

/// Nearest-rank median of `values` (copied, so the caller keeps its
/// order).
pub fn median(values: &[f64]) -> f64 {
    percentile(&mut values.to_vec(), 50.0)
}

/// The second-best of per-round figures: the second lowest of
/// latencies (`lower_is_better`) or the second highest of rates. On a
/// shared host the same code runs up to ~1.4x slower for phases of
/// several seconds, so a median over rounds lands in whichever phase a
/// run covered most; a near-best round does not. A slower program slows
/// every round, so it still shows. The second rather than the best
/// round, so one lucky round does not set the figure.
pub fn second_best(rounds: &[f64], lower_is_better: bool) -> f64 {
    let mut sorted = rounds.to_vec();
    sorted.sort_by(f64::total_cmp);
    if !lower_is_better {
        sorted.reverse();
    }
    sorted.get(1).or(sorted.first()).copied().unwrap_or(0.0)
}

/// Whether to time another set-up, given the set-up times so far: at
/// least `min`, and more while they are short, so the median of a quick
/// set-up rests on enough samples (at most 10, about 1.5 s in all).
pub fn more_setups(done_s: &[f64], min: usize) -> bool {
    done_s.len() < min || (done_s.len() < 10 && done_s.iter().sum::<f64>() < 1.5)
}

/// A uniform draw in `[0, 1)` with 53 bits of resolution.
fn unit(rng: &mut SeededRng) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// Due times, in seconds from the start of the phase, of `count`
/// Poisson arrivals at `rate` per second: exponential gaps drawn from
/// `seed`.
pub fn poisson_due(rate: f64, count: usize, seed: u64) -> Vec<f64> {
    let mut rng = SeededRng::new(seed);
    let mut t = 0.0;
    (0..count)
        .map(|_| {
            t += -(1.0 - unit(&mut rng)).ln() / rate;
            t
        })
        .collect()
}

/// Open-loop timing of one phase. Every arrival is timed from when it
/// was **due**, not from when the generator got round to sending it, so
/// a generator stall shows up as latency of the arrivals it delayed.
/// How late each send was is kept separately as the generator's lag.
#[derive(Default)]
pub struct OpenLoopLog {
    /// Reply latency of each completed arrival, µs from its due time.
    pub latency_us: Vec<f64>,
    /// How late each send was, µs after its due time.
    pub lag_us: Vec<f64>,
}

impl OpenLoopLog {
    /// An arrival due at `due_s` was sent at `sent_s` (seconds since the
    /// phase started).
    pub fn sent(&mut self, due_s: f64, sent_s: f64) {
        self.lag_us.push(((sent_s - due_s) * 1e6).max(0.0));
    }

    /// The reply to an arrival due at `due_s` was received at
    /// `received_s`.
    pub fn received(&mut self, due_s: f64, received_s: f64) {
        self.latency_us.push((received_s - due_s) * 1e6);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sorted_rank(values: &[f64], p: f64) -> f64 {
        let mut s = values.to_vec();
        s.sort_by(f64::total_cmp);
        let rank = ((p / 100.0 * s.len() as f64).ceil() as usize).clamp(1, s.len()) - 1;
        s[rank]
    }

    #[test]
    fn percentile_matches_an_exact_sort() {
        let mut rng = SeededRng::new(7);
        for n in [1usize, 2, 3, 10, 99, 1000, 4097] {
            let values: Vec<f64> = (0..n).map(|_| unit(&mut rng) * 1e4).collect();
            for p in [0.0, 1.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
                let got = percentile(&mut values.clone(), p);
                assert_eq!(
                    got.to_bits(),
                    sorted_rank(&values, p).to_bits(),
                    "n={n} p={p}"
                );
            }
        }
        assert_eq!(percentile(&mut [], 50.0), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn second_best_skips_the_single_best_round() {
        let rounds = [5.0, 1.0, 9.0, 3.0, 7.0];
        assert_eq!(second_best(&rounds, true), 3.0);
        assert_eq!(second_best(&rounds, false), 7.0);
        assert_eq!(second_best(&[4.0], true), 4.0);
        assert_eq!(second_best(&[], false), 0.0);
    }

    #[test]
    fn poisson_schedule_repeats_and_hits_its_rate() {
        let a = poisson_due(400.0, 40_000, 11);
        assert_eq!(a, poisson_due(400.0, 40_000, 11));
        assert_ne!(a, poisson_due(400.0, 40_000, 12));
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        let rate = a.len() as f64 / a[a.len() - 1];
        assert!((rate / 400.0 - 1.0).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        let mut log = OpenLoopLog::default();
        // Due at 1.000 s, sent 3 ms late by a stalled generator, answered
        // 1 ms after the send: the arrival waited 4 ms, not 1 ms.
        log.sent(1.000, 1.003);
        log.received(1.000, 1.004);
        assert!((log.latency_us[0] - 4000.0).abs() < 1e-6);
        assert!((log.lag_us[0] - 3000.0).abs() < 1e-6);
        // A send ahead of its due time is no lag.
        log.sent(2.0, 1.999);
        assert_eq!(log.lag_us[1], 0.0);
    }
}
