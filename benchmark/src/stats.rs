//! The benchmark's own statistics: percentiles, the tail rule, open-loop
//! due-time accounting, and matching reads to epoch generations.
//!
//! Everything here is pure so it can be unit-tested without a daemon.

use std::time::{Duration, Instant};

/// Percentiles the tail rule chooses from, highest last.
const TAIL_LADDER: [f64; 10] = [50.0, 75.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.9, 99.95, 99.99];

/// Samples that must lie beyond a percentile for it to count as the tail.
pub const TAIL_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples. The small
/// slack keeps decimal percentiles such as 99.9 from rounding up a rank
/// (99.9 / 100 * 10000 is 9990.000000000002 in floating point).
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`TAIL_BEYOND`] samples above its rank, or `None` when even the median
/// has fewer (fewer than 20 samples).
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER.iter().rev().copied().find(|&p| n - rank(n, p) >= TAIL_BEYOND)
}

/// Median and tail of a sample. With too few samples for the tail rule
/// the tail is the maximum and its percentile is reported as 100.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub tail: f64,
    pub tail_pct: f64,
    pub max: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let max = s[s.len() - 1];
        let (tail, tail_pct) = match tail_percentile(s.len()) {
            Some(p) => (percentile(&s, p), p),
            None => (max, 100.0),
        };
        Some(Self { n: s.len(), p50: percentile(&s, 50.0), tail, tail_pct, max })
    }
}

/// Samples per window of [`windowed`] unless a workload says otherwise.
pub const WINDOW: usize = 250;

/// Median and tail of a phase taken per window of consecutive samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Windowed {
    /// Median over the windows of each window's median.
    pub p50: f64,
    /// Median over the windows of each window's tail.
    pub tail: f64,
    /// The lowest tail percentile any window used.
    pub pct: f64,
    pub windows: usize,
}

/// Cuts a phase into consecutive windows of `window` samples (in send
/// order; the last window takes the remainder) and takes the median over
/// the windows of each window's median and tail. A stall of the machine
/// lands in few windows and moves these figures only if it covers most
/// of them.
pub fn windowed(samples: &[f64], window: usize) -> Option<Windowed> {
    let windows = (samples.len() / window.max(1)).max(1);
    let size = samples.len() / windows;
    let each: Vec<Summary> = (0..windows)
        .map(|w| {
            let end = if w + 1 == windows { samples.len() } else { (w + 1) * size };
            Summary::of(&samples[w * size..end])
        })
        .collect::<Option<_>>()?;
    let of = |f: fn(&Summary) -> f64| median(&each.iter().map(f).collect::<Vec<_>>());
    Some(Windowed {
        p50: of(|s| s.p50),
        tail: of(|s| s.tail),
        pct: each.iter().map(|s| s.tail_pct).fold(f64::INFINITY, f64::min),
        windows,
    })
}

/// Median of a non-empty sample.
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    percentile(&s, 50.0)
}

/// For samples taken in rounds of `per_round` (sample `k` of every round
/// measures the same item), each item's median over the rounds. A stall
/// of the machine lands in one round and moves no item's median.
pub fn medians_by_item(samples: &[f64], per_round: usize) -> Vec<f64> {
    assert!(per_round > 0 && samples.len().is_multiple_of(per_round), "whole rounds only");
    (0..per_round)
        .map(|k| {
            let item: Vec<f64> = samples.iter().skip(k).step_by(per_round).copied().collect();
            median(&item)
        })
        .collect()
}

/// Completions counted per second since a phase's start.
#[derive(Clone, Debug)]
pub struct PerSecond {
    start: Instant,
    counts: Vec<f64>,
    last: Instant,
}

impl PerSecond {
    pub fn new(start: Instant) -> Self {
        Self { start, counts: Vec::new(), last: start }
    }

    /// Counts one completion at `at`.
    pub fn add(&mut self, at: Instant) {
        let k = at.saturating_duration_since(self.start).as_secs() as usize;
        if self.counts.len() <= k {
            self.counts.resize(k + 1, 0.0);
        }
        self.counts[k] += 1.0;
        self.last = self.last.max(at);
    }

    /// Adds another counter of the same phase (another connection).
    pub fn merge(&mut self, other: &PerSecond) {
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0.0);
        }
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.last = self.last.max(other.last);
    }

    /// Completions per second as the median over the whole seconds up to
    /// the last completion (the last, partial second is dropped; with no
    /// whole second, the overall rate). A stall of the machine lands in
    /// few seconds and moves this figure only if it covers most of them.
    pub fn median_rate(&self) -> f64 {
        let span = self.last.saturating_duration_since(self.start).as_secs_f64();
        let whole = span as usize;
        if whole == 0 {
            return self.counts.iter().sum::<f64>() / span.max(1e-9);
        }
        median(&self.counts[..whole])
    }
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One open-loop request as the generator saw it.
#[derive(Clone, Copy, Debug)]
pub struct Timing {
    /// When the schedule said to send it.
    pub due: Instant,
    /// When it was written to the socket.
    pub sent: Instant,
    /// When its response arrived (`None`: unanswered at the deadline).
    pub done: Option<Instant>,
}

impl Timing {
    /// Latency from the due time, which charges a stalled generator's
    /// delay to the requests that waited behind the stall.
    pub fn latency_ms(&self) -> Option<f64> {
        self.done.map(|d| ms(d.saturating_duration_since(self.due)))
    }

    /// How late the generator sent the request.
    pub fn late_ms(&self) -> f64 {
        ms(self.sent.saturating_duration_since(self.due))
    }
}

/// Send offsets of a fixed-rate schedule: `count` requests at `rate` per
/// second, the first at `phase` of one interval.
pub fn fixed_rate(rate: f64, count: usize, phase: f64) -> Vec<Duration> {
    let step = 1.0 / rate;
    (0..count).map(|i| Duration::from_secs_f64((i as f64 + phase) * step)).collect()
}

/// For each write (its due time and the generation that made it visible),
/// the time until the first read answered at that generation or later.
///
/// `reads` are `(arrival, generation)` in arrival order. A write whose
/// generation no read reached is `None`: it was never seen fresh.
pub fn freshness_ms(writes: &[(Instant, u64)], reads: &[(Instant, u64)]) -> Vec<Option<f64>> {
    writes
        .iter()
        .map(|&(due, generation)| {
            reads
                .iter()
                .find(|&&(at, g)| g >= generation && at >= due)
                .map(|&(at, _)| ms(at.duration_since(due)))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_has_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(1000), Some(99.0));
        // 999 samples: p99 has rank 990 and only 9 beyond
        assert_eq!(tail_percentile(999), Some(98.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        for n in 20..5000 {
            let p = tail_percentile(n).expect("n >= 20");
            assert!(n - rank(n, p) >= TAIL_BEYOND, "n={n} p={p}");
            let higher = TAIL_LADDER.iter().find(|&&q| q > p);
            if let Some(&q) = higher {
                assert!(n - rank(n, q) < TAIL_BEYOND, "n={n}: {q} also qualifies");
            }
        }
    }

    #[test]
    fn summary_picks_the_tail_value() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = Summary::of(&samples).unwrap();
        assert_eq!((s.p50, s.tail, s.tail_pct, s.max), (500.0, 990.0, 99.0, 1000.0));
        let few = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((few.p50, few.tail, few.tail_pct), (2.0, 3.0, 100.0));
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn windowed_figures_are_medians_over_windows() {
        // three windows of 1000; one holds a stall of 600 slow samples
        let mut samples: Vec<f64> = (0..3000).map(|i| f64::from(i % 1000)).collect();
        for s in &mut samples[1000..1600] {
            *s = 1e6;
        }
        let w = windowed(&samples, 1000).unwrap();
        assert_eq!((w.p50, w.tail, w.pct, w.windows), (499.0, 989.0, 99.0, 3));
        // a short phase is a single window
        let short: Vec<f64> = (1..=100).map(f64::from).collect();
        let w = windowed(&short, WINDOW).unwrap();
        assert_eq!((w.p50, w.tail, w.pct, w.windows), (50.0, 90.0, 90.0, 1));
        assert_eq!(windowed(&[], WINDOW), None);
    }

    #[test]
    fn medians_by_item_take_each_item_over_rounds() {
        // three rounds of two items; round 2 was stalled
        let samples = [1.0, 10.0, 50.0, 500.0, 2.0, 12.0];
        assert_eq!(medians_by_item(&samples, 2), vec![2.0, 12.0]);
    }

    #[test]
    fn latency_counts_from_due_and_lateness_from_send() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        // due at 10, the generator stalled until 25, answered at 30
        let t = Timing { due: at(10), sent: at(25), done: Some(at(30)) };
        assert_eq!(t.latency_ms(), Some(20.0));
        assert_eq!(t.late_ms(), 15.0);
        let lost = Timing { due: at(10), sent: at(10), done: None };
        assert_eq!(lost.latency_ms(), None);
        assert_eq!(lost.late_ms(), 0.0);
    }

    #[test]
    fn median_rate_ignores_a_stalled_second() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        // 10/s for three seconds over two connections, a stalled fourth
        // second with 2, then a partial fifth second
        let mut a = PerSecond::new(t0);
        let mut b = PerSecond::new(t0);
        for i in 0..30 {
            if i % 2 == 0 {
                a.add(at(i * 100 + 50))
            } else {
                b.add(at(i * 100 + 50))
            }
        }
        for ms in [3100, 3900, 4200] {
            b.add(at(ms));
        }
        a.merge(&b);
        assert_eq!(a.median_rate(), 10.0);
        let mut short = PerSecond::new(t0);
        short.add(at(400));
        assert_eq!(short.median_rate(), 2.5);
    }

    #[test]
    fn fixed_rate_spaces_requests_evenly() {
        let offs = fixed_rate(100.0, 3, 0.5);
        let got: Vec<u128> = offs.iter().map(|d| d.as_micros()).collect();
        assert_eq!(got, vec![5000, 15000, 25000]);
    }

    #[test]
    fn freshness_matches_the_first_read_at_the_epoch() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let reads = [(at(5), 0), (at(12), 1), (at(20), 1), (at(31), 3), (at(40), 3)];
        let writes = [(at(0), 1), (at(10), 1), (at(15), 2), (at(25), 3), (at(35), 4)];
        let got = freshness_ms(&writes, &reads);
        // generation 2 is first seen through the read at generation 3
        assert_eq!(got, vec![Some(12.0), Some(2.0), Some(16.0), Some(6.0), None]);
        // a read answered before the write was due never counts
        let early = freshness_ms(&[(at(13), 1)], &reads);
        assert_eq!(early, vec![Some(7.0)]);
    }
}
