//! Host-speed calibration.
//!
//! The benchmark runs on a host whose cores are shared with other
//! machines, and their load changes how fast the same instructions run.
//! On a 2-vCPU host, one `fig8_kernel` call took between 128 and 240 ms of
//! its thread's own CPU time (no run-queue wait, no steal) within minutes,
//! and the median of a 12-second stretch moved between 180 and 272 ms.  That
//! drift is wider than any useful regression bound.
//!
//! So every timing the benchmark gates is scaled to a reference speed.  A
//! fixed reference kernel, which is the benchmark's own code and calls
//! nothing in the program, is timed at points where the program is idle
//! (between closed-loop operations, or between slices of the two-client
//! window); each timing is multiplied by `REFERENCE_MS / reference time`,
//! the reference time being the mean of the calibrations just before and
//! just after it.  The reference kernel is a branch-free bitonic network
//! over 48-byte records, the same access pattern as the join kernel's
//! sorts.  On the host above, the ratio of join time to reference time
//! stayed within ±3 % while the raw join time moved by ±11 %.  The
//! unscaled values are in the run record.
//!
//! None of the reference's code is the program's, and it runs while the
//! program has no request in flight, so a change to the program moves it
//! only by leaving work running while the program is idle.

use std::time::{Duration, Instant};

/// The reference kernel's time, rounded, on an uncontended core of the
/// host the benchmark was tuned on (a 2.1 GHz Xeon vCPU), so a scaled time
/// reads as about milliseconds on that core.
pub const REFERENCE_MS: f64 = 1.0;

/// Calibrate again once this much of the window has passed.
pub const EVERY: Duration = Duration::from_millis(100);

/// Records the reference kernel sorts.
const RECORDS: usize = 1 << 12;

#[derive(Clone, Copy)]
struct Record {
    key: u64,
    payload: [u64; 5],
}

/// Branch-free bitonic sort of a power-of-two slice by `key`.
fn bitonic(v: &mut [Record]) {
    let n = v.len();
    let mut k = 2;
    while k <= n {
        let mut j = k / 2;
        while j > 0 {
            for i in 0..n {
                let l = i ^ j;
                if l > i {
                    let ascending = i & k == 0;
                    let (a, b) = (v[i], v[l]);
                    let mask = (((a.key > b.key) == ascending) as u64).wrapping_neg();
                    v[i].key = (a.key & !mask) | (b.key & mask);
                    v[l].key = (b.key & !mask) | (a.key & mask);
                    for t in 0..5 {
                        v[i].payload[t] = (a.payload[t] & !mask) | (b.payload[t] & mask);
                        v[l].payload[t] = (b.payload[t] & !mask) | (a.payload[t] & mask);
                    }
                }
            }
            j /= 2;
        }
        k *= 2;
    }
}

/// The reference kernel's time in milliseconds: the median of three sorts
/// of the same fixed input.
pub fn reference_ms() -> f64 {
    let mut x = 0x2545_f491_4f6c_dd1d_u64;
    let input: Vec<Record> = (0..RECORDS as u64)
        .map(|i| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            Record {
                key: x,
                payload: [i; 5],
            }
        })
        .collect();
    let mut times: Vec<f64> = (0..3)
        .map(|_| {
            let mut v = input.clone();
            let start = Instant::now();
            bitonic(&mut v);
            let d = start.elapsed();
            std::hint::black_box(&v);
            d.as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(|a, b| a.total_cmp(b));
    times[1]
}

/// The factor that scales a time measured now to the reference speed.
pub fn factor_now() -> f64 {
    REFERENCE_MS / reference_ms()
}

/// Calibrates through a timed window.  The window is cut into epochs at
/// the calibrations; a time measured in epoch `e` is scaled by the mean of
/// the reference times at its two ends, which follows the host's speed
/// better than either end alone.
pub struct HostClock {
    segment: Instant,
    calibration: Calibration,
}

/// The calibrations of a finished window.
#[derive(Debug, Default)]
pub struct Calibration {
    /// Reference time at the start of each epoch, and at the window's end.
    pub reference_ms: Vec<f64>,
    /// Length of each epoch in seconds, calibrations excluded.
    epoch_secs: Vec<f64>,
}

impl HostClock {
    /// Calibrate once; the first epoch starts after it.
    pub fn start() -> HostClock {
        let mut clock = HostClock {
            segment: Instant::now(),
            calibration: Calibration::default(),
        };
        clock.calibrate();
        clock
    }

    fn calibrate(&mut self) {
        self.calibration.reference_ms.push(reference_ms());
        self.segment = Instant::now();
    }

    /// Call only while the program is idle: ends the epoch and calibrates
    /// once [`EVERY`] has passed since the last calibration.
    pub fn tick(&mut self) {
        if self.segment.elapsed() >= EVERY {
            self.calibration
                .epoch_secs
                .push(self.segment.elapsed().as_secs_f64());
            self.calibrate();
        }
    }

    /// The epoch timings taken from now until the next tick fall in.
    pub fn epoch(&self) -> usize {
        self.calibration.reference_ms.len() - 1
    }

    /// End the window with a last calibration.
    pub fn finish(mut self) -> Calibration {
        self.calibration
            .epoch_secs
            .push(self.segment.elapsed().as_secs_f64());
        self.calibrate();
        self.calibration
    }
}

impl Calibration {
    /// The factor that scales a time measured in `epoch` to the reference
    /// speed.
    pub fn factor(&self, epoch: usize) -> f64 {
        let r = &self.reference_ms;
        2.0 * REFERENCE_MS / (r[epoch] + r[epoch + 1])
    }

    /// The window's length at the reference speed.
    pub fn scaled_secs(&self) -> f64 {
        self.epoch_secs
            .iter()
            .enumerate()
            .map(|(e, secs)| secs * self.factor(e))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epochs_scale_by_the_mean_of_their_two_calibrations() {
        let c = Calibration {
            reference_ms: vec![REFERENCE_MS, 3.0 * REFERENCE_MS, REFERENCE_MS],
            epoch_secs: vec![1.0, 2.0],
        };
        assert_eq!(c.factor(0), 0.5);
        assert_eq!(c.factor(1), 0.5);
        assert_eq!(c.scaled_secs(), 1.5);
    }
}
