//! Host-speed calibration.
//!
//! The host shares its cores and caches with other work, so its speed
//! drifts between runs and within one, by up to 2x for the simulator, in
//! states that last seconds. Before every op the benchmark times a fixed
//! burst of work that runs none of the program's code: updates, inserts
//! and removals on a hash map of 64 Ki keys with a multiply-rotate hash,
//! the access pattern of the simulator's per-line tables. Host times are
//! then reported as *calibrated* times: each op's host time scaled by the
//! burst's nominal length over the median of the bursts around the op,
//! raised to [`ELASTICITY`]. A change to the program's speed shows in full;
//! a change of the host's speed cancels to the extent that the burst feels
//! it as the program does. On the host the benchmark was tuned on, hash-map
//! bursts (16 Ki to 256 Ki keys alike) tracked the simulator's swings;
//! arithmetic-only loops, random updates of 256 KiB to 4 MiB tables and
//! allocation loops did not. A burst on two threads tracked two-shard runs
//! no better than this one-thread burst.

use crate::stats::median;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::hint::black_box;
use std::time::Instant;

/// Keys the burst's map holds at most.
const KEY_MASK: u64 = (1 << 16) - 1;

/// Map operations per burst.
const STEPS: u32 = 100_000;

/// Nominal length of one burst, in ms: a calibrated time is the host time
/// on a host where the burst takes this long. On the host the benchmark
/// was tuned on (2 vCPUs of an Intel Xeon guest) it took 1.4–3.0 ms.
pub const NOMINAL_MS: f64 = 2.0;

/// Bursts on each side of an op whose median calibrates it.
pub const WINDOW: usize = 8;

/// How strongly the program's host time follows the burst's: a burst
/// `k` times slower goes with ops `k^ELASTICITY` times slower. Fitted on
/// the host the benchmark was tuned on, over 30 runs (ten seeds per
/// workload) whose every op and burst was recorded: 1 over-corrected the
/// two-shard workloads, whose runs in slow host states then read 5–10%
/// faster than in fast ones; 0.8 gave the smallest spread over all three
/// workloads (`deploy` alone fitted 0.9–1, `repair` alone 0.7).
pub const ELASTICITY: f64 = 0.8;

/// A multiply-rotate hasher of one `u64`, the benchmark's own.
#[derive(Default)]
struct MulRotate(u64);

impl Hasher for MulRotate {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517C_C1B7_2722_0A95);
    }
}

/// The burst's state: its map and generator.
pub struct Calibrator {
    map: HashMap<u64, u64, BuildHasherDefault<MulRotate>>,
    state: u64,
}

impl Default for Calibrator {
    /// A calibrator whose map is already filled to its steady size.
    fn default() -> Self {
        let mut cal = Calibrator {
            map: HashMap::default(),
            state: 0x9E37_79B9_7F4A_7C15,
        };
        for _ in 0..4 {
            cal.burst();
        }
        cal
    }
}

impl Calibrator {
    /// Runs one burst and returns its host time in ms.
    pub fn burst(&mut self) -> f64 {
        let start = Instant::now();
        let mut x = self.state;
        let mut sum = 0u64;
        for _ in 0..STEPS {
            // xorshift64: the next key.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = x & KEY_MASK;
            let value = self.map.entry(key).or_insert(0);
            *value = value.wrapping_add(x);
            sum = sum.wrapping_add(*value);
            if x & 15 == 0 {
                self.map.remove(&(key ^ 1));
            }
        }
        self.state = black_box(x ^ sum);
        start.elapsed().as_secs_f64() * 1e3
    }
}

/// Factor that turns host time into calibrated time: the nominal burst
/// length over the median of `bursts`, raised to [`ELASTICITY`]. 1 when
/// there are none.
pub fn scale(bursts: &[f64]) -> f64 {
    median(bursts).map_or(1.0, |ms| (NOMINAL_MS / ms).powf(ELASTICITY))
}

/// Factor for each of a sequence of ops, where `bursts[i]` ran just before
/// op `i`: [`scale`] of the bursts at most [`WINDOW`] ops away.
pub fn local_scales(bursts: &[f64]) -> Vec<f64> {
    (0..bursts.len())
        .map(|i| {
            let end = (i + WINDOW + 1).min(bursts.len());
            scale(&bursts[i.saturating_sub(WINDOW)..end])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_nominal_over_the_median_burst() {
        assert_eq!(scale(&[]), 1.0);
        assert_eq!(scale(&[NOMINAL_MS]), 1.0);
        // A host twice as slow scales by 2^-ELASTICITY; one outlier does
        // not move it.
        assert_eq!(
            scale(&[2.0 * NOMINAL_MS, 2.0 * NOMINAL_MS, 100.0 * NOMINAL_MS]),
            0.5f64.powf(ELASTICITY)
        );
    }

    #[test]
    fn local_scales_follow_a_change_of_host_speed() {
        let n = NOMINAL_MS;
        let len = 4 * WINDOW;
        let bursts: Vec<f64> = (0..len)
            .map(|i| if i < len / 2 { n } else { 2.0 * n })
            .collect();
        let scales = local_scales(&bursts);
        assert_eq!(scales.len(), len);
        // Ops further than the window from the change see only one speed.
        assert!(scales[..len / 2 - WINDOW].iter().all(|&s| s == 1.0));
        assert!(scales[len / 2 + WINDOW..]
            .iter()
            .all(|&s| s == 0.5f64.powf(ELASTICITY)));
        // One slow burst among steady ones moves no factor.
        let mut steady = vec![n; len];
        steady[len / 2] = 9.0 * n;
        assert!(local_scales(&steady).iter().all(|&s| s == 1.0));
        assert!(local_scales(&[]).is_empty());
    }

    #[test]
    fn bursts_take_time() {
        let mut cal = Calibrator::default();
        assert!((0..3).all(|_| cal.burst() > 0.0));
    }
}
