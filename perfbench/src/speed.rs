//! Timing on a shared host: process CPU time, and a speedometer whose
//! readings take the host's current speed out of it.
//!
//! The 2-vCPU KVM host the benchmark was tuned on disturbs wall time in two
//! ways, each for stretches from seconds to minutes.
//!
//! 1. Waking a thread can wait on the host. The coordinator hands every
//!    round between its driving thread and two pool workers; in some runs
//!    those hand-offs idled the process for a third of each round. The same
//!    `coord-churn` seed took 117 ms of wall time a round in one run and
//!    70 ms in the next, for 84 and 75 ms of CPU time. So the benchmark
//!    times a round by the CPU time all threads of the process spent in it
//!    ([`process_cpu_ms`]). On `engine-train`, which runs on one thread,
//!    that equals wall time; on the coordinator workloads it is the work a
//!    round costs, without what two workers save by running side by side.
//! 2. The speed the host gives a running thread moves between a fast and a
//!    slow regime about 2x apart, with no page faults or stolen time to
//!    show for it. The same `engine-train` seed ran its rounds at 16 ms in
//!    one stretch and 34 ms in the next, and over ten 30-second runs the
//!    plain median round read 14 to 27 ms.
//!
//! For the second, three small kernels of the benchmark's own, frozen so that no change to
//! the program moves them, slow down with the host by the same factor as
//! the program's rounds: a scalar MLP forward and backward pass, hash-map
//! updates and a sort. Fitted over 30 blocks of each of two runs that
//! crossed regimes, the log-log slope of `engine-train` round time against
//! each kernel was 0.85–1.24 (correlation 0.91–0.97), and 1.03–1.05 against
//! their geometric mean. The benchmark reads the kernels beside every round
//! and reports each time scaled to the kernels' nominal speed:
//! `time * NOMINAL_MS / reading`, where the reading is the median of the
//! readings nearest the round. That is the time the round would have taken
//! in the fast regime.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// The speedometer's reading in the fast regime on the host the benchmark
/// was tuned on. Only a unit: any fixed value keeps the ratio between two
/// commits.
pub const NOMINAL_MS: f64 = 0.11;
/// Readings on either side of a round that its reference median takes in.
const WINDOW: usize = 3;

const IN: usize = 64;
const HIDDEN: usize = 64;
const OUT: usize = 10;
const SAMPLES: usize = 32;
const KEYS: usize = 4_000;

/// The three frozen kernels and their inputs.
pub struct Speedometer {
    x: Vec<f32>,
    w1: Vec<f32>,
    w2: Vec<f32>,
    keys: Vec<u64>,
}

fn timed(f: impl FnOnce()) -> f64 {
    let started = Instant::now();
    f();
    started.elapsed().as_secs_f64() * 1e3
}

impl Speedometer {
    pub fn new() -> Self {
        Speedometer {
            x: (0..SAMPLES * IN).map(|i| ((i * 37) % 101) as f32 / 101.0).collect(),
            w1: (0..IN * HIDDEN).map(|i| ((i * 13) % 17) as f32 / 170.0 - 0.05).collect(),
            w2: (0..HIDDEN * OUT).map(|i| ((i * 7) % 11) as f32 / 110.0 - 0.05).collect(),
            keys: (0..KEYS as u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect(),
        }
    }

    /// One SGD pass over the samples of a 64-64-10 ReLU MLP, scalar loops.
    fn mlp(&mut self) {
        let (x, w1, w2) = (black_box(&self.x), &mut self.w1, &mut self.w2);
        let (mut h, mut o) = ([0f32; HIDDEN], [0f32; OUT]);
        for xs in x.chunks_exact(IN) {
            for j in 0..HIDDEN {
                let a: f32 = (0..IN).map(|i| xs[i] * w1[i * HIDDEN + j]).sum();
                h[j] = a.max(0.0);
            }
            for c in 0..OUT {
                o[c] = (0..HIDDEN).map(|j| h[j] * w2[j * OUT + c]).sum::<f32>() - 0.1;
            }
            for j in 0..HIDDEN {
                let g: f32 = (0..OUT).map(|c| o[c] * w2[j * OUT + c]).sum();
                for c in 0..OUT {
                    w2[j * OUT + c] -= 1e-4 * o[c] * h[j];
                }
                if h[j] > 0.0 {
                    for i in 0..IN {
                        w1[i * HIDDEN + j] -= 1e-4 * g * xs[i];
                    }
                }
            }
        }
        black_box(&o);
    }

    fn map(&self) {
        let mut m = HashMap::with_capacity(1024);
        for &k in black_box(&self.keys) {
            *m.entry(k & 0xFFFF).or_insert(0u64) += k;
        }
        black_box(m.len());
    }

    fn sort(&self) {
        let mut v = black_box(&self.keys).clone();
        v.sort_unstable();
        black_box(v[0]);
    }

    /// The geometric mean of the three kernels' times, in ms.
    pub fn read_ms(&mut self) -> f64 {
        let mlp = timed(|| self.mlp());
        let map = timed(|| self.map());
        let sort = timed(|| self.sort());
        (mlp * map * sort).cbrt()
    }

    /// The median of three readings, for a single long timing.
    pub fn read_median_ms(&mut self) -> f64 {
        let r = [self.read_ms(), self.read_ms(), self.read_ms()];
        crate::stats::median(&r)
    }
}

/// CPU time all threads of this process have used so far, in ms
/// (`CLOCK_PROCESS_CPUTIME_ID`).
pub fn process_cpu_ms() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut t = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `t` is a live, writable timespec, the only memory the call
    // writes.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    t.sec as f64 * 1e3 + t.nsec as f64 / 1e6
}

/// Scales each time to the nominal speed. `readings` holds one
/// reading before the first time and one after each, so it is one longer
/// than `times`; time `i` sits between readings `i` and `i + 1`, and its
/// reference is the median of the readings up to [`WINDOW`] further out on
/// each side.
pub fn scale(times: &[f64], readings: &[f64]) -> Vec<f64> {
    assert_eq!(readings.len(), times.len() + 1, "one reading around each time");
    times
        .iter()
        .enumerate()
        .map(|(i, &time)| {
            let lo = i.saturating_sub(WINDOW);
            let hi = (i + 1 + WINDOW).min(readings.len() - 1);
            time * NOMINAL_MS / crate::stats::median(&readings[lo..=hi])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_readings_leave_times_alone() {
        let walls = [10.0, 20.0, 30.0];
        assert_eq!(scale(&walls, &[NOMINAL_MS; 4]), walls);
    }

    #[test]
    fn a_slower_host_scales_times_down_by_its_slowdown() {
        let slow = 2.0 * NOMINAL_MS;
        assert_eq!(scale(&[40.0, 40.0], &[slow; 3]), [20.0, 20.0]);
    }

    #[test]
    fn the_reference_is_the_median_of_nearby_readings() {
        // one disturbed reading in the window does not move the reference
        let n = NOMINAL_MS;
        let readings = [n, n, 9.0 * n, n, n, n, n, n, n];
        assert_eq!(scale(&[10.0; 8], &readings), [10.0; 8]);
        // a regime switch: rounds well inside each stretch take its speed
        let mut readings = vec![n; 10];
        readings.extend([2.0 * n; 10]);
        let scaled = scale(&[10.0; 19], &readings);
        assert_eq!(scaled[0], 10.0);
        assert_eq!(scaled[18], 5.0);
    }

    #[test]
    fn process_cpu_time_counts_work_not_sleep() {
        let start = process_cpu_ms();
        std::thread::sleep(std::time::Duration::from_millis(30));
        let slept = process_cpu_ms() - start;
        let mut s = Speedometer::new();
        let busy_from = process_cpu_ms();
        let wall = Instant::now();
        while wall.elapsed().as_millis() < 30 {
            s.read_ms();
        }
        let busy = process_cpu_ms() - busy_from;
        assert!(slept < 10.0, "sleeping used {slept} ms of CPU");
        assert!(busy > 15.0, "30 ms of work used only {busy} ms of CPU");
    }

    #[test]
    fn readings_are_positive_and_finite() {
        let mut s = Speedometer::new();
        for _ in 0..3 {
            let t = s.read_ms();
            assert!(t > 0.0 && t.is_finite());
        }
    }
}
