//! Golden-digest helpers shared by the coordinator suites that pin
//! recorded bits (`coordinator_golden.rs`, `sharded_parity.rs`).
//!
//! A digest is FNV-1a over every float's bit pattern and every count as a
//! little-endian `u64`, so a one-ulp drift anywhere moves it.

use haccs::fedsim::RunResult;
use haccs::persist::fnv1a64;

/// Bytes fed to FNV-1a: every float as its bit pattern, every count as a
/// little-endian `u64`.
#[derive(Default)]
struct Digest(Vec<u8>);

impl Digest {
    fn f32(&mut self, x: f32) -> &mut Self {
        self.0.extend_from_slice(&x.to_bits().to_le_bytes());
        self
    }

    fn f32s(&mut self, xs: &[f32]) -> &mut Self {
        for &x in xs {
            self.f32(x);
        }
        self
    }

    fn f64(&mut self, x: f64) -> &mut Self {
        self.0.extend_from_slice(&x.to_bits().to_le_bytes());
        self
    }

    fn usizes(&mut self, xs: &[usize]) -> &mut Self {
        for &x in xs {
            self.0.extend_from_slice(&(x as u64).to_le_bytes());
        }
        self
    }

    fn finish(&self) -> u64 {
        fnv1a64(&self.0)
    }
}

/// Digest of a run: every `RoundRecord` field and the accuracy curve.
pub fn run_digest(run: &RunResult) -> u64 {
    let mut d = Digest::default();
    for r in &run.rounds {
        d.usizes(&[r.epoch]).f64(r.time_s).f64(r.round_seconds);
        d.usizes(&[r.participants.len()]).usizes(&r.participants).f32(r.mean_local_loss);
        let f = &r.faults;
        d.usizes(&[f.crashed, f.stragglers, f.dropped_by_deadline, f.lossy_failures, f.retries]);
        d.usizes(&[f.replacements.len()]).usizes(&f.replacements);
        d.f64(f.wasted_client_seconds).f64(f.deadline_s.unwrap_or(f64::NAN));
        d.usizes(&[f.control_bytes, f.hb_missed, f.payload_bytes_raw, f.payload_bytes_encoded]);
    }
    for p in &run.curve {
        d.f64(p.time_s).usizes(&[p.epoch]).f32(p.accuracy).f32(p.loss);
    }
    d.finish()
}

/// Digest of a parameter vector, element by element.
#[allow(dead_code)] // not every suite pins a model
pub fn params_digest(params: &[f32]) -> u64 {
    Digest::default().f32s(params).finish()
}

/// Asserts that `got` is the golden digest `want`. The constants were
/// computed on x86_64 Linux and hold there only: local training calls
/// `f32::exp` and the synthetic data generator `sin`/`cos`/`ln`, which
/// come from the platform libm. Elsewhere this checks nothing.
pub fn assert_digest(what: &str, got: u64, want: u64) {
    if cfg!(all(target_arch = "x86_64", target_os = "linux")) {
        assert_eq!(got, want, "{what}: digest {got:#018x}, golden {want:#018x}");
    }
}
