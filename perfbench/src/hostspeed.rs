//! Host-speed correction.
//!
//! Small shared hosts change speed by up to about 2x within seconds, so a
//! raw wall-clock time says as much about the neighbours as about the
//! program. The load thread therefore runs a frozen reference kernel — a
//! fixed edit-distance DP that calls no program code — between rounds of
//! about 10 ms, while no request is outstanding (with 50 ms rounds,
//! bursts of host slowness inside a round went uncorrected and a cluster
//! run spread several times wider). Each round's samples are scaled by
//! `NOMINAL_KERNEL_NS / k`, where `k` is the mean of the kernel times
//! measured just before and just after the round. Raw times are kept
//! beside the corrected ones.
//!
//! The vCPUs of a small host slow down independently, and a server or
//! cluster workload runs on all of them, so each kernel sample runs the
//! kernel on the load thread and on a helper thread at once and takes the
//! mean of the two times.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Kernel time on an unloaded reference host; corrected times are "as if
/// the kernel took this long". Changing it rescales every corrected time,
/// so it is frozen with the benchmark.
pub const NOMINAL_KERNEL_NS: f64 = 250_000.0;

/// Wall-clock length of one measurement round between two kernel runs.
pub const ROUND: Duration = Duration::from_millis(10);

const KERNEL_REPS: usize = 60;
const KERNEL_LEN: usize = 48;

fn dp(a: &[u8], b: &[u8], row: &mut [u32]) -> u32 {
    for (j, slot) in row.iter_mut().enumerate() {
        *slot = j as u32;
    }
    for (i, &x) in a.iter().enumerate() {
        let mut diag = row[0];
        row[0] = i as u32 + 1;
        for (j, &y) in b.iter().enumerate() {
            let sub = diag + u32::from(x != y);
            diag = row[j + 1];
            row[j + 1] = sub.min(row[j] + 1).min(row[j + 1] + 1);
        }
    }
    row[b.len()]
}

/// Runs the reference kernel once and returns its wall time in ns.
pub fn kernel_ns() -> f64 {
    let mut s = 0x2545_f491_4f6c_dd1du64;
    let mut next = || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        b'a' + (s % 7) as u8
    };
    let a: Vec<u8> = (0..KERNEL_LEN).map(|_| next()).collect();
    let b: Vec<u8> = (0..KERNEL_LEN).map(|_| next()).collect();
    let mut row = [0u32; KERNEL_LEN + 1];
    let t = Instant::now();
    let mut acc = 0u32;
    for _ in 0..KERNEL_REPS {
        acc = acc.wrapping_add(dp(
            std::hint::black_box(&a),
            std::hint::black_box(&b),
            &mut row,
        ));
    }
    std::hint::black_box(acc);
    t.elapsed().as_nanos() as f64
}

/// The reference kernel on two threads at once: the load thread and a
/// helper that lives as long as this value.
pub struct Reference {
    go: Option<Sender<()>>,
    done: Receiver<f64>,
    helper: Option<JoinHandle<()>>,
}

impl Reference {
    pub fn new() -> Reference {
        let (go, wait) = channel::<()>();
        let (report, done) = channel();
        let helper = std::thread::spawn(move || {
            while wait.recv().is_ok() {
                if report.send(kernel_ns()).is_err() {
                    break;
                }
            }
        });
        Reference {
            go: Some(go),
            done,
            helper: Some(helper),
        }
    }

    /// One sample: the mean kernel time of the two threads.
    pub fn sample(&self) -> f64 {
        let go = self.go.as_ref().expect("helper running");
        go.send(()).expect("helper alive");
        let here = kernel_ns();
        let there = self.done.recv().expect("helper alive");
        0.5 * (here + there)
    }

    /// Times `f` between two kernel samples: one corrected interval.
    pub fn timed<T>(&self, f: impl FnOnce() -> T) -> (T, Sample) {
        let before = self.sample();
        let t = Instant::now();
        let out = f();
        let raw = t.elapsed().as_nanos() as f64;
        (out, correct(raw, before, self.sample()))
    }
}

impl Drop for Reference {
    fn drop(&mut self) {
        self.go = None;
        if let Some(h) = self.helper.take() {
            let _ = h.join();
        }
    }
}

/// One timed interval, raw and corrected.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    pub raw_ns: f64,
    pub corrected_ns: f64,
}

/// Corrects `raw_ns` with the kernel times measured on either side of it.
pub fn correct(raw_ns: f64, kernel_before_ns: f64, kernel_after_ns: f64) -> Sample {
    let k = 0.5 * (kernel_before_ns + kernel_after_ns);
    Sample {
        raw_ns,
        corrected_ns: raw_ns * NOMINAL_KERNEL_NS / k,
    }
}

/// Collects samples in rounds and corrects each round when it closes.
/// The kernel source is a parameter so tests can replay a slowed host.
pub struct Rounds<K: FnMut() -> f64> {
    kernel: K,
    last_kernel: f64,
    round_start: Instant,
    pending: Vec<(usize, f64)>,
    /// Corrected samples, indexed like the `slot`s passed to `record`.
    pub samples: Vec<Option<Sample>>,
    /// Every kernel time measured, in order.
    pub kernels: Vec<f64>,
}

impl<K: FnMut() -> f64> Rounds<K> {
    pub fn new(slots: usize, mut kernel: K) -> Self {
        let first = kernel();
        Rounds {
            kernel,
            last_kernel: first,
            round_start: Instant::now(),
            pending: Vec::new(),
            samples: vec![None; slots],
            kernels: vec![first],
        }
    }

    /// Records a raw interval for `slot`; closes the round (running the
    /// kernel) once it has lasted [`ROUND`].
    pub fn record(&mut self, slot: usize, raw_ns: f64) {
        self.pending.push((slot, raw_ns));
        if self.round_start.elapsed() >= ROUND {
            self.close();
        }
    }

    /// Runs the kernel and corrects every pending sample against it and
    /// the previous kernel time.
    pub fn close(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let k = (self.kernel)();
        self.kernels.push(k);
        for (slot, raw) in self.pending.drain(..) {
            self.samples[slot] = Some(correct(raw, self.last_kernel, k));
        }
        self.last_kernel = k;
        self.round_start = Instant::now();
    }

    /// Host speed over the rounds: nominal over median kernel time
    /// (1 = the reference host; 0.5 = everything took twice as long).
    pub fn host_speed(&self) -> f64 {
        NOMINAL_KERNEL_NS / crate::report::quantile(&self.kernels, 0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_slowdown_of_interval_and_kernel_cancels() {
        // Kernels around the interval average exactly the nominal time.
        let (before, after) = (1.1 * NOMINAL_KERNEL_NS, 0.9 * NOMINAL_KERNEL_NS);
        let base = correct(2.0e6, before, after);
        for factor in [0.5, 1.9, 3.0] {
            let slowed = correct(2.0e6 * factor, before * factor, after * factor);
            assert!((slowed.corrected_ns - base.corrected_ns).abs() < 1e-6);
            assert_eq!(slowed.raw_ns, 2.0e6 * factor, "raw value is kept");
        }
        assert!((base.corrected_ns - 2.0e6).abs() < 1e-6);
    }

    #[test]
    fn rounds_correct_each_sample_against_its_neighbouring_kernels() {
        // A host that runs at nominal speed, then slows to half speed.
        let mut speeds = vec![1.0, 1.0, 2.0, 2.0].into_iter();
        let mut rounds = Rounds::new(4, move || NOMINAL_KERNEL_NS * speeds.next().unwrap());
        rounds.record(0, 10.0);
        rounds.close();
        rounds.record(1, 20.0);
        rounds.record(2, 20.0);
        rounds.close();
        rounds.record(3, 20.0);
        rounds.close();
        let got: Vec<Sample> = rounds.samples.iter().map(|s| s.unwrap()).collect();
        assert_eq!(got[0].corrected_ns, 10.0);
        // Kernel 1.0 before, 2.0 after: mean slowdown 1.5.
        assert!((got[1].corrected_ns - 20.0 / 1.5).abs() < 1e-9);
        assert!((got[3].corrected_ns - 10.0).abs() < 1e-9);
        assert_eq!(got[3].raw_ns, 20.0);
        assert_eq!(rounds.kernels.len(), 4);
        assert!((rounds.host_speed() - 1.0 / 1.5).abs() < 1e-9);
    }

    #[test]
    fn kernel_is_deterministic_work_and_the_helper_stops() {
        let mut row = [0u32; 4];
        assert_eq!(dp(b"abc", b"abd", &mut row), 1);
        let reference = Reference::new();
        let (v, s) = reference.timed(|| 7);
        assert_eq!(v, 7);
        assert!(s.raw_ns >= 0.0 && s.corrected_ns >= 0.0);
        assert!(reference.sample() > 0.0);
        drop(reference);
    }
}
