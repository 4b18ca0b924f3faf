//! Host-speed calibration for the two gated timings.
//!
//! The sandbox this benchmark runs in shares its cores with other
//! tenants, and its speed for allocation- and hash-heavy code (which is
//! what the simulator is) switches between two levels ≈ 1.45× apart,
//! staying on one for seconds to minutes. Raw wall medians of one run
//! therefore spread by 15–25 % between runs of the *same* code — wider
//! than any bound the driver accepts — and no statistic over one run's
//! repetitions can fix that, because a whole run often sits on one level.
//!
//! So a helper thread runs a small fixed kernel every [`PERIOD`] for the
//! child's whole life, and every gated timing is scaled by how slow that
//! kernel ran *during the timed window*:
//!
//! ```text
//! wall_s = raw wall × NOMINAL_UNIT_NS ÷ mean unit time over the window
//! ```
//!
//! The kernel lives here, uses only `std`, and touches no product code,
//! so a product change cannot move it; it is the same kind of work as
//! the product's hot path (clone a batch of small `Vec`s, build a
//! `HashSet` of ids, `retain` over a pool), so it slows by the same
//! factor. Measured on the sandbox: raw spread 8–19 %, calibrated 2–4 %.
//! The raw timings are printed beside the calibrated ones.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often the helper samples the kernel.
const PERIOD: Duration = Duration::from_millis(10);
/// Units per sample; the fastest is kept, which drops a unit the
/// scheduler interrupted.
const UNITS_PER_SAMPLE: usize = 8;
/// What one unit takes on the reference sandbox at its usual speed. Only
/// a scale: it makes calibrated seconds read like seconds.
pub const NOMINAL_UNIT_NS: f64 = 25_000.0;

type Tx = (u64, Vec<u8>);

/// One unit of the kernel: clone a 256-transaction batch, index its ids,
/// sweep a 1 024-transaction pool against them.
fn unit(batch: &[Tx], pool: &mut Vec<Tx>) {
    let cloned = batch.to_vec();
    let ids: HashSet<u64> = cloned.iter().map(|tx| tx.0).collect();
    pool.retain(|tx| !ids.contains(&tx.0));
    std::hint::black_box(&cloned);
}

/// The helper thread and the samples it has taken so far.
pub struct Calibrator {
    samples: Arc<Mutex<Vec<(Instant, f64)>>>,
    stop: Arc<AtomicBool>,
    helper: Option<JoinHandle<()>>,
}

impl Calibrator {
    /// Starts sampling.
    pub fn start() -> Calibrator {
        let samples: Arc<Mutex<Vec<(Instant, f64)>>> = Arc::default();
        let stop = Arc::new(AtomicBool::new(false));
        let helper = {
            let (samples, stop) = (Arc::clone(&samples), Arc::clone(&stop));
            std::thread::spawn(move || {
                let batch: Vec<Tx> = (0..256).map(|id| (id, vec![0xAB; 32])).collect();
                let mut pool: Vec<Tx> = (1_000..2_024).map(|id| (id, vec![0xAB; 32])).collect();
                // The stop flag publishes nothing else: relaxed is enough.
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(PERIOD);
                    let at = Instant::now();
                    let fastest = (0..UNITS_PER_SAMPLE)
                        .map(|_| {
                            let started = Instant::now();
                            unit(&batch, &mut pool);
                            started.elapsed().as_nanos() as f64
                        })
                        .fold(f64::INFINITY, f64::min);
                    samples
                        .lock()
                        .expect("the sampler never panics holding the lock")
                        .push((at, fastest));
                }
            })
        };
        Calibrator {
            samples,
            stop,
            helper: Some(helper),
        }
    }

    /// Mean unit time (ns) over the samples taken in `[from, to]`, or
    /// `None` when the window holds none (shorter than [`PERIOD`]).
    pub fn unit_ns(&self, from: Instant, to: Instant) -> Option<f64> {
        let samples = self
            .samples
            .lock()
            .expect("the sampler never panics holding the lock");
        let window: Vec<f64> = samples
            .iter()
            .filter(|(at, _)| *at >= from && *at <= to)
            .map(|(_, ns)| *ns)
            .collect();
        (!window.is_empty()).then(|| window.iter().sum::<f64>() / window.len() as f64)
    }

    /// The factor that turns a raw timing over `[from, to]` into a
    /// calibrated one (1.0 when the window holds no sample).
    pub fn scale(&self, from: Instant, to: Instant) -> f64 {
        self.unit_ns(from, to)
            .map_or(1.0, |ns| NOMINAL_UNIT_NS / ns)
    }
}

impl Drop for Calibrator {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(helper) = self.helper.take() {
            // A panicked sampler only loses calibration; nothing to do here.
            let _ = helper.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_unit_leaves_its_pool_untouched() {
        let batch: Vec<Tx> = (0..256).map(|id| (id, vec![0xAB; 32])).collect();
        let mut pool: Vec<Tx> = (1_000..2_024).map(|id| (id, vec![0xAB; 32])).collect();
        unit(&batch, &mut pool);
        assert_eq!(pool.len(), 1_024, "batch ids and pool ids are disjoint");
    }

    #[test]
    fn samples_fall_into_their_window_and_scale_inverts_slowness() {
        let calibrator = Calibrator::start();
        let from = Instant::now();
        std::thread::sleep(Duration::from_millis(80));
        let to = Instant::now();
        let ns = calibrator
            .unit_ns(from, to)
            .expect("80 ms hold several samples");
        assert!(ns > 0.0);
        assert_eq!(calibrator.scale(from, to), NOMINAL_UNIT_NS / ns);
        // Nothing was sampled before the calibrator existed.
        let before = from - Duration::from_secs(5);
        assert_eq!(
            calibrator.unit_ns(before, before + Duration::from_secs(1)),
            None
        );
        assert_eq!(
            calibrator.scale(before, before + Duration::from_secs(1)),
            1.0
        );
    }
}
