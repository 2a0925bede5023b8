//! Per-layer timing from outside the program: each call into a layer's
//! public function is wrapped in a span measured by the benchmark's own
//! code, so the crates under test carry no benchmark instrumentation.

use std::time::{Duration, Instant};

use crate::stats;

/// The layers a replay times, one per public entry point it calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lay {
    /// `llmsim`: `LanguageModel::generate`.
    Generate,
    /// `llmsim`: §3.1 `extract_yaml`.
    Extract,
    /// `yamlkit`: `PreparedDoc::shared`, the candidate's one parse.
    Parse,
    /// `cescore`: `RefCache::prepare`.
    PrepareRef,
    /// `cescore`: `score_pair_prepared`.
    Score,
    /// `evalcluster`: `ScoreMemo` get and insert.
    Memo,
    /// `evalcluster::execute_uncached`: the minishell + kubesim run.
    Exec,
    /// `ceserve`: `http::RequestParser` feed and `try_next`.
    HttpParse,
    /// `ceserve`: `api::handle` into a `BufSink`.
    Handle,
    /// `core`: `harness::score_submission`.
    ScoreSubmission,
}

const LAYERS: usize = 10;

/// Busy time and per-call durations of one layer in a serial replay.
#[derive(Debug, Default)]
pub struct Layer {
    busy: Duration,
    samples_us: Vec<f64>,
}

impl Layer {
    /// Runs `f` as one call into this layer, timing it.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        let took = started.elapsed();
        self.busy += took;
        self.samples_us.push(took.as_secs_f64() * 1e6);
        out
    }

    /// Duration of the latest call, in seconds (0 before any call).
    pub fn last_s(&self) -> f64 {
        self.samples_us.last().map_or(0.0, |us| us / 1e6)
    }

    /// Calls made.
    pub fn calls(&self) -> usize {
        self.samples_us.len()
    }

    /// Total time spent inside the layer.
    pub fn busy_s(&self) -> f64 {
        self.busy.as_secs_f64()
    }

    /// Per-call durations, in microseconds.
    pub fn samples_us(&self) -> &[f64] {
        &self.samples_us
    }

    /// Per-call percentile in microseconds; 0 when the layer made too few
    /// calls for the percentile rule (including none at all).
    pub fn percentile_us(&self, q: f64) -> f64 {
        stats::percentile(&self.samples_us, q).unwrap_or(0.0)
    }
}

/// Every layer of a replay, with tracing on or off. With tracing off the
/// same replay runs with no timer around any call, which is what the
/// tracing overhead is measured against.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    layers: [Layer; LAYERS],
}

impl Tracer {
    /// A tracer that times every call (`on`) or none.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            layers: Default::default(),
        }
    }

    /// Runs `f` as one call into `lay`.
    pub fn time<T>(&mut self, lay: Lay, f: impl FnOnce() -> T) -> T {
        if self.on {
            self.layers[lay as usize].time(f)
        } else {
            f()
        }
    }

    /// One layer's record.
    pub fn layer(&self, lay: Lay) -> &Layer {
        &self.layers[lay as usize]
    }

    /// Busy time summed over every layer.
    pub fn busy_s(&self) -> f64 {
        self.layers.iter().map(Layer::busy_s).sum()
    }
}

/// Widest accepted gap between the traced wall clock and the sum of the
/// layers' busy times in a serial replay. The layers run one at a time
/// on one thread, so their sum can never exceed the wall; what is left
/// over is the replay loop's own bookkeeping, which must stay under 3%
/// for the per-layer split to account for the wall clock.
pub const LAYER_SUM_TOLERANCE: f64 = 0.03;

/// Whether `layer_sum / wall` lies inside [`LAYER_SUM_TOLERANCE`].
pub fn layer_sum_ok(ratio: f64) -> bool {
    (1.0 - LAYER_SUM_TOLERANCE..=1.0 + 1e-9).contains(&ratio)
}

impl Tracer {
    /// The layer-sum check over a replay that took `wall_s`: the ratio of
    /// the layers' summed busy time to the wall clock, and whether it is
    /// inside the tolerance (explained on standard error when not).
    pub fn layer_sum(&self, wall_s: f64) -> (f64, bool) {
        let ratio = self.busy_s() / wall_s;
        let ok = layer_sum_ok(ratio);
        if !ok {
            eprintln!(
                "layer-sum check failed: layers {:.3}s of traced wall {wall_s:.3}s (ratio {ratio:.4}, tolerance {LAYER_SUM_TOLERANCE})",
                self.busy_s()
            );
        }
        (ratio, ok)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_counts_calls_and_busy_time() {
        let mut layer = Layer::default();
        for _ in 0..20 {
            layer.time(|| std::thread::sleep(Duration::from_micros(50)));
        }
        assert_eq!(layer.calls(), 20);
        assert!(layer.busy_s() >= 20.0 * 50e-6);
        assert!(layer.percentile_us(0.5) >= 50.0);
        // Twenty calls leave fewer than ten beyond p90.
        assert_eq!(layer.percentile_us(0.9), 0.0);
    }

    #[test]
    fn layer_sum_tolerance_is_one_sided() {
        assert!(layer_sum_ok(1.0));
        assert!(layer_sum_ok(0.98));
        assert!(!layer_sum_ok(0.9));
        assert!(!layer_sum_ok(1.01));
    }
}
