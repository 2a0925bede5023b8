//! The set-up every workload shares: dataset generation and model
//! calibration. A run sets up several times and reports the median, so
//! `setup_s` is steady enough to show work moved into set-up.

use std::sync::Arc;
use std::time::Instant;

use cedataset::Dataset;
use llmsim::SimulatedModel;

use crate::metrics::Values;
use crate::stats;

/// Set-ups before a run that sets up only once before measuring.
pub const SETUPS: usize = 5;

/// The dataset and the twelve calibrated models.
pub struct Base {
    pub dataset: Arc<Dataset>,
    pub models: Vec<SimulatedModel>,
    /// Seconds in `Dataset::generate`.
    pub generate_s: f64,
    /// Seconds in `standard_models` (per-model α calibration).
    pub calibrate_s: f64,
}

impl Base {
    /// Generates the dataset and calibrates the models, timing each.
    pub fn build() -> Base {
        let started = Instant::now();
        let dataset = Arc::new(Dataset::generate());
        let generate_s = started.elapsed().as_secs_f64();
        let started = Instant::now();
        let models = llmsim::standard_models(Arc::clone(&dataset));
        Base {
            dataset,
            models,
            generate_s,
            calibrate_s: started.elapsed().as_secs_f64(),
        }
    }
}

/// Medians of the set-up times over a run's repeated set-ups.
#[derive(Debug, Default)]
pub struct SetupTimes {
    pub total_s: Vec<f64>,
    pub generate_s: Vec<f64>,
    pub calibrate_s: Vec<f64>,
}

impl SetupTimes {
    /// Sets up `times` times, recording each, and keeps the last.
    pub fn build(&mut self, times: usize) -> Base {
        let mut base = Base::build();
        self.push(&base, 0.0);
        for _ in 1..times {
            base = Base::build();
            self.push(&base, 0.0);
        }
        base
    }

    /// Records one set-up: the shared base plus `extra_s` of the
    /// workload's own (server boot, warm-up).
    pub fn push(&mut self, base: &Base, extra_s: f64) {
        self.total_s
            .push(base.generate_s + base.calibrate_s + extra_s);
        self.generate_s.push(base.generate_s);
        self.calibrate_s.push(base.calibrate_s);
    }

    /// The set-up metrics: `setup_s` for an untraced run, the two
    /// shared set-up layers for a traced one.
    pub fn record(&self, values: &mut Values, trace: bool) {
        if trace {
            values.insert(
                "cedataset.generate_s".into(),
                stats::median(&self.generate_s),
            );
            values.insert(
                "llmsim.calibrate_s".into(),
                stats::median(&self.calibrate_s),
            );
        } else {
            values.insert("setup_s".into(), stats::median(&self.total_s));
        }
    }
}
