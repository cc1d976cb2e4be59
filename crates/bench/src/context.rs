//! Shared experiment context: extraction products, sample budget, output
//! directory.

use std::path::PathBuf;
use vscore::mc::ParallelRunner;
use vscore::pipeline::{
    extract_statistical_vs_model, CoreError, ExtractionConfig, ExtractionReport,
};

/// Everything an experiment needs.
#[derive(Debug)]
pub struct ExperimentContext {
    /// Extraction products (fitted VS params + extracted mismatch, both
    /// polarities, plus the kit).
    pub extraction: ExtractionReport,
    /// Directory for CSV artifacts.
    pub out_dir: PathBuf,
    /// Monte Carlo sample scale: 1.0 reproduces the paper's counts; smaller
    /// values shrink every experiment proportionally (`--fast` uses 0.08).
    pub scale: f64,
    /// Base RNG seed.
    pub seed: u64,
}

impl ExperimentContext {
    /// Runs the extraction pipeline and prepares an output directory.
    ///
    /// # Errors
    ///
    /// Propagates pipeline failures.
    pub fn prepare(out_dir: PathBuf, scale: f64, seed: u64) -> Result<Self, CoreError> {
        let extraction = extract_statistical_vs_model(&ExtractionConfig::default())?;
        Ok(ExperimentContext {
            extraction,
            out_dir,
            scale,
            seed,
        })
    }

    /// Scales a paper sample count by the context's budget (min 20).
    pub fn samples(&self, paper_count: usize) -> usize {
        ((paper_count as f64 * self.scale).round() as usize).max(20)
    }

    /// Supply voltage used throughout.
    pub fn vdd(&self) -> f64 {
        self.extraction.config.vdd
    }

    /// A sampling factory for the statistical VS model (fitted parameters +
    /// extracted mismatch), seeded per Monte Carlo trial.
    pub fn vs_factory(&self, trial_seed: u64) -> vscore::mc::McFactory {
        vscore::mc::McFactory::vs(
            self.extraction.nmos.fit.params,
            self.extraction.pmos.fit.params,
            self.extraction.nmos.extracted,
            self.extraction.pmos.extracted,
            stats::Sampler::from_seed(trial_seed),
        )
    }

    /// A sampling factory for the golden kit (nominal parameters + foundry
    /// truth mismatch), seeded per Monte Carlo trial.
    pub fn kit_factory(&self, trial_seed: u64) -> vscore::mc::McFactory {
        vscore::mc::McFactory::bsim(
            self.extraction.kit.nmos.params,
            self.extraction.kit.pmos.params,
            self.extraction.nmos.truth,
            self.extraction.pmos.truth,
            stats::Sampler::from_seed(trial_seed),
        )
    }

    /// A [`ParallelRunner`] seeded from the context seed and an experiment
    /// salt. Worker count defaults to the machine's available parallelism;
    /// the `STATVS_MC_THREADS` environment variable overrides it (an
    /// invalid value is *not* silently ignored: a warning goes to stderr
    /// and the default is used). Every worker count draws the same mismatch
    /// samples and writes the same results.
    pub fn runner(&self, salt: u64) -> ParallelRunner {
        let runner = ParallelRunner::new(
            self.seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(salt),
        );
        match parse_mc_threads(std::env::var("STATVS_MC_THREADS").ok().as_deref()) {
            Ok(Some(n)) => runner.workers(n),
            Ok(None) => runner,
            Err(msg) => {
                eprintln!("warning: {msg}; using machine parallelism");
                runner
            }
        }
    }

    /// A factory for either family (`"vs"` or anything else for the kit)
    /// driven by an externally derived sampler — the shape the parallel
    /// Monte Carlo sample closures need (`ParallelRunner` hands each sample
    /// its own stream).
    pub fn factory(&self, family: &str, sampler: stats::Sampler) -> vscore::mc::McFactory {
        let mut f = match family {
            "vs" => self.vs_factory(0),
            _ => self.kit_factory(0),
        };
        f.set_sampler(sampler);
        f
    }
}

/// Parses a `STATVS_MC_THREADS` override: `Ok(None)` when unset,
/// `Ok(Some(n))` for a positive integer (surrounding whitespace allowed),
/// and a human-readable `Err` for anything else — a typo like `fourr` or
/// `0` must not silently fall back to machine parallelism.
fn parse_mc_threads(raw: Option<&str>) -> Result<Option<usize>, String> {
    let Some(s) = raw else { return Ok(None) };
    match s.trim().parse::<usize>() {
        Ok(0) => Err(format!(
            "STATVS_MC_THREADS must be a positive worker count, got {s:?}"
        )),
        Ok(n) => Ok(Some(n)),
        Err(e) => Err(format!("invalid STATVS_MC_THREADS value {s:?}: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::parse_mc_threads;

    #[test]
    fn thread_override_parses_positive_integers() {
        assert_eq!(parse_mc_threads(None), Ok(None));
        assert_eq!(parse_mc_threads(Some("1")), Ok(Some(1)));
        assert_eq!(parse_mc_threads(Some("16")), Ok(Some(16)));
        assert_eq!(parse_mc_threads(Some("  4 ")), Ok(Some(4)));
    }

    #[test]
    fn thread_override_rejects_garbage_loudly() {
        // The PR-2 regression: "fourr" silently ran at machine parallelism.
        assert!(parse_mc_threads(Some("fourr")).is_err());
        assert!(parse_mc_threads(Some("")).is_err());
        assert!(parse_mc_threads(Some("4.0")).is_err());
        assert!(parse_mc_threads(Some("-2")).is_err());
        assert!(parse_mc_threads(Some("0")).is_err());
    }
}
