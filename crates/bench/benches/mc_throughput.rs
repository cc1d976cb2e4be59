//! Monte Carlo throughput.
//!
//! Two levels:
//!
//! * **Device level** (Table III's workload): samples of
//!   `{Idsat, log10 Ioff, Cgg}` under Pelgrom mismatch, both model
//!   families.
//! * **Circuit level** (Figs. 5–9's and Table IV's workload): repeated
//!   solves of one SRAM topology with resampled devices, comparing the
//!   rebuild shape (construct + re-elaborate every sample) against the
//!   session shape: the DC sample `statvs serve` runs per shard sample
//!   (`circuits::sram::dc_sample_from`: `SramDevices::swap_into`, then
//!   Newton from the nominal cell's operating point), and
//!   `ReadDisturbBench::run` (Newton from the bench's construction
//!   operating point, then `Session::ac_owned` through the reused AC
//!   workspace). Every arm solves through the library's own kernels, the
//!   path production runs.
//!
//! Run `cargo bench --bench mc_throughput -- --json BENCH_mc_throughput.json`
//! to refresh the perf-trajectory baseline at the repo root.

use circuits::cells::NominalVsFactory;
use circuits::sram::{dc_sample_from, SnmBench, SnmMode, SramDevices, SramSizing};
use mosfet::{vs::VsParams, Geometry, MismatchSpec, Polarity};
use spice::Session;
use stats::Sampler;
use vsbench::microbench::{maybe_write_json, measure, Measurement};
use vscore::mc::{device_metric_samples, McFactory, ParallelRunner, TDigest, VecSink, WelfordSink};
use vscore::sensitivity::{BsimBuilder, VsBuilder};

fn mc_factory(seed: u64) -> McFactory {
    let spec = MismatchSpec::from_paper_units(2.3, 3.71, 3.71, 944.0, 0.29);
    McFactory::vs(
        VsParams::nmos_40nm(),
        VsParams::pmos_40nm(),
        spec,
        spec,
        Sampler::from_seed(seed),
    )
}

fn main() {
    let mut results = Vec::new();

    // ---- device level ---------------------------------------------------
    let geom = Geometry::from_nm(600.0, 40.0);
    let spec = MismatchSpec::from_paper_units(2.3, 3.71, 3.71, 944.0, 0.29);
    let vs = VsBuilder {
        params: VsParams::nmos_40nm(),
        polarity: Polarity::Nmos,
        geom,
    };
    let kit = BsimBuilder {
        params: mosfet::bsim::BsimParams::nmos_40nm(),
        polarity: Polarity::Nmos,
        geom,
    };
    results.push(measure("device_mc_100_samples/vs", || {
        let mut s = Sampler::from_seed(1);
        device_metric_samples(&vs, &spec, 0.9, 100, &mut s);
    }));
    results.push(measure("device_mc_100_samples/bsim", || {
        let mut s = Sampler::from_seed(1);
        device_metric_samples(&kit, &spec, 0.9, 100, &mut s);
    }));

    // ---- circuit level: full-cell DC operating point --------------------
    // The inner solve of every SRAM Monte Carlo sample. "rebuild" is the
    // pre-session architecture: construct the netlist and elaborate a fresh
    // workspace per sample. "session_swap" is the served sample
    // (`dc_sample_from`): swap the six devices into one live elaboration
    // and start Newton from the nominal cell's operating point (solved
    // once, outside the timing), with the two-node guess as the fallback,
    // so every sample stays a pure function of its draw.
    let sz = SramSizing::default();
    {
        let mut seed = 0u64;
        results.push(measure("sram_dc_sample/rebuild", || {
            seed += 1;
            let mut f = mc_factory(seed);
            let devices = SramDevices::draw(sz, &mut f);
            let (c, l, r) = circuits::sram::full_cell(&devices, 0.9);
            let mut s = Session::elaborate(c).expect("well-formed");
            // Extreme mismatch draws may settle in either stable state or
            // fail to converge; both are part of the measured workload.
            if let Ok(op) = s.dc_owned_with_guess(&[(l, 0.0), (r, 0.9)]) {
                assert!(op.voltage(r).is_finite());
            }
        }));
    }
    let nominal = SramDevices::draw(sz, &mut NominalVsFactory);
    let (cell, l, r) = circuits::sram::full_cell(&nominal, 0.9);
    let op = Session::elaborate(cell.clone())
        .expect("well-formed")
        .dc_owned_with_guess(&[(l, 0.0), (r, 0.9)])
        .expect("the nominal cell solves")
        .raw()
        .to_vec();
    {
        let mut seed = 0u64;
        let mut session = Session::elaborate(cell.clone()).expect("well-formed");
        results.push(measure("sram_dc_sample/session_swap", || {
            seed += 1;
            let devices = SramDevices::draw(sz, &mut mc_factory(seed));
            if let Ok(v) = dc_sample_from(&mut session, devices, &op, l, r, 0.9) {
                assert!(v.is_finite());
            }
        }));
    }

    // ---- circuit level: parallel + streaming SRAM DC Monte Carlo --------
    // The same per-sample workload as sram_dc_sample/session_swap, sharded
    // with ParallelRunner: one session per worker, elaborated in the setup
    // closure, per-sample device swaps from deterministically derived
    // streams. One measured iteration = a PAR_BATCH-sample run (including
    // worker spawn + elaboration); the recorded entries are normalized per
    // sample, so aggregate throughput across threads is directly
    // comparable with the single-session baseline above.
    //
    // The `parallel_*` entries keep every sample in a `VecSink` (the
    // buffered shape); the `served_1t` entry runs the *identical*
    // build/sample closures into realistic constant-size sinks (Welford
    // moments + a t-digest), as a served shard does. Peak sample storage
    // drops from O(n) to O(workers + round) in-flight records; the
    // per-sample cost must stay within noise of the buffered `parallel_1t`
    // entry (the sink fold is nanoseconds against a ~10 µs DC solve).
    {
        const PAR_BATCH: usize = 512;
        let build = |_: usize, _: &mut Sampler| Session::elaborate(cell.clone());
        let draw = |sampler: &Sampler| {
            let mut f = mc_factory(0);
            f.set_sampler(sampler.clone());
            SramDevices::draw(sz, &mut f)
        };
        // Extreme draws may fail to converge; counted, not fatal — part of
        // the measured workload.
        let sample = |session: &mut Session, sampler: &mut Sampler, _: usize| {
            dc_sample_from(session, draw(sampler), &op, l, r, 0.9)
        };
        let avail = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        let mut thread_counts = vec![1, 4, avail];
        thread_counts.sort_unstable();
        thread_counts.dedup();
        for threads in thread_counts {
            let mut run_seed = 0u64;
            let m = measure(&format!("sram_dc_mc_batch512/aggregate_{threads}t"), || {
                run_seed += 1;
                let mut samples = VecSink::new();
                let out = ParallelRunner::new(run_seed)
                    .workers(threads)
                    .run_streaming_range(0, PAR_BATCH, build, sample, &mut samples)
                    .expect("elaboration succeeds");
                assert_eq!(samples.records().len() + out.failures, PAR_BATCH);
            });
            results.push(Measurement {
                label: format!("sram_dc_sample/parallel_{threads}t"),
                secs_per_iter: m.secs_per_iter / PAR_BATCH as f64,
                iters: m.iters * PAR_BATCH as u64,
            });
        }
        let mut run_seed = 0u64;
        let m = measure("sram_dc_mc_batch512/aggregate_served_1t", || {
            run_seed += 1;
            let mut sink = (WelfordSink::new(), TDigest::new(100.0));
            let out = ParallelRunner::new(run_seed)
                .workers(1)
                .run_streaming_range(0, PAR_BATCH, build, sample, &mut sink)
                .expect("elaboration succeeds");
            assert_eq!(out.observed + out.failures, PAR_BATCH);
            assert!(sink.0.moments().count() == out.observed as u64);
        });
        results.push(Measurement {
            label: "sram_dc_sample/served_1t".to_string(),
            secs_per_iter: m.secs_per_iter / PAR_BATCH as f64,
            iters: m.iters * PAR_BATCH as u64,
        });
    }

    // ---- circuit level: SRAM AC (the paper's Table IV workload) ---------
    // One Monte Carlo sample = resample the six cell devices, solve the
    // "l low" operating point, linearize, sweep 26 log-spaced frequency
    // points. Two shapes of the same workload:
    //
    // * "workspace_guessed" — `Session::dc_owned_with_guess`, then
    //   `Session::ac_owned`: the session's cached AC workspace holds the
    //   linearization and complex LU storage, but the operating point
    //   re-runs the guessed solve every sample.
    // * "batched" — `ReadDisturbBench::run`: the operating point
    //   additionally starts from the bench's construction operating point
    //   (`Session::dc_owned_from` with the guess).
    {
        let freqs = spice::ac::log_sweep(1e6, 1e11, 5);
        let sz = SramSizing::default();
        {
            let mut seed = 0u64;
            let mut f0 = mc_factory(0);
            let devices = SramDevices::draw(sz, &mut f0);
            let (c, l, r) = circuits::sram::full_cell(&devices, 0.9);
            let mut session = Session::elaborate(c).expect("well-formed");
            let guess = [(l, 0.0), (r, 0.9)];
            results.push(measure("sram_ac_sample/workspace_guessed", || {
                seed += 1;
                let mut f = mc_factory(seed);
                SramDevices::draw(sz, &mut f)
                    .swap_into(&mut session)
                    .expect("known instances");
                let op = session.dc_owned_with_guess(&guess);
                if let Ok(ac) = op.and_then(|op| session.ac_owned(&op, "VBL", &freqs)) {
                    assert!(ac.magnitudes(l)[0].is_finite());
                }
            }));
        }
        {
            let mut seed = 0u64;
            let mut f0 = mc_factory(0);
            let mut bench =
                circuits::sram::ReadDisturbBench::new(sz, 0.9, &mut f0).expect("well-formed");
            results.push(measure("sram_ac_sample/batched", || {
                seed += 1;
                let mut f = mc_factory(seed);
                bench.resample(sz, &mut f).expect("known instances");
                if let Ok(mags) = bench.run(&freqs) {
                    assert!(mags[0].is_finite());
                }
            }));
        }
    }

    // ---- circuit level: READ SNM (butterfly sweeps) ---------------------
    {
        let mut seed = 0u64;
        results.push(measure("sram_read_snm_sample/rebuild", || {
            seed += 1;
            let mut f = mc_factory(seed);
            let mut bench = SnmBench::new(sz, 0.9, SnmMode::Read, 31, &mut f).expect("well-formed");
            if let Ok(s) = bench.snm() {
                assert!(s.is_finite());
            }
        }));
    }
    {
        let mut seed = 0u64;
        let mut f0 = mc_factory(0);
        let mut bench = SnmBench::new(sz, 0.9, SnmMode::Read, 31, &mut f0).expect("well-formed");
        results.push(measure("sram_read_snm_sample/session_swap", || {
            seed += 1;
            let mut f = mc_factory(seed);
            bench.resample(sz, &mut f).expect("known instances");
            if let Ok(s) = bench.snm() {
                assert!(s.is_finite());
            }
        }));
    }

    maybe_write_json(&results);
}
