//! Determinism contract of the parallel Monte Carlo executor.
//!
//! `ParallelRunner` promises that the `(sample index, record)` stream a
//! sink receives is *bit-identical* for any worker count when each sample
//! is a pure function of its derived sampler stream. These tests pin that
//! down on the device-level workload (stateless) and on circuit-level
//! workloads (sessions and benches reused across samples): every shipped
//! sink — `VecSink`
//! buffer, t-digest, histogram, CSV bytes, Welford moments — must end in
//! bit-identical state for any worker count, across a caller's consecutive
//! ranges, and under panics.

use circuits::cells::InverterSizing;
use circuits::delay::{DelayBench, GateKind};
use circuits::leakage::leakage_frequency_of;
use circuits::sram::{full_cell, ReadDisturbBench, SramDevices, SramSizing};
use mosfet::{vs::VsParams, Geometry, MismatchSpec, Polarity};
use spice::{Session, SpiceError};
use stats::histogram::Histogram;
use stats::{Sampler, Welford};
use vscore::mc::{
    CsvSink, GaussianProposal, McFactory, MergeableSink, ParallelRunner, Sink, StreamOutcome,
    TDigest, VecSink, WeightedHistogram, WeightedMoments, WelfordSink,
};
use vscore::metrics::DeviceMetrics;
use vscore::sensitivity::{VariedModel, VsBuilder};

const VDD: f64 = 0.9;

fn builder() -> VsBuilder {
    VsBuilder {
        params: VsParams::nmos_40nm(),
        polarity: Polarity::Nmos,
        geom: Geometry::from_nm(600.0, 40.0),
    }
}

fn spec() -> MismatchSpec {
    MismatchSpec::from_paper_units(2.3, 3.71, 3.71, 944.0, 0.29)
}

/// A VS-family device factory over the paper's mismatch spec, fed by the
/// given sampler — the template shape every SRAM workload here uses.
fn sram_factory(sampler: Sampler) -> McFactory {
    McFactory::vs(
        VsParams::nmos_40nm(),
        VsParams::pmos_40nm(),
        spec(),
        spec(),
        sampler,
    )
}

/// The `(index, value bits)` pairs a `VecSink` retained.
fn bits(records: &VecSink) -> Vec<(usize, u64)> {
    records
        .records()
        .iter()
        .map(|&(i, x)| (i, x.to_bits()))
        .collect()
}

/// Runs the stateless device-level workload on `workers` threads into a
/// buffer and streaming moments.
fn device_run(seed: u64, n: usize, workers: usize) -> (Vec<(usize, u64)>, Welford) {
    let b = builder();
    let sp = spec();
    let mut sink = (VecSink::new(), WelfordSink::new());
    ParallelRunner::new(seed)
        .workers(workers)
        .run_streaming_range(
            0,
            n,
            |_, _| Ok::<(), std::convert::Infallible>(()),
            |(), sampler, _| {
                let delta = sp.sample(b.geometry(), || sampler.standard_normal());
                Ok(DeviceMetrics::evaluate(b.build(delta).as_ref(), VDD).idsat)
            },
            &mut sink,
        )
        .expect("infallible setup");
    (bits(&sink.0), sink.1.moments())
}

#[test]
fn device_level_runs_are_thread_count_invariant() {
    // Property loop: several seeds and sizes, three worker counts each.
    for (seed, n) in [(1u64, 97), (42, 256), (0xdead_beef, 33)] {
        let (s1, m1) = device_run(seed, n, 1);
        assert_eq!(s1.len(), n, "stateless workload never fails");
        for workers in [2, 8] {
            let (sw, mw) = device_run(seed, n, workers);
            assert_eq!(
                s1, sw,
                "seed {seed}: sample set differs at {workers} workers"
            );
            assert_eq!(
                m1.mean().to_bits(),
                mw.mean().to_bits(),
                "seed {seed}: merged mean differs at {workers} workers"
            );
            assert_eq!(m1.variance().to_bits(), mw.variance().to_bits());
            assert_eq!(m1.count(), mw.count());
            assert_eq!(m1.min().to_bits(), mw.min().to_bits());
            assert_eq!(m1.max().to_bits(), mw.max().to_bits());
        }
    }
}

#[test]
fn device_level_runs_depend_on_seed() {
    let (a, _) = device_run(7, 64, 2);
    let (b, _) = device_run(8, 64, 2);
    assert_ne!(a, b);
}

/// Circuit-level workload: full 6T cell DC solve with per-sample device
/// swaps. A session keeps nothing between solves, so every sample is a
/// pure function of its sampler stream and the bit-exactness guarantee
/// applies.
fn sram_run(seed: u64, n: usize, workers: usize) -> (Vec<(usize, u64)>, StreamOutcome) {
    let sz = SramSizing::default();
    let template = sram_factory(Sampler::from_seed(0));
    let mut records = VecSink::new();
    let out = ParallelRunner::new(seed)
        .workers(workers)
        .run_streaming_range(
            0,
            n,
            |_, setup_sampler| {
                let mut f = template.clone();
                f.set_sampler(setup_sampler.clone());
                let devices = SramDevices::draw(sz, &mut f);
                let (c, l, r) = full_cell(&devices, VDD);
                let session = Session::elaborate(c)?;
                Ok((session, l, r))
            },
            |(session, l, r), sampler, _| {
                let mut f = template.clone();
                f.set_sampler(sampler.clone());
                let SramDevices { pd, pu, pg } = SramDevices::draw(sz, &mut f);
                let [pd0, pd1] = pd;
                let [pu0, pu1] = pu;
                let [pg0, pg1] = pg;
                session.swap_devices([
                    ("PD1", pd0),
                    ("PD2", pd1),
                    ("PU1", pu0),
                    ("PU2", pu1),
                    ("PG1", pg0),
                    ("PG2", pg1),
                ])?;
                let op = session.dc_owned_with_guess(&[(*l, 0.0), (*r, VDD)])?;
                Ok::<f64, spice::SpiceError>(op.voltage(*r))
            },
            &mut records,
        )
        .expect("elaboration succeeds");
    (bits(&records), out)
}

#[test]
fn sram_dc_runs_are_thread_count_invariant() {
    let (s1, out) = sram_run(99, 24, 1);
    let (s2, _) = sram_run(99, 24, 2);
    let (s8, _) = sram_run(99, 24, 8);
    assert!(s1.len() >= 20, "almost all draws converge");
    assert_eq!(out.observed, s1.len());
    assert_eq!(out.observed + out.failures, 24);
    assert_eq!(s1, s2);
    assert_eq!(s1, s8);
}

/// The circuit benches' samples through the runner: an FO3 inverter's
/// `leakage_frequency_of` and the read-disturb AC sweep. Each worker
/// builds its `ReadDisturbBench` from one fixed draw, and every sample
/// starts its solves from zero or from that bench's construction point, so
/// every delay, frequency, leakage and AC magnitude has the same bits for
/// 1, 2 and 3 workers.
#[test]
fn circuit_bench_samples_are_thread_count_invariant() {
    let sz = SramSizing::default();
    let freqs = spice::ac::log_sweep(1e6, 1e11, 2);
    let run = |workers: usize| {
        let runner = ParallelRunner::new(0xbe7c).workers(workers);
        let mut fo3 = VecSink::new();
        runner
            .run_streaming_range(
                0,
                6,
                |_, _| {
                    let inv = InverterSizing::from_nm(600.0, 300.0, 40.0);
                    let mut f = sram_factory(Sampler::from_seed(1));
                    Ok::<_, SpiceError>(DelayBench::fo3(GateKind::Inverter, inv, VDD, &mut f))
                },
                |bench, sampler, _| {
                    bench.resample(&mut sram_factory(sampler.clone()));
                    let lf = leakage_frequency_of(bench)?;
                    Ok([lf.delay, lf.frequency, lf.leakage].map(f64::to_bits))
                },
                &mut fo3,
            )
            .expect("the benches build");
        let mut ac = VecSink::new();
        runner
            .run_streaming_range(
                0,
                12,
                |_, _| ReadDisturbBench::new(sz, VDD, &mut sram_factory(Sampler::from_seed(2))),
                |bench, sampler, _| {
                    bench.resample(sz, &mut sram_factory(sampler.clone()))?;
                    let mags = bench.run(&freqs)?;
                    Ok(mags.into_iter().map(f64::to_bits).collect::<Vec<_>>())
                },
                &mut ac,
            )
            .expect("the benches build");
        (fo3.records().to_vec(), ac.records().to_vec())
    };
    let one = run(1);
    assert!(
        one.0.len() >= 5 && one.1.len() >= 10,
        "most samples succeed"
    );
    for workers in [2, 3] {
        assert!(run(workers) == one, "{workers} workers");
    }
}

#[test]
#[should_panic(expected = "synthetic sample panic")]
fn sample_panics_propagate_instead_of_deadlocking() {
    let _ = ParallelRunner::new(2).workers(3).run_streaming_range(
        0,
        64,
        |_, _| Ok::<(), std::convert::Infallible>(()),
        |(), _, i| {
            if i == 7 {
                panic!("synthetic sample panic");
            }
            Ok(1.0)
        },
        &mut WelfordSink::new(),
    );
}

#[test]
#[should_panic(expected = "synthetic build panic")]
fn build_panics_propagate_instead_of_deadlocking() {
    let _ = ParallelRunner::new(2).workers(3).run_streaming_range(
        0,
        64,
        |w, _| {
            if w == 1 {
                panic!("synthetic build panic");
            }
            Ok::<(), std::convert::Infallible>(())
        },
        |(), _, _| Ok(1.0),
        &mut WelfordSink::new(),
    );
}

// ---------------------------------------------------------------------------
// Sinks: every shipped sink fed by run_streaming_range
// ---------------------------------------------------------------------------

/// Final state of every shipped sink after streaming the device-level
/// workload: CSV bytes, t-digest estimates, histogram counts, Welford
/// moments.
struct SinkState {
    csv: Vec<u8>,
    digest: Vec<u64>,
    hist: Vec<u64>,
    welford: Welford,
    observed: usize,
}

/// Streams the stateless device-level workload through one of each shipped
/// sink on `workers` threads.
fn streaming_device_run(seed: u64, n: usize, workers: usize) -> SinkState {
    let b = builder();
    let sp = spec();
    // Every shipped sink at once, fanned out through nested tuples. The
    // histogram range brackets the idsat distribution; out-of-range draws
    // clamp deterministically into the edge bins.
    let mut sink = (
        (
            CsvSink::with_header(Vec::<u8>::new(), &["sample", "idsat_a"]),
            TDigest::new(100.0),
        ),
        (Histogram::new(0.0, 2e-3, 32), WelfordSink::new()),
    );
    let out = ParallelRunner::new(seed)
        .workers(workers)
        .run_streaming_range(
            0,
            n,
            |_, _| Ok::<(), std::convert::Infallible>(()),
            |(), sampler, _| {
                let delta = sp.sample(b.geometry(), || sampler.standard_normal());
                Ok(DeviceMetrics::evaluate(b.build(delta).as_ref(), VDD).idsat)
            },
            &mut sink,
        )
        .expect("infallible setup");
    let ((csv, digest), (hist, welford)) = sink;
    SinkState {
        csv: csv.into_inner(),
        digest: [0.1, 0.5, 0.9]
            .iter()
            .map(|&p| digest.quantile(p).expect("non-empty digest").to_bits())
            .collect(),
        hist: hist.counts().to_vec(),
        welford: welford.moments(),
        observed: out.observed,
    }
}

#[test]
fn streaming_sinks_are_bit_identical_for_any_worker_count() {
    // The tentpole property: every shipped sink's output — raw CSV bytes
    // included — is a pure function of (seed, n), not of the sharding.
    for (seed, n) in [(1u64, 97), (42, 256)] {
        let r1 = streaming_device_run(seed, n, 1);
        assert_eq!(r1.observed, n);
        assert!(!r1.csv.is_empty());
        for workers in [2, 3, 7] {
            let rw = streaming_device_run(seed, n, workers);
            assert_eq!(
                r1.csv, rw.csv,
                "seed {seed}: CSV bytes differ at {workers} workers"
            );
            assert_eq!(
                r1.digest, rw.digest,
                "seed {seed}: t-digest state differs at {workers} workers"
            );
            assert_eq!(
                r1.hist, rw.hist,
                "seed {seed}: histogram counts differ at {workers} workers"
            );
            assert_eq!(r1.welford, rw.welford);
        }
    }
}

#[test]
fn buffered_and_streamed_sinks_see_the_same_record_stream() {
    // A VecSink buffer and the constant-size sinks of another run, at
    // another worker count, describe one record stream: moments refolded
    // from the buffer equal the streamed moments to the last bit.
    let (records, _) = device_run(42, 256, 2);
    let r = streaming_device_run(42, 256, 3);
    let mut refold = Welford::new();
    for &(_, x) in &records {
        refold.push(f64::from_bits(x));
    }
    assert_eq!(refold, r.welford);
}

#[test]
fn streaming_counts_failures_and_skips_them_in_the_sink() {
    let mut sink = (VecSink::new(), WelfordSink::new());
    let out = ParallelRunner::new(3)
        .workers(2)
        .run_streaming_range(
            0,
            40,
            |_, _| Ok::<(), &'static str>(()),
            |(), _, i| {
                if i % 4 == 0 {
                    Err("synthetic")
                } else {
                    Ok(i as f64)
                }
            },
            &mut sink,
        )
        .expect("setup is fine");
    assert_eq!(out.failures, 10);
    assert_eq!(out.observed, 30);
    assert_eq!(out.attempted, 40);
    assert!(sink.0.records().iter().all(|(i, _)| i % 4 != 0));
    assert_eq!(sink.1.moments().count(), 30);
}

#[test]
#[should_panic(expected = "synthetic sink panic")]
fn sink_panics_propagate_on_the_coordinating_thread() {
    // A sink that panics in observe must shut the run down cleanly (no
    // deadlocked workers at the round barriers) and re-raise here, matching
    // the closure-panic guarantee.
    struct Exploding;
    impl Sink for Exploding {
        fn observe(&mut self, index: usize, _value: f64) {
            if index >= 7 {
                panic!("synthetic sink panic");
            }
        }
    }
    let _ = ParallelRunner::new(2).workers(3).run_streaming_range(
        0,
        64,
        |_, _| Ok::<(), std::convert::Infallible>(()),
        |(), _, _| Ok(1.0),
        &mut Exploding,
    );
}

#[test]
fn streaming_setup_errors_propagate_and_leave_the_sink_unfinished() {
    let mut sink = CsvSink::with_header(Vec::<u8>::new(), &["sample", "value"]);
    let err = ParallelRunner::new(1)
        .workers(4)
        .run_streaming_range(
            0,
            8,
            |w, _| {
                if w == 0 {
                    Err("worker zero failed")
                } else {
                    Ok(())
                }
            },
            |(), _, _| Ok(0.0),
            &mut sink,
        )
        .unwrap_err();
    assert_eq!(err, "worker zero failed");
    // No records reached the sink; the header was written at construction.
    assert_eq!(sink.into_inner(), b"sample,value\n");
}

#[test]
fn streaming_records_are_thread_count_invariant() {
    // The generic-record variant: (value, value²) pairs into a two-column
    // CSV, byte-compared across worker counts.
    let run = |workers: usize| {
        let mut sink = CsvSink::new(Vec::<u8>::new());
        let out = ParallelRunner::new(11)
            .workers(workers)
            .run_streaming_range(
                0,
                200,
                |_, _| Ok::<(), std::convert::Infallible>(()),
                |(), s, _| {
                    let x = s.standard_normal();
                    Ok((x, x * x))
                },
                &mut sink,
            )
            .expect("infallible");
        assert_eq!(out.observed, 200);
        sink.into_inner()
    };
    let reference = run(1);
    assert!(!reference.is_empty());
    for workers in [2, 7] {
        assert_eq!(reference, run(workers), "bytes differ at {workers} workers");
    }
}

#[test]
fn zero_samples_streaming_finishes_the_sink_empty() {
    let mut sink = (
        CsvSink::with_header(Vec::<u8>::new(), &["sample", "value"]),
        WelfordSink::new(),
    );
    let out = ParallelRunner::new(1)
        .run_streaming_range(
            0,
            0,
            |_, _| Ok::<(), std::convert::Infallible>(()),
            |(), _, _| Ok(1.0),
            &mut sink,
        )
        .expect("no work");
    assert_eq!(out.observed, 0);
    assert_eq!(out.attempted, 0);
    assert!(sink.1.moments().is_empty());
    assert_eq!(sink.0.into_inner(), b"sample,value\n");
}

// ---------------------------------------------------------------------------
// Fleet partitioning: run_streaming_range + mergeable sinks
// ---------------------------------------------------------------------------

/// The fleet sink set: one of each mergeable sketch.
type FleetSinks = ((TDigest, Histogram), WelfordSink);

fn fleet_sinks() -> FleetSinks {
    (
        (TDigest::new(100.0), Histogram::new(0.0, 2e-3, 32)),
        WelfordSink::new(),
    )
}

/// Runs the sample index shard `offset..offset + len` of the stateless
/// device-level workload on `workers` threads, returning the sink states.
fn fleet_shard(seed: u64, offset: usize, len: usize, workers: usize) -> FleetSinks {
    let b = builder();
    let sp = spec();
    let mut sink = fleet_sinks();
    ParallelRunner::new(seed)
        .workers(workers)
        .run_streaming_range(
            offset,
            len,
            |_, _| Ok::<(), std::convert::Infallible>(()),
            |(), sampler, _| {
                let delta = sp.sample(b.geometry(), || sampler.standard_normal());
                Ok(DeviceMetrics::evaluate(b.build(delta).as_ref(), VDD).idsat)
            },
            &mut sink,
        )
        .expect("infallible setup");
    sink
}

/// Merges shard sink states into fleet aggregates, pushing every sketch
/// through its byte round-trip first (the wire a real fleet would cross).
fn merge_through_bytes(shards: Vec<FleetSinks>) -> (TDigest, Histogram, Welford) {
    let mut digest = TDigest::new(100.0);
    let mut hist = Histogram::new(0.0, 2e-3, 32);
    let mut moments = WelfordSink::new();
    for ((d, h), w) in shards {
        digest.merge_from(&TDigest::from_bytes(&d.to_bytes()).expect("digest round trip"));
        MergeableSink::merge_from(
            &mut hist,
            &Histogram::from_bytes(&MergeableSink::to_bytes(&h)).expect("histogram round trip"),
        );
        moments.merge_from(&WelfordSink::from_bytes(&w.to_bytes()).expect("welford round trip"));
    }
    (digest, hist, moments.moments())
}

/// The acceptance property: n samples as one run vs three disjoint
/// `run_streaming_range` shards, merged through the byte round-trip.
/// Histogram state and Welford count/extrema are bit-identical; Welford
/// moments agree to floating-point rounding (grouping pushes into shards
/// legitimately moves the last bits — see `Welford::merge`); t-digest
/// quantiles stay within the documented rank-error bound.
#[test]
fn partitioned_shards_merge_to_the_single_run_state() {
    let (seed, n) = (23u64, 450);
    // Unequal shards at awkward offsets, each on a different worker count
    // (shard-internal sharding must not leak into the merged state).
    let shards = vec![
        fleet_shard(seed, 0, 170, 1),
        fleet_shard(seed, 170, 63, 2),
        fleet_shard(seed, 233, n - 233, 3),
    ];
    let (digest, hist, moments) = merge_through_bytes(shards);

    // Single-run reference over the same index space, plus the buffered
    // sample values for exact empirical quantiles.
    let mut single = (fleet_sinks(), VecSink::new());
    let b = builder();
    let sp = spec();
    let out = ParallelRunner::new(seed)
        .workers(2)
        .run_streaming_range(
            0,
            n,
            |_, _| Ok::<(), std::convert::Infallible>(()),
            |(), sampler, _| {
                let delta = sp.sample(b.geometry(), || sampler.standard_normal());
                Ok(DeviceMetrics::evaluate(b.build(delta).as_ref(), VDD).idsat)
            },
            &mut single,
        )
        .expect("infallible setup");
    let (((single_digest, single_hist), single_welford), values) = single;
    let values = values.into_values();
    assert_eq!(out.observed, n);

    // Histogram: integer counts — bit-identical.
    assert_eq!(hist.counts(), single_hist.counts());
    assert_eq!(hist.total(), single_hist.total());

    // Welford: count and extrema exact; moments to rounding.
    let single_m = single_welford.moments();
    assert_eq!(moments.count(), single_m.count());
    assert_eq!(moments.min().to_bits(), single_m.min().to_bits());
    assert_eq!(moments.max().to_bits(), single_m.max().to_bits());
    assert!((moments.mean() - single_m.mean()).abs() <= 1e-12 * single_m.mean().abs());
    assert!((moments.variance() - single_m.variance()).abs() <= 1e-12 * single_m.variance());

    // t-digest: counts and extrema exact; quantiles within the documented
    // bound of the single-run digest (both are within the pinned bound of
    // the exact empirical quantile, checked against the buffered values).
    assert_eq!(digest.count(), single_digest.count());
    assert_eq!(digest.min().to_bits(), single_digest.min().to_bits());
    assert_eq!(digest.max().to_bits(), single_digest.max().to_bits());
    let sigma = single_m.std();
    for p in [0.05, 0.25, 0.5, 0.75, 0.95] {
        let exact = stats::descriptive::quantile(&values, p);
        let m = digest.quantile(p).expect("non-empty digest");
        let s = single_digest.quantile(p).expect("non-empty digest");
        // n = 450 is far below the n = 4000 pin, so allow the small-sample
        // rank error headroom on top of the asymptotic bound.
        let tol = 0.1 * sigma;
        assert!(
            (m - exact).abs() <= tol,
            "merged digest p{p}: {m:.6e} vs exact {exact:.6e} (sigma {sigma:.2e})"
        );
        assert!(
            (m - s).abs() <= tol,
            "merged vs single digest p{p}: {m:.6e} vs {s:.6e}"
        );
    }
}

/// Merged state must not depend on *how* the index space was partitioned.
#[test]
fn merged_state_is_invariant_to_the_partitioning() {
    let seed = 7u64; // both partitions cover indices 0..300
    let coarse = vec![fleet_shard(seed, 0, 100, 2), fleet_shard(seed, 100, 200, 1)];
    let fine = vec![
        fleet_shard(seed, 0, 37, 1),
        fleet_shard(seed, 37, 63, 3),
        fleet_shard(seed, 100, 100, 2),
        fleet_shard(seed, 200, 100, 1),
    ];
    let (dc, hc, mc) = merge_through_bytes(coarse);
    let (df, hf, mf) = merge_through_bytes(fine);
    assert_eq!(hc.counts(), hf.counts(), "histogram depends on the split");
    assert_eq!(hc.total(), hf.total());
    assert_eq!(mc.count(), mf.count());
    assert_eq!(mc.min().to_bits(), mf.min().to_bits());
    assert_eq!(mc.max().to_bits(), mf.max().to_bits());
    assert!((mc.mean() - mf.mean()).abs() <= 1e-12 * mf.mean().abs());
    assert_eq!(dc.count(), df.count());
    let sigma = mf.std();
    for p in [0.1, 0.5, 0.9] {
        let a = dc.quantile(p).unwrap();
        let b = df.quantile(p).unwrap();
        assert!(
            (a - b).abs() <= 0.1 * sigma,
            "digest split-sensitivity at p{p}: {a:.6e} vs {b:.6e}"
        );
    }
}

/// A shard draws exactly the global `(seed, i)` streams: its records are
/// the corresponding slice of the full run's record sequence, bit for bit.
#[test]
fn range_shards_draw_the_global_sample_streams() {
    let (seed, n) = (91u64, 120);
    let b = builder();
    let sp = spec();
    let sample = |(): &mut (), sampler: &mut Sampler, _i: usize| {
        let delta = sp.sample(b.geometry(), || sampler.standard_normal());
        Ok::<_, std::convert::Infallible>(
            DeviceMetrics::evaluate(b.build(delta).as_ref(), VDD).idsat,
        )
    };
    let mut full = VecSink::new();
    ParallelRunner::new(seed)
        .workers(2)
        .run_streaming_range(0, n, |_, _| Ok(()), sample, &mut full)
        .expect("infallible setup");
    let mut shard = VecSink::new();
    let out = ParallelRunner::new(seed)
        .workers(3)
        .run_streaming_range(40, 50, |_, _| Ok(()), sample, &mut shard)
        .expect("infallible setup");
    assert_eq!(out.attempted, 50);
    assert_eq!(out.observed, 50);
    let full_slice: Vec<(usize, u64)> = full.records()[40..90]
        .iter()
        .map(|&(i, v)| (i, v.to_bits()))
        .collect();
    let shard_records: Vec<(usize, u64)> = shard
        .records()
        .iter()
        .map(|&(i, v)| (i, v.to_bits()))
        .collect();
    assert_eq!(full_slice, shard_records);
}

/// The sink state a caller-driven stopping loop relies on: the buffered
/// records, CSV bytes, Welford bytes and histogram bytes.
struct RangedState {
    records: Vec<(usize, u64)>,
    csv: Vec<u8>,
    welford: Vec<u8>,
    hist: Vec<u8>,
}

/// Streams the device-level workload through `ranges`, in order, into one
/// sink.
fn ranged_device_run(seed: u64, ranges: &[(usize, usize)], workers: usize) -> RangedState {
    let b = builder();
    let sp = spec();
    let mut sink = (
        (VecSink::new(), CsvSink::new(Vec::<u8>::new())),
        (WelfordSink::new(), Histogram::new(0.0, 2e-3, 32)),
    );
    let runner = ParallelRunner::new(seed).workers(workers);
    for &(offset, len) in ranges {
        runner
            .run_streaming_range(
                offset,
                len,
                |_, _| Ok::<(), std::convert::Infallible>(()),
                |(), sampler, _| {
                    let delta = sp.sample(b.geometry(), || sampler.standard_normal());
                    Ok(DeviceMetrics::evaluate(b.build(delta).as_ref(), VDD).idsat)
                },
                &mut sink,
            )
            .expect("infallible setup");
    }
    let ((records, csv), (welford, hist)) = sink;
    RangedState {
        records: bits(&records),
        csv: csv.into_inner(),
        welford: welford.to_bytes(),
        hist: MergeableSink::to_bytes(&hist),
    }
}

/// Consecutive ranges into one sink are one range over their union: the
/// sink sees the same record stream, so its state is byte-identical. (A
/// t-digest is left out: each range's `finish` compresses its buffer.)
#[test]
fn consecutive_ranges_feed_a_sink_like_one_range_over_their_union() {
    let whole = ranged_device_run(17, &[(0, 300)], 1);
    assert_eq!(whole.records.len(), 300);
    for workers in [1, 3] {
        // Uneven ranges, none aligned to a round boundary.
        let split = ranged_device_run(17, &[(0, 50), (50, 7), (57, 243)], workers);
        assert_eq!(split.records, whole.records, "{workers} workers");
        assert_eq!(split.csv, whole.csv, "{workers} workers");
        assert_eq!(split.welford, whole.welford, "{workers} workers");
        assert_eq!(split.hist, whole.hist, "{workers} workers");
    }
}

/// The caller-driven stopping loop: consecutive 50-sample ranges of
/// N(10, 1) into one sink, stopping once the 95% CI half-width on the mean
/// is within 1% of it. Returns the samples run, the records and the
/// Welford bytes.
fn ci_stopped_run(workers: usize) -> (usize, Vec<(usize, u64)>, Vec<u8>) {
    let runner = ParallelRunner::new(5).workers(workers);
    let mut sink = (VecSink::new(), WelfordSink::new());
    let mut run = 0;
    loop {
        runner
            .run_streaming_range(
                run,
                50,
                |_, _| Ok::<(), std::convert::Infallible>(()),
                |(), s, _| Ok(10.0 + s.standard_normal()),
                &mut sink,
            )
            .expect("infallible setup");
        run += 50;
        let m = sink.1.moments();
        if m.ci_half_width(1.96) <= 0.01 * m.mean().abs() || run >= 100_000 {
            break;
        }
    }
    (run, bits(&sink.0), sink.1.to_bytes())
}

#[test]
fn a_caller_stopping_rule_stops_at_the_same_range_for_any_worker_count() {
    let (run, records, welford) = ci_stopped_run(1);
    // The 1% interval on N(10, 1) needs ~384 samples: several ranges.
    assert!((200..100_000).contains(&run), "stopped after {run}");
    let indices: Vec<usize> = records.iter().map(|&(i, _)| i).collect();
    assert_eq!(indices, (0..run).collect::<Vec<_>>());
    // The range before the last did not satisfy the rule.
    let values: Vec<f64> = records.iter().map(|&(_, x)| f64::from_bits(x)).collect();
    let before = Welford::from_slice(&values[..run - 50]);
    assert!(before.ci_half_width(1.96) > 0.01 * before.mean().abs());
    for workers in [2, 3] {
        assert_eq!(
            ci_stopped_run(workers),
            (run, records.clone(), welford.clone()),
            "stop point or sink state differs at {workers} workers"
        );
    }
}

/// Degenerate shards behave like degenerate runs: nothing executes, the
/// sink still finishes.
#[test]
fn zero_length_shard_finishes_the_sink_empty() {
    let mut sink = WelfordSink::new();
    let out = ParallelRunner::new(3)
        .run_streaming_range(
            1000,
            0,
            |_, _| Ok::<(), std::convert::Infallible>(()),
            |(), _, _| Ok(1.0),
            &mut sink,
        )
        .expect("no work");
    assert_eq!(out.attempted, 0);
    assert_eq!(out.observed, 0);
    assert!(sink.moments().is_empty());
}

// ---------------------------------------------------------------------------
// Importance sampling: (value, log_weight) records + weighted sinks
// ---------------------------------------------------------------------------

/// The weighted fleet sink set: estimator + weighted histogram, fanned out
/// through the generic tuple `Sink` impl exactly like the unweighted set.
type IsSinks = (WeightedMoments, WeightedHistogram);

fn is_sinks() -> IsSinks {
    (
        WeightedMoments::above(4.0),
        WeightedHistogram::new(-2.0, 9.0, 22),
    )
}

/// Runs the shard `offset..offset + len` of a shifted-proposal IS workload
/// on `workers` threads, returning the weighted sink states.
fn is_shard(seed: u64, offset: usize, len: usize, workers: usize) -> IsSinks {
    let proposal = GaussianProposal::new(4.0, 1.25);
    let mut sinks = is_sinks();
    ParallelRunner::new(seed)
        .workers(workers)
        .run_streaming_range(
            offset,
            len,
            |_, _| Ok::<(), std::convert::Infallible>(()),
            |(), sampler, _| Ok(proposal.draw_weighted(sampler)),
            &mut sinks,
        )
        .expect("infallible setup");
    sinks
}

/// Weighted sink bytes must be bit-identical across 1/2/3/7 workers — the
/// streaming determinism contract extended to `(value, log_weight)`
/// records.
#[test]
fn is_weighted_sink_bytes_are_worker_count_invariant() {
    let (m1, h1) = is_shard(61, 0, 700, 1);
    let (reference_m, reference_h) = (m1.to_bytes(), h1.to_bytes());
    for workers in [2, 3, 7] {
        let (m, h) = is_shard(61, 0, 700, workers);
        assert_eq!(
            m.to_bytes(),
            reference_m,
            "moments bytes at {workers} workers"
        );
        assert_eq!(
            h.to_bytes(),
            reference_h,
            "histogram bytes at {workers} workers"
        );
    }
    // Sanity: the run actually estimated the 4σ tail it was aimed at.
    assert!((m1.estimate() / stats::gaussian::tail(4.0) - 1.0).abs() < 0.3);
    assert!(m1.ess() > 0.0);
}

/// Disjoint importance-sampling shards merged through the byte codec must
/// reproduce the single-run sink bytes *exactly* — stronger than the
/// Welford fleet guarantee, because the weighted sinks accumulate in
/// exact fixed-point sums. Any partitioning, any per-shard worker count.
#[test]
fn is_shards_merge_bit_identically_across_partitionings() {
    let (seed, n) = (29u64, 600);
    let (single_m, single_h) = is_shard(seed, 0, n, 2);
    let partitions: [&[(usize, usize, usize)]; 3] = [
        &[(0, 600, 1)],
        &[(0, 170, 1), (170, 63, 2), (233, 367, 3)],
        &[(0, 1, 1), (1, 299, 7), (300, 300, 2)],
    ];
    for cuts in partitions {
        let mut merged = is_sinks();
        for &(offset, len, workers) in cuts {
            let (m, h) = is_shard(seed, offset, len, workers);
            // Cross the wire: every shard round-trips through its codec.
            let m = WeightedMoments::from_bytes(&m.to_bytes()).expect("moments round trip");
            let h = WeightedHistogram::from_bytes(&h.to_bytes()).expect("histogram round trip");
            merged.0.merge_from(&m);
            merged.1.merge_from(&h);
        }
        assert_eq!(
            merged.0.to_bytes(),
            single_m.to_bytes(),
            "moments bytes differ for partition {cuts:?}"
        );
        assert_eq!(
            merged.1.to_bytes(),
            single_h.to_bytes(),
            "histogram bytes differ for partition {cuts:?}"
        );
    }
    assert_eq!(single_m.count(), n as u64);
    assert_eq!(single_h.total(), n as u64);
}

/// The nominal (shift = 0, scale = 1) proposal reduces an IS run
/// to plain MC bit-exactly: the record values are the unweighted stream
/// and every log-weight is +0.0.
#[test]
fn nominal_proposal_reduces_to_plain_mc_bit_exactly() {
    let (seed, n) = (47u64, 500);
    let proposal = GaussianProposal::nominal();
    let mut is_records: VecSink<(f64, f64)> = VecSink::new();
    ParallelRunner::new(seed)
        .workers(3)
        .run_streaming_range(
            0,
            n,
            |_, _| Ok::<(), std::convert::Infallible>(()),
            |(), sampler, _| Ok(proposal.draw_weighted(sampler)),
            &mut is_records,
        )
        .expect("infallible setup");
    let mut plain: VecSink<f64> = VecSink::new();
    ParallelRunner::new(seed)
        .workers(2)
        .run_streaming_range(
            0,
            n,
            |_, _| Ok::<(), std::convert::Infallible>(()),
            |(), sampler, _| Ok(sampler.standard_normal()),
            &mut plain,
        )
        .expect("infallible setup");
    assert_eq!(is_records.records().len(), n);
    for ((i, (x, log_w)), (j, z)) in is_records.records().iter().zip(plain.records()) {
        assert_eq!(i, j);
        assert_eq!(x.to_bits(), z.to_bits(), "sample {i}: value stream shifted");
        assert_eq!(
            log_w.to_bits(),
            0.0f64.to_bits(),
            "sample {i}: weight not +0.0"
        );
    }
}

/// Circuit-level IS through `McFactory::set_proposal_shifts`: the SRAM SNM
/// workload under a mean-shifted proposal stays worker-count invariant at
/// the byte level, and with zero shifts it reproduces the plain-MC SNM
/// values bit-exactly.
#[test]
fn sram_is_run_is_worker_count_invariant_and_degenerates_to_plain_mc() {
    let shifts: std::sync::Arc<[f64]> = (0..30)
        .map(|k| if k % 5 == 0 { -0.8 } else { 0.1 })
        .collect();
    let run = |workers: usize, shifts: std::sync::Arc<[f64]>| {
        let mut sinks = (
            WeightedMoments::below(0.1),
            WeightedHistogram::new(0.0, 0.4, 16),
        );
        ParallelRunner::new(5)
            .workers(workers)
            .run_streaming_range(
                0,
                24,
                |_, setup| {
                    let mut f = sram_factory(setup.fork(0));
                    let bench = circuits::sram::SnmBench::new(
                        SramSizing::default(),
                        VDD,
                        circuits::sram::SnmMode::Hold,
                        31,
                        &mut f,
                    )?;
                    Ok((f, bench))
                },
                |(f, bench), sampler, _| {
                    f.set_sampler(sampler.clone());
                    f.set_proposal_shifts(shifts.clone());
                    bench.resample(SramSizing::default(), f)?;
                    let snm = bench.snm()?;
                    Ok::<_, spice::SpiceError>((snm, f.take_log_weight()))
                },
                &mut sinks,
            )
            .expect("sram elaboration");
        (sinks.0.to_bytes(), sinks.1.to_bytes())
    };
    let reference = run(1, shifts.clone());
    for workers in [2, 3] {
        assert_eq!(run(workers, shifts.clone()), reference, "{workers} workers");
    }

    // Zero shifts: the weighted records must be the plain-MC SNM values
    // with +0.0 log-weights.
    let zero: std::sync::Arc<[f64]> = std::sync::Arc::from(vec![0.0; 30]);
    let mut is_records: VecSink<(f64, f64)> = VecSink::new();
    ParallelRunner::new(5)
        .workers(2)
        .run_streaming_range(
            0,
            12,
            |_, setup| {
                let mut f = sram_factory(setup.fork(0));
                let bench = circuits::sram::SnmBench::new(
                    SramSizing::default(),
                    VDD,
                    circuits::sram::SnmMode::Hold,
                    31,
                    &mut f,
                )?;
                Ok((f, bench))
            },
            |(f, bench), sampler, _| {
                f.set_sampler(sampler.clone());
                f.set_proposal_shifts(zero.clone());
                bench.resample(SramSizing::default(), f)?;
                let snm = bench.snm()?;
                Ok::<_, spice::SpiceError>((snm, f.take_log_weight()))
            },
            &mut is_records,
        )
        .expect("sram elaboration");
    let mut plain_records: VecSink<f64> = VecSink::new();
    ParallelRunner::new(5)
        .workers(3)
        .run_streaming_range(
            0,
            12,
            |_, setup| {
                let mut f = sram_factory(setup.fork(0));
                let bench = circuits::sram::SnmBench::new(
                    SramSizing::default(),
                    VDD,
                    circuits::sram::SnmMode::Hold,
                    31,
                    &mut f,
                )?;
                Ok((f, bench))
            },
            |(f, bench), sampler, _| {
                f.set_sampler(sampler.clone());
                bench.resample(SramSizing::default(), f)?;
                bench.snm()
            },
            &mut plain_records,
        )
        .expect("sram elaboration");
    assert_eq!(is_records.records().len(), plain_records.records().len());
    for ((i, (snm, log_w)), (j, plain)) in is_records.records().iter().zip(plain_records.records())
    {
        assert_eq!(i, j);
        assert_eq!(snm.to_bits(), plain.to_bits(), "sample {i}: SNM shifted");
        assert_eq!(log_w.to_bits(), 0.0f64.to_bits(), "sample {i}");
    }
}
