//! The layer split measures the program the slots run, not a lookalike:
//!
//! * replaying a recorded `Exec` stream into a fresh `ModelExec` gives
//!   the direct run's `ExecReport`, bit for bit;
//! * the replayed `Hierarchy` L1 misses and `Tlb` misses, scaled as
//!   `ModelExec` scales them, equal its `L1DataMisses` and
//!   `TlbDataMisses` counters;
//! * the kernel jobs reproduce the slots' own outputs (Figure 7 cycles,
//!   every Table II cell, every Figure 5 bandwidth, the Figure 3
//!   calibration rate).

use mb_cpu::counters::Counter;
use mb_cpu::exec_model::ExecReport;
use mb_cpu::ops::NullExec;
use mb_kernels::chess;
use mb_kernels::linpack::Linpack;
use mbbench::layers::{kernel_jobs, replay, Kernel, KernelJob, MemReplay, Op, Recorder};
use montblanc::{fig3, fig5, fig7, table2};

/// The job run directly on its `ModelExec`, and through a recorder
/// whose chunks replay into a second fresh `ModelExec` and a
/// [`MemReplay`].
fn direct_and_replayed(job: &KernelJob) -> (ExecReport, ExecReport, MemReplay) {
    let mut direct = job.model_exec();
    job.kernel.run(&mut direct);
    let mut replayed = job.model_exec();
    let mut mem = MemReplay::new(job);
    let mut recorder = Recorder::new(|ops: &[Op]| {
        replay(ops, &mut replayed);
        mem.feed(ops);
    });
    job.kernel.run(&mut recorder);
    recorder.finish();
    (direct.finish(), replayed.finish(), mem)
}

/// A sampled count scaled to the whole stream, as `ModelExec::finish`
/// scales its counters.
fn scaled(sampled: u64, mem: &MemReplay) -> u64 {
    let scale = if mem.sampled_accesses == 0 {
        1.0
    } else {
        mem.accesses() as f64 / mem.sampled_accesses as f64
    };
    (sampled as f64 * scale) as u64
}

fn assert_oracle(job: &KernelJob) {
    let name = job.kernel.name();
    let (direct, replayed, mem) = direct_and_replayed(job);
    assert_eq!(replayed, direct, "{name}: replayed ExecReport differs");
    assert_eq!(
        mem.accesses(),
        direct.counters.get(Counter::L1DataAccesses),
        "{name}"
    );
    assert_eq!(
        scaled(mem.l1_misses(), &mem),
        direct.counters.get(Counter::L1DataMisses),
        "{name}: L1 misses"
    );
    assert_eq!(
        scaled(mem.tlb_misses(), &mem),
        direct.counters.get(Counter::TlbDataMisses),
        "{name}: TLB misses"
    );
    assert!(
        direct.counters.get(Counter::L1DataMisses) > 0,
        "{name}: a stream that misses"
    );
}

#[test]
fn fig7_magicfilter_variant_replays_exactly_at_rate_1() {
    let jobs = kernel_jobs("fig7-quick");
    assert_eq!(jobs.len(), fig7::slot_count(&fig7::Fig7Config::quick()));
    let job = &jobs[16]; // tegra2-u5
    assert_eq!(job.sample_rate, 1);
    assert_oracle(job);
}

#[test]
fn table2_kernel_replays_exactly_at_rate_4() {
    let jobs = kernel_jobs("table2-paper");
    let job = &jobs[8]; // BigDFT/snowball: millions of accesses, most windows skipped
    assert!(matches!(job.kernel, Kernel::Bigdft { .. }));
    assert_eq!(job.sample_rate, 4);
    assert_oracle(job);
    let (_, _, mem) = direct_and_replayed(job);
    assert!(
        mem.sampled_accesses < mem.accesses() / 3,
        "rate 4 must skip windows"
    );
}

#[test]
fn fig7_jobs_reproduce_the_slot_below_the_register_budget() {
    // Nehalem unroll 1 emits no spill traffic, so the kernel alone is
    // the whole slot.
    let cfg = fig7::Fig7Config::quick();
    let job = &kernel_jobs("fig7-quick")[0];
    let mut exec = job.model_exec();
    job.kernel.run(&mut exec);
    let report = exec.finish();
    let [cycles, accesses] = fig7::measure_slot(&cfg, 0);
    assert_eq!(report.counters.get(Counter::TotalCycles) as f64, cycles);
    assert_eq!(
        report.counters.get(Counter::L1DataAccesses) as f64,
        accesses
    );
}

#[test]
fn table2_jobs_reproduce_every_cell() {
    let cfg = table2::Table2Config::quick();
    let jobs = kernel_jobs("table2-quick");
    assert_eq!(jobs.len(), table2::extended_cell_count());
    for (idx, job) in jobs.iter().enumerate() {
        let mut exec = job.model_exec();
        job.kernel.run(&mut exec);
        // `table2`'s node scaling: cores at 95 % parallel efficiency.
        let secs = exec.finish().time.as_secs_f64() / (job.platform.cores as f64 * 0.95);
        let value = match job.kernel {
            Kernel::BlockedLu { n } | Kernel::Dgefa { n } => {
                Linpack::nominal_flops(n) as f64 / secs / 1e6
            }
            Kernel::CoreMark { iterations } => f64::from(iterations) / secs,
            Kernel::Chess { depth } => chess::bench(depth, &mut NullExec) as f64 / secs,
            Kernel::Protein { sweeps } => f64::from(sweeps) / secs,
            _ => secs,
        };
        assert_eq!(
            value.to_bits(),
            table2::measure_cell(&cfg, idx).to_bits(),
            "cell {idx} ({})",
            table2::cell_label(idx)
        );
    }
}

#[test]
fn fig5_jobs_reproduce_every_slot() {
    let cfg = fig5::Fig5Config::quick();
    let measurer = fig5::SlotMeasurer::new(&cfg);
    let jobs = kernel_jobs("fig5-quick");
    assert_eq!(jobs.len(), measurer.slot_count());
    let anomaly = mb_os::rt_anomaly::RtAnomalyModel::new(
        jobs.len(),
        cfg.degraded_fraction,
        cfg.slowdown,
        cfg.seed ^ 0xA,
    );
    for (seq, job) in jobs.iter().enumerate() {
        let Kernel::Membench { cfg: mb, .. } = &job.kernel else {
            panic!("fig5 slots run the membench kernel");
        };
        let mut exec = job.model_exec();
        job.kernel.run(&mut exec);
        let report = exec.finish();
        let bytes = report.counts.loads * mb.elem_bytes as u64;
        let bandwidth = bytes as f64 / report.time.as_secs_f64() / 1e9;
        assert_eq!(
            (bandwidth / anomaly.slowdown_at(seq)).to_bits(),
            measurer.measure(seq).to_bits(),
            "slot {seq}"
        );
    }
}

#[test]
fn fig3_job_is_the_calibration() {
    let jobs = kernel_jobs("fig3-faulted-quick");
    assert_eq!(jobs.len(), 1);
    let mut exec = jobs[0].model_exec();
    jobs[0].kernel.run(&mut exec);
    assert_eq!(
        exec.finish().gflops().to_bits(),
        fig3::tegra2_effective_gflops().to_bits()
    );
    assert!(kernel_jobs("top500-trends").is_empty());
}
