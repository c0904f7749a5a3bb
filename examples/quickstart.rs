//! Quickstart: cost one real kernel on both of the paper's machines and
//! compare performance and energy.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use mb_cpu::ops::NullExec;
use mb_kernels::linpack::Linpack;
use montblanc::platform::Platform;

fn main() {
    // 1. A real computation: LU-factorise and solve a 64×64 system.
    //    With `NullExec` the kernel runs at native speed and we can
    //    check the numerics.
    let mut lp = Linpack::new(64, 1);
    lp.factorize(&mut NullExec);
    let x = lp.solve(&mut NullExec);
    println!("LU solve residual (should be O(1)): {:.3}", lp.residual(&x));

    // 2. The same kernel, costed on the two platforms of the paper.
    for platform in [Platform::snowball(), Platform::xeon_x5550()] {
        let mut exec = platform.exec(1);
        let mut lp = Linpack::new(64, 1);
        lp.factorize(&mut exec);
        let _ = lp.solve(&mut exec);
        let report = exec.finish();
        let energy = platform.power.energy_over(report.time);
        println!(
            "{:<32} {:>10}  {:>8.3} GFLOPS  {}",
            platform.name,
            report.time.to_string(),
            report.gflops(),
            energy
        );
    }

    println!();
    println!("The Xeon is far faster — but it burns 95 W to the Snowball's 2.5 W,");
    println!("which is the entire premise of the Mont-Blanc project.");
}
