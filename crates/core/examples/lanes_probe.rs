//! Quick standalone probe of the lanes kernels: priced ns/burst per tier
//! (OPT(Fixed), BL8, 8 chains × 128 bursts, best of 200).
//! Run: `cargo run -p dbi-core --example lanes_probe --release`

use dbi_core::schemes::OptFixedEncoder;
use dbi_core::{BurstSlab, BusState};
use std::time::Instant;

fn main() {
    let chains = 8usize;
    let per_chain = 128usize;
    let count = chains * per_chain;
    let mut slab = BurstSlab::with_capacity(8, count);
    let mut x = 0x1234_5678_9abc_def0u64;
    for _ in 0..count {
        slab.push_with(|out| {
            for _ in 0..8 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                out.push((x >> 33) as u8);
            }
        });
    }
    let opt = OptFixedEncoder::new();
    for &kernel in dbi_core::simd::available_kernels() {
        let mut best = f64::INFINITY;
        for _ in 0..200 {
            let mut states = [BusState::idle(); 8];
            let start = Instant::now();
            opt.encode_lanes_into_with(kernel, &mut slab, &mut states);
            std::hint::black_box(states);
            let ns = start.elapsed().as_secs_f64() * 1e9 / count as f64;
            if ns < best {
                best = ns;
            }
        }
        println!("{kernel:9} {best:.2} ns/burst");
    }
}
