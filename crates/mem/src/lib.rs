//! # dbi-mem
//!
//! A GDDR5/GDDR5X/DDR4 write-channel substrate for evaluating data bus
//! inversion schemes at the system level.
//!
//! The paper measures encoding schemes on isolated bursts; a real memory
//! controller drives many lane groups whose wire state persists across
//! bursts, pays the encoder's own energy on every burst and must never
//! corrupt the stored data. This crate provides that surrounding machinery:
//!
//! * [`ChannelConfig`] — channel geometry, electrical interface, load and
//!   data rate (GDDR5, GDDR5X and DDR4 presets),
//! * [`DramDevice`] — the DBI-decoding receiver with a sparse backing store,
//! * [`BusSession`] — the one carrier of per-group lane state across
//!   bursts: whole write streams in one call, with the independent DBI
//!   groups optionally packed into one slab and encoded as parallel lanes
//!   of a single kernel dispatch (bit-identical to the serial result),
//! * [`MemoryController`] — the write path tying it all together: a
//!   [`BusSession`] with a pluggable [`dbi_core::Scheme`], the device and
//!   full energy accounting,
//! * [`ReadPath`] — the same for the read direction, the device encoding
//!   on its own [`BusSession`].
//!
//! ```
//! # fn main() -> Result<(), dbi_mem::MemError> {
//! use dbi_core::Scheme;
//! use dbi_mem::{ChannelConfig, MemoryController};
//!
//! let mut controller = MemoryController::new(ChannelConfig::gddr5x(), Scheme::OptFixed);
//! let data: Vec<u8> = (0..32).collect();
//! controller.write(0x1000, &data)?;
//! assert!(controller.verify(0x1000, &data));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod config;
pub mod controller;
pub mod device;
pub mod error;
pub mod read_path;
pub mod session;

pub use config::{ChannelConfig, MemoryKind};
pub use controller::{AccessReport, EnergyTotals, MemoryController};
pub use device::DramDevice;
pub use error::{MemError, Result};
pub use read_path::ReadPath;
pub use session::{BusSession, ChannelActivity, ReplayScratch};

#[cfg(test)]
mod tests {
    use super::*;
    use dbi_core::Scheme;

    #[test]
    fn the_optimal_scheme_saves_channel_energy_on_random_traffic() {
        // A small end-to-end sanity check of the whole substrate: writing
        // the same pseudo-random buffer through a GDDR5X channel costs less
        // interface energy with OPT(Fixed) than with RAW.
        let mut data = vec![0u8; 32 * 64];
        let mut seed = 0x2468_ACE0u32;
        for byte in &mut data {
            seed = seed.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            *byte = (seed >> 24) as u8;
        }
        let energy = |scheme: Scheme| {
            let mut controller = MemoryController::new(ChannelConfig::gddr5x(), scheme);
            controller.write_buffer(0, &data).unwrap();
            assert!(controller.verify(0, &data[..32]));
            controller.totals().interface_energy_j
        };
        assert!(energy(Scheme::OptFixed) < energy(Scheme::Raw));
    }
}
