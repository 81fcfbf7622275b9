//! Read-path DBI: the paper's forward-looking extension.
//!
//! Today's DRAMs already generate DBI on read data, but only with the
//! simple DC/AC rules implemented inside the device. The paper's
//! conclusion notes that the optimal encoding "could be integrated into
//! future memories to also reduce read interface energy". This module
//! models that scenario: the DRAM device encodes read bursts with a
//! configurable scheme before driving them back to the controller, the
//! controller decodes them, and the same energy accounting applies to the
//! read direction.
//!
//! It is an **extension** of the paper's evaluation (which covers writes);
//! EXPERIMENTS.md labels the derived numbers accordingly.

use crate::bus::DqBus;
use crate::config::ChannelConfig;
use crate::controller::EnergyTotals;
use crate::device::DramDevice;
use crate::error::{MemError, Result};
use core::fmt;
use dbi_core::{Burst, CostBreakdown, DbiEncoder, Scheme};
use dbi_phy::InterfaceEnergyModel;

/// A read-direction channel: the DRAM encodes, the controller decodes.
///
/// The device side owns the bus state of the read direction (the DQ bus is
/// bidirectional but half-duplex; modelling the two directions with
/// separate state is conservative and keeps the accounting simple).
///
/// ```
/// # fn main() -> Result<(), dbi_mem::MemError> {
/// use dbi_core::Scheme;
/// use dbi_mem::{ChannelConfig, MemoryController, ReadPath};
///
/// // Fill the device through the write path first.
/// let mut controller = MemoryController::new(ChannelConfig::gddr5x(), Scheme::OptFixed);
/// let data: Vec<u8> = (0..32).collect();
/// controller.write(0, &data)?;
///
/// // Then read it back through a DBI-encoding read path.
/// let mut reads = ReadPath::new(ChannelConfig::gddr5x(), Scheme::OptFixed);
/// let restored = reads.read(controller.device(), 0)?;
/// assert_eq!(restored, data);
/// # Ok(())
/// # }
/// ```
pub struct ReadPath {
    config: ChannelConfig,
    scheme: Scheme,
    /// Prebuilt from `scheme` so parametric encoders (and their cost
    /// tables) are constructed once per path, not once per burst.
    encoder: Box<dyn DbiEncoder + Send + Sync>,
    energy_model: InterfaceEnergyModel,
    encoding_energy_per_burst_j: f64,
    bus: DqBus,
    totals: EnergyTotals,
}

impl fmt::Debug for ReadPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReadPath")
            .field("config", &self.config)
            .field("scheme", &self.scheme)
            .field("bus", &self.bus)
            .field("totals", &self.totals)
            .finish_non_exhaustive()
    }
}

impl ReadPath {
    /// Creates a read path for the given channel, encoding read data on the
    /// device side with the given scheme.
    #[must_use]
    pub fn new(config: ChannelConfig, scheme: Scheme) -> Self {
        let energy_model = config.energy_model();
        let bus = DqBus::new(config.lane_groups());
        ReadPath {
            config,
            scheme,
            encoder: scheme.boxed(),
            energy_model,
            encoding_energy_per_burst_j: 0.0,
            bus,
            totals: EnergyTotals::default(),
        }
    }

    /// Sets the energy charged per encoded read burst (the encoder now sits
    /// inside the DRAM). Negative or non-finite values are treated as zero.
    #[must_use]
    pub fn with_encoding_energy(mut self, joules_per_burst: f64) -> Self {
        self.encoding_energy_per_burst_j = if joules_per_burst.is_finite() && joules_per_burst > 0.0
        {
            joules_per_burst
        } else {
            0.0
        };
        self
    }

    /// The scheme the device uses on read data.
    #[must_use]
    pub const fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// The accumulated read-direction energy totals.
    #[must_use]
    pub const fn totals(&self) -> &EnergyTotals {
        &self.totals
    }

    /// Reads one access (`config().access_bytes()` bytes) starting at
    /// `address` from the device, driving the encoded bursts over the bus
    /// and returning the controller-side decoded data in the original
    /// (pre-interleaving) byte order.
    ///
    /// # Errors
    ///
    /// Currently infallible in practice, but kept fallible for parity with
    /// the write path; returns [`MemError::BadAccessSize`] only if the
    /// configuration reports a zero-sized access, which the constructors
    /// prevent.
    pub fn read(&mut self, device: &DramDevice, address: u64) -> Result<Vec<u8>> {
        let groups = self.config.lane_groups();
        let burst_len = self.config.burst_len();
        let expected = self.config.access_bytes();
        if expected == 0 {
            return Err(MemError::BadAccessSize { got: 0, expected });
        }
        let mut activity = CostBreakdown::ZERO;
        let mut encoding_energy = 0.0;
        let mut data = vec![0u8; expected];
        for group in 0..groups {
            // The device reads the stored burst of this group...
            let stored = device.read_range(address + (group * burst_len) as u64, burst_len);
            let burst = Burst::new(stored).expect("burst length is validated by the config");
            // ...encodes it with the read-direction scheme and drives it.
            let (encoded, breakdown) = self.bus.drive(group, &burst, &*self.encoder);
            activity += breakdown;
            encoding_energy += self.encoding_energy_per_burst_j;
            // The controller decodes the lane words and undoes the
            // write-path interleaving.
            let decoded = encoded.decode();
            for (beat, byte) in decoded.iter().enumerate() {
                data[beat * groups + group] = byte;
            }
        }

        let interface_energy = self.energy_model.burst_energy_j(&activity);
        self.totals.accesses += 1;
        self.totals.bursts += groups as u64;
        self.totals.activity += activity;
        self.totals.interface_energy_j += interface_energy;
        self.totals.encoding_energy_j += encoding_energy;
        Ok(data)
    }
}

impl fmt::Display for ReadPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "read path {} with {}: {}",
            self.config, self.scheme, self.totals
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::MemoryController;

    fn written_controller(scheme: Scheme, data: &[u8]) -> MemoryController {
        let mut controller = MemoryController::new(ChannelConfig::gddr5x(), scheme);
        controller.write_buffer(0, data).unwrap();
        controller
    }

    fn test_data(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 97 + 13) as u8).collect()
    }

    #[test]
    fn reads_return_exactly_what_was_written() {
        let data = test_data(96);
        let controller = written_controller(Scheme::OptFixed, &data);
        for read_scheme in Scheme::paper_set().iter().copied() {
            let mut reads = ReadPath::new(ChannelConfig::gddr5x(), read_scheme);
            for access in 0..3 {
                let restored = reads.read(controller.device(), access as u64 * 32).unwrap();
                assert_eq!(
                    restored,
                    &data[access * 32..(access + 1) * 32],
                    "read scheme {read_scheme}"
                );
            }
            assert_eq!(reads.scheme(), read_scheme);
            assert_eq!(reads.totals().accesses, 3);
        }
    }

    #[test]
    fn optimal_read_encoding_saves_interface_energy() {
        let data = test_data(32 * 32);
        let controller = written_controller(Scheme::Raw, &data);
        let energy = |scheme: Scheme| {
            let mut reads = ReadPath::new(ChannelConfig::gddr5x(), scheme);
            for access in 0..32u64 {
                reads.read(controller.device(), access * 32).unwrap();
            }
            reads.totals().interface_energy_j
        };
        let opt = energy(Scheme::OptFixed);
        assert!(opt < energy(Scheme::Raw));
        assert!(opt <= energy(Scheme::Dc) + 1e-18);
        assert!(opt <= energy(Scheme::Ac) + 1e-18);
    }

    #[test]
    fn encoding_energy_is_charged_per_read_burst() {
        let data = test_data(32);
        let controller = written_controller(Scheme::Dc, &data);
        let mut reads =
            ReadPath::new(ChannelConfig::gddr5x(), Scheme::OptFixed).with_encoding_energy(2e-12);
        reads.read(controller.device(), 0).unwrap();
        let totals = reads.totals();
        assert_eq!(totals.bursts, 4);
        assert!((totals.encoding_energy_j - 4.0 * 2e-12).abs() < 1e-20);
        assert!(totals.total_energy_j() > totals.interface_energy_j);
        assert!(reads.to_string().contains("read path"));
    }

    #[test]
    fn invalid_encoding_energy_is_ignored() {
        let reads = ReadPath::new(ChannelConfig::gddr5x(), Scheme::Dc)
            .with_encoding_energy(f64::NEG_INFINITY);
        assert_eq!(reads.encoding_energy_per_burst_j, 0.0);
    }
}
