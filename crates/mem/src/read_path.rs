//! Read-path DBI: the paper's forward-looking extension.
//!
//! Today's DRAMs already generate DBI on read data, but only with the
//! simple DC/AC rules implemented inside the device. The paper's
//! conclusion notes that the optimal encoding "could be integrated into
//! future memories to also reduce read interface energy". This module
//! models that scenario: the DRAM device encodes read bursts with a
//! configurable scheme before driving them back to the controller, the
//! controller decodes them, and the same energy accounting applies to the
//! read direction. The device's encoder is a [`BusSession`], so the read
//! direction carries its lane state exactly as the write path does.
//!
//! It is an **extension** of the paper's evaluation (which covers writes);
//! EXPERIMENTS.md labels the derived numbers accordingly.

use crate::config::ChannelConfig;
use crate::controller::EnergyTotals;
use crate::device::DramDevice;
use crate::error::Result;
use crate::session::BusSession;
use core::fmt;
use dbi_core::{CostBreakdown, InversionMask, Scheme};
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
    energy_model: InterfaceEnergyModel,
    encoding_energy_per_burst_j: f64,
    session: BusSession,
    /// Reused per access: the session's per-group activity, masks and the
    /// wire image.
    per_group: Vec<CostBreakdown>,
    masks: Vec<InversionMask>,
    wire: Vec<u8>,
    totals: EnergyTotals,
}

impl fmt::Debug for ReadPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReadPath")
            .field("config", &self.config)
            .field("session", &self.session)
            .field("totals", &self.totals)
            .finish_non_exhaustive()
    }
}

impl ReadPath {
    /// Creates a read path for the given channel, encoding read data on the
    /// device side with the given scheme.
    #[must_use]
    pub fn new(config: ChannelConfig, scheme: Scheme) -> Self {
        ReadPath {
            energy_model: config.energy_model(),
            encoding_energy_per_burst_j: 0.0,
            session: BusSession::new(&config, scheme),
            per_group: Vec::new(),
            masks: Vec::new(),
            wire: Vec::new(),
            config,
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
    pub fn scheme(&self) -> Scheme {
        self.session.scheme()
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
    /// the write path: any [`crate::MemError`] the session reports for the
    /// configured access geometry is passed through.
    pub fn read(&mut self, device: &DramDevice, address: u64) -> Result<Vec<u8>> {
        let groups = self.config.lane_groups();
        let burst_len = self.config.burst_len();
        // The device reads the stored bursts back into the write path's
        // beat interleaving: byte `k` is beat `k / groups` of group
        // `k mod groups`, stored at `address + (k mod groups)·burst_len +
        // k / groups`...
        let mut data: Vec<u8> = (0..self.config.access_bytes())
            .map(|k| device.read_byte(address + ((k % groups) * burst_len + k / groups) as u64))
            .collect();
        // ...encodes them with the read-direction scheme and drives the
        // wire image; the controller undoes it with the same masks
        // (masked complementation is an involution).
        self.session
            .encode_stream_into(&data, &mut self.per_group, Some(&mut self.masks))?;
        self.session
            .transmit_stream_into(&data, &self.masks, &mut self.wire)?;
        self.session
            .transmit_stream_into(&self.wire, &self.masks, &mut data)?;
        let activity: CostBreakdown = self.per_group.iter().copied().sum();
        // Charged burst by burst, not multiplied out, so the f64 totals
        // stay those of a per-burst accumulation.
        let encoding_energy =
            (0..groups).fold(0.0, |energy, _| energy + self.encoding_energy_per_burst_j);

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
            self.config,
            self.scheme(),
            self.totals
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
