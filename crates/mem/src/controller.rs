//! The memory-controller write path with pluggable DBI encoding.
//!
//! [`MemoryController`] ties the substrate together: it encodes each write
//! access on a [`BusSession`] (the serial per-burst reference, each lane
//! group carrying its own lane history), hands every group's encoded burst
//! to the DRAM device and charges both the interface energy (Eq. 4, via
//! `dbi-phy`) and the encoder's own energy (Table I, via `dbi-hw`) to the
//! running totals.

use crate::config::ChannelConfig;
use crate::device::DramDevice;
use crate::error::{MemError, Result};
use crate::session::BusSession;
use core::fmt;
use dbi_core::{Burst, CostBreakdown, EncodedBurst, InversionMask, Scheme};
use dbi_phy::InterfaceEnergyModel;

/// Summary of one write access.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessReport {
    /// Activity added on the wires by this access.
    pub activity: CostBreakdown,
    /// Interface energy of this access in joules.
    pub interface_energy_j: f64,
    /// Encoding energy of this access in joules.
    pub encoding_energy_j: f64,
}

impl AccessReport {
    /// Total energy (interface + encoder) of the access, in joules.
    #[must_use]
    pub fn total_energy_j(&self) -> f64 {
        self.interface_energy_j + self.encoding_energy_j
    }
}

/// Running totals over the lifetime of a controller.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyTotals {
    /// Number of write accesses performed.
    pub accesses: u64,
    /// Number of per-group bursts driven.
    pub bursts: u64,
    /// Total wire activity.
    pub activity: CostBreakdown,
    /// Total interface energy in joules.
    pub interface_energy_j: f64,
    /// Total encoder energy in joules.
    pub encoding_energy_j: f64,
}

impl EnergyTotals {
    /// Total energy (interface + encoder) in joules.
    #[must_use]
    pub fn total_energy_j(&self) -> f64 {
        self.interface_energy_j + self.encoding_energy_j
    }

    /// Mean total energy per burst in picojoules (0 when nothing was
    /// driven).
    #[must_use]
    pub fn mean_energy_per_burst_pj(&self) -> f64 {
        if self.bursts == 0 {
            0.0
        } else {
            self.total_energy_j() / self.bursts as f64 * 1e12
        }
    }
}

impl fmt::Display for EnergyTotals {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} accesses, {} bursts, {:.3} nJ interface, {:.3} nJ encoding",
            self.accesses,
            self.bursts,
            self.interface_energy_j * 1e9,
            self.encoding_energy_j * 1e9
        )
    }
}

/// A write-path memory controller with a pluggable DBI encoder.
///
/// ```
/// # fn main() -> Result<(), dbi_mem::MemError> {
/// use dbi_core::Scheme;
/// use dbi_mem::{ChannelConfig, MemoryController};
///
/// let mut controller = MemoryController::new(ChannelConfig::gddr5x(), Scheme::OptFixed);
/// let data = vec![0u8; controller.config().access_bytes()];
/// controller.write(0x0, &data)?;
/// assert_eq!(controller.device().read_byte(0x0), 0);
/// assert!(controller.totals().interface_energy_j > 0.0);
/// # Ok(())
/// # }
/// ```
pub struct MemoryController {
    config: ChannelConfig,
    energy_model: InterfaceEnergyModel,
    encoding_energy_per_burst_j: f64,
    session: BusSession,
    /// Reused per access: the session's per-group activity and masks.
    per_group: Vec<CostBreakdown>,
    masks: Vec<InversionMask>,
    device: DramDevice,
    totals: EnergyTotals,
}

impl fmt::Debug for MemoryController {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemoryController")
            .field("config", &self.config)
            .field("session", &self.session)
            .field("totals", &self.totals)
            .finish_non_exhaustive()
    }
}

impl MemoryController {
    /// Creates a controller for the given channel using the given DBI
    /// scheme, with no encoder-energy overhead charged (use
    /// [`MemoryController::with_encoding_energy`] to account for it).
    #[must_use]
    pub fn new(config: ChannelConfig, scheme: Scheme) -> Self {
        MemoryController {
            energy_model: config.energy_model(),
            encoding_energy_per_burst_j: 0.0,
            session: BusSession::new(&config, scheme),
            per_group: Vec::new(),
            masks: Vec::new(),
            config,
            device: DramDevice::new(),
            totals: EnergyTotals::default(),
        }
    }

    /// Sets the energy charged per encoded burst (e.g. from the Table I
    /// synthesis report of the scheme's hardware implementation). Negative
    /// or non-finite values are treated as zero.
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

    /// The channel configuration.
    #[must_use]
    pub const fn config(&self) -> &ChannelConfig {
        &self.config
    }

    /// The DBI scheme in use.
    #[must_use]
    pub fn scheme(&self) -> Scheme {
        self.session.scheme()
    }

    /// The DRAM device behind the channel (for read-back verification).
    #[must_use]
    pub const fn device(&self) -> &DramDevice {
        &self.device
    }

    /// The running energy totals.
    #[must_use]
    pub const fn totals(&self) -> &EnergyTotals {
        &self.totals
    }

    /// Writes one access worth of data (`config().access_bytes()` bytes)
    /// starting at `address`.
    ///
    /// The data is interleaved across lane groups the way a real channel
    /// does it: byte *k* of beat *t* goes to group *k mod groups*, so one
    /// group carries every `groups`-th byte.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::BadAccessSize`] when `data` is not exactly one
    /// access in size.
    pub fn write(&mut self, address: u64, data: &[u8]) -> Result<AccessReport> {
        let expected = self.config.access_bytes();
        if data.len() != expected {
            return Err(MemError::BadAccessSize {
                got: data.len(),
                expected,
            });
        }
        self.session
            .encode_stream_into(data, &mut self.per_group, Some(&mut self.masks))?;
        let groups = self.config.lane_groups();
        let burst_len = self.config.burst_len();
        let mut encoding_energy = 0.0;
        for (group, &mask) in self.masks.iter().enumerate() {
            // Gather this group's bytes: one byte per beat.
            let bytes: Vec<u8> = (0..burst_len)
                .map(|beat| data[beat * groups + group])
                .collect();
            let burst = Burst::new(bytes).expect("burst length is validated by the config");
            let encoded =
                EncodedBurst::from_mask(&burst, mask).expect("session masks fit the burst");
            // Each group's burst occupies a contiguous slice of the array:
            // group g of the access at `address` lands at
            // `address + g·burst_len .. address + (g+1)·burst_len`.
            self.device
                .receive_burst(address + (group * burst_len) as u64, &encoded);
            encoding_energy += self.encoding_energy_per_burst_j;
        }

        let activity: CostBreakdown = self.per_group.iter().copied().sum();
        let interface_energy = self.energy_model.burst_energy_j(&activity);
        let report = AccessReport {
            activity,
            interface_energy_j: interface_energy,
            encoding_energy_j: encoding_energy,
        };
        self.totals.accesses += 1;
        self.totals.bursts += groups as u64;
        self.totals.activity += activity;
        self.totals.interface_energy_j += interface_energy;
        self.totals.encoding_energy_j += encoding_energy;
        Ok(report)
    }

    /// Writes a whole buffer as consecutive accesses starting at `address`.
    /// The buffer length must be a multiple of the access size.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::BadAccessSize`] when the buffer is not a multiple
    /// of the access size.
    pub fn write_buffer(&mut self, address: u64, data: &[u8]) -> Result<Vec<AccessReport>> {
        let step = self.config.access_bytes();
        if data.is_empty() || !data.len().is_multiple_of(step) {
            return Err(MemError::BadAccessSize {
                got: data.len(),
                expected: step,
            });
        }
        data.chunks_exact(step)
            .enumerate()
            .map(|(i, chunk)| self.write(address + (i * step) as u64, chunk))
            .collect()
    }

    /// Verifies that the device holds exactly the data previously written at
    /// `address` by [`MemoryController::write`] (what the integration tests
    /// use to show every scheme is lossless end to end).
    ///
    /// The comparison undoes the group interleaving: byte `k` of the access
    /// was carried by group `k mod groups` during beat `k / groups` and is
    /// stored at `address + (k mod groups)·burst_len + k / groups`.
    #[must_use]
    pub fn verify(&self, address: u64, expected: &[u8]) -> bool {
        let groups = self.config.lane_groups();
        let burst_len = self.config.burst_len();
        expected.iter().enumerate().all(|(index, &byte)| {
            let beat = index / groups;
            let group = index % groups;
            let cell = address + (group * burst_len + beat) as u64;
            self.device.read_byte(cell) == byte
        })
    }
}

impl fmt::Display for MemoryController {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} with {}: {}", self.config, self.scheme(), self.totals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_rejects_wrong_sizes() {
        let mut controller = MemoryController::new(ChannelConfig::gddr5x(), Scheme::Dc);
        assert!(matches!(
            controller.write(0, &[0u8; 31]),
            Err(MemError::BadAccessSize {
                got: 31,
                expected: 32
            })
        ));
        assert!(controller.write_buffer(0, &[0u8; 33]).is_err());
        assert!(controller.write_buffer(0, &[]).is_err());
    }

    #[test]
    fn totals_accumulate() {
        let mut controller = MemoryController::new(ChannelConfig::gddr5x(), Scheme::OptFixed)
            .with_encoding_energy(1.66e-12);
        let data = vec![0x5Au8; 32];
        let report = controller.write(0, &data).unwrap();
        assert!(report.interface_energy_j > 0.0);
        assert!(report.encoding_energy_j > 0.0);
        assert!(report.total_energy_j() > report.interface_energy_j);
        controller.write(32, &data).unwrap();
        let totals = controller.totals();
        assert_eq!(totals.accesses, 2);
        assert_eq!(totals.bursts, 8);
        assert!(totals.total_energy_j() > 0.0);
        assert!(totals.mean_energy_per_burst_pj() > 0.0);
        assert!(controller.to_string().contains("GDDR5X"));
    }

    #[test]
    fn encoding_energy_is_ignored_when_invalid() {
        let controller = MemoryController::new(ChannelConfig::gddr5x(), Scheme::Dc)
            .with_encoding_energy(f64::NAN);
        assert_eq!(controller.encoding_energy_per_burst_j, 0.0);
        let controller =
            MemoryController::new(ChannelConfig::gddr5x(), Scheme::Dc).with_encoding_energy(-1.0);
        assert_eq!(controller.encoding_energy_per_burst_j, 0.0);
    }

    #[test]
    fn opt_uses_no_more_interface_energy_than_dc_or_ac() {
        let pattern: Vec<u8> = (0..64u32).map(|i| (i * 37 + 11) as u8).collect();
        let energy = |scheme: Scheme| {
            let mut c = MemoryController::new(ChannelConfig::ddr4_3200(), scheme);
            c.write(0, &pattern).unwrap();
            c.totals().interface_energy_j
        };
        let opt = energy(Scheme::OptFixed);
        assert!(opt <= energy(Scheme::Dc) + 1e-18);
        assert!(opt <= energy(Scheme::Ac) + 1e-18);
    }

    #[test]
    fn every_scheme_is_lossless_end_to_end() {
        let data: Vec<u8> = (0..32u32).map(|i| (i * 73 + 5) as u8).collect();
        for scheme in Scheme::paper_set().iter().copied() {
            let mut controller = MemoryController::new(ChannelConfig::gddr5x(), scheme);
            controller.write(0x4000, &data).unwrap();
            assert!(
                controller.verify(0x4000, &data),
                "scheme {scheme} corrupted data"
            );
            assert!(!controller.verify(0x4000, &[0xEE; 32]));
            assert_eq!(controller.scheme(), scheme);
        }
    }

    #[test]
    fn write_buffer_splits_into_accesses() {
        let mut controller = MemoryController::new(ChannelConfig::gddr5x(), Scheme::OptFixed);
        let data: Vec<u8> = (0..96u32).map(|i| i as u8).collect();
        let reports = controller.write_buffer(0, &data).unwrap();
        assert_eq!(reports.len(), 3);
        assert_eq!(controller.totals().accesses, 3);
        assert!(controller.verify(0, &data[..32]));
        assert!(controller.verify(32, &data[32..64]));
        assert!(controller.verify(64, &data[64..]));
    }

    #[test]
    fn empty_totals_report_zero_mean() {
        let totals = EnergyTotals::default();
        assert_eq!(totals.mean_energy_per_burst_pj(), 0.0);
        assert!(totals.to_string().contains("0 accesses"));
    }
}
