//! Device models and per-query I/O accounting.
//!
//! The reproduction runs on one machine, so elapsed I/O time tells us
//! nothing about the paper's cluster. Instead every disk access is recorded
//! against the device it would have hit (a node's HDD arrays, its cache
//! SSD, the LAN, the user's WAN link), and a query's I/O time is *modelled*
//! from the recorded access pattern: per device `ops × latency +
//! bytes / bandwidth`, devices within one session running in parallel
//! (RAID arrays are driven concurrently — paper §5.3), so the session's
//! I/O time is the per-device makespan.

use std::collections::HashMap;

/// Identifies a registered device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DeviceId(pub u32);

/// Latency/bandwidth profile of one device.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProfile {
    pub name: String,
    /// Fixed cost per operation (seek / request round-trip), seconds.
    pub latency_s: f64,
    /// Sustained transfer rate, bytes per second.
    pub bandwidth_bps: f64,
    /// Pass-through stages (controllers, network links): a request's wait
    /// is already accounted on the end device, so these never add to a
    /// serial schedule — they only bound parallel throughput.
    pub pass_through: bool,
}

impl DeviceProfile {
    /// A 4-disk RAID-5 SATA array of the paper's era (§5.1). The
    /// per-request latency is the *effective* cost of one 64 KiB block
    /// read in a clustered z-order scan (seeks amortised by read-ahead):
    /// calibrated so a single-process scan moves ~20-25 MB/s — the rate
    /// the paper's Fig. 8 I/O-only runs imply (≈3 GB per node in ≈140 s).
    pub fn hdd_array() -> Self {
        Self {
            name: "hdd-raid5".into(),
            latency_s: 2.5e-3,
            bandwidth_bps: 300e6,
            pass_through: false,
        }
    }

    /// A SATA SSD holding the cache tables.
    pub fn ssd() -> Self {
        Self {
            name: "ssd".into(),
            latency_s: 120e-6,
            bandwidth_bps: 450e6,
            pass_through: false,
        }
    }

    /// A node's shared disk controller / bus: every byte any array moves
    /// also passes through it, capping aggregate I/O parallelism — the
    /// reason the paper's I/O time stops improving with more processes.
    pub fn node_controller() -> Self {
        Self {
            name: "controller".into(),
            latency_s: 1.25e-3,
            bandwidth_bps: 600e6,
            pass_through: true,
        }
    }

    /// Data-centre LAN between mediator and database nodes.
    pub fn lan() -> Self {
        Self {
            name: "lan".into(),
            latency_s: 0.5e-3,
            bandwidth_bps: 10e9 / 8.0,
            pass_through: true,
        }
    }

    /// The end user's link to the service — JHTDB users are typically on
    /// university networks a few hops from the cluster.
    pub fn user_wan() -> Self {
        Self {
            name: "wan".into(),
            latency_s: 10e-3,
            bandwidth_bps: 100e6 / 8.0,
            pass_through: true,
        }
    }

    /// Modelled time for `ops` operations moving `bytes` bytes.
    pub fn time(&self, ops: u64, bytes: u64) -> f64 {
        ops as f64 * self.latency_s + bytes as f64 / self.bandwidth_bps
    }
}

/// Registry of every device in the simulated cluster.
#[derive(Debug, Default, Clone)]
pub struct DeviceRegistry {
    profiles: Vec<DeviceProfile>,
}

impl DeviceRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a device and returns its id.
    pub fn register(&mut self, profile: DeviceProfile) -> DeviceId {
        self.profiles.push(profile);
        DeviceId(self.profiles.len() as u32 - 1)
    }

    /// Profile of a registered device. An id this registry never issued
    /// (a session merged across registries) resolves to an inert
    /// zero-cost pass-through profile rather than panicking mid-query.
    pub fn profile(&self, id: DeviceId) -> &DeviceProfile {
        static UNKNOWN: DeviceProfile = DeviceProfile {
            name: String::new(),
            latency_s: 0.0,
            bandwidth_bps: f64::INFINITY,
            pass_through: true,
        };
        self.profiles.get(id.0 as usize).unwrap_or(&UNKNOWN)
    }

    /// Number of registered devices.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// Whether no devices are registered.
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }
}

/// Per-device access counts recorded during one unit of work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Access {
    pub ops: u64,
    pub bytes: u64,
}

/// I/O recorder carried through a query (or one worker's share of it).
#[derive(Debug, Clone, Default)]
pub struct IoSession {
    accesses: HashMap<DeviceId, Access>,
    /// Buffer-pool hits (no device charge).
    pub pool_hits: u64,
    /// Buffer-pool misses (device charged).
    pub pool_misses: u64,
    /// Modelled seconds added by injected faults (latency faults and
    /// retry backoff). Charged serially on top of the device schedule —
    /// a stalled request blocks its issuing process.
    pub injected_delay_s: f64,
}

impl IoSession {
    /// Fresh session.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `ops` operations moving `bytes` on `device`.
    pub fn charge(&mut self, device: DeviceId, ops: u64, bytes: u64) {
        let a = self.accesses.entry(device).or_default();
        a.ops += ops;
        a.bytes += bytes;
    }

    /// Merges the accesses of another session (e.g. a finished worker).
    pub fn merge(&mut self, other: &IoSession) {
        for (dev, a) in &other.accesses {
            let e = self.accesses.entry(*dev).or_default();
            e.ops += a.ops;
            e.bytes += a.bytes;
        }
        self.pool_hits += other.pool_hits;
        self.pool_misses += other.pool_misses;
        self.injected_delay_s += other.injected_delay_s;
    }

    /// All devices touched, with their accesses (unordered).
    pub fn devices(&self) -> impl Iterator<Item = (DeviceId, Access)> + '_ {
        self.accesses.iter().map(|(d, a)| (*d, *a))
    }

    /// Access recorded against one device.
    pub fn access(&self, device: DeviceId) -> Access {
        self.accesses.get(&device).copied().unwrap_or_default()
    }

    /// Total bytes across devices.
    pub fn total_bytes(&self) -> u64 {
        self.accesses.values().map(|a| a.bytes).sum()
    }

    /// Total operations across devices.
    pub fn total_ops(&self) -> u64 {
        self.accesses.values().map(|a| a.ops).sum()
    }

    /// Modelled I/O time: devices run in parallel, so the session time is
    /// the slowest device's schedule.
    pub fn makespan(&self, registry: &DeviceRegistry) -> f64 {
        self.accesses
            .iter()
            .map(|(dev, a)| registry.profile(*dev).time(a.ops, a.bytes))
            .fold(0.0, f64::max)
            + self.injected_delay_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_time_combines_latency_and_bandwidth() {
        let p = DeviceProfile {
            name: "t".into(),
            latency_s: 0.01,
            bandwidth_bps: 1000.0,
            pass_through: false,
        };
        let t = p.time(3, 5000);
        assert!((t - (0.03 + 5.0)).abs() < 1e-12);
    }

    #[test]
    fn makespan_is_max_serial_is_sum() {
        let mut reg = DeviceRegistry::new();
        let a = reg.register(DeviceProfile {
            name: "a".into(),
            latency_s: 0.0,
            bandwidth_bps: 100.0,
            pass_through: false,
        });
        let b = reg.register(DeviceProfile {
            name: "b".into(),
            latency_s: 0.0,
            bandwidth_bps: 200.0,
            pass_through: false,
        });
        let mut s = IoSession::new();
        s.charge(a, 1, 100); // 1 s
        s.charge(b, 1, 100); // 0.5 s
        assert!((s.makespan(&reg) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn merge_accumulates() {
        let mut reg = DeviceRegistry::new();
        let d = reg.register(DeviceProfile::ssd());
        let mut s1 = IoSession::new();
        s1.charge(d, 2, 10);
        s1.pool_hits = 1;
        let mut s2 = IoSession::new();
        s2.charge(d, 3, 20);
        s2.pool_misses = 4;
        s1.merge(&s2);
        assert_eq!(s1.access(d), Access { ops: 5, bytes: 30 });
        assert_eq!((s1.pool_hits, s1.pool_misses), (1, 4));
        assert_eq!(s1.total_bytes(), 30);
        assert_eq!(s1.total_ops(), 5);
    }

    #[test]
    fn canned_profiles_are_ordered_sensibly() {
        let hdd = DeviceProfile::hdd_array();
        let ssd = DeviceProfile::ssd();
        let wan = DeviceProfile::user_wan();
        let lan = DeviceProfile::lan();
        assert!(ssd.latency_s < hdd.latency_s);
        assert!(lan.bandwidth_bps > wan.bandwidth_bps);
        // an 8 KiB random read: SSD much faster than HDD array
        assert!(ssd.time(1, 8192) * 10.0 < hdd.time(1, 8192));
    }

    #[test]
    fn empty_session_has_zero_makespan() {
        let reg = DeviceRegistry::new();
        assert_eq!(IoSession::new().makespan(&reg), 0.0);
    }

    #[test]
    fn injected_delay_is_serial_and_merges() {
        let mut reg = DeviceRegistry::new();
        let d = reg.register(DeviceProfile {
            name: "d".into(),
            latency_s: 0.0,
            bandwidth_bps: 100.0,
            pass_through: false,
        });
        let mut s = IoSession::new();
        s.charge(d, 1, 100); // 1 s on the device
        s.injected_delay_s = 0.5;
        assert!((s.makespan(&reg) - 1.5).abs() < 1e-12);
        let mut other = IoSession::new();
        other.injected_delay_s = 0.25;
        s.merge(&other);
        assert!((s.injected_delay_s - 0.75).abs() < 1e-12);
    }
}
