//! The low-level controller: runtime slot accounting and configuration.

use std::collections::BTreeMap;

use vfpga_fabric::{Cluster, DeviceId};
use vfpga_sim::Rng;

use crate::vblock::VirtualBlockImage;
use crate::HsError;

/// Identifies one live configuration (an image occupying slots on one
/// device).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AllocationId(pub u64);

#[derive(Debug, Clone)]
struct Allocation {
    device: DeviceId,
    blocks: usize,
    /// The concrete virtual-block slot indexes the image occupies
    /// (first-fit, not necessarily contiguous).
    slots: Vec<usize>,
}

/// Runtime health of one device as seen by the low-level controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceHealth {
    /// The device accepts configuration requests.
    Healthy,
    /// The device is down: every allocation it held has been evicted and
    /// nothing can be configured on it until [`recover_device`].
    ///
    /// [`recover_device`]: LowLevelController::recover_device
    Failed,
}

/// Deterministic transient-fault injection hook for `configure`: each
/// otherwise-valid configuration request draws once from a seeded stream
/// and fails with [`HsError::TransientConfigureFailure`] with the given
/// probability — the "flaky partial reconfiguration" chaos experiments
/// exercise. Draws happen only for requests that would succeed, so the
/// stream (and with it the whole simulation) is reproducible from the seed.
#[derive(Debug, Clone)]
pub struct TransientFaultInjector {
    prob: f64,
    rng: Rng,
}

impl TransientFaultInjector {
    /// Creates an injector failing configures with probability `prob`.
    ///
    /// # Panics
    ///
    /// Panics if `prob` is not in `0.0..=1.0`.
    pub fn new(prob: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&prob),
            "fault probability must be in [0, 1], got {prob}"
        );
        TransientFaultInjector {
            prob,
            rng: Rng::seed_from_u64(seed),
        }
    }

    fn should_fail(&mut self) -> bool {
        self.prob > 0.0 && self.rng.next_f64() < self.prob
    }
}

/// Lifetime counters of one [`LowLevelController`]: every configuration
/// request it has served or rejected, plus the occupancy high-water mark.
/// Updated unconditionally — cheap enough for the cloud simulator's inner
/// loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct LlcStats {
    /// Successful configurations.
    pub configures: u64,
    /// Releases performed.
    pub releases: u64,
    /// Configuration requests rejected (type mismatch, too few slots, or a
    /// failed target device).
    pub rejected: u64,
    /// Configuration requests that failed transiently (injected flaky
    /// partial reconfiguration).
    pub transient_faults: u64,
    /// Device failures processed via [`LowLevelController::evict_device`].
    pub device_failures: u64,
    /// Device recoveries processed via
    /// [`LowLevelController::recover_device`].
    pub device_recoveries: u64,
    /// Allocations evicted by device failures.
    pub evicted: u64,
    /// Highest cluster-wide occupancy ever reached (0..=1).
    pub peak_occupancy: f64,
}

/// The HS abstraction's runtime controller (Fig. 7's "low-level
/// controller"): receives configuration requests from the system controller
/// and tracks which virtual blocks of which device are occupied.
///
/// Spatial sharing falls out directly: images from different accelerators
/// occupy disjoint slots of the same device.
#[derive(Debug, Clone)]
pub struct LowLevelController {
    total_slots: Vec<usize>,
    free_slots: Vec<usize>,
    /// Per-device slot occupancy bitmap; `free_slots` is always its free
    /// count. Tracking *which* slots an image holds gives partial
    /// reconfiguration a concrete target region (and the trace exporter
    /// its one-thread-per-vblock lanes).
    occupied: Vec<Vec<bool>>,
    health: Vec<DeviceHealth>,
    /// Live allocations by id, in ascending id order.
    allocations: BTreeMap<u64, Allocation>,
    device_type_names: Vec<String>,
    next_id: u64,
    stats: LlcStats,
    injector: Option<TransientFaultInjector>,
    /// Bumped on every operation that can *increase* free capacity
    /// somewhere (release, eviction, recovery). Successful configures do
    /// not bump it: they only shrink capacity, so any placement that was
    /// infeasible before a configure is still infeasible after it. Upper
    /// layers key feasibility caches on this value — a cached capacity
    /// rejection stays valid exactly as long as the epoch is unchanged.
    capacity_epoch: u64,
}

impl LowLevelController {
    /// Creates a controller for a cluster with all slots free.
    pub fn new(cluster: &Cluster) -> Self {
        let total_slots: Vec<usize> = cluster
            .iter()
            .map(|d| d.device_type().vblock_slots())
            .collect();
        let device_type_names = cluster
            .iter()
            .map(|d| d.device_type().name().to_string())
            .collect();
        LowLevelController {
            free_slots: total_slots.clone(),
            occupied: total_slots.iter().map(|&n| vec![false; n]).collect(),
            health: vec![DeviceHealth::Healthy; total_slots.len()],
            total_slots,
            allocations: BTreeMap::new(),
            device_type_names,
            next_id: 0,
            stats: LlcStats::default(),
            injector: None,
            capacity_epoch: 0,
        }
    }

    /// The current capacity epoch: a counter bumped by every release,
    /// eviction, and recovery — the operations after which a previously
    /// infeasible placement may have become feasible. While the epoch is
    /// unchanged, free capacity can only have shrunk (configures never
    /// bump it), so capacity-based rejections observed at this epoch
    /// remain valid.
    pub fn capacity_epoch(&self) -> u64 {
        self.capacity_epoch
    }

    /// Installs (or clears) the transient configure-failure injector.
    pub fn set_fault_injector(&mut self, injector: Option<TransientFaultInjector>) {
        self.injector = injector;
    }

    /// Runtime health of a device.
    pub fn device_health(&self, device: DeviceId) -> DeviceHealth {
        self.health[device.0]
    }

    /// Whether a device currently accepts configuration requests.
    pub fn is_healthy(&self, device: DeviceId) -> bool {
        self.health[device.0] == DeviceHealth::Healthy
    }

    /// Number of devices currently failed.
    pub fn failed_devices(&self) -> usize {
        self.health
            .iter()
            .filter(|h| **h == DeviceHealth::Failed)
            .count()
    }

    /// Number of live allocations on one device.
    pub fn allocations_on(&self, device: DeviceId) -> usize {
        self.allocations
            .values()
            .filter(|a| a.device == device)
            .count()
    }

    /// Marks a device failed and evicts every allocation it holds,
    /// returning the evicted ids in ascending order. After this call no
    /// allocation references the device (the invariant the recovery tests
    /// pin), its reported free slots are zero, and `configure` refuses it
    /// with [`HsError::DeviceFailed`] until [`recover_device`].
    ///
    /// Idempotent: failing an already-failed device evicts nothing.
    ///
    /// [`recover_device`]: LowLevelController::recover_device
    pub fn evict_device(&mut self, device: DeviceId) -> Vec<AllocationId> {
        if self.health[device.0] == DeviceHealth::Failed {
            return Vec::new();
        }
        self.health[device.0] = DeviceHealth::Failed;
        self.stats.device_failures += 1;
        // Eviction invalidates allocation ids upper layers may still hold
        // (and therefore their capacity bookkeeping), so it opens a new
        // epoch even though the failed device itself reports zero slots.
        self.capacity_epoch += 1;
        let mut evicted: Vec<AllocationId> = Vec::new();
        self.allocations.retain(|id, a| {
            if a.device == device {
                evicted.push(AllocationId(*id));
                false
            } else {
                true
            }
        });
        // Slot bookkeeping stays exact: evicted blocks return to the free
        // pool (the device simply is not placeable while failed).
        self.free_slots[device.0] = self.total_slots[device.0];
        self.occupied[device.0].fill(false);
        // `retain` walks the ordered map, so `evicted` is already in
        // ascending id order and chaos runs reproduce event-for-event.
        self.stats.evicted += evicted.len() as u64;
        evicted
    }

    /// Marks a failed device healthy again, with all slots free.
    /// Idempotent on already-healthy devices.
    pub fn recover_device(&mut self, device: DeviceId) {
        if self.health[device.0] == DeviceHealth::Failed {
            self.health[device.0] = DeviceHealth::Healthy;
            self.stats.device_recoveries += 1;
            self.capacity_epoch += 1;
            debug_assert_eq!(
                self.allocations_on(device),
                0,
                "failed device retained allocations"
            );
        }
    }

    /// Lifetime configuration/release counters and the occupancy
    /// high-water mark.
    pub fn stats(&self) -> &LlcStats {
        &self.stats
    }

    /// Free virtual blocks on a device; zero while the device is failed,
    /// so placement logic naturally skips it.
    pub fn slots_free(&self, device: DeviceId) -> usize {
        match self.health[device.0] {
            DeviceHealth::Healthy => self.free_slots[device.0],
            DeviceHealth::Failed => 0,
        }
    }

    /// Total virtual blocks on a device.
    pub fn slots_total(&self, device: DeviceId) -> usize {
        self.total_slots[device.0]
    }

    /// Whether `image` could be configured on `device` right now.
    pub fn can_configure(&self, device: DeviceId, image: &VirtualBlockImage) -> bool {
        self.is_healthy(device)
            && self.device_type_names[device.0] == image.device_type_name()
            && self.free_slots[device.0] >= image.blocks()
    }

    /// Configures `image` onto free slots of `device`.
    ///
    /// # Errors
    ///
    /// Returns [`HsError::DeviceFailed`] for a failed target,
    /// [`HsError::DeviceTypeMismatch`] if the image targets a different
    /// device type, [`HsError::InsufficientSlots`] if too few blocks are
    /// free, or [`HsError::TransientConfigureFailure`] when the installed
    /// fault injector fires (the request itself was valid; retry later).
    pub fn configure(
        &mut self,
        device: DeviceId,
        image: &VirtualBlockImage,
    ) -> Result<AllocationId, HsError> {
        if !self.is_healthy(device) {
            self.stats.rejected += 1;
            return Err(HsError::DeviceFailed(device));
        }
        if self.device_type_names[device.0] != image.device_type_name() {
            self.stats.rejected += 1;
            return Err(HsError::DeviceTypeMismatch {
                image: image.device_type_name().to_string(),
                device: self.device_type_names[device.0].clone(),
            });
        }
        if self.free_slots[device.0] < image.blocks() {
            self.stats.rejected += 1;
            return Err(HsError::InsufficientSlots {
                device,
                requested: image.blocks(),
                free: self.free_slots[device.0],
            });
        }
        if let Some(injector) = &mut self.injector {
            if injector.should_fail() {
                self.stats.transient_faults += 1;
                return Err(HsError::TransientConfigureFailure(device));
            }
        }
        self.free_slots[device.0] -= image.blocks();
        // First-fit over the slot bitmap: the lowest free slots host the
        // image (virtual blocks are position-independent, so any free set
        // works; first-fit keeps the assignment deterministic).
        let mut slots = Vec::with_capacity(image.blocks());
        for (slot, taken) in self.occupied[device.0].iter_mut().enumerate() {
            if slots.len() == image.blocks() {
                break;
            }
            if !*taken {
                *taken = true;
                slots.push(slot);
            }
        }
        debug_assert_eq!(
            slots.len(),
            image.blocks(),
            "bitmap disagrees with free count"
        );
        let id = self.next_id;
        self.next_id += 1;
        self.allocations.insert(
            id,
            Allocation {
                device,
                blocks: image.blocks(),
                slots,
            },
        );
        self.stats.configures += 1;
        self.stats.peak_occupancy = self.stats.peak_occupancy.max(self.occupancy());
        Ok(AllocationId(id))
    }

    /// The concrete slot indexes a live allocation occupies (ascending);
    /// `None` for unknown or released ids.
    pub fn slots_of(&self, id: AllocationId) -> Option<&[usize]> {
        self.allocations.get(&id.0).map(|a| a.slots.as_slice())
    }

    /// Releases a previous configuration, freeing its slots.
    ///
    /// # Errors
    ///
    /// Returns [`HsError::UnknownAllocation`] for ids never issued or
    /// already released.
    pub fn release(&mut self, id: AllocationId) -> Result<(), HsError> {
        let alloc = self
            .allocations
            .remove(&id.0)
            .ok_or(HsError::UnknownAllocation(id.0))?;
        self.free_slots[alloc.device.0] += alloc.blocks;
        for slot in alloc.slots {
            // Eviction may have wiped the bitmap already (the allocation
            // then no longer exists, so we cannot get here for it); a live
            // release always clears exactly its own slots.
            debug_assert!(self.occupied[alloc.device.0][slot], "slot freed twice");
            self.occupied[alloc.device.0][slot] = false;
        }
        self.stats.releases += 1;
        self.capacity_epoch += 1;
        Ok(())
    }

    /// Number of live allocations across the cluster.
    pub fn live_allocations(&self) -> usize {
        self.allocations.len()
    }

    /// Fraction of slots currently occupied across *surviving* devices
    /// (degraded-mode occupancy: failed devices drop out of both numerator
    /// and denominator, so the value stays in `0.0..=1.0` even mid-chaos
    /// and measures pressure on the capacity that actually exists).
    pub fn occupancy(&self) -> f64 {
        let mut total = 0usize;
        let mut free = 0usize;
        for d in 0..self.total_slots.len() {
            if self.health[d] == DeviceHealth::Healthy {
                total += self.total_slots[d];
                free += self.free_slots[d];
            }
        }
        if total == 0 {
            0.0
        } else {
            (total - free) as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::HsCompiler;
    use vfpga_fabric::{DeviceType, ResourceVec};

    fn image_for(device_type: &DeviceType, dsps: u64) -> VirtualBlockImage {
        HsCompiler::default()
            .compile(
                "img",
                &ResourceVec {
                    luts: 10_000,
                    ffs: 10_000,
                    bram_kb: 100,
                    uram_kb: 0,
                    dsps,
                },
                device_type,
            )
            .unwrap()
    }

    #[test]
    fn configure_and_release_track_slots() {
        let cluster = Cluster::paper_cluster();
        let mut ctl = LowLevelController::new(&cluster);
        let vu = DeviceType::xcvu37p();
        let total = ctl.slots_free(DeviceId(0));
        let img = image_for(&vu, 1000); // needs 2 slots (564 dsps/slot)
        let blocks = img.blocks();
        assert!(blocks >= 2);
        let a = ctl.configure(DeviceId(0), &img).unwrap();
        assert_eq!(ctl.slots_free(DeviceId(0)), total - blocks);
        assert_eq!(ctl.live_allocations(), 1);
        ctl.release(a).unwrap();
        assert_eq!(ctl.slots_free(DeviceId(0)), total);
        assert!(ctl.release(a).is_err());
    }

    #[test]
    fn multiple_tenants_share_one_device() {
        let cluster = Cluster::paper_cluster();
        let mut ctl = LowLevelController::new(&cluster);
        let vu = DeviceType::xcvu37p();
        let img = image_for(&vu, 100); // 1 slot each
        let mut allocs = Vec::new();
        for _ in 0..ctl.slots_total(DeviceId(1)) {
            allocs.push(ctl.configure(DeviceId(1), &img).unwrap());
        }
        // Device is now full.
        let err = ctl.configure(DeviceId(1), &img).unwrap_err();
        assert!(matches!(err, HsError::InsufficientSlots { .. }));
        // Freeing one tenant admits the next.
        ctl.release(allocs.pop().unwrap()).unwrap();
        assert!(ctl.configure(DeviceId(1), &img).is_ok());
    }

    #[test]
    fn wrong_device_type_rejected() {
        let cluster = Cluster::paper_cluster();
        let mut ctl = LowLevelController::new(&cluster);
        let img = image_for(&DeviceType::xcvu37p(), 100);
        // Device 3 is the XCKU115.
        let err = ctl.configure(DeviceId(3), &img).unwrap_err();
        assert!(matches!(err, HsError::DeviceTypeMismatch { .. }));
        assert!(!ctl.can_configure(DeviceId(3), &img));
        assert!(ctl.can_configure(DeviceId(0), &img));
    }

    #[test]
    fn stats_track_configures_releases_and_peak() {
        let cluster = Cluster::paper_cluster();
        let mut ctl = LowLevelController::new(&cluster);
        let img = image_for(&DeviceType::xcvu37p(), 100);
        let a = ctl.configure(DeviceId(0), &img).unwrap();
        let b = ctl.configure(DeviceId(0), &img).unwrap();
        let peak = ctl.occupancy();
        ctl.release(a).unwrap();
        ctl.release(b).unwrap();
        // A rejected request (wrong device type) counts too.
        assert!(ctl.configure(DeviceId(3), &img).is_err());
        let stats = ctl.stats();
        assert_eq!(stats.configures, 2);
        assert_eq!(stats.releases, 2);
        assert_eq!(stats.rejected, 1);
        // Peak persists after everything is freed.
        assert_eq!(ctl.occupancy(), 0.0);
        assert_eq!(ctl.stats().peak_occupancy, peak);
    }

    #[test]
    fn double_release_is_an_error_and_keeps_slots_exact() {
        let cluster = Cluster::paper_cluster();
        let mut ctl = LowLevelController::new(&cluster);
        let img = image_for(&DeviceType::xcvu37p(), 100);
        let total = ctl.slots_free(DeviceId(0));
        let a = ctl.configure(DeviceId(0), &img).unwrap();
        let b = ctl.configure(DeviceId(0), &img).unwrap();
        ctl.release(a).unwrap();
        // Second release of the same id: a well-formed error, and the free
        // count is NOT double-credited.
        assert!(matches!(ctl.release(a), Err(HsError::UnknownAllocation(_))));
        assert_eq!(ctl.slots_free(DeviceId(0)), total - img.blocks());
        assert_eq!(ctl.live_allocations(), 1);
        ctl.release(b).unwrap();
        assert_eq!(ctl.slots_free(DeviceId(0)), total);
        assert!(ctl.occupancy() == 0.0);
    }

    #[test]
    fn evict_device_removes_every_allocation_and_blocks_configure() {
        let cluster = Cluster::paper_cluster();
        let mut ctl = LowLevelController::new(&cluster);
        let img = image_for(&DeviceType::xcvu37p(), 100);
        let a0 = ctl.configure(DeviceId(0), &img).unwrap();
        let a1 = ctl.configure(DeviceId(0), &img).unwrap();
        let other = ctl.configure(DeviceId(1), &img).unwrap();
        let evicted = ctl.evict_device(DeviceId(0));
        assert_eq!(evicted, vec![a0, a1], "ascending id order");
        assert_eq!(ctl.device_health(DeviceId(0)), DeviceHealth::Failed);
        assert_eq!(ctl.allocations_on(DeviceId(0)), 0);
        assert_eq!(ctl.failed_devices(), 1);
        // The failed device is unplaceable and reports zero free slots.
        assert_eq!(ctl.slots_free(DeviceId(0)), 0);
        assert!(!ctl.can_configure(DeviceId(0), &img));
        assert!(matches!(
            ctl.configure(DeviceId(0), &img),
            Err(HsError::DeviceFailed(_))
        ));
        // Releasing an evicted allocation is a well-formed error, not a
        // double-free.
        assert!(matches!(
            ctl.release(a0),
            Err(HsError::UnknownAllocation(_))
        ));
        // The survivor on device 1 is untouched.
        assert_eq!(ctl.allocations_on(DeviceId(1)), 1);
        ctl.release(other).unwrap();
        // Second eviction is a no-op.
        assert!(ctl.evict_device(DeviceId(0)).is_empty());
        assert_eq!(ctl.stats().device_failures, 1);
        assert_eq!(ctl.stats().evicted, 2);
        // Recovery restores a fully free, configurable device.
        ctl.recover_device(DeviceId(0));
        assert_eq!(ctl.device_health(DeviceId(0)), DeviceHealth::Healthy);
        assert_eq!(ctl.slots_free(DeviceId(0)), ctl.slots_total(DeviceId(0)));
        assert!(ctl.configure(DeviceId(0), &img).is_ok());
        assert_eq!(ctl.stats().device_recoveries, 1);
    }

    #[test]
    fn occupancy_is_degraded_mode_under_failures() {
        let cluster = Cluster::paper_cluster();
        let mut ctl = LowLevelController::new(&cluster);
        let img = image_for(&DeviceType::xcvu37p(), 100);
        // Fill device 1 completely, then fail devices 0 and 2.
        for _ in 0..ctl.slots_total(DeviceId(1)) {
            ctl.configure(DeviceId(1), &img).unwrap();
        }
        ctl.evict_device(DeviceId(0));
        ctl.evict_device(DeviceId(2));
        let occ = ctl.occupancy();
        assert!(occ <= 1.0, "degraded occupancy exceeded 1.0: {occ}");
        assert!(occ > 0.5, "survivor pressure should dominate: {occ}");
    }

    #[test]
    fn transient_injector_is_deterministic_and_leaves_state_clean() {
        let cluster = Cluster::paper_cluster();
        let img = image_for(&DeviceType::xcvu37p(), 100);
        let run = |seed: u64| {
            let mut ctl = LowLevelController::new(&cluster);
            let free = ctl.slots_free(DeviceId(0));
            ctl.set_fault_injector(Some(TransientFaultInjector::new(0.5, seed)));
            let outcomes: Vec<bool> = (0..16)
                .map(|_| match ctl.configure(DeviceId(0), &img) {
                    Ok(a) => {
                        ctl.release(a).unwrap();
                        true
                    }
                    Err(HsError::TransientConfigureFailure(_)) => {
                        // A transient failure must not leak slots.
                        assert_eq!(ctl.slots_free(DeviceId(0)), free);
                        false
                    }
                    Err(e) => panic!("unexpected error {e}"),
                })
                .collect();
            assert_eq!(ctl.slots_free(DeviceId(0)), free);
            outcomes
        };
        let a = run(42);
        assert_eq!(a, run(42), "same seed, same fault stream");
        assert!(a.iter().any(|&ok| ok) && a.iter().any(|&ok| !ok));
        assert_ne!(a, run(43), "different seed should diverge");
    }

    #[test]
    fn slot_bitmap_is_first_fit_and_reuses_released_slots() {
        let cluster = Cluster::paper_cluster();
        let mut ctl = LowLevelController::new(&cluster);
        let img = image_for(&DeviceType::xcvu37p(), 100); // 1 slot
        let a = ctl.configure(DeviceId(0), &img).unwrap();
        let b = ctl.configure(DeviceId(0), &img).unwrap();
        let c = ctl.configure(DeviceId(0), &img).unwrap();
        assert_eq!(ctl.slots_of(a), Some(&[0][..]));
        assert_eq!(ctl.slots_of(b), Some(&[1][..]));
        assert_eq!(ctl.slots_of(c), Some(&[2][..]));
        // Releasing the middle tenant frees slot 1; the next configure
        // fills the hole (first fit), not the end of the device.
        ctl.release(b).unwrap();
        let d = ctl.configure(DeviceId(0), &img).unwrap();
        assert_eq!(ctl.slots_of(d), Some(&[1][..]));
        // A two-block image scatters across the lowest free slots.
        let wide = image_for(&DeviceType::xcvu37p(), 1000);
        assert!(wide.blocks() >= 2);
        ctl.release(a).unwrap();
        let e = ctl.configure(DeviceId(0), &wide).unwrap();
        let slots = ctl.slots_of(e).unwrap();
        assert_eq!(slots[0], 0, "hole at 0 must be reused first");
        assert!(
            slots.windows(2).all(|w| w[0] < w[1]),
            "ascending: {slots:?}"
        );
        // Released/unknown ids have no slots.
        assert_eq!(ctl.slots_of(b), None);
        // Eviction clears the whole device bitmap: after recovery the first
        // fit starts from slot 0 again.
        ctl.evict_device(DeviceId(0));
        ctl.recover_device(DeviceId(0));
        let f = ctl.configure(DeviceId(0), &img).unwrap();
        assert_eq!(ctl.slots_of(f), Some(&[0][..]));
    }

    #[test]
    fn occupancy_reflects_allocations() {
        let cluster = Cluster::paper_cluster();
        let mut ctl = LowLevelController::new(&cluster);
        assert_eq!(ctl.occupancy(), 0.0);
        let img = image_for(&DeviceType::xcvu37p(), 100);
        ctl.configure(DeviceId(0), &img).unwrap();
        assert!(ctl.occupancy() > 0.0);
    }
}
