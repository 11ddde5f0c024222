//! # vfpga-hsabs — the ViTAL-like hardware-specific abstraction
//!
//! The paper reuses a previously proposed HS abstraction (ViTAL) as the
//! bottom layer of its stack: each FPGA is divided into identical **virtual
//! blocks** with **latency-insensitive interfaces**, accelerators are
//! compiled into virtual-block images offline, and a **low-level
//! controller** configures blocks at runtime, letting several tenants share
//! one device at sub-FPGA granularity. ViTAL itself is not open source, so
//! this crate rebuilds the parts the paper's framework interacts with:
//!
//! * [`VirtualBlockSpec`] — the per-device-type virtual block geometry
//!   (slot count and per-slot resources come from
//!   [`vfpga_fabric::DeviceType`]);
//! * [`HsCompiler`] — compiles a resource demand into a
//!   [`VirtualBlockImage`] for one device type, with a compile-time
//!   estimate used by the Section 4.3 compilation-overhead experiment;
//! * [`LowLevelController`] — tracks per-device slot occupancy and
//!   configures/releases images at runtime (the controller the paper's
//!   system controller sends requests to, Fig. 7);
//! * [`InterfaceModel`] — the latency-insensitive interface cost that
//!   produces the marginal (3–8%) virtualization overhead of Table 4.
//!
//! ```
//! use vfpga_fabric::{Cluster, DeviceType, ResourceVec};
//! use vfpga_hsabs::{HsCompiler, LowLevelController};
//!
//! let compiler = HsCompiler::default();
//! let demand = ResourceVec { luts: 100_000, ffs: 120_000, bram_kb: 4_000, uram_kb: 0, dsps: 900 };
//! let image = compiler.compile("my-accel", &demand, &DeviceType::xcku115())?;
//! assert!(image.blocks() >= 1);
//!
//! let mut ctl = LowLevelController::new(&Cluster::paper_cluster());
//! let alloc = ctl.configure(vfpga_fabric::DeviceId(3), &image)?;
//! ctl.release(alloc)?;
//! # Ok::<(), vfpga_hsabs::HsError>(())
//! ```

mod compiler;
mod controller;
mod interface;
mod vblock;

pub use compiler::HsCompiler;
pub use controller::{AllocationId, DeviceHealth, LowLevelController, TransientFaultInjector};
pub use interface::InterfaceModel;
pub use vblock::{VirtualBlockImage, VirtualBlockSpec};

use std::fmt;

use vfpga_fabric::DeviceId;

/// Errors from the HS abstraction layer.
#[derive(Debug, Clone, PartialEq)]
pub enum HsError {
    /// The demand cannot fit the device even when using every virtual block
    /// (or needs a resource the device lacks, e.g. URAM on XCKU115).
    DoesNotFit {
        /// The design being compiled.
        name: String,
        /// The target device type name.
        device_type: String,
    },
    /// Not enough free virtual blocks on the device right now.
    InsufficientSlots {
        /// The target device.
        device: DeviceId,
        /// Blocks requested.
        requested: usize,
        /// Blocks currently free.
        free: usize,
    },
    /// The image was compiled for a different device type than the target.
    DeviceTypeMismatch {
        /// The image's device type.
        image: String,
        /// The target device's type.
        device: String,
    },
    /// An allocation id was released twice or never existed.
    UnknownAllocation(u64),
    /// The target device is marked failed; nothing can be configured on it
    /// until it recovers.
    DeviceFailed(DeviceId),
    /// Partial reconfiguration failed transiently (injected fault). The
    /// request was valid; retrying it may succeed.
    TransientConfigureFailure(DeviceId),
}

impl HsError {
    /// A short static label naming the variant, for span attributes and
    /// metric names (no allocation, deterministic).
    pub fn label(&self) -> &'static str {
        match self {
            HsError::DoesNotFit { .. } => "does_not_fit",
            HsError::InsufficientSlots { .. } => "insufficient_slots",
            HsError::DeviceTypeMismatch { .. } => "device_type_mismatch",
            HsError::UnknownAllocation(_) => "unknown_allocation",
            HsError::DeviceFailed(_) => "device_failed",
            HsError::TransientConfigureFailure(_) => "transient_configure_failure",
        }
    }
}

impl fmt::Display for HsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HsError::DoesNotFit { name, device_type } => {
                write!(f, "design `{name}` cannot fit device type {device_type}")
            }
            HsError::InsufficientSlots {
                device,
                requested,
                free,
            } => write!(
                f,
                "{device} has {free} free virtual blocks, {requested} requested"
            ),
            HsError::DeviceTypeMismatch { image, device } => {
                write!(f, "image compiled for {image} cannot configure a {device}")
            }
            HsError::UnknownAllocation(id) => write!(f, "unknown allocation {id}"),
            HsError::DeviceFailed(device) => write!(f, "{device} is failed"),
            HsError::TransientConfigureFailure(device) => {
                write!(f, "transient configuration failure on {device}")
            }
        }
    }
}

impl std::error::Error for HsError {}
