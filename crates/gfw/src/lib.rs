//! # intang-gfw
//!
//! Executable models of the Great Firewall of China as characterized by the
//! paper — both the **prior model** (Khattak et al. 2013, the assumptions
//! §4 lists as "Prior Assumption 1–3") and the **evolved model** the paper
//! infers (Hypothesized New Behaviors 1–3):
//!
//! 1. TCBs are created on SYN *and* on SYN/ACK (enabling TCB reversal);
//! 2. a **resynchronization state** is entered on multiple SYNs, multiple
//!    SYN/ACKs, or a SYN/ACK with a mismatched ACK, and is resolved by the
//!    next client→server data packet or server→client SYN/ACK;
//! 3. RST/RST-ACK may put the TCB into the resynchronization state instead
//!    of tearing it down (probabilistically, path-sticky).
//!
//! The censor is **on-path** (§2.1): it observes copies and injects, never
//! drops — with one documented exception, IP-level blocking after Tor
//! active probing, which in reality happens at in-path border devices and
//! is modeled here as a drop at the tap.
//!
//! Two co-deployed device types are modeled (§2.1, §8): **type-1** (single
//! RST, random TTL/window, per-packet in-order keyword scan — defeated by
//! splitting a request) and **type-2** (three RST/ACKs at X, X+1460,
//! X+4380 with cyclically increasing TTL/window, full stream reassembly,
//! 90-second blacklist with forged SYN/ACKs).

pub mod blacklist;
pub mod config;
pub mod device;
pub mod dpi;
pub mod probe;
pub mod profile;
pub mod reset;
mod table;
pub mod tcb;

pub use config::{EvictionPolicy, GfwConfig, GfwGeneration, ProfileTag};
pub use device::{GfwElement, GfwHandle, GfwStats};
pub use dpi::{DetectionKind, RuleSet};
pub use profile::CensorProfile;
pub use reset::ResetKind;
