//! Policy tables: which paths each rule family polices.
//!
//! Everything here is deliberate configuration, reviewed like code: adding
//! a file to a policed set tightens the build.

/// Path fragments policed by `unchecked-epoch-arithmetic`: the allocator
/// control plane (epoch-stamped leases, byte-second spill accounting) and
/// the fleet stranding integral. A file is policed when its `rel_path`
/// contains any of these fragments.
pub const EPOCH_POLICED: &[&str] = &["core/src/allocator/", "trace/src/stranding.rs"];

/// Identifier shapes treated as epoch/timestamp/byte-integral operands.
pub fn is_epoch_ident(name: &str) -> bool {
    // Byte-order conversions (`from_le_bytes`, `to_be_bytes`, ...) end in
    // `_bytes` but operate on fixed-width codec offsets, not integrals.
    if name.ends_with("le_bytes") || name.ends_with("be_bytes") || name.ends_with("ne_bytes") {
        return false;
    }
    name.ends_with("_ns")
        || name.ends_with("_acc")
        || name.ends_with("_bytes")
        || name.ends_with("_ppb")
        || name.ends_with("_mbps")
        || name == "at"
        || name == "dt"
        || name == "epoch"
        || name == "now"
        || name.contains("epoch")
        || name.contains("stamp")
}

/// Features whose gated items follow the paired-inline-stub convention
/// (the one cargo feature left; the coherence sanitizer is a run-time
/// choice).
pub const PAIRED_FEATURES: &[&str] = &["obs"];

/// Is `rel_path` inside any of the given policed fragments?
pub fn policed(rel_path: &str, fragments: &[&str]) -> bool {
    fragments.iter().any(|f| rel_path.contains(f))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policed_matching() {
        assert!(policed(
            "crates/core/src/allocator/service.rs",
            EPOCH_POLICED
        ));
        assert!(policed("crates/trace/src/stranding.rs", EPOCH_POLICED));
        assert!(!policed(
            "crates/trace/src/stranding_sweep.rs",
            EPOCH_POLICED
        ));
        assert!(!policed("crates/core/src/pod.rs", EPOCH_POLICED));
    }

    #[test]
    fn epoch_ident_shapes() {
        for n in [
            "from_ns",
            "nic_acc",
            "spill_bytes",
            "frac_ppb",
            "at",
            "dt",
            "epoch_of",
        ] {
            assert!(is_epoch_ident(n), "{n}");
        }
        for n in [
            "pod",
            "hosts",
            "vcpus",
            "ip",
            "nic",
            "from_le_bytes",
            "to_be_bytes",
        ] {
            assert!(!is_epoch_ident(n), "{n}");
        }
    }
}
