//! Counting-allocator proof that the steady-state checkpoint encode →
//! durable-write sweep ([`s_enkf::ckpt::MemberEncoder`]) performs no
//! payload-sized allocation: the member column gather and the f64 → LE
//! byte image are pooled, so what remains is the handful of small path
//! strings the temp + rename protocol inherently builds per file. The
//! allocator tracks calls, bytes, and the largest single request so the
//! guarantee can be stated precisely: "no allocation as large as a member
//! payload, and total bytes far below the payload swept".
//!
//! The counters are process-global, so this binary holds exactly one
//! measuring test (see `tests/dataplane_alloc_free.rs`).

use s_enkf::core::Ensemble;
use s_enkf::grid::{FileLayout, Mesh};
use s_enkf::linalg::Matrix;
use s_enkf::pfs::{FileStore, ScratchDir};
use std::sync::atomic::Ordering;

#[path = "common/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{exclusive, ALLOCATIONS, BYTES, LARGEST};

/// One checkpoint sweep: encode every member's column through the pooled
/// [`s_enkf::ckpt::MemberEncoder`] path and write it durably. Returns the
/// member checksums so nothing is optimized away.
fn ckpt_sweep(
    enc: &mut s_enkf::ckpt::MemberEncoder,
    store: &FileStore,
    ensemble: &Ensemble,
    crcs: &mut Vec<u64>,
) {
    crcs.clear();
    for k in 0..ensemble.size() {
        crcs.push(enc.write_durable(store, ensemble, k).unwrap());
    }
}

/// The steady-state checkpoint write path performs no payload-sized
/// allocation: the column gather buffer and the little-endian byte image
/// are recycled through the encoder and the store's pool. What remains is
/// the temp + rename protocol's small per-file path strings — bounded to
/// a sliver of the payload and never one allocation as large as a member.
#[test]
fn checkpoint_member_writes_are_payload_allocation_free_at_steady_state() {
    let _x = exclusive();
    let mesh = Mesh::new(16, 8);
    let members = 6;
    let scratch = ScratchDir::new("ckpt-alloc").unwrap();
    let store = FileStore::open(scratch.path(), FileLayout::new(mesh, 8)).unwrap();
    let ensemble = Ensemble::new(
        mesh,
        Matrix::from_fn(mesh.n(), members, |i, k| {
            ((i * 7 + k * 3) as f64 * 0.13).sin()
        }),
    );
    let payload_per_member = 8 * mesh.n();

    let mut enc = s_enkf::ckpt::MemberEncoder::new();
    let mut warm_crcs = Vec::with_capacity(members);
    let mut steady_crcs = Vec::with_capacity(members);
    // Warm sweep: the encoder's column buffer and the pool's byte buffer
    // reach member-payload capacity.
    ckpt_sweep(&mut enc, &store, &ensemble, &mut warm_crcs);

    let (calls0, bytes0) = (
        ALLOCATIONS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    LARGEST.store(0, Ordering::Relaxed);
    ckpt_sweep(&mut enc, &store, &ensemble, &mut steady_crcs);
    let calls = ALLOCATIONS.load(Ordering::Relaxed) - calls0;
    let bytes = BYTES.load(Ordering::Relaxed) - bytes0;
    let largest = LARGEST.load(Ordering::Relaxed);

    assert_eq!(steady_crcs, warm_crcs, "sweeps are deterministic");
    assert!(
        largest < payload_per_member,
        "a payload-sized allocation ({largest} B >= {payload_per_member} B) leaked into the \
         steady-state checkpoint write path"
    );
    assert!(
        bytes < members * 512,
        "steady-state checkpoint sweep allocated {bytes} B for {} B of payload \
         (want only small path strings, < {} B)",
        members * payload_per_member,
        members * 512
    );
    assert!(
        calls <= members * 16,
        "steady-state checkpoint sweep allocated {calls} times"
    );
}
