// ops::CheckpointStore: bwfault snapshots of structured-mesh fields.
//
// Captures the *full allocation* of each Dat — owned cells plus ghost
// layers — so a restore needs no immediate halo exchange to be
// consistent; halos are still marked dirty so the next stenciled read
// re-exchanges through the normal lazy path (all ranks restore the same
// step symmetrically, so those exchanges match up).
//
// Usage inside a rank's step loop (see apps/cloverleaf2d):
//   store.begin(step);
//   store.capture(density); store.capture(energy); ...
//   store.commit();                       // atomic: all fields or none
// and on rollback (apps/resilient_loop.cpp):
//   store.restore(density); ...           // then resume at store.step()+1
#pragma once

#include "common/snapshot.hpp"
#include "ops/dat.hpp"

namespace bwlab::ops {

class CheckpointStore : public fault::SnapshotStore {
 public:
  /// Stages `d`'s allocation (owned + ghosts) into the open transaction.
  template <class T>
  void capture(const Dat<T>& d) {
    capture_raw(d.name(), d.alloc_data(), d.alloc_count() * sizeof(T),
                sizeof(T));
  }

  /// Restores `d` from the committed snapshot and marks its halos dirty.
  template <class T>
  void restore(Dat<T>& d) const {
    restore_raw(d.name(), d.alloc_data(), d.alloc_count() * sizeof(T),
                sizeof(T));
    d.mark_halos_dirty();
  }
};

}  // namespace bwlab::ops
