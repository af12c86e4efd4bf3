// SnapshotStore: the byte-level core of bwfault checkpoint/rollback.
//
// A store holds one committed snapshot of a set of named byte buffers
// (one per field) plus the application step it was taken at. Capture is
// two-phase — begin() / capture_raw()* / commit() — so a rank that dies
// mid-capture (an injected crash, say) can never leave a half-written
// checkpoint behind: restore always sees the last *committed* state.
//
// The typed front-ends live with their containers: ops::CheckpointStore
// snapshots structured Dat allocations (including ghost cells) and
// op2::CheckpointStore snapshots flat unstructured dats. Stores are
// per-rank and not thread-safe; in a run_ranks execution each rank owns
// its own store, and its serialized bytes are mirrored on the buddy
// rank (common/resil.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace bwlab::fault {

class SnapshotStore {
 public:
  /// Opens a capture transaction for `step`, discarding any staged (but
  /// not yet committed) data from a previous begin().
  void begin(long long step);

  /// Stages `bytes` bytes of field `name` into the open transaction.
  /// `elem_bytes` is recorded for consistency checks on restore.
  void capture_raw(const std::string& name, const void* data,
                   std::size_t bytes, std::size_t elem_bytes);

  /// Atomically replaces the committed snapshot with the staged one.
  void commit();

  /// True once a snapshot has been committed.
  bool valid() const { return valid_; }
  /// Step of the committed snapshot (-1 before the first commit).
  long long step() const { return step_; }
  /// Number of fields in the committed snapshot.
  std::size_t fields() const { return fields_.size(); }

  /// Copies committed field `name` back into `data`; diagnosed error if
  /// the field is missing or its size/element width changed.
  void restore_raw(const std::string& name, void* data, std::size_t bytes,
                   std::size_t elem_bytes) const;

  /// Discards committed and staged state.
  void reset();

  /// Serializes the committed snapshot to a byte buffer, ending in a
  /// 64-bit checksum of everything before it. This is the bwresil
  /// buddy-mirror wire format: a rank ships these bytes to its buddy, and
  /// a restore on any store (same fields, same shapes) is
  /// bitwise-faithful, ghosts included.
  std::vector<char> serialize() const;

  /// Replaces the committed snapshot with a previously serialized one;
  /// diagnosed error on malformed, truncated or corrupted (checksum
  /// mismatch) input.
  void deserialize(const std::vector<char>& bytes);

 private:
  struct Field {
    std::string name;
    std::size_t elem_bytes = 0;
    std::vector<char> bytes;
  };
  const Field* find(const std::string& name) const;

  std::vector<Field> fields_;    // committed
  std::vector<Field> staging_;   // open transaction
  long long step_ = -1;
  long long staging_step_ = -1;
  bool valid_ = false;
  bool in_txn_ = false;
};

}  // namespace bwlab::fault
