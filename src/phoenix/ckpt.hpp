#pragma once
// Buddy-replicated distributed checkpoint store (DESIGN.md §17). ISSUE 10
// places this "in coe::resil"; it lives in coe::phoenix because resil must
// stay mpi-free — the store itself is a pure data structure (blobs + CRC +
// two-phase commit), and the buddy *protocol* around it (aggregated ring
// messages, the commit vote, restore-from-buddy) is driven by
// phoenix::run_survivable.
//
// Each physical rank thread owns one store holding part-granular blobs:
// its own parts' checkpoints plus the buddy copies its ring predecessor
// replicated to it. Generations follow the same two-phase discipline as
// resil::CheckpointStore — stage (pending, invisible) then commit — except
// commit here is the *local* half of a distributed two-phase commit: the
// driver only issues it after a world-wide vote, so a generation is either
// committed on every live rank or on none. The latest two committed
// generations are kept (double buffering); every blob carries a CRC32,
// computed in place by core::crc32 (the function resil::CheckpointStore
// uses too), that is re-verified on fetch — a corrupt blob is refused,
// counted, and the driver falls back to the surviving buddy copy.
//
// All methods lock an internal mutex: the common path is single-writer
// (the owning rank thread), but post-repair recovery performs cross-store
// fallback reads when a rank's own copy is refused.

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

namespace coe::phoenix {

/// One part's serialized state within a generation.
struct PartBlob {
  int part = -1;
  std::size_t step = 0;   ///< next driver step after this state
  std::uint32_t crc = 0;  ///< CRC32 of `data`'s bit patterns
  std::vector<double> data;
};

struct DistStoreStats {
  std::size_t staged = 0;
  std::size_t commits = 0;        ///< committed generations
  std::size_t aborted = 0;        ///< pending generations dropped
  std::size_t refused = 0;        ///< fetches refused on CRC mismatch
  double bytes_staged = 0.0;
};

class DistributedCheckpointStore {
 public:
  /// Generation sentinel meaning "nothing committed"; chosen as the max
  /// uint64 so an agree_min over latest_committed() naturally ignores
  /// ranks with empty stores.
  static constexpr std::uint64_t kNone = ~std::uint64_t{0};

  /// Stages a blob for `gen` (own part or a received buddy copy). Pending
  /// until commit(gen); re-staging the same (gen, part) overwrites.
  void stage(std::uint64_t gen, int part, std::size_t step,
             std::vector<double> data);

  /// Publishes every pending blob of `gen` and prunes committed
  /// generations older than the newest two. The driver calls this only
  /// after the world-wide commit vote succeeds.
  void commit(std::uint64_t gen);

  /// Drops all pending blobs (a failure interrupted the exchange); the
  /// committed generations are untouched.
  void abort_pending();

  /// Newest committed generation, or kNone.
  std::uint64_t latest_committed() const;

  bool has(std::uint64_t gen, int part) const;

  enum class Fetch { Ok, Missing, Refused };

  /// Copies (gen, part) out if present and CRC-intact. A CRC mismatch is
  /// counted and reported as Refused — the caller falls back to the buddy
  /// copy in another store; silently serving a corrupt blob is the one
  /// thing a checkpoint store must never do.
  Fetch fetch(std::uint64_t gen, int part, std::vector<double>* data,
              std::size_t* step) const;

  /// Test hook: in-place mutable payload access for corruption injection
  /// (nullptr if absent). The CRC recorded at stage time is kept, so a
  /// flipped word is caught by the next fetch.
  std::vector<double>* mutable_payload(std::uint64_t gen, int part);

  DistStoreStats stats() const;

 private:
  mutable std::mutex mtx_;
  std::map<std::uint64_t, std::map<int, PartBlob>> committed_;
  std::map<std::uint64_t, std::map<int, PartBlob>> pending_;
  DistStoreStats stats_;
  mutable std::size_t refused_ = 0;  ///< fetch() is const; count anyway
};

}  // namespace coe::phoenix
