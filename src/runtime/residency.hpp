// Crossbar weight-residency cache: cross-call stationary-operand reuse.
//
// TDO-CIM keeps the stationary operand programmed in the crossbar while
// streaming the moving one (paper Section III-B), but without this subsystem
// the runtime forgets that investment between calls: every polly_cimGemm
// reprograms the crossbars even when a serving workload hits the same
// weights thousands of times, paying both the weight-phase latency and PCM
// cell wear — the dominant CiM cost in Eva-CiM-style system models.
//
// The cache records which stationary tiles — identified by their physical
// {base, pitch, width, rows} rectangle plus quantization scale, layout and
// crossbar geometry — are currently programmed into which crossbar row
// windows of which accelerator. The BLAS layer consults it before emitting
// programming work:
//   * hit  -> the job carries kSkipWeightLoad + the resident row window, and
//             affinity routing overrides round-robin so the call lands on
//             the accelerator that holds the weights;
//   * miss -> crossbar rows are allocated on the chosen accelerator (LRU
//             entries evicted until the tile fits) and the entry is filled.
//
// Invalidation is epoch-based and driven by the same rectangle-overlap
// machinery the stream's hazard tracking uses: any host_to_dev copy or
// host-visible write overlapping a cached rectangle bumps the host-write
// generation counter and kills the entry; free_device evicts. The device
// (micro_engine) independently validates every reuse request against its
// own programmed-tile records, so cache staleness can only cost a
// reprogram, never correctness.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cim/context_regs.hpp"
#include "runtime/xfer.hpp"
#include "support/stats.hpp"
#include "support/threading.hpp"

namespace tdo::rt {

class CimDriver;

struct ResidencyParams {
  /// Master switch; cacheable call sites fall back to always-program when
  /// off (the paper's original behaviour).
  bool enabled = true;
  /// Crossbar rows usable for resident tiles per accelerator; 0 means the
  /// device's full crossbar. Sweeping this models smaller weight caches.
  std::uint32_t capacity_rows = 0;
  /// Prefetch-on-miss: learn the successor of each stationary tile and let
  /// the runtime program the predicted-next weight set (Opcode::kProgram)
  /// while the current job streams — the next call's weight phase then
  /// disappears into the previous job's stream phase. Off by default: the
  /// predictor costs an entry slot per speculation and existing workloads
  /// assert exact hit/miss counts.
  bool prefetch_on_miss = false;
  /// Stats prefix for the residency.* counters.
  std::string name = "residency";
};

/// Identity of a stationary tile as the runtime sees it. `rect` is the
/// operand's physical memory footprint (drives overlap invalidation); the
/// remaining fields must match for the device-side reuse check to accept.
struct WeightKey {
  Rect rect;
  std::uint64_t ld = 0;     ///< leading dimension in elements
  double scale = 1.0;       ///< quantization scale programmed with the tile
  cim::StationaryOperand layout = cim::StationaryOperand::kB;
  std::uint32_t rows = 0;   ///< crossbar rows the tile occupies (k)
  std::uint32_t cols = 0;   ///< crossbar columns (n or m)

  [[nodiscard]] bool operator==(const WeightKey& other) const {
    return rect.base == other.rect.base && rect.pitch == other.rect.pitch &&
           rect.width == other.rect.width && rect.rows == other.rect.rows &&
           ld == other.ld && scale == other.scale && layout == other.layout &&
           rows == other.rows && cols == other.cols;
  }
};

class ResidencyCache {
 public:
  /// The cache's counters, each registered as `<name>.<member>`. Sharded:
  /// lookups and invalidations run from whichever thread drives the runtime
  /// while metrics sampling snapshots concurrently.
  struct Counters {
    support::ShardedCounter hits;
    support::ShardedCounter misses;
    support::ShardedCounter evictions;
    support::ShardedCounter invalidations;
    /// 8-bit weight programs the runtime avoided emitting (hit tiles). The
    /// device counts its own figure; the two agree unless a hit job fell
    /// back or the engine rejected a stale request.
    support::ShardedCounter weight_writes_saved8;
    /// Prefetch speculations issued (prefill) and the subset that paid off:
    /// a later acquire landing on an entry the predictor programmed ahead.
    support::ShardedCounter prefetches;
    support::ShardedCounter prefetch_hits;
    /// Entries re-homed accelerator-to-accelerator (peer-to-peer migration).
    support::ShardedCounter migrations;
  };

  /// Registers the residency.* counters into the system stats registry.
  ResidencyCache(ResidencyParams params, CimDriver& driver,
                 support::StatsRegistry& stats);

  [[nodiscard]] bool enabled() const { return params_.enabled; }

  struct Placement {
    int device = -1;
    std::uint32_t row0 = 0;
  };

  /// Where `key` is resident, if anywhere — affinity routing consults this
  /// before committing to a round-robin device. Does not touch LRU order or
  /// counters.
  [[nodiscard]] std::optional<Placement> peek(const WeightKey& key) const;

  struct Acquire {
    bool hit = false;     ///< tile already resident on `device`: skip programming
    bool cached = false;  ///< entry exists after the call (hit or filled)
    std::uint32_t row0 = 0;
    /// Migrated entries only: the crossbar was programmed from the
    /// peer-to-peer staging copy, not the original operand. The caller must
    /// substitute this rectangle for the job's stationary pointer so the
    /// device-side reuse validation matches what was actually programmed
    /// (the bytes are bit-exact, so results are unchanged).
    bool migrated = false;
    sim::PhysAddr shadow_base = 0;
    std::uint64_t shadow_ld = 0;
  };

  /// Counting lookup-or-fill on `device`. On a hit the entry's LRU stamp is
  /// refreshed and the saved weight writes are credited; on a miss crossbar
  /// rows are allocated (evicting LRU entries of that device as needed) and
  /// the entry is filled at the returned row window. `cached == false` means
  /// the tile cannot fit this device's capacity; the caller programs at row
  /// 0 uncached (and on_programmed() retires whatever that overwrites).
  Acquire acquire(const WeightKey& key, int device);

  /// A job outside the cache programs crossbar rows [row0, row0 + rows) on
  /// `device`: retire entries it overwrites.
  void on_programmed(int device, std::uint32_t row0, std::uint64_t rows);

  /// Successor prediction (prefetch_on_miss): the tile acquire() saw follow
  /// the previously acquired one most recently. Empty when the predictor is
  /// off or `current` has no recorded successor.
  [[nodiscard]] std::optional<WeightKey> predict_next(
      const WeightKey& current) const;

  /// Speculatively fills an entry for a predicted tile: allocates a crossbar
  /// row window on `device` (evicting LRU entries as needed) and records the
  /// entry flagged prefetched, without counting a miss. The caller then
  /// enqueues the Opcode::kProgram job that actually programs the window.
  /// Returns false when the key is already resident anywhere or cannot fit.
  bool prefill(const WeightKey& key, int device, std::uint32_t* row0);

  /// Allocates a contiguous crossbar row window on `device` without creating
  /// an entry — the migration path reserves the destination window before
  /// programming it. Driver-thread only: nothing else may allocate between
  /// this call and the rehome() that claims the window.
  bool reserve_rows(int device, std::uint32_t rows, std::uint32_t* row0);

  /// Completes a peer-to-peer migration: re-homes `key`'s entry from
  /// `from_device` to `to_device` at `to_row0`, recording the staging copy's
  /// rectangle as the entry's shadow (future hits substitute it into the
  /// job's stationary pointer). Returns false when the entry is gone — a
  /// host write invalidated it mid-migration; the destination crossbar then
  /// holds an unclaimed stale tile and the next use simply reprograms.
  bool rehome(const WeightKey& key, int from_device, int to_device,
              std::uint32_t to_row0, const Rect& shadow_rect,
              std::uint64_t shadow_ld);

  /// Epoch invalidation: a host-visible write landed in `r` — bump the
  /// host-write generation and eagerly kill every entry whose rectangle
  /// overlaps (entries never outlive the epoch they were filled in, so no
  /// per-entry generation check is needed at lookup time).
  void invalidate_overlapping(const Rect& r);

  /// A host write whose footprint could not be resolved (scattered copy):
  /// conservatively kill everything.
  void invalidate_all();

  /// Host-write generation: the number of invalidation events so far.
  [[nodiscard]] std::uint64_t epoch() const {
    return epoch_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t entries() const {
    support::SpinGuard guard{lock_};
    return entries_.size();
  }
  [[nodiscard]] const Counters& counters() const { return counters_; }

 private:
  struct Entry {
    WeightKey key;
    int device = -1;
    std::uint32_t row0 = 0;
    std::uint64_t lru = 0;  ///< last-use stamp (monotone clock)
    /// Filled by prefill(); the first hit credits prefetch_hits and clears.
    bool prefetched = false;
    /// Migrated entries: the crossbar tile was programmed from this staging
    /// rectangle (the peer-to-peer copy), not from key.rect. key.rect keeps
    /// the original operand identity — lookups and host-write invalidation
    /// still key on it — while hits substitute the shadow into the job's
    /// stationary pointer so the device-side validation matches.
    bool migrated = false;
    Rect shadow_rect;
    std::uint64_t shadow_ld = 0;
  };

  /// One learned successor edge for the prefetch predictor (bounded FIFO).
  struct Successor {
    WeightKey prev;
    WeightKey next;
  };
  static constexpr std::size_t kMaxSuccessors = 64;

  /// Records `prev -> next` in the successor table (lock held).
  void note_successor(const WeightKey& prev, const WeightKey& next);

  [[nodiscard]] std::uint32_t device_capacity_rows(int device) const;
  /// Finds (or frees, by LRU eviction on `device`) a contiguous row window
  /// of `rows` rows. Returns false when `rows` exceeds the capacity.
  bool allocate_rows(int device, std::uint32_t rows, std::uint32_t* row0);
  void erase_entry(std::size_t index);

  ResidencyParams params_;
  CimDriver& driver_;
  /// Guards entries_/clock_: affinity queries (peek) may come from a
  /// different thread than the dispatching driver thread. Entry lists stay
  /// small (tens of tiles), so a spinlock's short hold time fits.
  mutable support::SpinLock lock_;
  std::vector<Entry> entries_;
  std::uint64_t clock_ = 0;
  std::atomic<std::uint64_t> epoch_{0};
  /// Prefetch predictor state: the most recently acquired key and the
  /// learned successor edges (both only maintained when prefetch_on_miss).
  std::optional<WeightKey> last_acquired_;
  std::vector<Successor> successors_;

  Counters counters_;
};

}  // namespace tdo::rt
