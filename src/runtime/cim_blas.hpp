// User-space CIM runtime library (paper Section III, Figure 3/4, Listing 1).
//
// "A lightweight runtime library that provides optimized performance and
// memory usage for the CIM device. The library has been designed to be used
// directly by the application programmer, or an optimizer (i.e., Loop
// Tactics). It exposes a host-callable C API, similar to what cuBLAS or MKL
// offers."
//
// Class-based async core. The polly_cim* C-style facade that generated code
// calls (cim_api.hpp) is the only blocking surface: each polly_cimBlas* call
// is the matching *_async call followed by synchronize().
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "cim/accelerator.hpp"
#include "runtime/driver.hpp"
#include "runtime/host_pool.hpp"
#include "runtime/residency.hpp"
#include "runtime/stream.hpp"
#include "runtime/xfer.hpp"
#include "sim/system.hpp"
#include "support/status.hpp"
#include "topo/topology.hpp"

namespace tdo::rt {

/// DTO-style pseudo-asynchronous work splitting (DTO_CPU_SIZE_FRACTION):
/// a large GEMM is cut into a host stripe (run on the worker pool) and a
/// device stripe, executed concurrently and joined at the next sync point.
struct SplitConfig {
  bool enabled = false;
  /// Fraction of the M dimension routed to the host worker pool. DTO ships
  /// this as a static environment variable; the serving layer retunes it
  /// online from the admission controller's device/host EWMAs.
  double cpu_fraction = 0.0;
  /// Safety clamp: never hand more than this to the (slower) host side.
  double max_fraction = 0.5;
  /// Jobs below this many MACs skip the split — the dispatch/join overhead
  /// would dominate the stripe.
  std::uint64_t min_macs = 1ull << 20;
  HostPoolParams pool;
};

struct RuntimeConfig {
  bool double_buffering = true;
  DriverParams driver;
  /// Command-stream behaviour (depth, dynamic CPU-fallback threshold); every
  /// BLAS entry point enqueues into it without draining.
  StreamParams stream;
  /// Transfer-engine behaviour: async copies riding the stream as DMA
  /// commands vs the paper's blocking host memcpy.
  XferParams xfer;
  /// Weight-residency cache: cross-call stationary-operand reuse with
  /// affinity routing. Applies to calls marked cacheable.
  ResidencyParams residency;
  /// Pseudo-asynchronous host/device work splitting.
  SplitConfig split;
};

/// One GEMM in a batched call (virtual addresses; dims shared by the batch).
struct GemmBatchItem {
  sim::VirtAddr a = 0;
  sim::VirtAddr b = 0;
  sim::VirtAddr c = 0;
};

class CimRuntime {
 public:
  CimRuntime(RuntimeConfig config, sim::System& system, cim::Accelerator& accel);

  /// Registers an additional accelerator instance; batched calls round-robin
  /// work across every registered device (DTO's multi-DSA behaviour).
  void add_accelerator(cim::Accelerator& accel) { driver_->add_device(accel); }

  /// polly_cimInit: device discovery + reset.
  support::Status init(int device_index);

  /// polly_cimMalloc / polly_cimFree: physically-contiguous device buffers.
  [[nodiscard]] support::StatusOr<sim::VirtAddr> malloc_device(std::uint64_t bytes);
  support::Status free_device(sim::VirtAddr va);

  /// polly_cimHostToDev / polly_cimDevToHost. Large transfers enqueue into
  /// the command stream as DMA copy commands and return immediately (ordered
  /// against in-flight producers by rectangle hazards); page-scattered
  /// buffers ride as scatter-gather descriptor chains. Only small or
  /// pathologically fragmented copies run as host-performed copies through
  /// the cache hierarchy (the paper's original path).
  support::Status host_to_dev(sim::VirtAddr dst, sim::VirtAddr src,
                              std::uint64_t bytes);
  support::Status dev_to_host(sim::VirtAddr dst, sim::VirtAddr src,
                              std::uint64_t bytes);

  /// Pitched (strided sub-matrix view) transfers: `rows` rows of `width`
  /// bytes, row starts `pitch` bytes apart on both sides. The transfer
  /// engine derives the segment chain from the footprint, so views of
  /// device-resident arrays ride the stream too.
  support::Status host_to_dev_2d(sim::VirtAddr dst, sim::VirtAddr src,
                                 std::uint64_t pitch, std::uint64_t width,
                                 std::uint64_t rows);
  support::Status dev_to_host_2d(sim::VirtAddr dst, sim::VirtAddr src,
                                 std::uint64_t pitch, std::uint64_t width,
                                 std::uint64_t rows);

  // --- BLAS entry points (command-stream path) ---
  //
  // Enqueue tile jobs into the stream and return without draining; the
  // caller (interpreter, generated code, the polly_cimBlas* facade)
  // synchronizes at coherence points. Calls whose operands overlap an
  // in-flight producer synchronize first. Oversized operands are tiled
  // internally to the crossbar geometry. `cacheable` marks the stationary
  // operand as reused across calls: the runtime consults the
  // weight-residency cache, requests skip-programming on hits, and routes
  // the call to the accelerator holding the weights.

  /// C = alpha*A*B + beta*C (row-major, no transposes) with `stationary`
  /// programmed into the crossbar. The paper's naive mapping keeps B
  /// stationary and streams A (Section III-B).
  support::Status sgemm_async(std::uint64_t m, std::uint64_t n, std::uint64_t k,
                              float alpha, sim::VirtAddr a, std::uint64_t lda,
                              sim::VirtAddr b, std::uint64_t ldb, float beta,
                              sim::VirtAddr c, std::uint64_t ldc,
                              cim::StationaryOperand stationary,
                              bool cacheable = false);
  /// y = alpha*op(A)*x + beta*y  (A is m x n row-major).
  support::Status sgemv_async(bool transpose, std::uint64_t m, std::uint64_t n,
                              float alpha, sim::VirtAddr a, std::uint64_t lda,
                              sim::VirtAddr x, float beta, sim::VirtAddr y,
                              bool cacheable = false);
  /// Same-shape GEMMs executed as one job; when the stationary operand is
  /// shared between consecutive items the crossbar image is reused — the
  /// paper's endurance-aware "smart mapping". With several accelerators the
  /// batch splits round-robin across devices. `device` >= 0 pins the whole
  /// batch to one accelerator (the serving scheduler's batch-submit hook: it
  /// has already chosen a placement from residency affinity or queue
  /// depths); -1 keeps the internal round-robin chunking across devices.
  support::Status sgemm_batched_async(std::uint64_t m, std::uint64_t n,
                                      std::uint64_t k, float alpha,
                                      std::span<const GemmBatchItem> items,
                                      std::uint64_t lda, std::uint64_t ldb,
                                      float beta, std::uint64_t ldc,
                                      cim::StationaryOperand stationary,
                                      bool cacheable = false, int device = -1);

  /// polly_cimSynchronize: drains the stream and releases deferred staging
  /// buffers. No-op when the stream is idle.
  support::Status synchronize();

  /// Residency-affinity query (serving-scheduler hook): the accelerator
  /// already holding any stationary tile of an m x n x k call whose
  /// stationary operand lives at `stat` (leading dimension `ld_stat`), or
  /// nullopt when no tile is resident. Uses the same tile keys the dispatch
  /// path builds, so a returned device is exactly where the call's reuse
  /// request would hit. Charges the stationary operand's scale scan (cached;
  /// the dispatch that follows needs the same scan).
  [[nodiscard]] std::optional<int> weight_affinity(
      std::uint64_t m, std::uint64_t n, std::uint64_t k, sim::VirtAddr stat,
      std::uint64_t ld_stat, cim::StationaryOperand stationary);

  /// Retunes the pseudo-async split fraction at runtime (the admission
  /// controller's continuous knob next to the binary offload decision).
  /// Clamped to [0, split.max_fraction]; no-op splitting when 0.
  void set_split_fraction(double fraction);
  [[nodiscard]] double split_fraction() const {
    return config_.split.cpu_fraction;
  }

  /// Attaches the fabric topology (near/far accelerator tiers with link
  /// models). Placement then weighs each device's queue depth by its link
  /// latency multiplier instead of blind round-robin: near devices absorb
  /// work until their queues are ~multiplier jobs deep, at which point a far
  /// pool becomes the cheaper marginal placement. Null (the default) keeps
  /// the flat single-tier behaviour. The topology must outlive the runtime;
  /// device indices follow add_accelerator() registration order.
  void set_topology(topo::Topology* topology) { topology_ = topology; }
  [[nodiscard]] topo::Topology* topology() const { return topology_; }
  /// Placement policy (DTO_IS_NUMA_AWARE analogue). kBufferCentric (default)
  /// routes to the device already holding resident weights, then near-first
  /// by link-weighted queue depth; kCallerCentric ignores residency (host
  /// locality wins); kBlind keeps the flat round-robin.
  void set_placement(topo::Placement policy) { placement_ = policy; }
  [[nodiscard]] topo::Placement placement() const { return placement_; }

  /// Migrates a resident stationary tile to `to_device` without losing the
  /// crossbar programming investment: the tile's bytes cross peer-to-peer as
  /// a dev->dev DMA segment into a staging buffer, an Opcode::kProgram job
  /// adopts them into the destination crossbar, and the cache entry re-homes
  /// with the staging rectangle as its shadow operand. `peer_to_peer` false
  /// selects the host-bounce reference path (two serialized transfers
  /// through a host staging buffer) — the baseline the topology bench beats.
  /// Asynchronous: the caller synchronizes (or keeps dispatching) as usual.
  support::Status migrate_residency(const WeightKey& key, int to_device,
                                    bool peer_to_peer = true);

  [[nodiscard]] sim::System& system() { return system_; }
  [[nodiscard]] CimStream& stream() { return *stream_; }
  [[nodiscard]] XferEngine& xfer() { return *xfer_; }
  [[nodiscard]] ResidencyCache& residency() { return *residency_; }
  [[nodiscard]] HostWorkerPool& host_pool() { return *pool_; }
  [[nodiscard]] CimDriver& driver() { return *driver_; }
  [[nodiscard]] cim::Accelerator& accelerator() { return accel_; }
  [[nodiscard]] const RuntimeConfig& config() const { return config_; }
  [[nodiscard]] bool initialized() const { return initialized_; }

 private:
  /// Max|x| over an `count`-element float region at `va` with row pitch
  /// `ld` and row length `row_len` (host scan, charged).
  [[nodiscard]] support::StatusOr<double> operand_max_abs(sim::VirtAddr va,
                                                          std::uint64_t rows,
                                                          std::uint64_t row_len,
                                                          std::uint64_t ld);

  /// Builds the shared register image for a (tile) job. `tile_row0` is the
  /// crossbar row window holding (or receiving) the stationary tile.
  [[nodiscard]] cim::ContextRegs make_job_image(
      std::uint64_t m, std::uint64_t n, std::uint64_t k, float alpha, float beta,
      sim::PhysAddr pa_a, std::uint64_t lda, sim::PhysAddr pa_b, std::uint64_t ldb,
      sim::PhysAddr pa_c, std::uint64_t ldc, double scale_a, double scale_b,
      cim::StationaryOperand stationary, bool skip_weight_load,
      std::uint32_t tile_row0 = 0) const;

  /// Consults the weight-residency cache for one stationary tile: on a hit
  /// the job skips programming at the returned row window; on a miss rows
  /// are reserved (or, when `use_cache` is false / the tile cannot be
  /// cached, overlapping resident entries are retired because the job will
  /// program rows [0, key.rows) uncached and an empty Acquire comes back).
  ResidencyCache::Acquire place_tile(bool use_cache, const WeightKey& key,
                                     int device);

  /// A stationary operand as the crossbar tiles it: `reduce` along crossbar
  /// rows, `out` along columns. kB layout is reduce x out row-major; kA is
  /// out x reduce (held transposed).
  struct Stationary {
    sim::PhysAddr pa = 0;
    std::uint64_t ld = 0;
    double scale = 0.0;  ///< quantization scale, part of the tile identity
    cim::StationaryOperand layout = cim::StationaryOperand::kB;
    std::uint64_t out = 0, reduce = 0;
  };
  /// Residency key of the crossbar-sized tile of `stat` at output offset
  /// `out0` and reduce offset `red0`: the one place a stationary tile's
  /// rectangle is built, shared by dispatch and weight_affinity().
  [[nodiscard]] WeightKey tile_key(const Stationary& stat, std::uint64_t out0,
                                   std::uint64_t red0) const;

  /// One reduce tile of a walk, as the caller's image builder sees it.
  struct StationaryTile {
    std::uint64_t out0 = 0, outs = 0, red0 = 0, reds = 0;
    /// The tile itself, or the staging copy a migrated hit was adopted from.
    sim::PhysAddr stat_pa = 0;
    std::uint64_t stat_ld = 0;
    float beta = 0.0f;  ///< the call's beta on the first reduce tile, else 1
    bool skip = false;
    std::uint32_t row0 = 0;
  };
  /// Enqueues every tile of `stat`, `streams` vectors per tile. Per output
  /// stripe: tile keys -> stationary_device -> note_write(stripe_rect(out0,
  /// outs)) -> per reduce tile place_tile, tile_image(tile), enqueue_job ->
  /// prefetch_predicted. Defined in cim_blas.cpp.
  template <typename StripeRect, typename TileImage>
  support::Status walk_stationary(const Stationary& stat, float beta,
                                  std::uint64_t streams, bool use_cache,
                                  StripeRect stripe_rect, TileImage tile_image);

  /// Topology-aware device pick: minimizes (queue depth + 1) x link latency
  /// multiplier across devices, rotating the scan start so equal-cost
  /// devices still round-robin. Returns -1 when no topology is attached,
  /// placement is kBlind, or the fabric has no far tier (flat round-robin is
  /// then already optimal).
  [[nodiscard]] int topo_place();

  /// Builds an Opcode::kProgram register image: program `key`'s stationary
  /// tile at crossbar rows [row0, row0 + key.rows), no stream phase. Only
  /// the stationary pointer is dereferenced; the remaining operands alias it
  /// with dimensions decode() accepts.
  [[nodiscard]] cim::ContextRegs make_program_image(const WeightKey& key,
                                                    std::uint32_t row0) const;

  /// Prefetch-on-miss: when the predictor knows which weight set follows
  /// `current`, speculatively programs it (Opcode::kProgram) behind the jobs
  /// just enqueued on `device` — its weight-load DMA hides under the current
  /// job's stream phase, so the successor call's weight phase disappears.
  void prefetch_predicted(const WeightKey& current, int device);

  /// Affinity routing for one stripe's chain of stationary tiles: the
  /// accelerator already holding any of them (so the reuse request can
  /// actually hit), else the round-robin cursor. Pass no keys to skip the
  /// affinity check.
  [[nodiscard]] int stationary_device(std::span<const WeightKey> keys);

  /// dev_to_host fast path: when the source is partitioned by in-flight
  /// stripe writes of known accelerators, drains each producer in
  /// completion order and copies its stripes while the remaining
  /// accelerators keep computing. Returns true when it handled the copy,
  /// false to fall back to the ordinary full-drain ordering.
  [[nodiscard]] support::StatusOr<bool> striped_copy_back(const CopyDesc& desc);

  /// Enqueues one tile job into the stream.
  support::Status enqueue_job(const cim::ContextRegs& image, std::uint64_t macs,
                              std::uint64_t cim_writes, int device,
                              bool allow_cpu_fallback);

  /// Synchronizes when an in-flight command writes any of the call's
  /// operand rectangles (RAW/WAW — host scans and deferred device reads must
  /// see the producer's output) or still reads a rectangle this call will
  /// write (WAR — a queued command's deferred reads must not observe it).
  support::Status sync_for_operands(std::initializer_list<Rect> reads,
                                    std::initializer_list<Rect> writes);
  support::Status sync_for_operands(std::span<const Rect> reads,
                                    std::span<const Rect> writes);

  /// Issues one pitched host<->device copy (flat copies pass rows == 1):
  /// async through the stream when the transfer engine deems it eligible,
  /// else the blocking host path. Marshals multi-segment chains into a
  /// staging CopySegEntry table the device DMA fetches (released at
  /// synchronize(), like batch tables).
  support::Status copy_view(CopyDesc::Dir dir, sim::VirtAddr dst,
                            sim::VirtAddr src, std::uint64_t pitch,
                            std::uint64_t width, std::uint64_t rows);

  /// Reads a float element (functional, no host charge — engine-side use).
  [[nodiscard]] support::StatusOr<sim::PhysAddr> translate_checked(
      sim::VirtAddr va, std::uint64_t bytes) const;

  /// Cached operand ranges: rescanning an unchanged buffer on every call
  /// would charge the host for work a real runtime memoizes.
  struct ScaleKey {
    sim::VirtAddr va;
    std::uint64_t rows, row_len, ld;
    auto operator<=>(const ScaleKey&) const = default;
  };
  void invalidate_scales(sim::VirtAddr va, std::uint64_t bytes);

  RuntimeConfig config_;
  sim::System& system_;
  cim::Accelerator& accel_;
  std::unique_ptr<CimDriver> driver_;
  std::unique_ptr<CimStream> stream_;
  std::unique_ptr<XferEngine> xfer_;
  std::unique_ptr<ResidencyCache> residency_;
  std::unique_ptr<HostWorkerPool> pool_;
  topo::Topology* topology_ = nullptr;
  topo::Placement placement_ = topo::Placement::kBufferCentric;
  /// Rotates the topology-aware scan start so equal-cost devices round-robin.
  std::size_t place_cursor_ = 0;
  std::vector<DeviceBuffer> buffers_;
  /// Batch tables in flight; released by synchronize().
  std::vector<DeviceBuffer> staging_;
  /// Staging copies of migrated stationary tiles. Each lives as long as the
  /// runtime: resident entries reference them as shadow operands and the
  /// destination crossbar validates future hits against their addresses.
  std::vector<DeviceBuffer> migration_staging_;
  std::map<ScaleKey, double> scale_cache_;
  bool initialized_ = false;
};

}  // namespace tdo::rt
