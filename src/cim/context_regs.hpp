// Context register file of the CIM accelerator (paper Sections II-C/II-E).
//
// "The accelerator ... exposes a set of context registers to the system via a
// memory-mapped IO interface. Context registers are used for control and
// offloading, and are read or written by the host."
//
// Layout: 64-bit registers at 8-byte strides inside the PMIO window. The
// kernel driver is the only software that touches these directly.
#pragma once

#include <array>
#include <bit>
#include <cstdint>

namespace tdo::cim {

/// Register indices (word offsets inside the PMIO window).
enum class Reg : std::uint32_t {
  kCommand = 0,     // reserved: jobs enter through the hardware work queue
  kStatus,          // DeviceStatus
  kOpcode,          // Opcode
  kM, kN, kK,       // GEMM/GEMV dimensions
  kPaA, kPaB, kPaC, // physical addresses of operands
  kLda, kLdb, kLdc, // leading dimensions (elements)
  kAlpha, kBeta,    // float bits in low 32
  kScaleA, kScaleB, // double bits: quantization scales
  kStationary,      // StationaryOperand
  kFlags,           // JobFlags bitmask
  kBatchCount,      // number of batch entries (batched GEMM)
  kBatchTable,      // PA of BatchEntry[kBatchCount]
  kCopyDir,         // DMA copy direction tag (kCopy jobs; informational —
                    // shared memory is flat, the channel ignores it)
  kTileRow,         // crossbar row offset of the job's stationary tile (the
                    // weight-residency cache places tiles in disjoint row
                    // windows so several weight sets stay resident)
  kSegCount,        // kCopy: scatter-gather segments in the chain (<=1 means
                    // the descriptor is inline in PaA/Lda/PaC/Ldc/M/N)
  kSegTable,        // kCopy: PA of CopySegEntry[kSegCount] in shared memory
  kResult,          // Status/error code written by the device
  kCompleted,       // jobs completed since reset (read-only; work-queue poll)
  kCount
};

inline constexpr std::uint32_t kRegCount = static_cast<std::uint32_t>(Reg::kCount);
inline constexpr std::uint64_t kRegStride = 8;
inline constexpr std::uint64_t kPmioWindowBytes = kRegCount * kRegStride;

/// Default PMIO window base on the system bus (above DRAM).
inline constexpr std::uint64_t kDefaultPmioBase = 0x1'0000'0000ull;

[[nodiscard]] constexpr std::uint64_t reg_offset(Reg r) {
  return static_cast<std::uint64_t>(r) * kRegStride;
}

enum class DeviceStatus : std::uint64_t {
  kIdle = 0,
  kBusy = 1,
  kDone = 2,
  kError = 3,
};

enum class Opcode : std::uint64_t {
  kNop = 0,
  kGemv = 1,         // y = alpha*op(A)*x + beta*y
  kGemm = 2,         // C = alpha*A*B + beta*C
  kGemmBatched = 3,  // batch of GEMMs sharing the stationary operand if equal
  kCopy = 4,         // rectangle DMA copy on the DMA channel (never the engine)
  kProgram = 5,      // program the stationary tile only, no stream phase (the
                     // runtime's prefetch-on-miss and migration-adoption path)
};

/// Which operand is held stationary in the crossbar (Section III-B).
enum class StationaryOperand : std::uint64_t {
  kB = 0,  // program B (KxN); stream rows of A; emit rows of C
  kA = 1,  // program A^T (KxM); stream columns of B; emit columns of C
};

/// Job behaviour flags.
struct JobFlags {
  static constexpr std::uint64_t kDoubleBuffering = 1ull << 0;
  static constexpr std::uint64_t kDifferentialWrite = 1ull << 1;  // skip unchanged cells
  /// Reuse the stationary tile already programmed at kTileRow. Within a
  /// batched job this is the paper's shared-input "smart mapping"; across
  /// jobs it is set by the runtime's weight-residency cache, and the engine
  /// still validates the request against its own programmed-tile records.
  static constexpr std::uint64_t kSkipWeightLoad = 1ull << 2;
};

/// One batched-GEMM table entry, laid out in shared memory.
struct BatchEntry {
  std::uint64_t pa_a = 0;
  std::uint64_t pa_b = 0;
  std::uint64_t pa_c = 0;
  double scale_a = 1.0;
  double scale_b = 1.0;
};
static_assert(sizeof(BatchEntry) == 40);

/// One scatter-gather copy segment, laid out in shared memory at kSegTable
/// (the descriptor-chain form every real SG-DMA engine uses). Each segment is
/// a rectangle pair: `rows` rows of `width` bytes, row starts `*_pitch` bytes
/// apart on each side. The DMA walks the chain back-to-back on one channel.
struct CopySegEntry {
  std::uint64_t src_base = 0;
  std::uint64_t src_pitch = 0;
  std::uint64_t dst_base = 0;
  std::uint64_t dst_pitch = 0;
  std::uint64_t width = 0;  ///< bytes per row
  std::uint64_t rows = 0;
};
static_assert(sizeof(CopySegEntry) == 48);

/// Raw register file with typed accessors.
class ContextRegs {
 public:
  [[nodiscard]] std::uint64_t read(Reg r) const {
    return words_[static_cast<std::uint32_t>(r)];
  }
  void write(Reg r, std::uint64_t value) {
    words_[static_cast<std::uint32_t>(r)] = value;
  }

  [[nodiscard]] float read_f32(Reg r) const {
    return std::bit_cast<float>(static_cast<std::uint32_t>(read(r)));
  }
  void write_f32(Reg r, float value) {
    write(r, std::bit_cast<std::uint32_t>(value));
  }
  [[nodiscard]] double read_f64(Reg r) const {
    return std::bit_cast<double>(read(r));
  }
  void write_f64(Reg r, double value) {
    write(r, std::bit_cast<std::uint64_t>(value));
  }

  [[nodiscard]] DeviceStatus status() const {
    return static_cast<DeviceStatus>(read(Reg::kStatus));
  }
  void set_status(DeviceStatus s) {
    write(Reg::kStatus, static_cast<std::uint64_t>(s));
  }

 private:
  std::array<std::uint64_t, kRegCount> words_{};
};

}  // namespace tdo::cim
