// Executable program representation — the "imperative AST" the mid-level
// optimizer lowers schedule trees back into (paper Fig. 4).
//
// A program is a sequence of items: host loop nests (interpreted against the
// host cost model) and runtime calls (dispatched to the CIM runtime library),
// mirroring Listing 1's generated code where a GEMM nest is swapped for
// polly_cim* calls.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "cim/context_regs.hpp"
#include "ir/program.hpp"

namespace tdo::exec {

/// polly_cimInit(device)
struct CimInitOp {
  int device = 0;
};

/// polly_cimMalloc(&buf, bytes) for a named IR array.
struct CimMallocOp {
  std::string array;
};

/// The element sub-rectangle of an array a copy actually needs to move —
/// derived by the pipeline as the union of the device-op footprints on that
/// array. `rows == 0` means the whole array (the conservative default). A
/// proper sub-rectangle lowers to a pitched polly_cim*2d transfer whose
/// segment chain the transfer engine derives from the footprint.
struct CopyFootprint {
  std::uint64_t row0 = 0;
  std::uint64_t col0 = 0;
  std::uint64_t rows = 0;
  std::uint64_t cols = 0;

  [[nodiscard]] bool whole() const { return rows == 0; }
};

/// polly_cimHostToDev(dev(array), host(array), bytes)
struct CimHostToDevOp {
  std::string array;
  CopyFootprint footprint;
};

/// polly_cimDevToHost(host(array), dev(array), bytes)
struct CimDevToHostOp {
  std::string array;
  CopyFootprint footprint;
};

/// polly_cimFree(dev(array))
struct CimFreeOp {
  std::string array;
};

/// polly_cimSynchronize(): stream barrier. The pipeline emits one before
/// host code (or a copy-back) consumes data produced by asynchronous
/// device calls.
struct CimSyncOp {};

/// One GEMM operand binding: array name + row/col offsets into it (for
/// compiler-tiled calls) + leading dimension.
struct OperandRef {
  std::string array;
  std::uint64_t row_offset = 0;
  std::uint64_t col_offset = 0;
  std::uint64_t ld = 0;
};

/// polly_cimBlasSGemm(...): C = alpha*A*B + beta*C on device buffers.
struct CimGemmOp {
  std::uint64_t m = 0, n = 0, k = 0;
  float alpha = 1.0f, beta = 0.0f;
  OperandRef a, b, c;
  cim::StationaryOperand stationary = cim::StationaryOperand::kB;
};

/// polly_cimBlasSGemv(...): y = alpha*op(A)*x + beta*y.
struct CimGemvOp {
  bool transpose = false;
  std::uint64_t m = 0, n = 0;
  float alpha = 1.0f, beta = 0.0f;
  OperandRef a;
  std::string x, y;
};

/// polly_cimBlasGemmBatched(...): same-shape GEMMs, shared stationary reuse.
struct CimGemmBatchedOp {
  std::uint64_t m = 0, n = 0, k = 0;
  float alpha = 1.0f, beta = 0.0f;
  std::vector<OperandRef> a, b, c;  // parallel arrays
  std::uint64_t lda = 0, ldb = 0, ldc = 0;
  cim::StationaryOperand stationary = cim::StationaryOperand::kB;
};

/// A host-executed loop nest (interpreted with the cost model).
struct HostNest {
  std::vector<ir::Node> body;
};

using ProgramItem =
    std::variant<HostNest, CimInitOp, CimMallocOp, CimHostToDevOp,
                 CimDevToHostOp, CimFreeOp, CimSyncOp, CimGemmOp, CimGemvOp,
                 CimGemmBatchedOp>;

/// Fully lowered program, executable by exec::Interpreter.
struct Program {
  std::string name;
  std::vector<ir::ArrayDecl> arrays;
  std::vector<ir::ScalarDecl> scalars;
  std::vector<ProgramItem> items;

  /// Renders the program as pseudo-C++ with polly_cim* calls (Listing 1).
  [[nodiscard]] std::string to_source() const;
};

/// Builds a pure-host program from an IR function (the -O3 baseline path).
[[nodiscard]] Program host_only_program(const ir::Function& fn);

}  // namespace tdo::exec
