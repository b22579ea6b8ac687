// Interpreter: executes lowered programs on the simulated platform.
//
// Host nests run statement-by-statement against the host CPU cost model
// (instructions, cache-accurate stalls, 128 pJ/inst energy); runtime-call
// items dispatch into the CIM runtime library, which drives the accelerator
// model. This is the back-end stand-in of the compilation flow (Fig. 4): the
// "executable" produced by the compiler is a Program, and running it is the
// gem5 full-system simulation of the paper.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "exec/program.hpp"
#include "runtime/cim_blas.hpp"
#include "sim/system.hpp"
#include "support/status.hpp"

namespace tdo::exec {

/// Per-statement instruction accounting knobs (documented in DESIGN.md §5).
/// Defaults model what -O3 emits for an in-order Arm core: reduction
/// accumulators live in registers (no per-iteration load/store of the lhs
/// when its address is loop-invariant) and loop/branch overhead amortizes
/// over the unroll factor.
struct CostModelParams {
  std::uint32_t int_ops_per_access = 1;  // folded addressing arithmetic
  std::uint32_t loop_int_ops = 1;        // induction increment
  std::uint32_t loop_branches = 1;       // backedge compare+branch
  std::uint32_t unroll_factor = 4;       // -O3 unrolling amortization
  bool promote_accumulators = true;      // register-promote invariant lhs
};

class Interpreter {
 public:
  /// `runtime` may be null for host-only programs; executing a runtime call
  /// without it is an error.
  Interpreter(sim::System& system, rt::CimRuntime* runtime,
              CostModelParams cost = {});

  /// Allocates host backing for every array and executes all items.
  [[nodiscard]] support::Status run(const Program& program);

  /// Functional (uncharged) array IO, used by harnesses to set inputs before
  /// run() and read outputs after — the ROI covers only the kernel itself.
  support::Status set_array(const std::string& name, std::span<const float> data);
  [[nodiscard]] support::StatusOr<std::vector<float>> get_array(
      const std::string& name);

  /// Pre-allocates arrays without executing (lets harnesses set inputs).
  [[nodiscard]] support::Status prepare(const Program& program);

  [[nodiscard]] std::uint64_t statements_executed() const { return stmts_executed_; }

 private:
  /// A host physical address and the SimMemory bytes that back it.
  struct HostMapping {
    sim::PhysAddr pa = 0;
    std::uint8_t* data = nullptr;
  };

  struct ArrayInfo {
    ir::ArrayDecl decl;
    sim::VirtAddr host_va = 0;
    sim::VirtAddr dev_va = 0;  // 0 until CimMallocOp
    /// One entry per VA page of host_va (its frame and backing), built by
    /// the first host nest that touches the array. A host array's mapping
    /// never changes after prepare(), so later nests reuse it.
    std::vector<HostMapping> pages;
  };

  // --- prepared (slot-resolved) executable form of a host nest ---
  struct PreparedAffine {
    std::int64_t constant = 0;
    std::vector<std::pair<int, std::int64_t>> terms;  // (slot, coeff)
    [[nodiscard]] std::int64_t eval(const std::vector<std::int64_t>& env) const {
      std::int64_t v = constant;
      for (const auto& [slot, coeff] : terms) v += coeff * env[slot];
      return v;
    }
    /// The coefficient of `slot` (0 when the expression does not read it).
    [[nodiscard]] std::int64_t coeff_of(int slot) const {
      for (const auto& [s, coeff] : terms) {
        if (s == slot) return coeff;
      }
      return 0;
    }
  };
  struct PreparedBound {
    PreparedAffine expr;
    bool has_min = false;
    PreparedAffine min_with;
    [[nodiscard]] std::int64_t eval(const std::vector<std::int64_t>& env) const {
      const std::int64_t hi = expr.eval(env);
      return has_min ? std::min(hi, min_with.eval(env)) : hi;
    }
  };
  struct PreparedAccess;
  struct ExprOp;
  struct PreparedStmt;
  struct PreparedLoop;
  struct PreparedNest;  // flat op array
  using SlotMap = std::map<std::string, int>;  // iv name -> env slot

  support::Status exec_item(const ProgramItem& item);
  support::Status exec_nest(const std::vector<ir::Node>& body);

  // Nest preparation: names resolve to env slots, arrays to page tables.
  [[nodiscard]] support::Status map_pages(ArrayInfo* info);
  [[nodiscard]] static support::Status prepare_affine(const ir::AffineExpr& e,
                                                      const SlotMap& slots,
                                                      PreparedAffine* out);
  [[nodiscard]] support::Status prepare_access(
      const std::string& array, const std::vector<ir::AffineExpr>& subscripts,
      const SlotMap& slots, PreparedAccess* out);
  /// Appends `e` in postfix order to `stmt`'s rhs, and its loads to its
  /// accesses; returns its evaluation depth.
  [[nodiscard]] support::StatusOr<std::size_t> prepare_expr(
      const ir::ExprPtr& e, const SlotMap& slots, PreparedStmt* stmt);
  [[nodiscard]] support::Status prepare_body(const std::vector<ir::Node>& nodes,
                                             int depth, SlotMap* slots,
                                             PreparedNest* nest);

  [[nodiscard]] support::Status run_nest(const PreparedNest& nest);
  /// Executes one statement whose accesses (rhs loads in postfix order,
  /// then the lhs) sit at the flat element indices `index`. Returns the
  /// first access whose index falls outside its array, or null.
  [[nodiscard]] const PreparedAccess* exec_stmt(const PreparedStmt& stmt,
                                                const std::int64_t* index,
                                                double* stack);

  [[nodiscard]] ArrayInfo* find_array(const std::string& name);
  [[nodiscard]] support::StatusOr<sim::VirtAddr> dev_operand(const OperandRef& op,
                                                             bool whole = false);

  sim::System& system_;
  rt::CimRuntime* runtime_;
  CostModelParams cost_;
  std::map<std::string, ArrayInfo> arrays_;
  std::map<std::string, double> scalars_;
  std::uint64_t stmts_executed_ = 0;
  bool prepared_ = false;
};

}  // namespace tdo::exec
