#include "exec/interpreter.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <variant>

#include "support/log.hpp"

namespace tdo::exec {

using support::Status;
using support::StatusOr;

// ---------------------------------------------------------------------------
// Prepared executable form
// ---------------------------------------------------------------------------

// A host nest compiles to one flat op array in source pre-order: a loop op
// is followed by its body, which ends at the loop's `end` index, and a
// statement holds its rhs as postfix expression ops. run_nest() walks the
// array with a program counter and a stack of open loops; an innermost loop
// runs in one routine that advances each access's index by a constant per
// iteration instead of evaluating its subscripts.

namespace {

[[nodiscard]] float read_float(const std::uint8_t* data) {
  float value;
  std::memcpy(&value, data, sizeof value);
  return value;
}

void write_float(std::uint8_t* data, float value) {
  std::memcpy(data, &value, sizeof value);
}

}  // namespace

struct Interpreter::PreparedAccess {
  const ArrayInfo* array = nullptr;
  std::int64_t elements = 0;
  PreparedAffine offset;  // flat row-major element index
  /// The offset's coefficient of the innermost enclosing loop's slot: one
  /// iteration of that loop moves the index by inner_coeff x step.
  std::int64_t inner_coeff = 0;

  /// Element `index` through the array's page table; null data when the
  /// index falls outside the array.
  [[nodiscard]] HostMapping at(std::int64_t index) const {
    if (index < 0 || index >= elements) return {};
    const auto byte = static_cast<std::uint64_t>(index) * 4;
    const HostMapping& page = array->pages[byte >> sim::kPageShift];
    const std::uint64_t in_page = sim::page_offset(byte);
    return HostMapping{page.pa + in_page, page.data + in_page};
  }

  [[nodiscard]] Status out_of_range() const {
    return support::out_of_range("host nest subscript outside array " +
                                 array->decl.name);
  }
};

struct Interpreter::ExprOp {
  /// kLoad pushes the statement's next access, kConst pushes `value` (scalar
  /// params resolve to constants at prepare time), and kBin pops rhs then
  /// lhs and pushes `lhs op rhs`.
  enum class Kind { kLoad, kConst, kBin };
  Kind kind = Kind::kConst;
  double value = 0.0;
  ir::BinOpKind op = ir::BinOpKind::kAdd;
};

struct Interpreter::PreparedStmt {
  /// The rhs loads in postfix order, then the lhs.
  std::vector<PreparedAccess> accesses;
  bool accumulate = false;
  /// lhs address is invariant in the innermost enclosing loop: -O3 keeps the
  /// accumulator in a register, so no per-iteration lhs load/store occurs.
  bool lhs_promoted = false;
  std::vector<ExprOp> rhs;  // postfix
  // Static per-execution instruction counts.
  std::uint32_t fp_ops = 0;
  std::uint32_t addr_int_ops = 0;
};

struct Interpreter::PreparedLoop {
  int slot = 0;
  PreparedAffine lower;
  PreparedBound upper;
  std::int64_t step = 1;
  std::size_t end = 0;  // op index one past the loop body
  /// The body holds only statements and the upper bound does not read
  /// `slot`: the bound and every access's starting index are evaluated once
  /// per entry, and each index then advances by its inner_coeff x step.
  bool innermost = false;
};

struct Interpreter::PreparedNest {
  std::vector<std::variant<PreparedLoop, PreparedStmt>> ops;
  std::size_t stack_depth = 0;  // deepest rhs evaluation
  /// Accesses of the largest innermost body or statement: the length of the
  /// index buffer run_nest() allocates.
  std::size_t streams = 0;
};

Interpreter::Interpreter(sim::System& system, rt::CimRuntime* runtime,
                         CostModelParams cost)
    : system_{system}, runtime_{runtime}, cost_{cost} {}

Interpreter::ArrayInfo* Interpreter::find_array(const std::string& name) {
  const auto it = arrays_.find(name);
  return it == arrays_.end() ? nullptr : &it->second;
}

Status Interpreter::prepare(const Program& program) {
  if (prepared_) return Status::ok();
  for (const ir::ArrayDecl& decl : program.arrays) {
    auto va = system_.mmu().allocate(static_cast<std::uint64_t>(decl.bytes()));
    if (!va.is_ok()) return va.status();
    arrays_[decl.name] = ArrayInfo{decl, *va, 0, {}};
  }
  for (const ir::ScalarDecl& s : program.scalars) scalars_[s.name] = s.value;
  prepared_ = true;
  return Status::ok();
}

// Host arrays start page-aligned, so each page-sized span of the array is
// one physical frame: copy frame by frame.
Status Interpreter::set_array(const std::string& name,
                              std::span<const float> data) {
  const ArrayInfo* info = find_array(name);
  if (info == nullptr) return support::not_found("unknown array " + name);
  if (static_cast<std::int64_t>(data.size()) != info->decl.element_count()) {
    return support::invalid_argument("size mismatch setting " + name);
  }
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(data.data());
  const std::uint64_t size = data.size_bytes();
  for (std::uint64_t done = 0; done < size; done += sim::kPageSize) {
    auto pa = system_.mmu().translate(info->host_va + done);
    if (!pa.is_ok()) return pa.status();
    system_.memory().write(
        *pa, {bytes + done, std::min<std::uint64_t>(sim::kPageSize, size - done)});
  }
  return Status::ok();
}

StatusOr<std::vector<float>> Interpreter::get_array(const std::string& name) {
  const ArrayInfo* info = find_array(name);
  if (info == nullptr) return support::not_found("unknown array " + name);
  std::vector<float> out(static_cast<std::size_t>(info->decl.element_count()));
  auto* bytes = reinterpret_cast<std::uint8_t*>(out.data());
  const std::uint64_t size = out.size() * sizeof(float);
  for (std::uint64_t done = 0; done < size; done += sim::kPageSize) {
    auto pa = system_.mmu().translate(info->host_va + done);
    if (!pa.is_ok()) return pa.status();
    system_.memory().read(
        *pa, {bytes + done, std::min<std::uint64_t>(sim::kPageSize, size - done)});
  }
  return out;
}

StatusOr<sim::VirtAddr> Interpreter::dev_operand(const OperandRef& op,
                                                 bool whole) {
  const ArrayInfo* info = find_array(op.array);
  if (info == nullptr) return support::not_found("unknown array " + op.array);
  if (info->dev_va == 0) {
    return support::failed_precondition("array " + op.array +
                                        " has no device buffer");
  }
  if (whole) return info->dev_va;
  return info->dev_va + (op.row_offset * op.ld + op.col_offset) * 4;
}

Status Interpreter::run(const Program& program) {
  TDO_RETURN_IF_ERROR(prepare(program));
  for (const ProgramItem& item : program.items) {
    TDO_RETURN_IF_ERROR(exec_item(item));
  }
  // Terminal barrier: device calls dispatch asynchronously, so nothing may
  // remain in flight when the caller inspects results or the ROI closes.
  if (runtime_ != nullptr) TDO_RETURN_IF_ERROR(runtime_->synchronize());
  return Status::ok();
}

Status Interpreter::exec_item(const ProgramItem& item) {
  if (const auto* nest = std::get_if<HostNest>(&item)) {
    return exec_nest(nest->body);
  }
  if (runtime_ == nullptr) {
    return support::failed_precondition(
        "program contains CIM runtime calls but no runtime is attached");
  }
  if (const auto* init = std::get_if<CimInitOp>(&item)) {
    return runtime_->init(init->device);
  }
  if (const auto* malloc_op = std::get_if<CimMallocOp>(&item)) {
    ArrayInfo* info = find_array(malloc_op->array);
    if (info == nullptr) return support::not_found(malloc_op->array);
    auto va =
        runtime_->malloc_device(static_cast<std::uint64_t>(info->decl.bytes()));
    if (!va.is_ok()) return va.status();
    info->dev_va = *va;
    return Status::ok();
  }
  // Copies with a derived footprint move only the sub-rectangle the device
  // ops actually touch, as a pitched transfer whose scatter-gather segment
  // chain the runtime's transfer engine derives; whole-array copies keep the
  // flat path.
  if (const auto* h2d = std::get_if<CimHostToDevOp>(&item)) {
    ArrayInfo* info = find_array(h2d->array);
    if (info == nullptr) return support::not_found(h2d->array);
    if (!h2d->footprint.whole()) {
      const CopyFootprint& fp = h2d->footprint;
      const auto ld = static_cast<std::uint64_t>(
          info->decl.dims.size() >= 2 ? info->decl.dims[1] : info->decl.dims[0]);
      const std::uint64_t off = (fp.row0 * ld + fp.col0) * 4;
      return runtime_->host_to_dev_2d(info->dev_va + off, info->host_va + off,
                                      ld * 4, fp.cols * 4, fp.rows);
    }
    return runtime_->host_to_dev(info->dev_va, info->host_va,
                                 static_cast<std::uint64_t>(info->decl.bytes()));
  }
  if (const auto* d2h = std::get_if<CimDevToHostOp>(&item)) {
    ArrayInfo* info = find_array(d2h->array);
    if (info == nullptr) return support::not_found(d2h->array);
    if (!d2h->footprint.whole()) {
      const CopyFootprint& fp = d2h->footprint;
      const auto ld = static_cast<std::uint64_t>(
          info->decl.dims.size() >= 2 ? info->decl.dims[1] : info->decl.dims[0]);
      const std::uint64_t off = (fp.row0 * ld + fp.col0) * 4;
      return runtime_->dev_to_host_2d(info->host_va + off, info->dev_va + off,
                                      ld * 4, fp.cols * 4, fp.rows);
    }
    return runtime_->dev_to_host(info->host_va, info->dev_va,
                                 static_cast<std::uint64_t>(info->decl.bytes()));
  }
  if (const auto* free_op = std::get_if<CimFreeOp>(&item)) {
    ArrayInfo* info = find_array(free_op->array);
    if (info == nullptr) return support::not_found(free_op->array);
    const Status s = runtime_->free_device(info->dev_va);
    info->dev_va = 0;
    return s;
  }
  if (std::get_if<CimSyncOp>(&item) != nullptr) {
    return runtime_->synchronize();
  }
  // Kernel calls AND copies dispatch asynchronously through the runtime's
  // command stream: tile jobs from consecutive calls pipeline across the
  // accelerator work queues, eligible copies ride the stream as DMA
  // commands, and the elapsed time the ROI observes is the overlapped
  // schedule, not a sum of synchronous round trips. Full drains happen at
  // CimSyncOp barriers (emitted by the compiler where host nests consume
  // in-flight data) and at the end of run(); copies and frees drain only
  // when their rectangles actually overlap in-flight work.
  if (const auto* gemm = std::get_if<CimGemmOp>(&item)) {
    auto a = dev_operand(gemm->a);
    if (!a.is_ok()) return a.status();
    auto b = dev_operand(gemm->b);
    if (!b.is_ok()) return b.status();
    auto c = dev_operand(gemm->c);
    if (!c.is_ok()) return c.status();
    return runtime_->sgemm_async(gemm->m, gemm->n, gemm->k, gemm->alpha, *a,
                                 gemm->a.ld, *b, gemm->b.ld, gemm->beta, *c,
                                 gemm->c.ld, gemm->stationary);
  }
  if (const auto* gemv = std::get_if<CimGemvOp>(&item)) {
    auto a = dev_operand(gemv->a);
    if (!a.is_ok()) return a.status();
    const ArrayInfo* x = find_array(gemv->x);
    const ArrayInfo* y = find_array(gemv->y);
    if (x == nullptr || y == nullptr) return support::not_found("gemv vectors");
    if (x->dev_va == 0 || y->dev_va == 0) {
      return support::failed_precondition("gemv vectors not on device");
    }
    return runtime_->sgemv_async(gemv->transpose, gemv->m, gemv->n, gemv->alpha,
                                 *a, gemv->a.ld, x->dev_va, gemv->beta,
                                 y->dev_va);
  }
  if (const auto* batched = std::get_if<CimGemmBatchedOp>(&item)) {
    std::vector<rt::GemmBatchItem> items(batched->a.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
      auto a = dev_operand(batched->a[i]);
      if (!a.is_ok()) return a.status();
      auto b = dev_operand(batched->b[i]);
      if (!b.is_ok()) return b.status();
      auto c = dev_operand(batched->c[i]);
      if (!c.is_ok()) return c.status();
      items[i] = rt::GemmBatchItem{*a, *b, *c};
    }
    return runtime_->sgemm_batched_async(
        batched->m, batched->n, batched->k, batched->alpha, items,
        batched->lda, batched->ldb, batched->beta, batched->ldc,
        batched->stationary);
  }
  return support::unimplemented("unknown program item");
}

// ---------------------------------------------------------------------------
// Host nest preparation + execution
// ---------------------------------------------------------------------------

Status Interpreter::exec_nest(const std::vector<ir::Node>& body) {
  SlotMap slots;
  PreparedNest nest;
  TDO_RETURN_IF_ERROR(prepare_body(body, 0, &slots, &nest));
  return run_nest(nest);
}

Status Interpreter::map_pages(ArrayInfo* info) {
  if (!info->pages.empty()) return Status::ok();
  assert(sim::page_offset(info->host_va) == 0);
  const auto bytes = static_cast<std::uint64_t>(info->decl.bytes());
  std::vector<HostMapping> pages;
  pages.reserve((bytes + sim::kPageSize - 1) / sim::kPageSize);
  for (std::uint64_t done = 0; done < bytes; done += sim::kPageSize) {
    auto pa = system_.mmu().translate(info->host_va + done);
    if (!pa.is_ok()) return pa.status();
    pages.push_back(HostMapping{*pa, system_.memory().page_data(*pa)});
  }
  info->pages = std::move(pages);
  return Status::ok();
}

Status Interpreter::prepare_affine(const ir::AffineExpr& e, const SlotMap& slots,
                                   PreparedAffine* out) {
  out->constant = e.constant_term();
  out->terms.clear();
  for (const auto& [name, coeff] : e.coeffs()) {
    const auto it = slots.find(name);
    if (it == slots.end()) return support::internal_error("unbound iv " + name);
    out->terms.emplace_back(it->second, coeff);
  }
  return Status::ok();
}

Status Interpreter::prepare_access(const std::string& array,
                                   const std::vector<ir::AffineExpr>& subscripts,
                                   const SlotMap& slots, PreparedAccess* out) {
  ArrayInfo* info = find_array(array);
  if (info == nullptr) return support::not_found("array " + array);
  TDO_RETURN_IF_ERROR(map_pages(info));
  out->array = info;
  out->elements = info->decl.element_count();
  // offset = sum_d subscripts[d] * stride_d with row-major strides.
  ir::AffineExpr flat;
  std::int64_t stride = 1;
  for (std::size_t d = info->decl.dims.size(); d-- > 0;) {
    flat += subscripts[d] * stride;
    stride *= info->decl.dims[d];
  }
  return prepare_affine(flat, slots, &out->offset);
}

StatusOr<std::size_t> Interpreter::prepare_expr(const ir::ExprPtr& e,
                                                const SlotMap& slots,
                                                PreparedStmt* stmt) {
  ExprOp op;
  if (const auto* load = std::get_if<ir::LoadExpr>(&e->node)) {
    op.kind = ExprOp::Kind::kLoad;
    TDO_RETURN_IF_ERROR(prepare_access(load->array, load->subscripts, slots,
                                       &stmt->accesses.emplace_back()));
    stmt->rhs.push_back(op);
    return std::size_t{1};
  }
  if (const auto* c = std::get_if<ir::ConstExpr>(&e->node)) {
    op.value = c->value;
    stmt->rhs.push_back(op);
    return std::size_t{1};
  }
  if (const auto* p = std::get_if<ir::ParamExpr>(&e->node)) {
    const auto it = scalars_.find(p->name);
    if (it == scalars_.end()) return support::not_found("scalar " + p->name);
    op.value = it->second;
    stmt->rhs.push_back(op);
    return std::size_t{1};
  }
  if (const auto* bin = std::get_if<ir::BinExpr>(&e->node)) {
    auto lhs = prepare_expr(bin->lhs, slots, stmt);
    if (!lhs.is_ok()) return lhs.status();
    auto rhs = prepare_expr(bin->rhs, slots, stmt);
    if (!rhs.is_ok()) return rhs.status();
    op.kind = ExprOp::Kind::kBin;
    op.op = bin->op;
    stmt->rhs.push_back(op);
    ++stmt->fp_ops;
    return std::max(*lhs, *rhs + 1);
  }
  return support::unimplemented("non-affine expression reached the interpreter");
}

Status Interpreter::prepare_body(const std::vector<ir::Node>& nodes, int depth,
                                 SlotMap* slots, PreparedNest* nest) {
  for (const ir::Node& node : nodes) {
    if (node.is_loop()) {
      const ir::Loop& loop = node.loop();
      if (depth >= 30) {
        return support::invalid_argument("loop nest deeper than 30");
      }
      PreparedLoop prepared;
      prepared.slot = depth;
      TDO_RETURN_IF_ERROR(prepare_affine(loop.lower, *slots, &prepared.lower));
      (*slots)[loop.iv] = depth;
      TDO_RETURN_IF_ERROR(
          prepare_affine(loop.upper.expr, *slots, &prepared.upper.expr));
      if (loop.upper.min_with.has_value()) {
        prepared.upper.has_min = true;
        TDO_RETURN_IF_ERROR(prepare_affine(*loop.upper.min_with, *slots,
                                           &prepared.upper.min_with));
      }
      prepared.step = loop.step;
      const std::size_t index = nest->ops.size();
      nest->ops.emplace_back(std::move(prepared));
      TDO_RETURN_IF_ERROR(prepare_body(loop.body, depth + 1, slots, nest));
      slots->erase(loop.iv);

      auto& done = std::get<PreparedLoop>(nest->ops[index]);
      done.end = nest->ops.size();
      done.innermost = done.upper.expr.coeff_of(depth) == 0 &&
                       done.upper.min_with.coeff_of(depth) == 0;
      std::size_t streams = 0;
      for (std::size_t op = index + 1; op < done.end; ++op) {
        const auto* stmt = std::get_if<PreparedStmt>(&nest->ops[op]);
        if (stmt == nullptr) {
          done.innermost = false;
          break;
        }
        streams += stmt->accesses.size();
      }
      if (done.innermost) nest->streams = std::max(nest->streams, streams);
    } else {
      const ir::Stmt& stmt = node.stmt();
      PreparedStmt prepared;
      prepared.accumulate = stmt.accumulate;
      PreparedAccess lhs;
      TDO_RETURN_IF_ERROR(
          prepare_access(stmt.lhs.array, stmt.lhs.subscripts, *slots, &lhs));
      auto stack = prepare_expr(stmt.rhs, *slots, &prepared);
      if (!stack.is_ok()) return stack.status();
      const auto loads = static_cast<std::uint32_t>(prepared.accesses.size());
      prepared.accesses.push_back(std::move(lhs));
      for (PreparedAccess& access : prepared.accesses) {
        access.inner_coeff = access.offset.coeff_of(depth - 1);
      }
      nest->stack_depth = std::max(nest->stack_depth, *stack);
      nest->streams = std::max(nest->streams, prepared.accesses.size());
      if (stmt.accumulate) ++prepared.fp_ops;  // the += add
      prepared.lhs_promoted = cost_.promote_accumulators && stmt.accumulate &&
                              depth > 0 &&
                              prepared.accesses.back().inner_coeff == 0;
      const std::uint32_t lhs_accesses = prepared.lhs_promoted ? 0 : 1;
      prepared.addr_int_ops = (loads + lhs_accesses) * cost_.int_ops_per_access;
      nest->ops.emplace_back(std::move(prepared));
    }
  }
  return Status::ok();
}

const Interpreter::PreparedAccess* Interpreter::exec_stmt(
    const PreparedStmt& stmt, const std::int64_t* index, double* stack) {
  sim::HostCpu& cpu = system_.cpu();
  ++stmts_executed_;
  const PreparedAccess* access = stmt.accesses.data();
  double* top = stack;  // one past the last pushed value
  for (const ExprOp& op : stmt.rhs) {
    switch (op.kind) {
      case ExprOp::Kind::kConst:
        *top++ = op.value;
        break;
      case ExprOp::Kind::kLoad: {
        const HostMapping at = access->at(*index);
        if (at.data == nullptr) return access;
        cpu.load(at.pa);
        *top++ = static_cast<double>(read_float(at.data));
        ++access;
        ++index;
        break;
      }
      case ExprOp::Kind::kBin: {
        const double r = *--top;
        double& l = top[-1];
        switch (op.op) {
          case ir::BinOpKind::kAdd: l = l + r; break;
          case ir::BinOpKind::kSub: l = l - r; break;
          case ir::BinOpKind::kMul: l = l * r; break;
          case ir::BinOpKind::kDiv: l = l / r; break;
        }
        break;
      }
    }
  }
  double value = stack[0];
  const HostMapping lhs = access->at(*index);
  if (lhs.data == nullptr) return access;
  if (stmt.accumulate) {
    if (!stmt.lhs_promoted) cpu.load(lhs.pa);
    value += static_cast<double>(read_float(lhs.data));
  }
  write_float(lhs.data, static_cast<float>(value));
  if (!stmt.lhs_promoted) cpu.store(lhs.pa);
  cpu.issue(sim::InstBundle{.int_alu = stmt.addr_int_ops,
                            .fp_ops = stmt.fp_ops});
  return nullptr;
}

Status Interpreter::run_nest(const PreparedNest& nest) {
  sim::HostCpu& cpu = system_.cpu();
  std::vector<std::int64_t> env(32, 0);
  std::vector<double> stack(nest.stack_depth);
  // The flat element index of each access in the running statement or
  // innermost body, and how far one innermost iteration moves it.
  std::vector<std::int64_t> index(nest.streams);
  std::vector<std::int64_t> advance(nest.streams);
  struct OpenLoop {
    const PreparedLoop* loop;
    std::size_t body;  // op index of the first body op
    std::uint32_t unroll_phase;
  };
  std::vector<OpenLoop> open;
  open.reserve(32);

  // Loop bookkeeping amortizes across the unroll factor at -O3.
  const auto bookkeep = [&](std::uint32_t* unroll_phase) {
    if (*unroll_phase == 0) {
      cpu.issue(sim::InstBundle{.int_alu = cost_.loop_int_ops,
                                .branches = cost_.loop_branches});
    }
    if (++*unroll_phase >= cost_.unroll_factor) *unroll_phase = 0;
  };

  // Starts the iteration of `loop` at `i`, or returns false past its bound.
  const auto iterate = [&](const PreparedLoop& loop, std::int64_t i,
                           std::uint32_t* unroll_phase) {
    if (i >= loop.upper.eval(env)) return false;
    env[static_cast<std::size_t>(loop.slot)] = i;
    bookkeep(unroll_phase);
    return true;
  };

  // Runs the innermost loop at op `pc`. Its bound reads only outer slots,
  // so it is evaluated once; each access's index is evaluated at the first
  // iteration and then advanced, and still bounds-checked at every one.
  const auto run_innermost = [&](std::size_t pc) -> Status {
    const auto& loop = std::get<PreparedLoop>(nest.ops[pc]);
    const auto slot = static_cast<std::size_t>(loop.slot);
    const std::int64_t lo = loop.lower.eval(env);
    const std::int64_t hi = loop.upper.eval(env);
    if (lo >= hi) return Status::ok();
    env[slot] = lo;
    std::size_t streams = 0;
    for (std::size_t op = pc + 1; op < loop.end; ++op) {
      for (const PreparedAccess& access :
           std::get<PreparedStmt>(nest.ops[op]).accesses) {
        index[streams] = access.offset.eval(env);
        advance[streams] = access.inner_coeff * loop.step;
        ++streams;
      }
    }
    std::uint32_t unroll_phase = 0;
    std::int64_t i = lo;
    for (; i < hi; i += loop.step) {
      bookkeep(&unroll_phase);
      const std::int64_t* at = index.data();
      for (std::size_t op = pc + 1; op < loop.end; ++op) {
        const auto& stmt = std::get<PreparedStmt>(nest.ops[op]);
        if (const PreparedAccess* bad = exec_stmt(stmt, at, stack.data())) {
          return bad->out_of_range();
        }
        at += stmt.accesses.size();
      }
      for (std::size_t k = 0; k < streams; ++k) index[k] += advance[k];
    }
    env[slot] = i - loop.step;  // the last iteration, as iterate() leaves it
    return Status::ok();
  };

  std::size_t pc = 0;
  for (;;) {
    // At the end of the innermost open loop's body: next iteration or exit.
    if (pc == (open.empty() ? nest.ops.size() : open.back().loop->end)) {
      if (open.empty()) return Status::ok();
      OpenLoop& top = open.back();
      const PreparedLoop& loop = *top.loop;
      const std::int64_t next =
          env[static_cast<std::size_t>(loop.slot)] + loop.step;
      if (iterate(loop, next, &top.unroll_phase)) {
        pc = top.body;
      } else {
        open.pop_back();
      }
      continue;
    }
    if (const auto* loop = std::get_if<PreparedLoop>(&nest.ops[pc])) {
      if (loop->innermost) {
        TDO_RETURN_IF_ERROR(run_innermost(pc));
        pc = loop->end;
        continue;
      }
      std::uint32_t unroll_phase = 0;
      if (iterate(*loop, loop->lower.eval(env), &unroll_phase)) {
        open.push_back(OpenLoop{loop, pc + 1, unroll_phase});
        ++pc;
      } else {
        pc = loop->end;
      }
      continue;
    }
    const auto& stmt = std::get<PreparedStmt>(nest.ops[pc]);
    ++pc;
    for (std::size_t k = 0; k < stmt.accesses.size(); ++k) {
      index[k] = stmt.accesses[k].offset.eval(env);
    }
    if (const PreparedAccess* bad = exec_stmt(stmt, index.data(), stack.data())) {
      return bad->out_of_range();
    }
  }
}

}  // namespace tdo::exec
