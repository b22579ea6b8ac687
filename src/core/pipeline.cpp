#include "core/pipeline.hpp"

#include <cassert>
#include <map>
#include <set>

#include "core/schedule_tree.hpp"
#include "ir/builder.hpp"
#include "support/log.hpp"

namespace tdo::core {

namespace {

using exec::CimDevToHostOp;
using exec::CimFreeOp;
using exec::CimGemmBatchedOp;
using exec::CimGemmOp;
using exec::CimGemvOp;
using exec::CimHostToDevOp;
using exec::CimInitOp;
using exec::CimMallocOp;
using exec::CimSyncOp;
using exec::HostNest;
using exec::OperandRef;

/// Removes claimed statements from a nest; returns nullopt when nothing
/// remains (the loop-distribution residual builder).
[[nodiscard]] std::optional<ir::Node> strip_claimed(
    const ir::Node& node, const std::set<std::string>& claimed) {
  if (node.is_stmt()) {
    if (claimed.contains(node.stmt().name)) return std::nullopt;
    return node;
  }
  const ir::Loop& loop = node.loop();
  ir::Loop stripped;
  stripped.iv = loop.iv;
  stripped.lower = loop.lower;
  stripped.upper = loop.upper;
  stripped.step = loop.step;
  for (const ir::Node& child : loop.body) {
    if (auto kept = strip_claimed(child, claimed)) {
      stripped.body.push_back(*std::move(kept));
    }
  }
  if (stripped.body.empty()) return std::nullopt;
  return ir::Node{std::move(stripped)};
}

/// Read/write array sets of a host nest.
void nest_accesses(const std::vector<ir::Node>& body,
                   std::set<std::string>* reads, std::set<std::string>* writes) {
  ir::for_each_stmt(body, [&](const ir::Stmt& stmt) {
    writes->insert(stmt.lhs.array);
    if (stmt.accumulate) reads->insert(stmt.lhs.array);
    std::vector<const ir::LoadExpr*> loads;
    ir::collect_loads(stmt.rhs, loads);
    for (const auto* load : loads) reads->insert(load->array);
  });
}

/// Program emitter with host/device residency tracking.
class Emitter {
 public:
  Emitter(const ir::Function& fn, const CompileOptions& options)
      : fn_{fn}, options_{options} {
    program_.name = fn.name + "_cim";
    program_.arrays = fn.arrays;
    program_.scalars = fn.scalars;
  }

  [[nodiscard]] exec::Program take() && {
    // Final coherence (Listing 1's epilogue, asynchronous edition): enqueue
    // every copy-back — each orders itself behind its producer by rectangle
    // overlap — then release the device buffers. The frees and the
    // interpreter's terminal barrier drain whatever is still in flight; no
    // explicit polly_cimSynchronize is needed here.
    for (auto& [name, state] : location_) {
      if (state == Loc::kDeviceDirty) {
        program_.items.push_back(CimDevToHostOp{name, {}});
        state = Loc::kSynced;
      }
    }
    for (const std::string& name : device_buffers_) {
      program_.items.push_back(CimFreeOp{name});
    }
    return std::move(program_);
  }

  void declare_array(ir::ArrayDecl decl) { program_.arrays.push_back(std::move(decl)); }

  void emit_host_nest(std::vector<ir::Node> body) {
    std::set<std::string> reads;
    std::set<std::string> writes;
    nest_accesses(body, &reads, &writes);
    for (const auto& name : reads) ensure_host(name);
    // Partial writes must land on current data, so writes sync too.
    for (const auto& name : writes) ensure_host(name);
    // The nest's loads/stores bypass the stream's hazard tracker, so the
    // emitter places the barrier: before host code touches an array with a
    // copy still in flight, or overwrites a device-resident array an
    // in-flight kernel may read (WAR across the stream). Nests touching
    // neither run concurrently with the stream.
    bool barrier = false;
    for (const auto& name : reads) {
      barrier = barrier || pending_copies_.contains(name);
    }
    for (const auto& name : writes) {
      barrier = barrier || pending_copies_.contains(name) ||
                (kernels_in_flight_ && device_buffers_.contains(name));
    }
    if (barrier) emit_sync();
    program_.items.push_back(HostNest{std::move(body)});
    for (const auto& name : writes) mark_host_write(name);
  }

  void emit_device_op(exec::ProgramItem op, const std::set<std::string>& reads,
                      const std::set<std::string>& writes) {
    for (const auto& name : reads) ensure_device(name);
    // Device kernels may read the previous output (beta != 0) and write
    // sub-regions; conservatively sync outputs in as well.
    for (const auto& name : writes) ensure_device(name);
    program_.items.push_back(std::move(op));
    kernels_in_flight_ = true;
    for (const auto& name : writes) location_[name] = Loc::kDeviceDirty;
  }

 private:
  enum class Loc { kHostOnly, kSynced, kDeviceDirty, kHostDirty };

  /// Stream barrier: everything in flight (kernels and copies) retires.
  void emit_sync() {
    program_.items.push_back(CimSyncOp{});
    kernels_in_flight_ = false;
    pending_copies_.clear();
  }

  [[nodiscard]] Loc state(const std::string& name) const {
    const auto it = location_.find(name);
    return it == location_.end() ? Loc::kHostOnly : it->second;
  }

  void ensure_device(const std::string& name) {
    if (!init_emitted_) {
      program_.items.push_back(CimInitOp{0});
      init_emitted_ = true;
    }
    if (!device_buffers_.contains(name)) {
      program_.items.push_back(CimMallocOp{name});
      device_buffers_.insert(name);
    }
    switch (state(name)) {
      case Loc::kHostOnly:
      case Loc::kHostDirty:
        // The upload rides the stream as a DMA command; the runtime orders
        // it against in-flight producers by rectangle overlap, so no
        // barrier is emitted here and the copy overlaps ongoing compute.
        program_.items.push_back(CimHostToDevOp{name, {}});
        pending_copies_.insert(name);
        location_[name] = Loc::kSynced;
        break;
      case Loc::kSynced:
      case Loc::kDeviceDirty:
        break;
    }
  }

  void ensure_host(const std::string& name) {
    if (state(name) == Loc::kDeviceDirty) {
      // No barrier before the copy-back: the runtime synchronizes only if
      // the copy's source rectangle is still being written in flight. The
      // barrier lands later, when host code consumes the array.
      program_.items.push_back(CimDevToHostOp{name, {}});
      pending_copies_.insert(name);
      location_[name] = Loc::kSynced;
    }
  }

  void mark_host_write(const std::string& name) {
    location_[name] =
        device_buffers_.contains(name) ? Loc::kHostDirty : Loc::kHostOnly;
  }

  const ir::Function& fn_;
  const CompileOptions& options_;
  exec::Program program_;
  std::map<std::string, Loc> location_;
  std::set<std::string> device_buffers_;
  /// Arrays with an async copy potentially still in flight.
  std::set<std::string> pending_copies_;
  bool init_emitted_ = false;
  bool kernels_in_flight_ = false;
};

[[nodiscard]] std::uint64_t array_ld(const ir::Function& fn,
                                     const std::string& name) {
  const ir::ArrayDecl* decl = fn.find_array(name);
  assert(decl != nullptr);
  return decl->dims.size() >= 2
             ? static_cast<std::uint64_t>(decl->dims[1])
             : static_cast<std::uint64_t>(decl->dims[0]);
}

void emit_gemm(Emitter& emitter, const ir::Function& fn, const GemmKernel& g,
               const CompileOptions& options, bool* tiled_out) {
  const std::uint64_t lda = array_ld(fn, g.a);
  const std::uint64_t ldb = array_ld(fn, g.b);
  const std::uint64_t ldc = array_ld(fn, g.c);
  const std::set<std::string> reads = {g.a, g.b};
  const std::set<std::string> writes = {g.c};

  const TilePlan plan_a = plan_gemm_tiling(g, options.crossbar_rows,
                                           options.crossbar_cols,
                                           cim::StationaryOperand::kA);
  if (!plan_a.needed) {
    // Fits: single call, naive stationary-B mapping (paper default).
    CimGemmOp op;
    op.m = static_cast<std::uint64_t>(g.m);
    op.n = static_cast<std::uint64_t>(g.n);
    op.k = static_cast<std::uint64_t>(g.k);
    op.alpha = g.alpha;
    op.beta = g.beta;
    op.a = OperandRef{g.a, 0, 0, lda};
    op.b = OperandRef{g.b, 0, 0, ldb};
    op.c = OperandRef{g.c, 0, 0, ldc};
    op.stationary = cim::StationaryOperand::kB;
    emitter.emit_device_op(std::move(op), reads, writes);
    if (tiled_out != nullptr) *tiled_out = false;
    return;
  }

  if (tiled_out != nullptr) *tiled_out = true;
  const std::int64_t tile_cols = plan_a.tile_cols;
  const std::int64_t tile_k = plan_a.tile_k;

  if (options.enable_tiling) {
    // Listing 3 order (ii, kk) with jj innermost-streamed: each stationary
    // A tile is programmed exactly once.
    for (std::int64_t ii = 0; ii < g.m; ii += tile_cols) {
      const std::int64_t ms = std::min(tile_cols, g.m - ii);
      for (std::int64_t kk = 0; kk < g.k; kk += tile_k) {
        const std::int64_t ks = std::min(tile_k, g.k - kk);
        CimGemmOp op;
        op.m = static_cast<std::uint64_t>(ms);
        op.n = static_cast<std::uint64_t>(g.n);
        op.k = static_cast<std::uint64_t>(ks);
        op.alpha = g.alpha;
        op.beta = kk == 0 ? g.beta : 1.0f;
        op.a = OperandRef{g.a, static_cast<std::uint64_t>(ii),
                          static_cast<std::uint64_t>(kk), lda};
        op.b = OperandRef{g.b, static_cast<std::uint64_t>(kk), 0, ldb};
        op.c = OperandRef{g.c, static_cast<std::uint64_t>(ii), 0, ldc};
        op.stationary = cim::StationaryOperand::kA;
        emitter.emit_device_op(std::move(op), reads, writes);
      }
    }
    return;
  }

  // Naive order without the interchange: the jj chunk loop sits between ii
  // and kk, so the same A tile is reprogrammed once per column chunk.
  const std::int64_t tile_n =
      std::min<std::int64_t>(g.n, options.crossbar_cols);
  for (std::int64_t ii = 0; ii < g.m; ii += tile_cols) {
    const std::int64_t ms = std::min(tile_cols, g.m - ii);
    for (std::int64_t jj = 0; jj < g.n; jj += tile_n) {
      const std::int64_t njs = std::min(tile_n, g.n - jj);
      for (std::int64_t kk = 0; kk < g.k; kk += tile_k) {
        const std::int64_t ks = std::min(tile_k, g.k - kk);
        CimGemmOp op;
        op.m = static_cast<std::uint64_t>(ms);
        op.n = static_cast<std::uint64_t>(njs);
        op.k = static_cast<std::uint64_t>(ks);
        op.alpha = g.alpha;
        op.beta = kk == 0 ? g.beta : 1.0f;
        op.a = OperandRef{g.a, static_cast<std::uint64_t>(ii),
                          static_cast<std::uint64_t>(kk), lda};
        op.b = OperandRef{g.b, static_cast<std::uint64_t>(kk),
                          static_cast<std::uint64_t>(jj), ldb};
        op.c = OperandRef{g.c, static_cast<std::uint64_t>(ii),
                          static_cast<std::uint64_t>(jj), ldc};
        op.stationary = cim::StationaryOperand::kA;
        emitter.emit_device_op(std::move(op), reads, writes);
      }
    }
  }
}

void emit_gemv(Emitter& emitter, const ir::Function& fn, const GemvKernel& g) {
  CimGemvOp op;
  op.transpose = g.transpose;
  op.m = static_cast<std::uint64_t>(g.m);
  op.n = static_cast<std::uint64_t>(g.n);
  op.alpha = g.alpha;
  op.beta = g.beta;
  op.a = OperandRef{g.a, 0, 0, array_ld(fn, g.a)};
  op.x = g.x;
  op.y = g.y;
  emitter.emit_device_op(std::move(op), {g.a, g.x, g.y}, {g.y});
}

void emit_conv(Emitter& emitter, const ir::Function& fn, const ConvKernel& c,
               std::size_t kernel_index, const CompileOptions& options) {
  using namespace ir;  // NOLINT: builder DSL
  // Lower the stencil to taps_h batched GEMMs against banded Toeplitz
  // matrices T_di[p][q] = coeff(di, p - q). T depends only on the stencil
  // coefficients and the tile width, so one T per tap row serves every
  // column tile of the output: the batched call keeps it stationary in the
  // crossbar and streams the input rows of all column tiles (endurance).
  const std::uint64_t ld_out = array_ld(fn, c.out);
  const std::uint64_t ld_in = array_ld(fn, c.in);
  // Full column tiles of width wt (k = wt + taps_w - 1 <= crossbar rows).
  const std::int64_t wt = std::min<std::int64_t>(
      c.out_w, std::min<std::int64_t>(options.crossbar_cols,
                                      options.crossbar_rows - c.taps_w + 1));

  // Distinct tile widths (body tiles + possibly one tail tile).
  std::vector<std::pair<std::int64_t, std::vector<std::int64_t>>> widths;
  for (std::int64_t j0 = 0; j0 < c.out_w; j0 += wt) {
    const std::int64_t ws = std::min(wt, c.out_w - j0);
    bool found = false;
    for (auto& [w, offsets] : widths) {
      if (w == ws) {
        offsets.push_back(j0);
        found = true;
      }
    }
    if (!found) widths.push_back({ws, {j0}});
  }

  for (const auto& [ws, offsets] : widths) {
    const std::int64_t k_dim = ws + c.taps_w - 1;
    for (std::int64_t di = 0; di < c.taps_h; ++di) {
      const std::string t_name = "_T" + std::to_string(di) + "_w" +
                                 std::to_string(ws) + "_k" +
                                 std::to_string(kernel_index);
      emitter.declare_array(ArrayDecl{t_name, {k_dim, ws}});

      // Host fill: compiler-generated arrays live in .bss (zero-initialized),
      // so only the sparse diagonals need explicit stores.
      std::vector<Node> fill;
      for (std::int64_t dj = 0; dj < c.taps_w; ++dj) {
        const auto it = c.coeffs.find({di, dj});
        if (it == c.coeffs.end() || it->second == 0.0f) continue;
        fill.push_back(make_loop(
            "q", ws,
            {make_assign(ref(t_name, {iv("q") + cst(dj), iv("q")}),
                         make_const(static_cast<double>(it->second)))}));
      }
      emitter.emit_host_nest(std::move(fill));

      // One batched GEMM per tap row: same stationary T, one entry per
      // column tile (A and C shifted by the tile's column offset).
      CimGemmBatchedOp op;
      op.m = static_cast<std::uint64_t>(c.out_h);
      op.n = static_cast<std::uint64_t>(ws);
      op.k = static_cast<std::uint64_t>(k_dim);
      op.alpha = 1.0f;
      op.beta = di == 0 ? 0.0f : 1.0f;
      op.lda = ld_in;
      op.ldb = static_cast<std::uint64_t>(ws);
      op.ldc = ld_out;
      op.stationary = cim::StationaryOperand::kB;
      for (const std::int64_t j0 : offsets) {
        op.a.push_back(OperandRef{c.in,
                                  static_cast<std::uint64_t>(c.i_offset + di),
                                  static_cast<std::uint64_t>(c.j_offset + j0),
                                  ld_in});
        op.b.push_back(OperandRef{t_name, 0, 0, op.ldb});
        op.c.push_back(OperandRef{c.out, static_cast<std::uint64_t>(c.out_i0),
                                  static_cast<std::uint64_t>(c.out_j0 + j0),
                                  ld_out});
      }
      emitter.emit_device_op(std::move(op), {c.in, t_name}, {c.out});
    }
  }
}

/// Footprint -> segment derivation: annotate every copy op with the element
/// sub-rectangle the device ops actually touch, so the interpreter issues
/// pitched transfers (whose scatter-gather chains the transfer engine
/// derives) instead of whole-array flat copies. Uploads need the union of
/// device reads AND writes (a beta-accumulating kernel reads its output and
/// partial writes must land on current data); copy-backs need only the
/// write union — elements the device never wrote are still host-valid.
void derive_copy_footprints(exec::Program& program) {
  struct Box {
    std::uint64_t r0 = 0, c0 = 0, r1 = 0, c1 = 0;  // half-open element rect
    bool any = false;

    void cover(std::uint64_t row0, std::uint64_t col0, std::uint64_t rows,
               std::uint64_t cols) {
      if (rows == 0 || cols == 0) return;
      if (!any) {
        *this = Box{row0, col0, row0 + rows, col0 + cols, true};
        return;
      }
      r0 = std::min(r0, row0);
      c0 = std::min(c0, col0);
      r1 = std::max(r1, row0 + rows);
      c1 = std::max(c1, col0 + cols);
    }
  };
  std::map<std::string, Box> uploads;
  std::map<std::string, Box> writebacks;
  const auto read_ref = [&uploads](const OperandRef& ref, std::uint64_t rows,
                                   std::uint64_t cols) {
    uploads[ref.array].cover(ref.row_offset, ref.col_offset, rows, cols);
  };
  const auto write_ref = [&uploads, &writebacks](const OperandRef& ref,
                                                 std::uint64_t rows,
                                                 std::uint64_t cols) {
    uploads[ref.array].cover(ref.row_offset, ref.col_offset, rows, cols);
    writebacks[ref.array].cover(ref.row_offset, ref.col_offset, rows, cols);
  };
  const auto whole = [&program](const std::string& name) -> std::pair<std::uint64_t, std::uint64_t> {
    for (const ir::ArrayDecl& decl : program.arrays) {
      if (decl.name != name) continue;
      if (decl.dims.size() >= 2) {
        return {static_cast<std::uint64_t>(decl.dims[0]),
                static_cast<std::uint64_t>(decl.dims[1])};
      }
      return {1, static_cast<std::uint64_t>(decl.dims[0])};
    }
    return {0, 0};
  };

  for (const exec::ProgramItem& item : program.items) {
    if (const auto* gemm = std::get_if<CimGemmOp>(&item)) {
      read_ref(gemm->a, gemm->m, gemm->k);
      read_ref(gemm->b, gemm->k, gemm->n);
      write_ref(gemm->c, gemm->m, gemm->n);
    } else if (const auto* gemv = std::get_if<CimGemvOp>(&item)) {
      read_ref(gemv->a, gemv->m, gemv->n);
      const auto [xr, xc] = whole(gemv->x);
      uploads[gemv->x].cover(0, 0, xr, xc);
      const auto [yr, yc] = whole(gemv->y);
      uploads[gemv->y].cover(0, 0, yr, yc);
      writebacks[gemv->y].cover(0, 0, yr, yc);
    } else if (const auto* batched = std::get_if<CimGemmBatchedOp>(&item)) {
      for (std::size_t i = 0; i < batched->a.size(); ++i) {
        read_ref(batched->a[i], batched->m, batched->k);
        read_ref(batched->b[i], batched->k, batched->n);
        write_ref(batched->c[i], batched->m, batched->n);
      }
    }
  }

  const auto to_footprint = [&whole](const std::string& array,
                                     const std::map<std::string, Box>& boxes) {
    exec::CopyFootprint fp;  // default: whole array
    const auto it = boxes.find(array);
    if (it == boxes.end() || !it->second.any) return fp;
    const Box& box = it->second;
    const auto [rows, cols] = whole(array);
    if (box.r0 == 0 && box.c0 == 0 && box.r1 >= rows && box.c1 >= cols) {
      return fp;  // covers everything: keep the flat whole-array copy
    }
    fp.row0 = box.r0;
    fp.col0 = box.c0;
    fp.rows = box.r1 - box.r0;
    fp.cols = box.c1 - box.c0;
    return fp;
  };
  for (exec::ProgramItem& item : program.items) {
    if (auto* h2d = std::get_if<CimHostToDevOp>(&item)) {
      h2d->footprint = to_footprint(h2d->array, uploads);
    } else if (auto* d2h = std::get_if<CimDevToHostOp>(&item)) {
      d2h->footprint = to_footprint(d2h->array, writebacks);
    }
  }
}

}  // namespace

CompileResult compile(const ir::Function& fn, const CompileOptions& options) {
  CompileResult result;
  result.host_program = exec::host_only_program(fn);
  result.schedule_tree_dump = build_schedule_tree(fn).to_string();

  result.detection = detect_kernels(fn);
  const auto& kernels = result.detection.kernels;

  // Offload policy: every detected kernel is emitted as a device call; the
  // selective cost-model decision is made once, at runtime, by the stream's
  // dynamic MACs-per-write dispatch (the same metric evaluated per command,
  // so a tiled call's thin edge tiles fall back even when the kernel as a
  // whole clears the threshold). kSelective lowers the compile-time knob to
  // that stream threshold instead of duplicating the heuristic statically.
  result.stream_min_macs_per_write =
      options.policy == OffloadPolicy::kSelective ? options.min_macs_per_write
                                                  : 0.0;

  // Fusion among detected GEMMs.
  std::vector<FusionGroup> groups;
  if (options.enable_fusion) {
    groups = find_fusion_groups(result.detection);
  }
  result.fusion_groups = groups;

  // Kernel index -> fusion group membership.
  std::map<std::size_t, std::size_t> group_of;  // kernel idx -> group idx
  for (std::size_t gi = 0; gi < groups.size(); ++gi) {
    for (const std::size_t idx : groups[gi].members) group_of[idx] = gi;
  }

  // Reports.
  result.reports.resize(kernels.size());
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    result.reports[i].description = kernels[i].description();
    result.reports[i].macs_per_write = kernels[i].macs_per_write();
    // Emitted as a device call; host-vs-device is decided per command by
    // the stream's dynamic dispatch at runtime.
    result.reports[i].offloaded = true;
    result.reports[i].fused = group_of.contains(i);
  }

  // Claimed statements: those of detected kernels leave the host.
  std::set<std::string> claimed;
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    const auto& stmts =
        kernels[i].is_gemm()   ? kernels[i].gemm().stmts
        : kernels[i].is_gemv() ? kernels[i].gemv().stmts
                               : kernels[i].conv().stmts;
    claimed.insert(stmts.begin(), stmts.end());
  }

  Emitter emitter{fn, options};
  std::set<std::size_t> emitted_groups;

  for (std::size_t idx = 0; idx < fn.body.size(); ++idx) {
    // Kernels anchored at this top-level node, in detection order.
    std::vector<std::size_t> here;
    for (std::size_t i = 0; i < kernels.size(); ++i) {
      if (kernels[i].top_level_index == idx) here.push_back(i);
    }
    if (here.empty()) {
      emitter.emit_host_nest({fn.body[idx]});
      continue;
    }

    for (const std::size_t i : here) {
      const auto git = group_of.find(i);
      if (git != group_of.end()) {
        if (emitted_groups.contains(git->second)) continue;
        emitted_groups.insert(git->second);
        const FusionGroup& group = groups[git->second];
        const GemmKernel& first = kernels[group.members[0]].gemm();
        CimGemmBatchedOp op;
        op.m = static_cast<std::uint64_t>(first.m);
        op.n = static_cast<std::uint64_t>(first.n);
        op.k = static_cast<std::uint64_t>(first.k);
        op.alpha = first.alpha;
        op.beta = first.beta;
        op.lda = array_ld(fn, first.a);
        op.ldb = array_ld(fn, first.b);
        op.ldc = array_ld(fn, first.c);
        op.stationary = group.stationary;
        std::set<std::string> reads;
        std::set<std::string> writes;
        for (const std::size_t m : group.members) {
          const GemmKernel& g = kernels[m].gemm();
          op.a.push_back(OperandRef{g.a, 0, 0, op.lda});
          op.b.push_back(OperandRef{g.b, 0, 0, op.ldb});
          op.c.push_back(OperandRef{g.c, 0, 0, op.ldc});
          reads.insert(g.a);
          reads.insert(g.b);
          writes.insert(g.c);
        }
        emitter.emit_device_op(std::move(op), reads, writes);
        continue;
      }
      if (kernels[i].is_gemm()) {
        bool tiled = false;
        emit_gemm(emitter, fn, kernels[i].gemm(), options, &tiled);
        result.reports[i].tiled = tiled;
      } else if (kernels[i].is_gemv()) {
        emit_gemv(emitter, fn, kernels[i].gemv());
      } else {
        emit_conv(emitter, fn, kernels[i].conv(), i, options);
      }
    }

    // Loop-distribution residual (e.g. gesummv's epilogue).
    if (auto residual = strip_claimed(fn.body[idx], claimed)) {
      emitter.emit_host_nest({*std::move(residual)});
    }
  }

  result.cim_program = std::move(emitter).take();
  derive_copy_footprints(result.cim_program);
  return result;
}

}  // namespace tdo::core
