#include "core/detect.hpp"

#include <cmath>
#include <sstream>


namespace tdo::core {

namespace {

using ir::AffineExpr;
using ir::ExprPtr;
using ir::LoadExpr;

/// Constant loop extent when the loop is `for (iv = c0; iv < c1; ++iv)`.
[[nodiscard]] std::optional<std::int64_t> const_extent(const ir::Loop& loop) {
  if (loop.step != 1) return std::nullopt;
  if (!loop.lower.is_constant() || !loop.upper.is_constant()) return std::nullopt;
  const std::int64_t lo = loop.lower.constant_term();
  const std::int64_t hi = loop.upper.expr.constant_term();
  if (loop.upper.min_with.has_value()) return std::nullopt;
  if (hi <= lo) return std::nullopt;
  return hi - lo;
}

/// Splits a multiplication chain into a scalar factor and load factors.
struct ProductInfo {
  bool pure = false;  // only mul nodes over consts/params/loads
  double scalar = 1.0;
  std::vector<const LoadExpr*> loads;
};

void flatten_product(const ir::Function& fn, const ExprPtr& expr,
                     ProductInfo& info) {
  if (const auto* bin = std::get_if<ir::BinExpr>(&expr->node)) {
    if (bin->op != ir::BinOpKind::kMul) {
      info.pure = false;
      return;
    }
    flatten_product(fn, bin->lhs, info);
    flatten_product(fn, bin->rhs, info);
    return;
  }
  if (const auto* load = std::get_if<LoadExpr>(&expr->node)) {
    info.loads.push_back(load);
    return;
  }
  if (const auto* c = std::get_if<ir::ConstExpr>(&expr->node)) {
    info.scalar *= c->value;
    return;
  }
  if (const auto* p = std::get_if<ir::ParamExpr>(&expr->node)) {
    info.scalar *= fn.scalar_value(p->name, 1.0);
    return;
  }
  info.pure = false;
}

[[nodiscard]] ProductInfo analyze_product(const ir::Function& fn,
                                          const ExprPtr& expr) {
  ProductInfo info;
  info.pure = true;
  flatten_product(fn, expr, info);
  return info;
}

/// True when `subs` is exactly [a] (single iv with coeff 1).
[[nodiscard]] bool subs_is(const std::vector<AffineExpr>& subs,
                           const std::string& a) {
  return subs.size() == 1 && subs[0].single_var() == a;
}
/// True when `subs` is exactly [a][b].
[[nodiscard]] bool subs_is(const std::vector<AffineExpr>& subs,
                           const std::string& a, const std::string& b) {
  return subs.size() == 2 && subs[0].single_var() == a &&
         subs[1].single_var() == b;
}

/// Recognizes `X[i][j] = beta * X[i][j]` (returns beta), `X[i][j] = 0`
/// (returns 0), else nullopt. `lhs` must match the update statement's output.
[[nodiscard]] std::optional<float> match_init_stmt(const ir::Function& fn,
                                                   const ir::Stmt& stmt,
                                                   const ir::AccessRef& lhs) {
  if (stmt.accumulate) return std::nullopt;
  if (stmt.lhs.array != lhs.array) return std::nullopt;
  if (stmt.lhs.subscripts.size() != lhs.subscripts.size()) return std::nullopt;
  for (std::size_t i = 0; i < lhs.subscripts.size(); ++i) {
    if (!(stmt.lhs.subscripts[i] == lhs.subscripts[i])) return std::nullopt;
  }
  const ProductInfo prod = analyze_product(fn, stmt.rhs);
  if (!prod.pure) return std::nullopt;
  if (prod.loads.empty()) {
    // X = const: only zero makes a valid beta-fold.
    return prod.scalar == 0.0 ? std::optional<float>(0.0f) : std::nullopt;
  }
  if (prod.loads.size() != 1) return std::nullopt;
  const LoadExpr& load = *prod.loads.front();
  if (load.array != lhs.array) return std::nullopt;
  for (std::size_t i = 0; i < lhs.subscripts.size(); ++i) {
    if (!(load.subscripts[i] == lhs.subscripts[i])) return std::nullopt;
  }
  return static_cast<float>(prod.scalar);
}

/// Tries to match a GEMM update statement under loops (i, j, k):
/// C[i][j] += alpha * A[i][k] * B[k][j].
[[nodiscard]] std::optional<GemmKernel> match_gemm_update(
    const ir::Function& fn, const ir::Stmt& stmt, const std::string& i,
    const std::string& j, const std::string& k, std::int64_t m, std::int64_t n,
    std::int64_t kk) {
  if (!stmt.accumulate) return std::nullopt;
  if (!subs_is(stmt.lhs.subscripts, i, j)) return std::nullopt;
  const ProductInfo prod = analyze_product(fn, stmt.rhs);
  if (!prod.pure || prod.loads.size() != 2) return std::nullopt;

  const LoadExpr* a = nullptr;
  const LoadExpr* b = nullptr;
  for (const LoadExpr* load : prod.loads) {
    if (subs_is(load->subscripts, i, k)) {
      a = load;
    } else if (subs_is(load->subscripts, k, j)) {
      b = load;
    }
  }
  if (a == nullptr || b == nullptr) return std::nullopt;
  // The accumulator must not appear as an input.
  if (a->array == stmt.lhs.array || b->array == stmt.lhs.array) {
    return std::nullopt;
  }

  GemmKernel kernel;
  kernel.c = stmt.lhs.array;
  kernel.a = a->array;
  kernel.b = b->array;
  kernel.m = m;
  kernel.n = n;
  kernel.k = kk;
  kernel.alpha = static_cast<float>(prod.scalar);
  kernel.beta = 1.0f;
  kernel.stmts.push_back(stmt.name);
  return kernel;
}

/// Tries to match a whole GEMM nest at a top-level band:
///   for i: for j: [init?]; for k: update
[[nodiscard]] std::optional<GemmKernel> match_gemm_nest(const ir::Function& fn,
                                                        const ir::Node& top) {
  if (!top.is_loop()) return std::nullopt;
  const ir::Loop& li = top.loop();
  if (li.body.size() != 1 || !li.body[0].is_loop()) return std::nullopt;
  const ir::Loop& lj = li.body[0].loop();

  const auto m = const_extent(li);
  const auto n = const_extent(lj);
  if (!m || !n) return std::nullopt;

  const ir::Stmt* init = nullptr;
  const ir::Loop* lk = nullptr;
  if (lj.body.size() == 1 && lj.body[0].is_loop()) {
    lk = &lj.body[0].loop();
  } else if (lj.body.size() == 2 && lj.body[0].is_stmt() &&
             lj.body[1].is_loop()) {
    init = &lj.body[0].stmt();
    lk = &lj.body[1].loop();
  } else {
    return std::nullopt;
  }
  if (lk->body.size() != 1 || !lk->body[0].is_stmt()) return std::nullopt;
  const auto kk = const_extent(*lk);
  if (!kk) return std::nullopt;

  auto kernel = match_gemm_update(fn, lk->body[0].stmt(), li.iv, lj.iv, lk->iv,
                                  *m, *n, *kk);
  if (!kernel) return std::nullopt;
  if (init != nullptr) {
    ir::AccessRef lhs{kernel->c,
                      {AffineExpr::var(li.iv), AffineExpr::var(lj.iv)}};
    const auto beta = match_init_stmt(fn, *init, lhs);
    if (!beta) return std::nullopt;  // foreign statement: not a clean GEMM
    kernel->beta = *beta;
    kernel->stmts.insert(kernel->stmts.begin(), init->name);
  }
  return kernel;
}

/// Tries to match one GEMV accumulation statement inside an (outer, inner)
/// loop pair. Returns orientation and operands.
[[nodiscard]] std::optional<GemvKernel> match_gemv_update(
    const ir::Function& fn, const ir::Stmt& stmt, const std::string& outer,
    const std::string& inner, std::int64_t outer_n, std::int64_t inner_n) {
  if (!stmt.accumulate) return std::nullopt;
  if (stmt.lhs.subscripts.size() != 1) return std::nullopt;
  const auto out_iv = stmt.lhs.subscripts[0].single_var();
  if (!out_iv || (*out_iv != outer && *out_iv != inner)) return std::nullopt;
  const std::string reduce_iv = (*out_iv == outer) ? inner : outer;

  const ProductInfo prod = analyze_product(fn, stmt.rhs);
  if (!prod.pure || prod.loads.size() != 2) return std::nullopt;

  const LoadExpr* mat = nullptr;
  const LoadExpr* vec = nullptr;
  for (const LoadExpr* load : prod.loads) {
    if (load->subscripts.size() == 2) mat = load;
    if (load->subscripts.size() == 1) vec = load;
  }
  if (mat == nullptr || vec == nullptr) return std::nullopt;
  if (!subs_is(vec->subscripts, reduce_iv)) return std::nullopt;
  if (mat->array == stmt.lhs.array || vec->array == stmt.lhs.array) {
    return std::nullopt;
  }

  GemvKernel kernel;
  kernel.y = stmt.lhs.array;
  kernel.a = mat->array;
  kernel.x = vec->array;
  kernel.alpha = static_cast<float>(prod.scalar);
  kernel.beta = 1.0f;
  kernel.stmts.push_back(stmt.name);

  const std::int64_t out_n = (*out_iv == outer) ? outer_n : inner_n;
  const std::int64_t red_n = (*out_iv == outer) ? inner_n : outer_n;
  if (subs_is(mat->subscripts, *out_iv, reduce_iv)) {
    // y[o] += A[o][r] * x[r]  ->  y = A x  (A is out_n x red_n)
    kernel.transpose = false;
    kernel.m = out_n;
    kernel.n = red_n;
  } else if (subs_is(mat->subscripts, reduce_iv, *out_iv)) {
    // y[o] += A[r][o] * x[r]  ->  y = A^T x  (A is red_n x out_n)
    kernel.transpose = true;
    kernel.m = red_n;
    kernel.n = out_n;
  } else {
    return std::nullopt;
  }
  // Verify declared dims match loop extents (guards partial-matrix nests,
  // which would need runtime sub-view support).
  const ir::ArrayDecl* decl = fn.find_array(kernel.a);
  if (decl == nullptr || decl->dims.size() != 2) return std::nullopt;
  if (decl->dims[0] != kernel.m || decl->dims[1] != kernel.n) {
    return std::nullopt;
  }
  return kernel;
}

/// Matches a GEMV-style nest: for outer { inits...; for inner { updates... };
/// residuals... }. Returns the recognized kernels; claimed statements are
/// the inits folded into beta plus the updates.
[[nodiscard]] std::vector<GemvKernel> match_gemv_nest(const ir::Function& fn,
                                                      const ir::Node& top) {
  std::vector<GemvKernel> kernels;
  if (!top.is_loop()) return kernels;
  const ir::Loop& lo = top.loop();
  const auto outer_n = const_extent(lo);
  if (!outer_n) return kernels;

  // Find the unique inner band; collect outer-level statements.
  const ir::Loop* li = nullptr;
  std::vector<const ir::Stmt*> outer_stmts;
  for (const ir::Node& node : lo.body) {
    if (node.is_loop()) {
      if (li != nullptr) return kernels;  // two inner bands: not GEMV-like
      li = &node.loop();
    } else {
      outer_stmts.push_back(&node.stmt());
    }
  }
  if (li == nullptr) return kernels;
  const auto inner_n = const_extent(*li);
  if (!inner_n) return kernels;

  for (const ir::Node& node : li->body) {
    if (!node.is_stmt()) return {};  // deeper nesting: not GEMV-like
    auto kernel =
        match_gemv_update(fn, node.stmt(), lo.iv, li->iv, *outer_n, *inner_n);
    if (!kernel) return {};  // unknown inner statement: bail out entirely
    kernels.push_back(*std::move(kernel));
  }

  // Fold outer-level init statements (y[outer] = 0) into kernel betas.
  for (const ir::Stmt* stmt : outer_stmts) {
    for (GemvKernel& kernel : kernels) {
      // Init must precede the inner band to be foldable.
      ir::AccessRef lhs{kernel.y, {AffineExpr::var(lo.iv)}};
      const auto beta = match_init_stmt(fn, *stmt, lhs);
      if (beta.has_value() && *beta == 0.0f &&
          kernel.stmts.size() == 1) {  // not yet folded
        // Only statements before the band can fold; statements after the
        // band are residual epilogues handled by loop distribution.
        bool before_band = false;
        for (const ir::Node& node : lo.body) {
          if (node.is_stmt() && &node.stmt() == stmt) {
            before_band = true;
            break;
          }
          if (node.is_loop()) break;
        }
        if (before_band) {
          kernel.beta = 0.0f;
          kernel.stmts.insert(kernel.stmts.begin(), stmt->name);
        }
      }
    }
  }
  return kernels;
}

/// Matches a flat-stencil convolution nest:
///   for i: for j: out[i+oi][j+oj] = sum of coeff * in[i+di][j+dj]
[[nodiscard]] std::optional<ConvKernel> match_conv_nest(const ir::Function& fn,
                                                        const ir::Node& top) {
  if (!top.is_loop()) return std::nullopt;
  const ir::Loop& li = top.loop();
  if (li.body.size() != 1 || !li.body[0].is_loop()) return std::nullopt;
  const ir::Loop& lj = li.body[0].loop();
  if (lj.body.size() != 1 || !lj.body[0].is_stmt()) return std::nullopt;
  const ir::Stmt& stmt = lj.body[0].stmt();
  if (stmt.accumulate) return std::nullopt;

  const auto hi = const_extent(li);
  const auto wj = const_extent(lj);
  if (!hi || !wj) return std::nullopt;

  // lhs must be out[i + c][j + c'] with unit coefficients.
  if (stmt.lhs.subscripts.size() != 2) return std::nullopt;
  const AffineExpr& si = stmt.lhs.subscripts[0];
  const AffineExpr& sj = stmt.lhs.subscripts[1];
  if (si.coeff(li.iv) != 1 || si.coeffs().size() != 1) return std::nullopt;
  if (sj.coeff(lj.iv) != 1 || sj.coeffs().size() != 1) return std::nullopt;

  // Flatten the sum of products.
  std::vector<ExprPtr> terms;
  std::function<bool(const ExprPtr&)> flatten_sum =
      [&](const ExprPtr& e) -> bool {
    if (const auto* bin = std::get_if<ir::BinExpr>(&e->node)) {
      if (bin->op == ir::BinOpKind::kAdd) {
        return flatten_sum(bin->lhs) && flatten_sum(bin->rhs);
      }
    }
    terms.push_back(e);
    return true;
  };
  if (!flatten_sum(stmt.rhs) || terms.size() < 2) return std::nullopt;

  ConvKernel kernel;
  kernel.out = stmt.lhs.array;
  kernel.out_h = *hi;
  kernel.out_w = *wj;
  kernel.i_offset = li.lower.constant_term();
  kernel.j_offset = lj.lower.constant_term();
  kernel.out_i0 = li.lower.constant_term() + si.constant_term();
  kernel.out_j0 = lj.lower.constant_term() + sj.constant_term();
  kernel.stmts.push_back(stmt.name);

  std::int64_t min_di = 0, max_di = 0, min_dj = 0, max_dj = 0;
  bool first = true;
  for (const ExprPtr& term : terms) {
    const ProductInfo prod = analyze_product(fn, term);
    if (!prod.pure || prod.loads.size() != 1) return std::nullopt;
    const LoadExpr& load = *prod.loads.front();
    if (load.subscripts.size() != 2) return std::nullopt;
    if (kernel.in.empty()) kernel.in = load.array;
    if (load.array != kernel.in || load.array == kernel.out) {
      return std::nullopt;
    }
    const AffineExpr& ti = load.subscripts[0];
    const AffineExpr& tj = load.subscripts[1];
    if (ti.coeff(li.iv) != 1 || ti.coeffs().size() != 1) return std::nullopt;
    if (tj.coeff(lj.iv) != 1 || tj.coeffs().size() != 1) return std::nullopt;
    const std::int64_t di = ti.constant_term();
    const std::int64_t dj = tj.constant_term();
    kernel.coeffs[{di, dj}] = static_cast<float>(prod.scalar);
    if (first) {
      min_di = max_di = di;
      min_dj = max_dj = dj;
      first = false;
    } else {
      min_di = std::min(min_di, di);
      max_di = std::max(max_di, di);
      min_dj = std::min(min_dj, dj);
      max_dj = std::max(max_dj, dj);
    }
  }
  // Normalize offsets so the window starts at (0, 0).
  std::map<std::pair<std::int64_t, std::int64_t>, float> normalized;
  for (const auto& [key, value] : kernel.coeffs) {
    normalized[{key.first - min_di, key.second - min_dj}] = value;
  }
  kernel.coeffs = std::move(normalized);
  kernel.taps_h = max_di - min_di + 1;
  kernel.taps_w = max_dj - min_dj + 1;
  // Effective input origin: loop lower bound + minimal offset must be >= 0.
  kernel.i_offset += min_di;
  kernel.j_offset += min_dj;
  if (kernel.i_offset < 0 || kernel.j_offset < 0) return std::nullopt;
  if (kernel.taps_h > 8 || kernel.taps_w > 8) return std::nullopt;

  const ir::ArrayDecl* in_decl = fn.find_array(kernel.in);
  if (in_decl == nullptr || in_decl->dims.size() != 2) return std::nullopt;
  kernel.in_h = in_decl->dims[0];
  kernel.in_w = in_decl->dims[1];
  if (kernel.i_offset + kernel.out_h + kernel.taps_h - 1 > kernel.in_h ||
      kernel.j_offset + kernel.out_w + kernel.taps_w - 1 > kernel.in_w) {
    return std::nullopt;
  }
  return kernel;
}

/// A nest is only detectable when fully affine (Polly's SCoP criterion).
[[nodiscard]] bool nest_is_affine(const ir::Node& top) {
  bool affine = true;
  std::function<void(const ir::Node&)> walk = [&](const ir::Node& node) {
    if (node.is_loop()) {
      for (const ir::Node& child : node.loop().body) walk(child);
    } else if (ir::has_non_affine(node.stmt().rhs)) {
      affine = false;
    }
  };
  walk(top);
  return affine;
}

}  // namespace

double DetectedKernel::macs_per_write() const {
  if (is_gemm()) {
    const GemmKernel& g = gemm();
    const double macs = static_cast<double>(g.m) * g.n * g.k;
    const double writes = static_cast<double>(g.k) * g.n;  // stationary B
    return macs / writes;
  }
  if (is_gemv()) {
    return 1.0;  // every weight written is used exactly once
  }
  const ConvKernel& c = conv();
  return static_cast<double>(c.out_h);  // Toeplitz tiles reused across rows
}

std::string DetectedKernel::description() const {
  std::ostringstream os;
  if (is_gemm()) {
    const GemmKernel& g = gemm();
    os << "GEMM " << g.c << "[" << g.m << "x" << g.n << "] (+)= " << g.alpha
       << " * " << g.a << " * " << g.b << " (k=" << g.k << ", beta=" << g.beta
       << ")";
  } else if (is_gemv()) {
    const GemvKernel& g = gemv();
    os << "GEMV " << g.y << " (+)= " << g.alpha << " * " << g.a
       << (g.transpose ? "^T" : "") << " * " << g.x << " (" << g.m << "x"
       << g.n << ", beta=" << g.beta << ")";
  } else {
    const ConvKernel& c = conv();
    os << "CONV " << c.out << "[" << c.out_h << "x" << c.out_w << "] = "
       << c.taps_h << "x" << c.taps_w << " stencil of " << c.in;
  }
  return os.str();
}

DetectionResult detect_kernels(const ir::Function& fn) {
  DetectionResult result;
  for (std::size_t idx = 0; idx < fn.body.size(); ++idx) {
    const ir::Node& top = fn.body[idx];
    if (!top.is_loop()) continue;
    if (!nest_is_affine(top)) continue;
    if (auto gemm = match_gemm_nest(fn, top)) {
      DetectedKernel dk;
      dk.top_level_index = idx;
      dk.kernel = *std::move(gemm);
      for (const auto& s : dk.gemm().stmts) result.claimed_stmts.insert(s);
      result.kernel_nests.insert(idx);
      result.kernels.push_back(std::move(dk));
      continue;
    }
    if (auto conv = match_conv_nest(fn, top)) {
      DetectedKernel dk;
      dk.top_level_index = idx;
      dk.kernel = *std::move(conv);
      for (const auto& s : dk.conv().stmts) result.claimed_stmts.insert(s);
      result.kernel_nests.insert(idx);
      result.kernels.push_back(std::move(dk));
      continue;
    }
    const auto gemvs = match_gemv_nest(fn, top);
    for (const GemvKernel& kernel : gemvs) {
      DetectedKernel dk;
      dk.top_level_index = idx;
      dk.kernel = kernel;
      for (const auto& s : kernel.stmts) result.claimed_stmts.insert(s);
      result.kernel_nests.insert(idx);
      result.kernels.push_back(std::move(dk));
    }
  }
  return result;
}

}  // namespace tdo::core
