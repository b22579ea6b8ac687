// Differential fuzz of host nests: the interpreter's prepared, strength-
// reduced execution against a reference that walks the IR tree and
// evaluates every bound and subscript at every iteration. Both drive their
// own System through the same HostCpu calls in the documented order, so
// outputs, every host-model counter, host.energy and the final Status must
// match exactly. CI re-runs it with extra TDO_FUZZ_SEED values.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "exec/interpreter.hpp"
#include "exec/program.hpp"
#include "ir/builder.hpp"
#include "sim/system.hpp"
#include "support/rng.hpp"
#include "testing/fixture.hpp"

namespace tdo::exec {
namespace {

using Env = std::map<std::string, std::int64_t>;

/// Runs a host-only function the straightforward way: per iteration, each
/// loop re-evaluates its bound, and each access its flat row-major index.
/// Per iteration it issues the loop bundle on the first unroll phase; per
/// statement it issues the rhs loads in evaluation order, then the lhs load
/// (accumulate, unpromoted), the store (unpromoted) and the statement
/// bundle. An index outside its array fails the run at that access.
class ReferenceInterpreter {
 public:
  ReferenceInterpreter(sim::System& system, CostModelParams cost)
      : system_{system}, cost_{cost} {}

  support::Status run(const ir::Function& fn,
                      const std::map<std::string, std::vector<float>>& inputs) {
    fn_ = &fn;
    for (const ir::ArrayDecl& decl : fn.arrays) {
      auto va = system_.mmu().allocate(static_cast<std::uint64_t>(decl.bytes()));
      if (!va.is_ok()) return va.status();
      vas_[decl.name] = *va;
      const std::vector<float>& data = inputs.at(decl.name);
      for (std::size_t e = 0; e < data.size(); ++e) write(decl.name, e, data[e]);
    }
    Env env;
    return run_body(fn.body, env, "");
  }

  [[nodiscard]] std::vector<float> array(const std::string& name) {
    const ir::ArrayDecl& decl = *fn_->find_array(name);
    std::vector<float> out(static_cast<std::size_t>(decl.element_count()));
    for (std::size_t e = 0; e < out.size(); ++e) {
      out[e] = system_.memory().read_scalar<float>(pa(name, e));
    }
    return out;
  }

  std::uint64_t statements = 0;

 private:
  /// `innermost` names the iv of the closest enclosing loop ("" at top).
  support::Status run_body(const std::vector<ir::Node>& body, Env& env,
                           const std::string& innermost) {
    for (const ir::Node& node : body) {
      if (node.is_loop()) {
        TDO_RETURN_IF_ERROR(run_loop(node.loop(), env));
      } else {
        TDO_RETURN_IF_ERROR(run_stmt(node.stmt(), env, innermost));
      }
    }
    return support::Status::ok();
  }

  support::Status run_loop(const ir::Loop& loop, Env& env) {
    std::uint32_t unroll_phase = 0;
    for (std::int64_t i = loop.lower.evaluate(env); i < loop.upper.evaluate(env);
         i += loop.step) {
      env[loop.iv] = i;
      if (unroll_phase == 0) {
        system_.cpu().issue(sim::InstBundle{.int_alu = cost_.loop_int_ops,
                                            .branches = cost_.loop_branches});
      }
      if (++unroll_phase >= cost_.unroll_factor) unroll_phase = 0;
      TDO_RETURN_IF_ERROR(run_body(loop.body, env, loop.iv));
    }
    env.erase(loop.iv);
    return support::Status::ok();
  }

  support::Status run_stmt(const ir::Stmt& stmt, const Env& env,
                           const std::string& innermost) {
    ++statements;
    std::uint32_t loads = 0;
    std::uint32_t fp_ops = 0;
    double value = 0.0;
    TDO_RETURN_IF_ERROR(eval(stmt.rhs, env, &value, &loads, &fp_ops));
    const ir::AffineExpr lhs_flat = flat(stmt.lhs.array, stmt.lhs.subscripts);
    std::uint64_t lhs = 0;
    TDO_RETURN_IF_ERROR(element(stmt.lhs.array, lhs_flat.evaluate(env), &lhs));
    const bool promoted = cost_.promote_accumulators && stmt.accumulate &&
                          !innermost.empty() && lhs_flat.coeff(innermost) == 0;
    if (stmt.accumulate) {
      if (!promoted) system_.cpu().load(pa(stmt.lhs.array, lhs));
      value += static_cast<double>(read(stmt.lhs.array, lhs));
      ++fp_ops;
    }
    write(stmt.lhs.array, lhs, static_cast<float>(value));
    if (!promoted) system_.cpu().store(pa(stmt.lhs.array, lhs));
    const std::uint32_t accesses = loads + (promoted ? 0 : 1);
    system_.cpu().issue(sim::InstBundle{
        .int_alu = accesses * cost_.int_ops_per_access, .fp_ops = fp_ops});
    return support::Status::ok();
  }

  support::Status eval(const ir::ExprPtr& e, const Env& env, double* out,
                       std::uint32_t* loads, std::uint32_t* fp_ops) {
    if (const auto* load = std::get_if<ir::LoadExpr>(&e->node)) {
      std::uint64_t index = 0;
      TDO_RETURN_IF_ERROR(element(
          load->array, flat(load->array, load->subscripts).evaluate(env), &index));
      system_.cpu().load(pa(load->array, index));
      ++*loads;
      *out = static_cast<double>(read(load->array, index));
      return support::Status::ok();
    }
    if (const auto* c = std::get_if<ir::ConstExpr>(&e->node)) {
      *out = c->value;
      return support::Status::ok();
    }
    if (const auto* p = std::get_if<ir::ParamExpr>(&e->node)) {
      *out = fn_->scalar_value(p->name);
      return support::Status::ok();
    }
    const auto& bin = std::get<ir::BinExpr>(e->node);
    double l = 0.0;
    double r = 0.0;
    TDO_RETURN_IF_ERROR(eval(bin.lhs, env, &l, loads, fp_ops));
    TDO_RETURN_IF_ERROR(eval(bin.rhs, env, &r, loads, fp_ops));
    ++*fp_ops;
    switch (bin.op) {
      case ir::BinOpKind::kAdd: *out = l + r; break;
      case ir::BinOpKind::kSub: *out = l - r; break;
      case ir::BinOpKind::kMul: *out = l * r; break;
      case ir::BinOpKind::kDiv: *out = l / r; break;
    }
    return support::Status::ok();
  }

  [[nodiscard]] ir::AffineExpr flat(const std::string& array,
                                    const std::vector<ir::AffineExpr>& subs) const {
    const ir::ArrayDecl& decl = *fn_->find_array(array);
    ir::AffineExpr out;
    std::int64_t stride = 1;
    for (std::size_t d = decl.dims.size(); d-- > 0;) {
      out += subs[d] * stride;
      stride *= decl.dims[d];
    }
    return out;
  }

  support::Status element(const std::string& array, std::int64_t index,
                          std::uint64_t* out) const {
    if (index < 0 || index >= fn_->find_array(array)->element_count()) {
      return support::out_of_range("host nest subscript outside array " + array);
    }
    *out = static_cast<std::uint64_t>(index);
    return support::Status::ok();
  }

  [[nodiscard]] sim::PhysAddr pa(const std::string& array, std::uint64_t e) {
    return *system_.mmu().translate(vas_.at(array) + e * 4);
  }
  [[nodiscard]] float read(const std::string& array, std::uint64_t e) {
    return system_.memory().read_scalar<float>(pa(array, e));
  }
  void write(const std::string& array, std::uint64_t e, float value) {
    system_.memory().write_scalar<float>(pa(array, e), value);
  }

  sim::System& system_;
  CostModelParams cost_;
  const ir::Function* fn_ = nullptr;
  std::map<std::string, sim::VirtAddr> vas_;
};

/// Draws seeded host nests: 1-3 nested loops with statements mixed among
/// them, affine and min bounds over the enclosing ivs, steps 1-3, negative
/// subscript coefficients, strides that straddle pages, plain and
/// accumulating statements, and some subscripts that leave their array.
class NestGenerator {
 public:
  explicit NestGenerator(support::Rng& rng) : rng_{rng} {}

  ir::Function function() {
    ir::Function fn;
    fn.name = "fuzz";
    fn.scalars.push_back(ir::ScalarDecl{"alpha", 1.5});
    const auto arrays = rng_.uniform_int(2, 4);
    for (std::int64_t a = 0; a < arrays; ++a) {
      ir::ArrayDecl decl{"A" + std::to_string(a), {}};
      // 1100 floats is just over a 4 KiB page, and a 300-float row over a
      // quarter of one: rows and strides straddle pages. At most 64 rows
      // keep the arrays small.
      static constexpr std::int64_t kDims[] = {5, 17, 64, 300, 1100};
      if (rng_.chance(0.5)) {
        decl.dims = {kDims[rng_.uniform_int(2, 4)]};
      } else {
        decl.dims = {kDims[rng_.uniform_int(0, 2)], kDims[rng_.uniform_int(0, 3)]};
      }
      fn.arrays.push_back(decl);
    }
    arrays_ = &fn.arrays;
    std::vector<std::string> ivs;
    fn.body = body(ivs, /*must_loop=*/true);
    return fn;
  }

 private:
  std::vector<ir::Node> body(std::vector<std::string>& ivs, bool must_loop) {
    std::vector<ir::Node> nodes;
    const auto items = rng_.uniform_int(1, 3);
    for (std::int64_t n = 0; n < items; ++n) {
      if ((must_loop && n == 0) || (ivs.size() < 3 && rng_.chance(0.4))) {
        nodes.push_back(loop(ivs));
      } else {
        nodes.push_back(stmt(ivs));
      }
    }
    return nodes;
  }

  ir::Node loop(std::vector<std::string>& ivs) {
    const std::string name = "i" + std::to_string(next_iv_++);
    ir::AffineExpr lower = ir::cst(rng_.uniform_int(0, 3));
    ir::AffineExpr upper = ir::cst(rng_.uniform_int(0, 12));
    if (!ivs.empty() && rng_.chance(0.5)) {
      const std::string& outer = ivs[static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(ivs.size()) - 1))];
      if (rng_.chance(0.5)) {
        lower = ir::iv(outer);
        upper = ir::iv(outer) + ir::cst(rng_.uniform_int(1, 8));
      } else {
        upper = upper + ir::iv(outer);
      }
    }
    ir::Bound bound = ir::Bound::of(upper);
    if (rng_.chance(0.3)) bound.min_with = ir::cst(rng_.uniform_int(2, 14));
    const auto step = rng_.uniform_int(1, 3);
    ivs.push_back(name);
    std::vector<ir::Node> inner = body(ivs, /*must_loop=*/false);
    ivs.pop_back();
    return ir::make_loop(name, lower, bound, step, std::move(inner));
  }

  ir::Node stmt(const std::vector<std::string>& ivs) {
    ir::AccessRef lhs = access(ivs);
    ir::ExprPtr rhs = expr(ivs, 2);
    return rng_.chance(0.5) ? ir::make_accumulate(std::move(lhs), std::move(rhs))
                            : ir::make_assign(std::move(lhs), std::move(rhs));
  }

  ir::ExprPtr expr(const std::vector<std::string>& ivs, int depth) {
    const double pick = rng_.uniform(0.0, 1.0);
    if (depth > 0 && pick < 0.45) {
      static constexpr ir::BinOpKind kOps[] = {
          ir::BinOpKind::kAdd, ir::BinOpKind::kSub, ir::BinOpKind::kMul,
          ir::BinOpKind::kDiv};
      return ir::make_binop(kOps[rng_.uniform_int(0, 3)], expr(ivs, depth - 1),
                            expr(ivs, depth - 1));
    }
    if (pick < 0.8) {
      ir::AccessRef ref = access(ivs);
      return ir::make_load(ref.array, ref.subscripts);
    }
    if (pick < 0.9) return ir::make_param("alpha");
    return ir::make_const(static_cast<double>(rng_.uniform_int(-4, 4)) + 0.25);
  }

  /// Coefficients in [-2, 2] over the enclosing ivs; the constant usually
  /// keeps the subscript inside its dimension but sometimes pushes it out.
  ir::AccessRef access(const std::vector<std::string>& ivs) {
    const ir::ArrayDecl& decl = (*arrays_)[static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(arrays_->size()) - 1))];
    ir::AccessRef ref{decl.name, {}};
    for (const std::int64_t dim : decl.dims) {
      ir::AffineExpr sub = ir::cst(rng_.uniform_int(
          std::min<std::int64_t>(dim / 2, 40), std::max<std::int64_t>(dim - 40, dim / 2)));
      for (const std::string& name : ivs) {
        if (rng_.chance(0.6)) sub += ir::iv(name) * rng_.uniform_int(-2, 2);
      }
      if (rng_.chance(0.05)) sub += ir::cst(rng_.chance(0.5) ? dim : -dim);
      ref.subscripts.push_back(sub);
    }
    return ref;
  }

  support::Rng& rng_;
  const std::vector<ir::ArrayDecl>* arrays_ = nullptr;
  int next_iv_ = 0;
};

[[nodiscard]] bool is_host_model_stat(const std::string& name) {
  return name.starts_with("host.") || name.starts_with("l1d.") ||
         name.starts_with("l2.") || name.starts_with("mem.");
}

TEST(HostNestFuzz, MatchesPerIterationReference) {
  support::Rng rng{testing::fuzz_seed()};
  int failed_runs = 0;
  int promoted_costs = 0;
  for (int round = 0; round < 300; ++round) {
    NestGenerator generator{rng};
    const ir::Function fn = generator.function();
    CostModelParams cost;
    cost.unroll_factor = static_cast<std::uint32_t>(rng.uniform_int(1, 4));
    cost.promote_accumulators = rng.chance(0.8);
    promoted_costs += cost.promote_accumulators ? 1 : 0;
    std::map<std::string, std::vector<float>> inputs;
    for (const ir::ArrayDecl& decl : fn.arrays) {
      std::vector<float>& data = inputs[decl.name];
      data.resize(static_cast<std::size_t>(decl.element_count()));
      for (float& v : data) v = rng.uniform_f(-2.0f, 2.0f);
    }
    // One host item, or the same nest split into one item per top-level
    // node, so later items reuse the page tables the first one built.
    Program program = host_only_program(fn);
    if (rng.chance(0.3)) {
      program.items.clear();
      for (const ir::Node& node : fn.body) program.items.push_back(HostNest{{node}});
    }
    SCOPED_TRACE(::testing::Message()
                 << "round " << round << "\n"
                 << program.to_source());

    sim::System system;
    Interpreter interp{system, nullptr, cost};
    ASSERT_TRUE(interp.prepare(program).is_ok());
    for (const auto& [name, data] : inputs) {
      ASSERT_TRUE(interp.set_array(name, data).is_ok());
    }
    const support::Status status = interp.run(program);

    sim::System ref_system;
    ReferenceInterpreter ref{ref_system, cost};
    const support::Status ref_status = ref.run(fn, inputs);

    ASSERT_EQ(status.code(), ref_status.code()) << status.to_string();
    ASSERT_EQ(status.message(), ref_status.message());
    if (!status.is_ok()) ++failed_runs;
    ASSERT_EQ(interp.statements_executed(), ref.statements);
    for (const ir::ArrayDecl& decl : fn.arrays) {
      const std::vector<float> got = *interp.get_array(decl.name);
      const std::vector<float> want = ref.array(decl.name);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t e = 0; e < got.size(); ++e) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(got[e]),
                  std::bit_cast<std::uint32_t>(want[e]))
            << decl.name << " element " << e;
      }
    }
    const support::StatsSnapshot stats = system.snapshot();
    const support::StatsSnapshot ref_stats = ref_system.snapshot();
    std::size_t compared = 0;
    for (const auto& [name, value] : ref_stats.counters) {
      if (!is_host_model_stat(name)) continue;
      ASSERT_EQ(stats.counter_or(name, ~std::uint64_t{0}), value) << name;
      ++compared;
    }
    EXPECT_GE(compared, 10u);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(stats.energies_pj.at("host.energy")),
              std::bit_cast<std::uint64_t>(ref_stats.energies_pj.at("host.energy")));
  }
  // The corpus reaches both ends: runs that complete and runs that stop at
  // an out-of-range subscript.
  EXPECT_GT(failed_runs, 20);
  EXPECT_LT(failed_runs, 280);
  EXPECT_GT(promoted_costs, 0);
}

}  // namespace
}  // namespace tdo::exec
