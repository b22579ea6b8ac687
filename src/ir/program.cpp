#include "ir/program.hpp"

#include <array>
#include <charconv>
#include <functional>
#include <set>
#include <sstream>

namespace tdo::ir {

const char* to_string(BinOpKind op) {
  switch (op) {
    case BinOpKind::kAdd: return "+";
    case BinOpKind::kSub: return "-";
    case BinOpKind::kMul: return "*";
    case BinOpKind::kDiv: return "/";
  }
  return "?";
}

ExprPtr make_load(std::string array, std::vector<AffineExpr> subscripts) {
  return std::make_shared<const Expr>(
      Expr{LoadExpr{std::move(array), std::move(subscripts)}});
}

ExprPtr make_const(double value) {
  return std::make_shared<const Expr>(Expr{ConstExpr{value}});
}

ExprPtr make_param(std::string name) {
  return std::make_shared<const Expr>(Expr{ParamExpr{std::move(name)}});
}

ExprPtr make_binop(BinOpKind op, ExprPtr lhs, ExprPtr rhs) {
  return std::make_shared<const Expr>(
      Expr{BinExpr{op, std::move(lhs), std::move(rhs)}});
}

ExprPtr make_non_affine(std::string reason) {
  return std::make_shared<const Expr>(Expr{NonAffineExpr{std::move(reason)}});
}

const ArrayDecl* Function::find_array(const std::string& array_name) const {
  for (const auto& a : arrays) {
    if (a.name == array_name) return &a;
  }
  return nullptr;
}

const ScalarDecl* Function::find_scalar(const std::string& scalar_name) const {
  for (const auto& s : scalars) {
    if (s.name == scalar_name) return &s;
  }
  return nullptr;
}

double Function::scalar_value(const std::string& scalar_name,
                              double fallback) const {
  const ScalarDecl* s = find_scalar(scalar_name);
  return s != nullptr ? s->value : fallback;
}

namespace {

void renumber(std::vector<Node>& body, int& counter) {
  for (Node& node : body) {
    if (node.is_loop()) {
      renumber(node.loop().body, counter);
    } else {
      // Built in a local buffer: gcc 12 at -O3 raises a false -Wrestrict
      // inside libstdc++'s inlined string replace for `"S" + to_string(n)`.
      std::array<char, 16> buf{'S'};
      char* end =
          std::to_chars(buf.data() + 1, buf.data() + buf.size(), counter++).ptr;
      node.stmt().name = std::string(buf.data(), end);
    }
  }
}

}  // namespace

void Function::renumber_statements() {
  int counter = 0;
  renumber(body, counter);
}

void for_each_stmt(const std::vector<Node>& body,
                   const std::function<void(const Stmt&)>& fn) {
  for (const Node& node : body) {
    if (node.is_loop()) {
      for_each_stmt(node.loop().body, fn);
    } else {
      fn(node.stmt());
    }
  }
}

void collect_loads(const ExprPtr& expr, std::vector<const LoadExpr*>& out) {
  if (!expr) return;
  if (const auto* load = std::get_if<LoadExpr>(&expr->node)) {
    out.push_back(load);
    return;
  }
  if (const auto* bin = std::get_if<BinExpr>(&expr->node)) {
    collect_loads(bin->lhs, out);
    collect_loads(bin->rhs, out);
  }
}

bool has_non_affine(const ExprPtr& expr) {
  if (!expr) return false;
  if (std::holds_alternative<NonAffineExpr>(expr->node)) return true;
  if (const auto* bin = std::get_if<BinExpr>(&expr->node)) {
    return has_non_affine(bin->lhs) || has_non_affine(bin->rhs);
  }
  return false;
}

namespace {

support::Status validate_expr(const Function& fn, const ExprPtr& expr,
                              const std::set<std::string>& ivs);

support::Status validate_access(const Function& fn, const std::string& array,
                                const std::vector<AffineExpr>& subscripts,
                                const std::set<std::string>& ivs) {
  const ArrayDecl* decl = fn.find_array(array);
  if (decl == nullptr) {
    return support::not_found("undeclared array: " + array);
  }
  if (decl->dims.size() != subscripts.size()) {
    return support::invalid_argument("subscript arity mismatch on " + array);
  }
  for (const AffineExpr& sub : subscripts) {
    for (const auto& [var, _] : sub.coeffs()) {
      if (!ivs.contains(var)) {
        return support::invalid_argument("subscript of " + array +
                                         " uses unbound variable " + var);
      }
    }
  }
  return support::Status::ok();
}

support::Status validate_expr(const Function& fn, const ExprPtr& expr,
                              const std::set<std::string>& ivs) {
  if (!expr) return support::invalid_argument("null expression");
  if (const auto* load = std::get_if<LoadExpr>(&expr->node)) {
    return validate_access(fn, load->array, load->subscripts, ivs);
  }
  if (const auto* param = std::get_if<ParamExpr>(&expr->node)) {
    if (fn.find_scalar(param->name) == nullptr) {
      return support::not_found("undeclared scalar: " + param->name);
    }
    return support::Status::ok();
  }
  if (const auto* bin = std::get_if<BinExpr>(&expr->node)) {
    TDO_RETURN_IF_ERROR(validate_expr(fn, bin->lhs, ivs));
    return validate_expr(fn, bin->rhs, ivs);
  }
  return support::Status::ok();  // ConstExpr, NonAffineExpr
}

support::Status validate_body(const Function& fn, const std::vector<Node>& body,
                              std::set<std::string>& ivs) {
  for (const Node& node : body) {
    if (node.is_loop()) {
      const Loop& loop = node.loop();
      if (loop.step <= 0) {
        return support::invalid_argument("non-positive loop step on " + loop.iv);
      }
      if (ivs.contains(loop.iv)) {
        return support::invalid_argument("shadowed induction variable " + loop.iv);
      }
      ivs.insert(loop.iv);
      TDO_RETURN_IF_ERROR(validate_body(fn, loop.body, ivs));
      ivs.erase(loop.iv);
    } else {
      const Stmt& stmt = node.stmt();
      TDO_RETURN_IF_ERROR(
          validate_access(fn, stmt.lhs.array, stmt.lhs.subscripts, ivs));
      TDO_RETURN_IF_ERROR(validate_expr(fn, stmt.rhs, ivs));
    }
  }
  return support::Status::ok();
}

}  // namespace

support::Status Function::validate() const {
  std::set<std::string> names;
  for (const ArrayDecl& a : arrays) {
    if (!names.insert(a.name).second) {
      return support::invalid_argument("duplicate array " + a.name);
    }
    if (a.dims.empty()) {
      return support::invalid_argument("zero-dimensional array " + a.name);
    }
    for (const auto d : a.dims) {
      if (d <= 0) return support::invalid_argument("non-positive dim in " + a.name);
    }
  }
  for (const ScalarDecl& s : scalars) {
    if (!names.insert(s.name).second) {
      return support::invalid_argument("duplicate scalar " + s.name);
    }
  }
  std::set<std::string> ivs;
  return validate_body(*this, body, ivs);
}

}  // namespace tdo::ir
