#include "ir/printer.hpp"

#include <sstream>

namespace tdo::ir {

namespace {

void print_expr(std::ostringstream& os, const ExprPtr& expr, int parent_prec);

[[nodiscard]] int precedence(BinOpKind op) {
  switch (op) {
    case BinOpKind::kAdd:
    case BinOpKind::kSub:
      return 1;
    case BinOpKind::kMul:
    case BinOpKind::kDiv:
      return 2;
  }
  return 0;
}

void print_access(std::ostringstream& os, const std::string& array,
                  const std::vector<AffineExpr>& subscripts) {
  os << array;
  for (const AffineExpr& sub : subscripts) os << '[' << sub.to_string() << ']';
}

void print_expr(std::ostringstream& os, const ExprPtr& expr, int parent_prec) {
  if (!expr) {
    os << "<null>";
    return;
  }
  if (const auto* load = std::get_if<LoadExpr>(&expr->node)) {
    print_access(os, load->array, load->subscripts);
  } else if (const auto* c = std::get_if<ConstExpr>(&expr->node)) {
    os << c->value;
  } else if (const auto* p = std::get_if<ParamExpr>(&expr->node)) {
    os << p->name;
  } else if (const auto* na = std::get_if<NonAffineExpr>(&expr->node)) {
    os << "<non-affine:" << na->reason << ">";
  } else if (const auto* bin = std::get_if<BinExpr>(&expr->node)) {
    const int prec = precedence(bin->op);
    const bool parens = prec < parent_prec;
    if (parens) os << '(';
    print_expr(os, bin->lhs, prec);
    os << ' ' << to_string(bin->op) << ' ';
    print_expr(os, bin->rhs, prec + 1);
    if (parens) os << ')';
  }
}

void print_body(std::ostringstream& os, const std::vector<Node>& body,
                int indent) {
  const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
  for (const Node& node : body) {
    if (node.is_loop()) {
      const Loop& loop = node.loop();
      os << pad << "for (int " << loop.iv << " = " << loop.lower.to_string()
         << "; " << loop.iv << " < " << loop.upper.to_string() << "; "
         << loop.iv;
      if (loop.step == 1) {
        os << "++";
      } else {
        os << " += " << loop.step;
      }
      os << ")";
      if (loop.body.size() == 1 && loop.body.front().is_loop()) {
        os << "\n";
        print_body(os, loop.body, indent + 1);
      } else {
        os << " {\n";
        print_body(os, loop.body, indent + 1);
        os << pad << "}\n";
      }
    } else {
      os << pad << to_source(node.stmt()) << "\n";
    }
  }
}

}  // namespace

std::string to_source(const Stmt& stmt) {
  std::ostringstream os;
  print_access(os, stmt.lhs.array, stmt.lhs.subscripts);
  os << (stmt.accumulate ? " += " : " = ");
  print_expr(os, stmt.rhs, 0);
  os << ";  // " << stmt.name;
  return os.str();
}

std::string to_source(const std::vector<Node>& body, int indent) {
  std::ostringstream os;
  print_body(os, body, indent);
  return os.str();
}

std::string to_source(const Function& fn) {
  std::ostringstream os;
  os << "// kernel " << fn.name << "\n";
  for (const ScalarDecl& s : fn.scalars) {
    os << "const float " << s.name << " = " << s.value << ";\n";
  }
  for (const ArrayDecl& a : fn.arrays) {
    os << "float " << a.name;
    for (const auto d : a.dims) os << '[' << d << ']';
    os << ";\n";
  }
  os << "void " << fn.name << "() {\n";
  print_body(os, fn.body, 1);
  os << "}\n";
  return os.str();
}

}  // namespace tdo::ir
