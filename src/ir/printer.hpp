// Pretty-printer: renders IR back to C-like source text.
//
// Used by the examples and tests to show before/after code the way the
// paper's Listings 1-3 do.
#pragma once

#include <string>

#include "ir/program.hpp"

namespace tdo::ir {

[[nodiscard]] std::string to_source(const Function& fn);
[[nodiscard]] std::string to_source(const std::vector<Node>& body,
                                    int indent = 0);
[[nodiscard]] std::string to_source(const Stmt& stmt);

}  // namespace tdo::ir
