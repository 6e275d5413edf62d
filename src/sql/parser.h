// Recursive-descent parser for the SQL subset (see README for the grammar).
#ifndef DFP_SRC_SQL_PARSER_H_
#define DFP_SRC_SQL_PARSER_H_

#include <cstdint>
#include <string>

#include "src/sql/ast.h"

namespace dfp {

// Deepest expression nesting the parser accepts, counting parentheses, function and CASE
// arguments, NOT and unary minus (SQLite's default expression depth). Each level recurses, so
// the bound turns pathological input into an error instead of a stack overflow. Chains of
// binary operators (`a + b + ... + z`) loop rather than nest and are not bounded.
inline constexpr uint32_t kMaxExprNesting = 1000;

// Parses one SELECT statement (an optional trailing ';' is allowed).
// Throws dfp::Error with a position-annotated message on syntax errors.
SelectStatement ParseSelect(const std::string& sql);

}  // namespace dfp

#endif  // DFP_SRC_SQL_PARSER_H_
