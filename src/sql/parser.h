// Recursive-descent parser for the SQL subset (see README for the grammar).
#ifndef DFP_SRC_SQL_PARSER_H_
#define DFP_SRC_SQL_PARSER_H_

#include <string>

#include "src/plan/expr.h"
#include "src/sql/ast.h"

namespace dfp {

// Parses one SELECT statement (an optional trailing ';' is allowed).
// Throws dfp::Error with a position-annotated message on syntax errors, and on an expression
// tree higher than kMaxExprNesting levels (src/plan/expr.h) or nested deeper than that:
// parentheses, function and CASE arguments, NOT and unary minus each open a level, and every
// operator is a level over its operands, so a long chain `a + b + ... + z` counts too. Every
// later pass recurses once per level, so the bound turns pathological input into an error
// instead of a stack overflow.
SelectStatement ParseSelect(const std::string& sql);

}  // namespace dfp

#endif  // DFP_SRC_SQL_PARSER_H_
