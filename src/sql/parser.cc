#include "src/sql/parser.h"

#include <algorithm>

#include "src/sql/lexer.h"
#include "src/util/check.h"
#include "src/util/date.h"
#include "src/util/str.h"

namespace dfp {
namespace {

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  SelectStatement Parse() {
    SelectStatement stmt;
    ExpectKeyword("select");
    if (AcceptKeyword("distinct")) {
      stmt.distinct = true;
    }
    stmt.select_list.push_back(ParseSelectItem());
    while (AcceptSymbol(",")) {
      stmt.select_list.push_back(ParseSelectItem());
    }
    ExpectKeyword("from");
    stmt.from.push_back(ParseTableRef());
    while (AcceptSymbol(",")) {
      stmt.from.push_back(ParseTableRef());
    }
    if (AcceptKeyword("where")) {
      stmt.where = ParseExpr();
    }
    if (AcceptKeyword("group")) {
      ExpectKeyword("by");
      stmt.group_by.push_back(ParseExpr());
      while (AcceptSymbol(",")) {
        stmt.group_by.push_back(ParseExpr());
      }
    }
    if (AcceptKeyword("having")) {
      stmt.having = ParseExpr();
    }
    if (AcceptKeyword("order")) {
      ExpectKeyword("by");
      stmt.order_by.push_back(ParseOrderItem());
      while (AcceptSymbol(",")) {
        stmt.order_by.push_back(ParseOrderItem());
      }
    }
    if (AcceptKeyword("limit")) {
      const Token& token = Expect(TokenKind::kInt, "row count");
      stmt.limit = token.int_value;
    }
    AcceptSymbol(";");
    if (Peek().kind != TokenKind::kEnd) {
      Fail("trailing input");
    }
    return stmt;
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    size_t index = std::min(pos_ + ahead, tokens_.size() - 1);
    return tokens_[index];
  }
  const Token& Advance() { return tokens_[pos_++]; }

  [[noreturn]] void Fail(const std::string& what) const {
    throw Error(StrFormat("SQL parse error at offset %zu: %s (near '%s')", Peek().position,
                          what.c_str(), Peek().text.c_str()));
  }

  bool AcceptKeyword(const char* keyword) {
    if (Peek().kind == TokenKind::kKeyword && Peek().text == keyword) {
      Advance();
      return true;
    }
    return false;
  }
  void ExpectKeyword(const char* keyword) {
    if (!AcceptKeyword(keyword)) {
      Fail(StrFormat("expected '%s'", keyword));
    }
  }
  bool AcceptSymbol(const char* symbol) {
    if (Peek().kind == TokenKind::kSymbol && Peek().text == symbol) {
      Advance();
      return true;
    }
    return false;
  }
  void ExpectSymbol(const char* symbol) {
    if (!AcceptSymbol(symbol)) {
      Fail(StrFormat("expected '%s'", symbol));
    }
  }
  const Token& Expect(TokenKind kind, const char* what) {
    if (Peek().kind != kind) {
      Fail(StrFormat("expected %s", what));
    }
    return Advance();
  }

  // The expression bound, kMaxExprNesting, checked two ways with one message. Nest holds one
  // level of open nesting (parentheses, function and CASE arguments, NOT, unary minus) for as
  // long as it lives, so the parser's own recursion stops early. Sealed sets a finished node's
  // height one level over its highest operand, which also counts the operator chains the
  // parser builds in a loop: every later pass recurses over the tree.
  void RefuseDeeperThanLimit() const {
    Fail(StrFormat("expression nested deeper than %u levels", kMaxExprNesting));
  }
  class Nest {
   public:
    explicit Nest(Parser* parser) : parser_(parser) {
      if (++parser_->depth_ > kMaxExprNesting) {
        parser_->RefuseDeeperThanLimit();
      }
    }
    ~Nest() { --parser_->depth_; }
    Nest(const Nest&) = delete;
    Nest& operator=(const Nest&) = delete;

   private:
    Parser* parser_;
  };
  SqlExprPtr Sealed(SqlExprPtr node) const {
    uint32_t below = 0;
    auto over = [&below](const SqlExprPtr& operand) {
      if (operand != nullptr) {
        below = std::max(below, operand->height);
      }
    };
    over(node->left);
    over(node->right);
    over(node->third);
    over(node->else_value);
    for (const SqlExprPtr& element : node->list) {
      over(element);
    }
    for (const auto& [cond, value] : node->whens) {
      over(cond);
      over(value);
    }
    node->height = below + 1;
    if (node->height > kMaxExprNesting) {
      RefuseDeeperThanLimit();
    }
    return node;
  }

  SqlSelectItem ParseSelectItem() {
    SqlSelectItem item;
    item.expr = ParseExpr();
    if (AcceptKeyword("as")) {
      item.alias = Expect(TokenKind::kIdent, "alias").text;
    } else if (Peek().kind == TokenKind::kIdent) {
      item.alias = Advance().text;  // Bare alias.
    }
    return item;
  }

  SqlTableRef ParseTableRef() {
    SqlTableRef ref;
    ref.table = Expect(TokenKind::kIdent, "table name").text;
    ref.alias = ref.table;
    if (Peek().kind == TokenKind::kIdent) {
      ref.alias = Advance().text;
    }
    return ref;
  }

  SqlOrderItem ParseOrderItem() {
    SqlOrderItem item;
    item.expr = ParseExpr();
    if (AcceptKeyword("desc")) {
      item.descending = true;
    } else {
      AcceptKeyword("asc");
    }
    return item;
  }

  // Precedence climbing: or < and < not < comparison < additive < multiplicative < unary.
  SqlExprPtr ParseExpr() { return ParseOr(); }

  SqlExprPtr ParseOr() {
    SqlExprPtr left = ParseAnd();
    while (AcceptKeyword("or")) {
      auto node = std::make_unique<SqlExpr>();
      node->kind = SqlExprKind::kBinary;
      node->bin = SqlBinOp::kOr;
      node->left = std::move(left);
      node->right = ParseAnd();
      left = Sealed(std::move(node));
    }
    return left;
  }

  SqlExprPtr ParseAnd() {
    SqlExprPtr left = ParseNot();
    while (AcceptKeyword("and")) {
      auto node = std::make_unique<SqlExpr>();
      node->kind = SqlExprKind::kBinary;
      node->bin = SqlBinOp::kAnd;
      node->left = std::move(left);
      node->right = ParseNot();
      left = Sealed(std::move(node));
    }
    return left;
  }

  SqlExprPtr ParseNot() {
    if (AcceptKeyword("not")) {
      Nest nest(this);
      auto node = std::make_unique<SqlExpr>();
      node->kind = SqlExprKind::kNot;
      node->left = ParseNot();
      return Sealed(std::move(node));
    }
    return ParseComparison();
  }

  SqlExprPtr ParseComparison() {
    SqlExprPtr left = ParseAdditive();
    if (Peek().kind == TokenKind::kSymbol) {
      const std::string& symbol = Peek().text;
      SqlBinOp op;
      if (symbol == "=") {
        op = SqlBinOp::kEq;
      } else if (symbol == "<>") {
        op = SqlBinOp::kNe;
      } else if (symbol == "<") {
        op = SqlBinOp::kLt;
      } else if (symbol == "<=") {
        op = SqlBinOp::kLe;
      } else if (symbol == ">") {
        op = SqlBinOp::kGt;
      } else if (symbol == ">=") {
        op = SqlBinOp::kGe;
      } else {
        return left;
      }
      Advance();
      auto node = std::make_unique<SqlExpr>();
      node->kind = SqlExprKind::kBinary;
      node->bin = op;
      node->left = std::move(left);
      node->right = ParseAdditive();
      return Sealed(std::move(node));
    }
    if (AcceptKeyword("between")) {
      auto node = std::make_unique<SqlExpr>();
      node->kind = SqlExprKind::kBetween;
      node->left = std::move(left);
      node->right = ParseAdditive();
      ExpectKeyword("and");
      node->third = ParseAdditive();
      return Sealed(std::move(node));
    }
    if (AcceptKeyword("like")) {
      auto node = std::make_unique<SqlExpr>();
      node->kind = SqlExprKind::kLike;
      node->left = std::move(left);
      node->string_value = Expect(TokenKind::kString, "pattern").text;
      return Sealed(std::move(node));
    }
    if (AcceptKeyword("in")) {
      auto node = std::make_unique<SqlExpr>();
      node->kind = SqlExprKind::kInList;
      node->left = std::move(left);
      ExpectSymbol("(");
      node->list.push_back(ParseAdditive());
      while (AcceptSymbol(",")) {
        node->list.push_back(ParseAdditive());
      }
      ExpectSymbol(")");
      return Sealed(std::move(node));
    }
    return left;
  }

  SqlExprPtr ParseAdditive() {
    SqlExprPtr left = ParseMultiplicative();
    while (Peek().kind == TokenKind::kSymbol &&
           (Peek().text == "+" || Peek().text == "-")) {
      SqlBinOp op = Advance().text == "+" ? SqlBinOp::kAdd : SqlBinOp::kSub;
      auto node = std::make_unique<SqlExpr>();
      node->kind = SqlExprKind::kBinary;
      node->bin = op;
      node->left = std::move(left);
      node->right = ParseMultiplicative();
      left = Sealed(std::move(node));
    }
    return left;
  }

  SqlExprPtr ParseMultiplicative() {
    SqlExprPtr left = ParseUnary();
    while (Peek().kind == TokenKind::kSymbol &&
           (Peek().text == "*" || Peek().text == "/" || Peek().text == "%")) {
      const std::string symbol = Advance().text;
      SqlBinOp op = symbol == "*" ? SqlBinOp::kMul
                    : symbol == "/" ? SqlBinOp::kDiv
                                    : SqlBinOp::kRem;
      auto node = std::make_unique<SqlExpr>();
      node->kind = SqlExprKind::kBinary;
      node->bin = op;
      node->left = std::move(left);
      node->right = ParseUnary();
      left = Sealed(std::move(node));
    }
    return left;
  }

  SqlExprPtr ParseUnary() {
    if (AcceptSymbol("-")) {
      Nest nest(this);
      auto node = std::make_unique<SqlExpr>();
      node->kind = SqlExprKind::kUnaryMinus;
      node->left = ParseUnary();
      return Sealed(std::move(node));
    }
    return ParsePrimary();
  }

  SqlExprPtr ParsePrimary() {
    const Token& token = Peek();
    auto node = std::make_unique<SqlExpr>();
    switch (token.kind) {
      case TokenKind::kInt:
        node->kind = SqlExprKind::kIntLit;
        node->int_value = token.int_value;
        Advance();
        return node;
      case TokenKind::kDecimal:
        node->kind = SqlExprKind::kDecimalLit;
        node->int_value = token.decimal_value;
        Advance();
        return node;
      case TokenKind::kString:
        node->kind = SqlExprKind::kStringLit;
        node->string_value = token.text;
        Advance();
        return node;
      case TokenKind::kSymbol:
        if (token.text == "(") {
          Advance();
          Nest nest(this);
          SqlExprPtr inner = ParseExpr();
          ExpectSymbol(")");
          return inner;
        }
        Fail("expected expression");
      case TokenKind::kKeyword:
        if (token.text == "date") {
          Advance();
          const Token& literal = Expect(TokenKind::kString, "date literal");
          node->kind = SqlExprKind::kDateLit;
          node->int_value = ParseDate(literal.text);
          return node;
        }
        if (token.text == "case") {
          Advance();
          Nest nest(this);
          node->kind = SqlExprKind::kCase;
          while (AcceptKeyword("when")) {
            SqlExprPtr cond = ParseExpr();
            ExpectKeyword("then");
            SqlExprPtr value = ParseExpr();
            node->whens.emplace_back(std::move(cond), std::move(value));
          }
          if (node->whens.empty()) {
            Fail("CASE requires at least one WHEN");
          }
          ExpectKeyword("else");
          node->else_value = ParseExpr();
          ExpectKeyword("end");
          return Sealed(std::move(node));
        }
        if (token.text == "year") {
          Advance();
          Nest nest(this);
          ExpectSymbol("(");
          node->kind = SqlExprKind::kYear;
          node->left = ParseExpr();
          ExpectSymbol(")");
          return Sealed(std::move(node));
        }
        if (token.text == "sum" || token.text == "count" || token.text == "avg" ||
            token.text == "min" || token.text == "max") {
          std::string name = Advance().text;
          Nest nest(this);
          ExpectSymbol("(");
          node->kind = SqlExprKind::kAggregate;
          if (name == "count" && AcceptSymbol("*")) {
            node->agg = SqlAgg::kCountStar;
          } else {
            node->agg = name == "sum"   ? SqlAgg::kSum
                        : name == "count" ? SqlAgg::kCount
                        : name == "avg" ? SqlAgg::kAvg
                        : name == "min" ? SqlAgg::kMin
                                        : SqlAgg::kMax;
            node->left = ParseExpr();
          }
          ExpectSymbol(")");
          return Sealed(std::move(node));
        }
        Fail("unexpected keyword");
      case TokenKind::kIdent: {
        node->kind = SqlExprKind::kColumn;
        node->column = Advance().text;
        if (Peek().kind == TokenKind::kSymbol && Peek().text == "." &&
            Peek(1).kind == TokenKind::kIdent) {
          Advance();
          node->qualifier = node->column;
          node->column = Advance().text;
        }
        return node;
      }
      case TokenKind::kEnd:
        Fail("unexpected end of input");
    }
    DFP_UNREACHABLE();
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  uint32_t depth_ = 0;  // Current expression nesting (see Nest).
};

}  // namespace

SelectStatement ParseSelect(const std::string& sql) {
  Parser parser(Tokenize(sql));
  return parser.Parse();
}

}  // namespace dfp
