#include "src/sql/lexer.h"

#include <algorithm>
#include <cctype>
#include <unordered_set>

#include "src/util/check.h"
#include "src/util/str.h"

namespace dfp {
namespace {

// The numeric literal `sql[start, end)` (digits, and for a decimal one '.' and its fraction
// digits) as an int64 scaled by 10^`scale`, or a dfp::Error when it does not fit or has a
// nonzero fraction digit past the scale (rounding it away would change the query's answer).
int64_t ParseNumber(const std::string& sql, size_t start, size_t end, int scale) {
  int64_t value = 0;
  bool fits = true;
  int fraction = -1;  // Fraction digits consumed so far; -1 before the point.
  size_t i = start;
  for (; i < end && fraction < scale; ++i) {
    if (sql[i] == '.') {
      fraction = 0;
      continue;
    }
    fits = fits && !__builtin_mul_overflow(value, 10, &value) &&
           !__builtin_add_overflow(value, sql[i] - '0', &value);
    fraction += fraction >= 0;
  }
  for (int pad = std::max(fraction, 0); pad < scale; ++pad) {
    fits = fits && !__builtin_mul_overflow(value, 10, &value);
  }
  const std::string literal = sql.substr(start, end - start);
  if (!fits) {
    throw Error(StrFormat("numeric literal '%s' at offset %zu is out of range", literal.c_str(),
                          start));
  }
  if (std::any_of(sql.begin() + i, sql.begin() + end, [](char c) { return c != '0'; })) {
    throw Error(StrFormat("decimal literal '%s' at offset %zu needs more than %d fraction digits",
                          literal.c_str(), start, scale));
  }
  return value;
}

const std::unordered_set<std::string>& Keywords() {
  static const std::unordered_set<std::string> kKeywords = {
      "select", "from",  "where",   "group", "by",   "having", "order",  "limit", "as",
      "and",    "or",    "not",     "in",    "like", "between", "case",  "when",  "then",
      "else",   "end",   "sum",     "count", "avg",  "min",    "max",    "asc",   "desc",
      "date",   "exists", "distinct", "year"};
  return kKeywords;
}

}  // namespace

std::vector<Token> Tokenize(const std::string& sql) {
  std::vector<Token> tokens;
  size_t i = 0;
  const size_t n = sql.size();
  while (i < n) {
    const char c = sql[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    Token token;
    token.position = i;
    if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t start = i;
      while (i < n && std::isdigit(static_cast<unsigned char>(sql[i]))) {
        ++i;
      }
      if (i < n && sql[i] == '.' && i + 1 < n &&
          std::isdigit(static_cast<unsigned char>(sql[i + 1]))) {
        ++i;
        while (i < n && std::isdigit(static_cast<unsigned char>(sql[i]))) {
          ++i;
        }
        token.kind = TokenKind::kDecimal;
        token.text = sql.substr(start, i - start);
        token.decimal_value = ParseNumber(sql, start, i, 2);  // Scale-2 decimals.
      } else {
        token.kind = TokenKind::kInt;
        token.text = sql.substr(start, i - start);
        token.int_value = ParseNumber(sql, start, i, 0);
      }
      tokens.push_back(std::move(token));
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t start = i;
      while (i < n && (std::isalnum(static_cast<unsigned char>(sql[i])) || sql[i] == '_')) {
        ++i;
      }
      token.text = ToLower(sql.substr(start, i - start));
      token.kind =
          Keywords().count(token.text) != 0 ? TokenKind::kKeyword : TokenKind::kIdent;
      tokens.push_back(std::move(token));
      continue;
    }
    if (c == '\'') {
      ++i;
      std::string value;
      bool closed = false;
      while (i < n) {
        if (sql[i] == '\'') {
          if (i + 1 < n && sql[i + 1] == '\'') {  // Escaped quote.
            value.push_back('\'');
            i += 2;
            continue;
          }
          closed = true;
          ++i;
          break;
        }
        value.push_back(sql[i]);
        ++i;
      }
      if (!closed) {
        throw Error(StrFormat("unterminated string literal at offset %zu", token.position));
      }
      token.kind = TokenKind::kString;
      token.text = std::move(value);
      tokens.push_back(std::move(token));
      continue;
    }
    // Symbols, including two-character comparison operators.
    static const char kSingle[] = "(),.;=<>+-*/%";
    if (c == '<' && i + 1 < n && (sql[i + 1] == '=' || sql[i + 1] == '>')) {
      token.kind = TokenKind::kSymbol;
      token.text = sql.substr(i, 2);
      i += 2;
      tokens.push_back(std::move(token));
      continue;
    }
    if (c == '>' && i + 1 < n && sql[i + 1] == '=') {
      token.kind = TokenKind::kSymbol;
      token.text = ">=";
      i += 2;
      tokens.push_back(std::move(token));
      continue;
    }
    bool known = false;
    for (char s : kSingle) {
      if (c == s) {
        known = true;
        break;
      }
    }
    if (!known) {
      throw Error(StrFormat("unexpected character '%c' at offset %zu", c, i));
    }
    token.kind = TokenKind::kSymbol;
    token.text = std::string(1, c);
    ++i;
    tokens.push_back(std::move(token));
  }
  Token end;
  end.kind = TokenKind::kEnd;
  end.position = n;
  tokens.push_back(std::move(end));
  return tokens;
}

}  // namespace dfp
