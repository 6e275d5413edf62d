#include "src/util/text_format.h"

#include <charconv>
#include <cstdio>
#include <istream>

#include "src/util/check.h"

namespace dfp {

void ExpectHeader(std::istream& in, std::string_view header) {
  std::string line;
  if (!std::getline(in, line) || line != header) {
    throw Error("unsupported file header '" + line + "': this build reads only '" +
                std::string(header) + "'");
  }
}

std::string RestOfLine(std::istream& line) {
  std::string rest;
  std::getline(line, rest);
  if (!rest.empty() && rest.front() == ' ') {
    rest.erase(rest.begin());
  }
  return rest;
}

std::string Hex16(uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx", static_cast<unsigned long long>(value));
  return buffer;
}

uint64_t ParseHex16(std::string_view token) {
  if (token.size() != 16 || token.find_first_not_of("0123456789abcdef") != std::string::npos) {
    throw Error("malformed hex field '" + std::string(token) +
                "': 16 lowercase hex digits expected");
  }
  uint64_t value = 0;
  std::from_chars(token.data(), token.data() + token.size(), value, 16);
  return value;
}

}  // namespace dfp
