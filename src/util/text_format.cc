#include "src/util/text_format.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <istream>

#include "src/util/check.h"

namespace dfp {

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

std::string EncodeToken(std::string_view text) {
  if (text.empty()) {
    return "%";
  }
  std::string out;
  out.reserve(text.size());
  for (unsigned char c : text) {
    if (c == '%' || std::isspace(c) != 0 || c < 0x20 || c == 0x7F) {
      char buffer[4];
      std::snprintf(buffer, sizeof(buffer), "%%%02X", c);
      out += buffer;
    } else {
      out += static_cast<char>(c);
    }
  }
  return out;
}

std::string DecodeToken(std::string_view token) {
  if (token == "%") {
    return "";
  }
  std::string out;
  out.reserve(token.size());
  for (size_t i = 0; i < token.size(); ++i) {
    if (token[i] != '%') {
      out += token[i];
      continue;
    }
    const char* digits = token.data() + i + 1;
    uint8_t byte = 0;
    if (token.size() - i < 3 || std::from_chars(digits, digits + 2, byte, 16).ptr != digits + 2) {
      throw Error("malformed token escape in '" + std::string(token) + "'");
    }
    out += static_cast<char>(byte);
    i += 2;
  }
  return out;
}

void LineReader::ExpectHeader(std::string_view header) {
  if (!Next() || line_ != header) {
    throw Error("unsupported file header '" + line_ + "': this build reads only '" +
                std::string(header) + "'");
  }
}

bool LineReader::Next() {
  pos_ = 0;
  if (!std::getline(in_, line_)) {
    line_.clear();
    return false;
  }
  ++number_;
  return true;
}

bool LineReader::NextRecord() {
  while (Next()) {
    if (!line_.empty() && line_[0] != '#') {
      return true;
    }
  }
  return false;
}

void LineReader::Expect(std::string_view keyword, std::string_view what) {
  if (!Next()) {
    throw Error("truncated " + std::string(format_) + ": " + std::string(what) + " expected");
  }
  if (Word() != keyword) {
    Reject();
  }
}

std::string_view LineReader::Word() {
  size_t start = pos_;
  if (start != 0) {
    if (start == line_.size()) {
      Reject();
    }
    ++start;  // The one space after the previous field.
  }
  const size_t end = std::min(line_.find(' ', start), line_.size());
  if (end == start) {
    Reject();  // A missing field, or a doubled, leading or trailing space.
  }
  pos_ = end;
  return std::string_view(line_).substr(start, end - start);
}

std::string LineReader::Token() {
  const std::string_view word = Word();
  try {
    return DecodeToken(word);
  } catch (const Error&) {
    Reject();
  }
}

std::string LineReader::Rest() {
  std::string rest = AtEnd() ? std::string() : line_.substr(pos_ + 1);
  pos_ = line_.size();
  return rest;
}

uint64_t LineReader::Hex(std::string_view field) const {
  try {
    return ParseHex16(field);
  } catch (const Error&) {
    Reject();
  }
}

void LineReader::Reject() const {
  throw Error("malformed " + std::string(format_) + " line " + std::to_string(number_) + ": '" +
              line_ + "'");
}

}  // namespace dfp
