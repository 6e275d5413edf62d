// Shared pieces of dfp's line-oriented text formats (tagging dictionaries, sample streams,
// service profiles, traces, plan blocks).
//
// Every format has exactly one version, named by its first line; a reader accepts that header
// and refuses any other — an older or newer version, or another format — with one message.
// 64-bit keys, hashes, and IEEE-754 bit patterns of doubles travel as exactly 16 lowercase hex
// digits, so they round-trip bit for bit.
//
// All five readers take their lines through one LineReader, so the field grammar lives here
// and nowhere else. A line is a keyword and fields separated by single spaces, as the writers
// emit them. A number is decimal digits that fill the field and fit the destination's own
// width; only a signed field takes a leading '-', and no field takes a '+'. Anything else is
// one error, "malformed <format> line <n>: '<line>'".
#ifndef DFP_SRC_UTIL_TEXT_FORMAT_H_
#define DFP_SRC_UTIL_TEXT_FORMAT_H_

#include <bit>
#include <charconv>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

namespace dfp {

// `value` as exactly 16 lowercase hex digits, zero-padded.
std::string Hex16(uint64_t value);

// Inverse of Hex16. Accepts exactly 16 lowercase hex digits; throws dfp::Error otherwise.
uint64_t ParseHex16(std::string_view token);

inline uint64_t DoubleBits(double value) { return std::bit_cast<uint64_t>(value); }
inline double BitsToDouble(uint64_t bits) { return std::bit_cast<double>(bits); }

// Escapes a string into a single whitespace-free token (percent-encoding of '%', whitespace,
// and control bytes; the empty string encodes as a bare "%"). Inverse of DecodeToken.
std::string EncodeToken(std::string_view text);
std::string DecodeToken(std::string_view token);  // Throws dfp::Error on malformed escapes.

// Reads one text format line by line and field by field. Every read that finds no field, or a
// field outside its grammar, throws the malformed-line error naming the current line.
class LineReader {
 public:
  // `format` names the format in errors ("trace", "service profile", ...).
  LineReader(std::istream& in, const char* format) : in_(in), format_(format) {}

  // Consumes the first line; throws dfp::Error unless it is exactly `header`.
  void ExpectHeader(std::string_view header);

  // Advances to the next line; false at the end of the input.
  bool Next();
  // Next, skipping blank lines and '#' comments.
  bool NextRecord();
  // Advances to a line that must exist and start with `keyword`. At the end of the input it
  // throws "truncated <format>: <what> expected".
  void Expect(std::string_view keyword, std::string_view what);

  const std::string& line() const { return line_; }

  // The next space-separated field of the current line (the first call returns the keyword).
  std::string_view Word();
  // True when the current line has no field left.
  bool AtEnd() const { return pos_ == line_.size(); }
  // Refuses a field left after the last fixed one.
  void End() const {
    if (!AtEnd()) {
      Reject();
    }
  }

  // The next field as an integer of T's width (signed only when T is), or as a double.
  template <typename T>
  T Read() {
    return Parse<T>(Word());
  }
  // Reads each argument in turn, as Read of its own type.
  template <typename... T>
  void Fields(T&... fields) {
    ((fields = Read<T>()), ...);
  }
  // A decimal no greater than `last`, as `last`'s type: an enum, or an id with a fixed bound.
  template <typename E>
  E Enum(E last) {
    const uint64_t value = Read<uint64_t>();
    if (value > static_cast<uint64_t>(last)) {
      Reject();
    }
    return static_cast<E>(value);
  }
  bool Flag() { return Enum(uint8_t{1}) != 0; }  // 0 or 1.
  uint64_t Hex() { return Hex(Word()); }           // 16 lowercase hex digits.
  std::string Token();                             // A DecodeToken token.
  // The rest of the line after its fixed fields, less the one space that separates them: a
  // free-text name or label.
  std::string Rest();
  // The index of the next field in `names`.
  template <size_t N>
  size_t Name(const char* const (&names)[N]) {
    const std::string_view word = Word();
    for (size_t i = 0; i < N; ++i) {
      if (word == names[i]) {
        return i;
      }
    }
    Reject();
  }

  // Field forms of Read and Hex, for a field a caller has split further (a trace knob's
  // `<path>=<value>`).
  template <typename T>
  T Parse(std::string_view field) const {
    T value{};
    const char* end = field.data() + field.size();
    const auto [stop, error] = std::from_chars(field.data(), end, value);
    if (error != std::errc() || stop != end) {
      Reject();
    }
    return value;
  }
  uint64_t Hex(std::string_view field) const;

  // Throws "malformed <format> line <n>: '<line>'" for the current line.
  [[noreturn]] void Reject() const;

 private:
  std::istream& in_;
  const char* format_;
  std::string line_;
  uint64_t number_ = 0;  // 1-based number of line_ in the input.
  size_t pos_ = 0;       // End of the last field read from line_.
};

}  // namespace dfp

#endif  // DFP_SRC_UTIL_TEXT_FORMAT_H_
