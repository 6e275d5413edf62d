// Shared pieces of dfp's line-oriented text formats (tagging dictionaries, sample streams,
// service profiles, traces, plan blocks).
//
// Every format has exactly one version, named by its first line; a reader accepts that header
// and refuses any other — an older or newer version, or another format — with one message.
// 64-bit keys, hashes, and IEEE-754 bit patterns of doubles travel as exactly 16 lowercase hex
// digits, so they round-trip bit for bit.
#ifndef DFP_SRC_UTIL_TEXT_FORMAT_H_
#define DFP_SRC_UTIL_TEXT_FORMAT_H_

#include <bit>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

namespace dfp {

// Consumes the first line of `in`; throws dfp::Error unless it is exactly `header`.
void ExpectHeader(std::istream& in, std::string_view header);

// The rest of a line after its fixed fields: a free-text name or label, without the one space
// that separates it from the last field.
std::string RestOfLine(std::istream& line);

// `value` as exactly 16 lowercase hex digits, zero-padded.
std::string Hex16(uint64_t value);

// Inverse of Hex16. Accepts exactly 16 lowercase hex digits; throws dfp::Error otherwise.
uint64_t ParseHex16(std::string_view token);

inline uint64_t DoubleBits(double value) { return std::bit_cast<uint64_t>(value); }
inline double BitsToDouble(uint64_t bits) { return std::bit_cast<double>(bits); }

}  // namespace dfp

#endif  // DFP_SRC_UTIL_TEXT_FORMAT_H_
