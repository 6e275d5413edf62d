// Column types of the relational engine and their physical encodings.
//
// All values are carried as 64-bit payloads in registers: decimals are scale-2 integers, dates
// are days since epoch (stored as 4 bytes), strings are packed references into the string heap,
// doubles are bit-cast. Columns store 4 or 8 bytes per row accordingly.
#ifndef DFP_SRC_STORAGE_TYPES_H_
#define DFP_SRC_STORAGE_TYPES_H_

#include <cstdint>

#include "src/ir/opcode.h"

namespace dfp {

enum class ColumnType : uint8_t {
  kInt64,
  kDecimal,  // Scale-2 fixed point in an int64.
  kDate,     // Days since 1970-01-01, stored as int32.
  kString,   // Packed reference into the string heap (interned: equality is payload equality).
  kDouble,   // IEEE double, bit-cast in an int64 payload.
  kBool,     // 0/1 in an int64 payload, stored as 1 byte.
};

inline uint32_t ColumnWidth(ColumnType type) {
  switch (type) {
    case ColumnType::kDate:
      return 4;
    case ColumnType::kBool:
      return 1;
    default:
      return 8;
  }
}

inline Opcode LoadOpcodeFor(ColumnType type) {
  switch (type) {
    case ColumnType::kDate:
      return Opcode::kLoad4;
    case ColumnType::kBool:
      return Opcode::kLoad1;
    default:
      return Opcode::kLoad8;
  }
}

const char* ColumnTypeName(ColumnType type);

}  // namespace dfp

#endif  // DFP_SRC_STORAGE_TYPES_H_
