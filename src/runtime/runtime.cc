#include "src/runtime/runtime.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "src/backend/compiler.h"
#include "src/ir/builder.h"
#include "src/runtime/hashtable.h"
#include "src/storage/stringheap.h"
#include "src/util/check.h"
#include "src/util/str.h"
#include "src/vcpu/cpu.h"

namespace dfp {
namespace {

// Runtime function ids live far above any query's id space.
constexpr uint32_t kRuntimeIrIdBase = 1u << 30;

CompileOptions RuntimeCompileOptions() {
  CompileOptions options;
  options.optimize = true;
  // Shared functions must never clobber the tag register: a sample taken inside them has to
  // observe the caller's tag. They are therefore always compiled with r15 reserved.
  options.reserve_tag_register = true;
  return options;
}

}  // namespace

Runtime::Runtime(CodeMap* code_map) : code_map_(code_map) {
  RegisterKernelFunctions();
  RegisterSyslibFunctions();
  BuildHtInsert();
  BuildHtInsertLocked();
  BuildHtLookup();
}

void Runtime::BuildHtInsert() {
  IrFunction fn("rt_ht_insert", 2);  // r0 = table, r1 = hash
  IrIdAllocator ids(kRuntimeIrIdBase);
  IrBuilder b(&fn, &ids);
  const Value table = Value::Reg(0);
  const Value hash = Value::Reg(1);

  uint32_t entry = b.CreateBlock("entry");
  uint32_t grow = b.CreateBlock("grow");
  uint32_t link = b.CreateBlock("link");

  b.SetInsertPoint(entry);
  uint32_t bump = b.Load(Opcode::kLoad8, table, static_cast<int32_t>(kHtBumpNext), "bump next");
  uint32_t esz = b.Load(Opcode::kLoad8, table, static_cast<int32_t>(kHtEntrySize));
  uint32_t new_bump = b.Add(Value::Reg(bump), Value::Reg(esz));
  uint32_t end = b.Load(Opcode::kLoad8, table, static_cast<int32_t>(kHtBumpEnd));
  uint32_t fits = b.Binary(Opcode::kCmpLe, Value::Reg(new_bump), Value::Reg(end));
  b.CondBr(Value::Reg(fits), link, grow);

  b.SetInsertPoint(grow);
  b.Call(ht_grow_fn_, {table}, /*has_result=*/false, "extend entry space");
  b.Br(entry);

  b.SetInsertPoint(link);
  b.Store(Value::Reg(new_bump), table, static_cast<int32_t>(kHtBumpNext));
  uint32_t shift = b.Load(Opcode::kLoad8, table, static_cast<int32_t>(kHtDirShift));
  uint32_t index = b.Binary(Opcode::kShr, hash, Value::Reg(shift));
  uint32_t offset = b.Binary(Opcode::kShl, Value::Reg(index), Value::Imm(3));
  uint32_t dir = b.Load(Opcode::kLoad8, table, static_cast<int32_t>(kHtDirBase));
  uint32_t slot = b.Add(Value::Reg(dir), Value::Reg(offset));
  uint32_t head = b.Load(Opcode::kLoad8, Value::Reg(slot), 0, "directory head");
  b.Store(Value::Reg(head), Value::Reg(bump), static_cast<int32_t>(kHtEntryNext));
  b.Store(hash, Value::Reg(bump), static_cast<int32_t>(kHtEntryHash));
  b.Store(Value::Reg(bump), Value::Reg(slot), 0, "publish entry");
  uint32_t count = b.Load(Opcode::kLoad8, table, static_cast<int32_t>(kHtCount));
  uint32_t new_count = b.Add(Value::Reg(count), Value::Imm(1));
  b.Store(Value::Reg(new_count), table, static_cast<int32_t>(kHtCount));
  b.Ret(Value::Reg(bump));

  EmittedFunction emitted = CompileFunction(fn, RuntimeCompileOptions());
  const uint32_t segment =
      code_map_->AddSegment(SegmentKind::kRuntime, "rt_ht_insert", std::move(emitted.code));
  ht_insert_fn_ = code_map_->AddFunction("rt_ht_insert", segment, 0, emitted.spill_slots,
                                         emitted.num_args);
}

void Runtime::BuildHtInsertLocked() {
  // Thread-safe wrapper around rt_ht_insert: takes the stripe lock for the hash before the
  // insert and releases it afterwards. In the simulation workers are interleaved at morsel
  // granularity, so the lock is always free — the spin loop models the uncontended fast path
  // (one locked read-modify-write per insert) and the code structure matches what a real
  // lock-striped build side executes.
  IrFunction fn("rt_ht_insert_locked", 2);  // r0 = table, r1 = hash
  IrIdAllocator ids(kRuntimeIrIdBase + (2u << 20));
  IrBuilder b(&fn, &ids);
  const Value table = Value::Reg(0);
  const Value hash = Value::Reg(1);

  uint32_t entry = b.CreateBlock("entry");
  uint32_t spin = b.CreateBlock("spin");
  uint32_t locked = b.CreateBlock("locked");

  b.SetInsertPoint(entry);
  uint32_t stripe =
      b.Binary(Opcode::kAnd, hash, Value::Imm(static_cast<int64_t>(kHtNumStripes - 1)));
  uint32_t offset = b.Binary(Opcode::kShl, Value::Reg(stripe), Value::Imm(3));
  uint32_t lock_base = b.Add(table, Value::Imm(kHtStripeLocks));
  uint32_t lock_addr = b.Add(Value::Reg(lock_base), Value::Reg(offset));
  b.Br(spin);

  b.SetInsertPoint(spin);
  uint32_t held = b.Load(Opcode::kLoad8, Value::Reg(lock_addr), 0, "acquire stripe lock");
  uint32_t busy = b.CmpNe(Value::Reg(held), Value::Imm(0));
  b.CondBr(Value::Reg(busy), spin, locked);

  b.SetInsertPoint(locked);
  b.Store(Value::Imm(1), Value::Reg(lock_addr), 0, "lock taken");
  uint32_t new_entry = b.Call(ht_insert_fn_, {table, hash}, /*has_result=*/true,
                              "insert under stripe lock");
  b.Store(Value::Imm(0), Value::Reg(lock_addr), 0, "release stripe lock");
  b.Ret(Value::Reg(new_entry));

  EmittedFunction emitted = CompileFunction(fn, RuntimeCompileOptions());
  uint32_t segment = code_map_->AddSegment(SegmentKind::kRuntime, "rt_ht_insert_locked",
                                           std::move(emitted.code));
  ht_insert_locked_fn_ = code_map_->AddFunction("rt_ht_insert_locked", segment, 0,
                                                emitted.spill_slots, emitted.num_args);
}

void Runtime::BuildHtLookup() {
  IrFunction fn("rt_ht_lookup", 2);  // r0 = table, r1 = hash
  IrIdAllocator ids(kRuntimeIrIdBase + (1u << 20));
  IrBuilder b(&fn, &ids);
  const Value table = Value::Reg(0);
  const Value hash = Value::Reg(1);

  uint32_t entry = b.CreateBlock("entry");
  uint32_t check = b.CreateBlock("check");
  uint32_t compare = b.CreateBlock("compare");
  uint32_t advance = b.CreateBlock("advance");
  uint32_t found = b.CreateBlock("found");
  uint32_t miss = b.CreateBlock("miss");

  b.SetInsertPoint(entry);
  uint32_t shift = b.Load(Opcode::kLoad8, table, static_cast<int32_t>(kHtDirShift));
  uint32_t index = b.Binary(Opcode::kShr, hash, Value::Reg(shift));
  uint32_t offset = b.Binary(Opcode::kShl, Value::Reg(index), Value::Imm(3));
  uint32_t dir = b.Load(Opcode::kLoad8, table, static_cast<int32_t>(kHtDirBase));
  uint32_t slot = b.Add(Value::Reg(dir), Value::Reg(offset));
  uint32_t cursor = b.Load(Opcode::kLoad8, Value::Reg(slot), 0, "directory lookup");
  b.Br(check);

  b.SetInsertPoint(check);
  uint32_t is_null = b.CmpEq(Value::Reg(cursor), Value::Imm(0));
  b.CondBr(Value::Reg(is_null), miss, compare);

  b.SetInsertPoint(compare);
  uint32_t entry_hash =
      b.Load(Opcode::kLoad8, Value::Reg(cursor), static_cast<int32_t>(kHtEntryHash));
  uint32_t equal = b.CmpEq(Value::Reg(entry_hash), hash);
  b.CondBr(Value::Reg(equal), found, advance);

  b.SetInsertPoint(advance);
  b.Assign(cursor, Opcode::kLoad8, Value::Reg(cursor), Value::None());
  fn.block(advance).instrs.back().disp = static_cast<int32_t>(kHtEntryNext);
  b.Br(check);

  b.SetInsertPoint(found);
  b.Ret(Value::Reg(cursor));

  b.SetInsertPoint(miss);
  b.Ret(Value::Imm(0));

  EmittedFunction emitted = CompileFunction(fn, RuntimeCompileOptions());
  uint32_t segment =
      code_map_->AddSegment(SegmentKind::kRuntime, "rt_ht_lookup", std::move(emitted.code));
  ht_lookup_fn_ =
      code_map_->AddFunction("rt_ht_lookup", segment, 0, emitted.spill_slots, emitted.num_args);
}

void Runtime::RegisterKernelFunctions() {
  // Hash-table growth: allocate a fresh entry chunk from the region that holds the table, so a
  // service session's table grows inside its own scratch region and a reset releases the chunk.
  // Entry addresses remain stable; only the bump window moves.
  uint32_t grow_segment = code_map_->AddHostSegment(SegmentKind::kKernel, "kernel.ht_grow", 48);
  ht_grow_fn_ = code_map_->AddHostFunction(
      "kernel.ht_grow", grow_segment,
      [this, grow_segment](Cpu& cpu, std::span<const uint64_t> args) -> uint64_t {
        const VAddr table = args[0];
        VMem& mem = cpu.mem();
        const uint64_t entry_size = mem.Read<uint64_t>(table + kHtEntrySize);
        const uint64_t chunk_entries = std::max<uint64_t>(1024, mem.Read<uint64_t>(table + kHtCount));
        const MemRegion* region = mem.FindRegion(table);
        DFP_CHECK(region != nullptr);
        // FindRegion points into the region table, so the offset from region 0 is the id.
        const auto region_id = static_cast<uint32_t>(region - &mem.region(0));
        const VAddr chunk = mem.Alloc(region_id, chunk_entries * entry_size);
        mem.Write<uint64_t>(table + kHtBumpNext, chunk);
        mem.Write<uint64_t>(table + kHtBumpEnd, chunk + chunk_entries * entry_size);
        cpu.HostWork(grow_segment, 400 + chunk_entries / 16);
        return 0;
      },
      1);

  // Stable sort of materialized rows by a registered key specification.
  sort_segment_ = code_map_->AddHostSegment(SegmentKind::kKernel, "kernel.sort", 160);
  sort_fn_ = code_map_->AddHostFunction(
      "kernel.sort", sort_segment_,
      [this](Cpu& cpu, std::span<const uint64_t> args) -> uint64_t {
        const VAddr buffer = args[0];
        const uint64_t rows = args[1];
        const SortSpec& spec = sort_specs_.at(args[2]);
        VMem& mem = cpu.mem();
        if (rows > 1) {
          std::vector<uint32_t> order(rows);
          for (uint64_t i = 0; i < rows; ++i) {
            order[i] = static_cast<uint32_t>(i);
          }
          auto key_less = [&](uint32_t lhs, uint32_t rhs) {
            for (const SortKey& key : spec.keys) {
              const VAddr a = buffer + lhs * spec.row_size + static_cast<uint64_t>(key.offset);
              const VAddr b = buffer + rhs * spec.row_size + static_cast<uint64_t>(key.offset);
              int cmp = 0;
              if (key.type == ColumnType::kDouble) {
                const double va = std::bit_cast<double>(mem.Read<uint64_t>(a));
                const double vb = std::bit_cast<double>(mem.Read<uint64_t>(b));
                cmp = va < vb ? -1 : (va > vb ? 1 : 0);
              } else if (key.type == ColumnType::kString) {
                const uint64_t pa = mem.Read<uint64_t>(a);
                const uint64_t pb = mem.Read<uint64_t>(b);
                std::string_view sa{reinterpret_cast<const char*>(mem.Data(StringRefAddr(pa))),
                                    StringRefLen(pa)};
                std::string_view sb{reinterpret_cast<const char*>(mem.Data(StringRefAddr(pb))),
                                    StringRefLen(pb)};
                cmp = sa.compare(sb);
                cmp = cmp < 0 ? -1 : (cmp > 0 ? 1 : 0);
              } else {
                const int64_t va = mem.Read<int64_t>(a);
                const int64_t vb = mem.Read<int64_t>(b);
                cmp = va < vb ? -1 : (va > vb ? 1 : 0);
              }
              if (cmp != 0) {
                return key.descending ? cmp > 0 : cmp < 0;
              }
            }
            return false;
          };
          std::stable_sort(order.begin(), order.end(), key_less);
          // Apply the permutation through a host-side staging copy.
          std::vector<uint8_t> staging(rows * spec.row_size);
          for (uint64_t i = 0; i < rows; ++i) {
            std::memcpy(staging.data() + i * spec.row_size,
                        mem.Data(buffer + order[i] * spec.row_size), spec.row_size);
          }
          mem.WriteBytes(buffer, staging.data(), staging.size());
        }
        // Modeled cost: comparison-sort work plus the permutation traffic.
        const double logn = rows > 1 ? std::log2(static_cast<double>(rows)) : 1.0;
        cpu.HostWork(sort_segment_,
                     static_cast<uint64_t>(18.0 * static_cast<double>(rows) * logn) +
                         rows * (spec.row_size / 8) * 2);
        for (uint64_t i = 0; i < rows; i += 8) {
          cpu.HostLoad(sort_segment_, buffer + i * spec.row_size);
        }
        return 0;
      },
      3);

  kernel_exec_segment_ = code_map_->AddHostSegment(SegmentKind::kKernel, "kernel.exec", 64);
}

void Runtime::RegisterSyslibFunctions() {
  syslib_segment_ = code_map_->AddHostSegment(SegmentKind::kSyslib, "libc.str", 96);
  str_cmp_fn_ = code_map_->AddHostFunction(
      "sys_str_cmp", syslib_segment_,
      [this](Cpu& cpu, std::span<const uint64_t> args) -> uint64_t {
        VMem& mem = cpu.mem();
        std::string_view a{reinterpret_cast<const char*>(mem.Data(StringRefAddr(args[0]))),
                           StringRefLen(args[0])};
        std::string_view b{reinterpret_cast<const char*>(mem.Data(StringRefAddr(args[1]))),
                           StringRefLen(args[1])};
        cpu.HostWork(syslib_segment_, 10 + std::min(a.size(), b.size()) / 2);
        int cmp = a.compare(b);
        return static_cast<uint64_t>(static_cast<int64_t>(cmp < 0 ? -1 : (cmp > 0 ? 1 : 0)));
      },
      2);
  str_like_fn_ = code_map_->AddHostFunction(
      "sys_str_like", syslib_segment_,
      [this](Cpu& cpu, std::span<const uint64_t> args) -> uint64_t {
        VMem& mem = cpu.mem();
        std::string_view text{reinterpret_cast<const char*>(mem.Data(StringRefAddr(args[0]))),
                              StringRefLen(args[0])};
        const std::string& pattern = patterns_.at(args[1]);
        cpu.HostWork(syslib_segment_, 14 + text.size());
        return LikeMatch(text, pattern) ? 1 : 0;
      },
      2);
}

uint32_t Runtime::RegisterSortSpec(SortSpec spec) {
  DFP_CHECK(spec.row_size > 0);
  sort_specs_.push_back(std::move(spec));
  return static_cast<uint32_t>(sort_specs_.size() - 1);
}

uint32_t Runtime::RegisterPattern(std::string pattern) {
  patterns_.push_back(std::move(pattern));
  return static_cast<uint32_t>(patterns_.size() - 1);
}

}  // namespace dfp
