// Pre-decoded direct-threaded code for the fast hook-free execution loop.
//
// The reference interpreter (vm/machine.cpp) re-reads each ir::Instr on
// every dynamic execution: a vector of variant operands, attribute fields
// spread over a cache line, and one indirect branch through a switch. The
// threaded backend pays that decode cost ONCE per module: every function's
// blocks are flattened into a dense stream of fixed-size Ops — computed-goto
// label pointer, pre-resolved branch targets (stream indices), operand slots
// in a shared contiguous pool, and pre-computed candidate-counter flags —
// which the loop in vm/machine_threaded.cpp executes with one `goto *p` per
// instruction (the GCC/Clang labels-as-values extension).
//
// Layout invariant: a function's Ops appear block by block in block order,
// one Op per ir::Instr, so the stream index of (block, ip) is
// `blockStart[block] + ip`. That makes mid-block entry trivial — a Machine
// resumed from a snapshot (or switching over from the hooked reference loop
// mid-run) computes its stream position directly from the frame's
// block/ip coordinates, and Ret re-enters the caller the same way.
//
// Decoded streams are immutable and shared: ThreadedCode::get() keeps a
// small registry keyed by module address, validated by a full structural
// fingerprint of every field the decode reads — an address reused by a new
// module re-decodes instead of replaying stale code.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ir/instr.hpp"
#include "ir/module.hpp"

namespace onebit::vm {

class ThreadedCode {
 public:
  static constexpr std::size_t kNumOpcodes =
      static_cast<std::size_t>(ir::Opcode::Abort) + 1;
  /// Operand slots per instruction supported by both execution loops (the
  /// reference loop gathers into a fixed 8-slot array). Modules exceeding
  /// this decode to nullptr and run on the reference loop.
  static constexpr std::size_t kMaxOperands = 8;

  /// One operand slot: a register index, or kNoReg + the immediate value.
  struct Arg {
    std::uint32_t reg = ir::kNoReg;
    std::uint64_t imm = 0;
  };

  /// One decoded instruction. `label` is its opcode's computed-goto target.
  struct Op {
    const void* label = nullptr;
    std::uint64_t imm = 0;       ///< Const value / FrameAddr offset bits
    std::uint32_t target = 0;    ///< Br/CondBr taken target (fn-local index)
    std::uint32_t aux = 0;       ///< CondBr false target / callee / width
    std::uint32_t dest = ir::kNoReg;
    std::uint32_t argBase = 0;   ///< first slot in the shared Arg pool
    std::uint32_t block = 0;     ///< provenance: source block id ...
    std::uint32_t ip = 0;        ///< ... and instruction index within it
    std::uint8_t nops = 0;
    std::uint8_t countsRead = 0;   ///< 1 = reads >= 1 register operand
    std::uint8_t countsWrite = 0;  ///< 1 = dest write is a write candidate
    ir::IntrinsicKind intrinsic = ir::IntrinsicKind::Sqrt;
    ir::PrintKind printKind = ir::PrintKind::I64;
  };

  /// One function's slice of the stream.
  struct FnCode {
    std::uint32_t opBase = 0;  ///< index of the function's first Op in ops
    std::vector<std::uint32_t> blockStart;  ///< fn-local Op index per block
  };

  std::vector<Op> ops;
  std::vector<Arg> args;
  std::vector<FnCode> fns;
  std::uint64_t fingerprint = 0;  ///< structuralFingerprint at build time

  /// The decoded stream for `mod`, from the registry when the cached entry's
  /// fingerprint still matches, freshly built otherwise. Returns nullptr for
  /// modules the threaded loop cannot run (an instruction with more than
  /// kMaxOperands operands); callers then use the reference loop.
  /// Thread-safe; the returned stream is immutable and outlives the module
  /// reference (callers keep the shared_ptr).
  static std::shared_ptr<const ThreadedCode> get(const ir::Module& mod);

  /// Hash of every module field the decode reads (functions, blocks,
  /// instruction attributes, operands). Equal fingerprints produce
  /// bit-identical decoded streams, which makes the address-keyed registry
  /// safe against module destruction + address reuse.
  static std::uint64_t structuralFingerprint(const ir::Module& mod) noexcept;
};

class Machine;

namespace detail {

/// The direct-threaded execution loop (defined in vm/machine_threaded.cpp).
/// Normal mode: runs `m` (which must be between instructions, hook-free,
/// non-capturing, non-hashing) to completion on `code`. Label-collection
/// mode: when `labelsOut` is non-null, stores the loop's computed-goto label
/// table (indexed by ir::Opcode) and returns without touching `m`/`code`
/// (both may be null).
void runThreadedLoop(Machine* m, const ThreadedCode* code,
                     const void* const** labelsOut);

}  // namespace detail

}  // namespace onebit::vm
