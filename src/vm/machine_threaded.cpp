// The direct-threaded execution loop (the DispatchBackend::Threaded fast
// path). Executes the pre-decoded stream of vm/threaded.hpp with one
// computed `goto *label` per instruction (the GCC/Clang labels-as-values
// extension).
//
// Semantics are a field-for-field replica of the hook-free, non-capturing,
// non-hashing instantiation of Machine::loop() in vm/machine.cpp — the
// differential backend fuzzer (tests/dispatch_differential_test.cpp) holds
// the two bit-identical over outputs, traps, counters, and the full post-run
// machine state hash. Invariants the replica must keep:
//   * the fuel check fires after fetch, before execution (a run that ends
//     FuelExhausted has NOT executed the fetched instruction);
//   * readCandidates_ counts fetched instructions with >= 1 register
//     operand; writeCandidates_ counts dest writes except Const/FrameAddr,
//     with Call's return value counted at Ret; storeCandidates_ counts only
//     committed stores;
//   * every exit resynchronizes the top frame's (block, ip) from the
//     current Op's provenance, so capture()/computeStateHash()/resume see
//     exactly the coordinates the reference loop would leave;
//   * the caller's coordinates are synchronized BEFORE pushFrame, keeping
//     the "caller.ip - 1 is the Call" invariant snapshots rely on.
#include <cstdint>
#include <limits>
#include <span>

#include "vm/machine.hpp"
#include "vm/threaded.hpp"

namespace onebit::vm::detail {

// OB_CASE introduces one opcode's body (a label); OB_NEXT ends it by
// fetching the next instruction and dispatching with `goto *label`.
#define OB_CASE(name) Lbl_##name:
#define OB_NEXT()                       \
  do {                                  \
    op = &fnOps[pc++];                  \
    if (++instrs > fuel) {              \
      goto fuel_exhausted;              \
    }                                   \
    reads += op->countsRead;            \
    goto* op->label;                    \
  } while (0)

// Operand slot -> value (register read or immediate).
#define OB_VAL(A) ((A).reg != ir::kNoReg ? regs[(A).reg] : (A).imm)

// Destination write with the reference loop's gating: skipped entirely for
// dest-less instructions, counted per the pre-decoded flag.
#define OB_WRITE(V)                  \
  do {                               \
    if (op->dest != ir::kNoReg) {    \
      writes += op->countsWrite;     \
      regs[op->dest] = (V);          \
    }                                \
  } while (0)

// The instruction/candidate counters live in locals so the hot path never
// round-trips them through the Machine (nothing called from this loop reads
// them); every exit — and every callback that could observe or snapshot
// machine state — publishes them back first.
#define OB_FLUSH()                  \
  do {                              \
    m.instructions_ = instrs;       \
    m.readCandidates_ = reads;      \
    m.writeCandidates_ = writes;    \
    m.storeCandidates_ = stores;    \
  } while (0)

#define OB_TRAP(K)    \
  do {                \
    m.trap(K);        \
    goto sync_exit;   \
  } while (0)

void runThreadedLoop(Machine* mp, const ThreadedCode* codep,
                     const void* const** labelsOut) {
  static const void* const kLabels[ThreadedCode::kNumOpcodes] = {
      &&Lbl_Add,     &&Lbl_Sub,    &&Lbl_Mul,    &&Lbl_SDiv,   &&Lbl_SRem,
      &&Lbl_And,     &&Lbl_Or,     &&Lbl_Xor,    &&Lbl_Shl,    &&Lbl_LShr,
      &&Lbl_AShr,    &&Lbl_FAdd,   &&Lbl_FSub,   &&Lbl_FMul,   &&Lbl_FDiv,
      &&Lbl_ICmpEq,  &&Lbl_ICmpNe, &&Lbl_ICmpLt, &&Lbl_ICmpLe, &&Lbl_ICmpGt,
      &&Lbl_ICmpGe,  &&Lbl_FCmpEq, &&Lbl_FCmpNe, &&Lbl_FCmpLt, &&Lbl_FCmpLe,
      &&Lbl_FCmpGt,  &&Lbl_FCmpGe, &&Lbl_SIToFP, &&Lbl_FPToSI, &&Lbl_Load,
      &&Lbl_Store,   &&Lbl_FrameAddr, &&Lbl_Br,  &&Lbl_CondBr, &&Lbl_Call,
      &&Lbl_Ret,     &&Lbl_Const,  &&Lbl_Move,   &&Lbl_Intrinsic,
      &&Lbl_Print,   &&Lbl_Alloc,  &&Lbl_Abort,
  };
  if (labelsOut != nullptr) {
    *labelsOut = kLabels;
    return;
  }

  Machine& m = *mp;
  const ThreadedCode& code = *codep;
  const ThreadedCode::Arg* const argPool = code.args.data();
  const std::uint64_t fuel = m.limits_.maxInstructions;

  // Per-frame execution state, cached in locals and refreshed on every
  // call/ret (regs_ only reallocates there). Declared without initializers
  // so the computed gotos below do not jump past an initialization.
  const ThreadedCode::FnCode* fn;
  const ThreadedCode::Op* fnOps;
  const ThreadedCode::Op* op;
  std::uint64_t* regs;
  std::uint64_t frameBase;
  std::uint32_t pc;
  TrapKind t;
  std::uint64_t scratch[ThreadedCode::kMaxOperands];
  std::uint64_t instrs = m.instructions_;
  std::uint64_t reads = m.readCandidates_;
  std::uint64_t writes = m.writeCandidates_;
  std::uint64_t stores = m.storeCandidates_;

  {
    // Entry — possibly mid-block, mid-call-stack (snapshot resume, or the
    // hooked reference loop handing over after exhaustion): the stream
    // position of (block, ip) is blockStart[block] + ip.
    const auto& frame = m.frames_.back();
    fn = &code.fns[static_cast<std::size_t>(frame.fn -
                                            m.mod_.functions.data())];
    fnOps = code.ops.data() + fn->opBase;
    regs = m.regs_.data() + frame.regBase;
    frameBase = frame.frameBase;
    pc = fn->blockStart[frame.block] + frame.ip;
  }

  OB_NEXT();

  OB_CASE(Add) {
    const ThreadedCode::Arg* a = argPool + op->argBase;
    OB_WRITE(OB_VAL(a[0]) + OB_VAL(a[1]));
    OB_NEXT();
  }
  OB_CASE(Sub) {
    const ThreadedCode::Arg* a = argPool + op->argBase;
    OB_WRITE(OB_VAL(a[0]) - OB_VAL(a[1]));
    OB_NEXT();
  }
  OB_CASE(Mul) {
    const ThreadedCode::Arg* a = argPool + op->argBase;
    OB_WRITE(OB_VAL(a[0]) * OB_VAL(a[1]));
    OB_NEXT();
  }
  OB_CASE(SDiv) {
    const ThreadedCode::Arg* a = argPool + op->argBase;
    const std::uint64_t v0 = OB_VAL(a[0]);
    const auto num = ir::asI64(v0);
    const auto den = ir::asI64(OB_VAL(a[1]));
    if (den == 0) OB_TRAP(TrapKind::DivByZero);
    if (den == -1 && num == std::numeric_limits<std::int64_t>::min()) {
      OB_WRITE(v0);  // wraps, like x86 would fault; define it
    } else {
      OB_WRITE(ir::fromI64(num / den));
    }
    OB_NEXT();
  }
  OB_CASE(SRem) {
    const ThreadedCode::Arg* a = argPool + op->argBase;
    const auto num = ir::asI64(OB_VAL(a[0]));
    const auto den = ir::asI64(OB_VAL(a[1]));
    if (den == 0) OB_TRAP(TrapKind::DivByZero);
    OB_WRITE(den == -1 ? 0 : ir::fromI64(num % den));
    OB_NEXT();
  }
  OB_CASE(And) {
    const ThreadedCode::Arg* a = argPool + op->argBase;
    OB_WRITE(OB_VAL(a[0]) & OB_VAL(a[1]));
    OB_NEXT();
  }
  OB_CASE(Or) {
    const ThreadedCode::Arg* a = argPool + op->argBase;
    OB_WRITE(OB_VAL(a[0]) | OB_VAL(a[1]));
    OB_NEXT();
  }
  OB_CASE(Xor) {
    const ThreadedCode::Arg* a = argPool + op->argBase;
    OB_WRITE(OB_VAL(a[0]) ^ OB_VAL(a[1]));
    OB_NEXT();
  }
  OB_CASE(Shl) {
    const ThreadedCode::Arg* a = argPool + op->argBase;
    OB_WRITE(OB_VAL(a[0]) << (OB_VAL(a[1]) & 63U));
    OB_NEXT();
  }
  OB_CASE(LShr) {
    const ThreadedCode::Arg* a = argPool + op->argBase;
    OB_WRITE(OB_VAL(a[0]) >> (OB_VAL(a[1]) & 63U));
    OB_NEXT();
  }
  OB_CASE(AShr) {
    const ThreadedCode::Arg* a = argPool + op->argBase;
    OB_WRITE(ir::fromI64(ir::asI64(OB_VAL(a[0])) >> (OB_VAL(a[1]) & 63U)));
    OB_NEXT();
  }
  OB_CASE(FAdd) {
    const ThreadedCode::Arg* a = argPool + op->argBase;
    OB_WRITE(ir::fromF64(ir::asF64(OB_VAL(a[0])) + ir::asF64(OB_VAL(a[1]))));
    OB_NEXT();
  }
  OB_CASE(FSub) {
    const ThreadedCode::Arg* a = argPool + op->argBase;
    OB_WRITE(ir::fromF64(ir::asF64(OB_VAL(a[0])) - ir::asF64(OB_VAL(a[1]))));
    OB_NEXT();
  }
  OB_CASE(FMul) {
    const ThreadedCode::Arg* a = argPool + op->argBase;
    OB_WRITE(ir::fromF64(ir::asF64(OB_VAL(a[0])) * ir::asF64(OB_VAL(a[1]))));
    OB_NEXT();
  }
  OB_CASE(FDiv) {
    const ThreadedCode::Arg* a = argPool + op->argBase;
    OB_WRITE(ir::fromF64(ir::asF64(OB_VAL(a[0])) / ir::asF64(OB_VAL(a[1]))));
    OB_NEXT();
  }
  OB_CASE(ICmpEq) {
    const ThreadedCode::Arg* a = argPool + op->argBase;
    OB_WRITE(OB_VAL(a[0]) == OB_VAL(a[1]) ? 1 : 0);
    OB_NEXT();
  }
  OB_CASE(ICmpNe) {
    const ThreadedCode::Arg* a = argPool + op->argBase;
    OB_WRITE(OB_VAL(a[0]) != OB_VAL(a[1]) ? 1 : 0);
    OB_NEXT();
  }
  OB_CASE(ICmpLt) {
    const ThreadedCode::Arg* a = argPool + op->argBase;
    OB_WRITE(ir::asI64(OB_VAL(a[0])) < ir::asI64(OB_VAL(a[1])) ? 1 : 0);
    OB_NEXT();
  }
  OB_CASE(ICmpLe) {
    const ThreadedCode::Arg* a = argPool + op->argBase;
    OB_WRITE(ir::asI64(OB_VAL(a[0])) <= ir::asI64(OB_VAL(a[1])) ? 1 : 0);
    OB_NEXT();
  }
  OB_CASE(ICmpGt) {
    const ThreadedCode::Arg* a = argPool + op->argBase;
    OB_WRITE(ir::asI64(OB_VAL(a[0])) > ir::asI64(OB_VAL(a[1])) ? 1 : 0);
    OB_NEXT();
  }
  OB_CASE(ICmpGe) {
    const ThreadedCode::Arg* a = argPool + op->argBase;
    OB_WRITE(ir::asI64(OB_VAL(a[0])) >= ir::asI64(OB_VAL(a[1])) ? 1 : 0);
    OB_NEXT();
  }
  OB_CASE(FCmpEq) {
    const ThreadedCode::Arg* a = argPool + op->argBase;
    OB_WRITE(ir::asF64(OB_VAL(a[0])) == ir::asF64(OB_VAL(a[1])) ? 1 : 0);
    OB_NEXT();
  }
  OB_CASE(FCmpNe) {
    const ThreadedCode::Arg* a = argPool + op->argBase;
    OB_WRITE(ir::asF64(OB_VAL(a[0])) != ir::asF64(OB_VAL(a[1])) ? 1 : 0);
    OB_NEXT();
  }
  OB_CASE(FCmpLt) {
    const ThreadedCode::Arg* a = argPool + op->argBase;
    OB_WRITE(ir::asF64(OB_VAL(a[0])) < ir::asF64(OB_VAL(a[1])) ? 1 : 0);
    OB_NEXT();
  }
  OB_CASE(FCmpLe) {
    const ThreadedCode::Arg* a = argPool + op->argBase;
    OB_WRITE(ir::asF64(OB_VAL(a[0])) <= ir::asF64(OB_VAL(a[1])) ? 1 : 0);
    OB_NEXT();
  }
  OB_CASE(FCmpGt) {
    const ThreadedCode::Arg* a = argPool + op->argBase;
    OB_WRITE(ir::asF64(OB_VAL(a[0])) > ir::asF64(OB_VAL(a[1])) ? 1 : 0);
    OB_NEXT();
  }
  OB_CASE(FCmpGe) {
    const ThreadedCode::Arg* a = argPool + op->argBase;
    OB_WRITE(ir::asF64(OB_VAL(a[0])) >= ir::asF64(OB_VAL(a[1])) ? 1 : 0);
    OB_NEXT();
  }
  OB_CASE(SIToFP) {
    const ThreadedCode::Arg* a = argPool + op->argBase;
    OB_WRITE(ir::fromF64(static_cast<double>(ir::asI64(OB_VAL(a[0])))));
    OB_NEXT();
  }
  OB_CASE(FPToSI) {
    const ThreadedCode::Arg* a = argPool + op->argBase;
    OB_WRITE(ir::fromI64(saturatingFpToSi(ir::asF64(OB_VAL(a[0])))));
    OB_NEXT();
  }
  OB_CASE(Load) {
    const ThreadedCode::Arg* a = argPool + op->argBase;
    t = TrapKind::None;
    const std::uint64_t v = m.mem_.load(OB_VAL(a[0]), op->aux, t);
    if (t != TrapKind::None) OB_TRAP(t);
    OB_WRITE(v);
    OB_NEXT();
  }
  OB_CASE(Store) {
    const ThreadedCode::Arg* a = argPool + op->argBase;
    t = TrapKind::None;
    m.mem_.store(OB_VAL(a[0]), op->aux, OB_VAL(a[1]), t);
    if (t != TrapKind::None) OB_TRAP(t);
    // Only committed stores are MemoryData candidates.
    ++stores;
    OB_NEXT();
  }
  OB_CASE(FrameAddr) {
    OB_WRITE(frameBase + op->imm);
    OB_NEXT();
  }
  OB_CASE(Br) {
    pc = op->target;
    OB_NEXT();
  }
  OB_CASE(CondBr) {
    const ThreadedCode::Arg* a = argPool + op->argBase;
    pc = OB_VAL(a[0]) != 0 ? op->target : op->aux;
    OB_NEXT();
  }
  OB_CASE(Call) {
    const ThreadedCode::Arg* a = argPool + op->argBase;
    const unsigned n = op->nops;
    for (unsigned i = 0; i < n; ++i) scratch[i] = OB_VAL(a[i]);
    {
      // Park the caller at the instruction after the call BEFORE pushing:
      // pushFrame may trap (depth/stack overflow), and snapshots derive
      // pendingCall from "caller.ip - 1 is the Call".
      auto& caller = m.frames_.back();
      caller.block = op->block;
      caller.ip = op->ip + 1;
      const ir::Instr* callInstr =
          &caller.fn->blocks[op->block].instrs[op->ip];
      m.pushFrame(op->aux, std::span(scratch, n), callInstr);
    }
    if (m.result_.status != ExecStatus::Ok) {
      OB_FLUSH();
      return;  // push trapped; caller coordinates already synced
    }
    {
      const auto& callee = m.frames_.back();
      fn = &code.fns[op->aux];
      fnOps = code.ops.data() + fn->opBase;
      regs = m.regs_.data() + callee.regBase;
      frameBase = callee.frameBase;
      pc = 0;  // blockStart[0] is always 0: execution starts at the entry block
    }
    OB_NEXT();
  }
  OB_CASE(Ret) {
    const std::uint64_t retVal =
        op->nops > 0 ? OB_VAL(argPool[op->argBase]) : 0;
    const ir::Instr* call = m.frames_.back().pendingCall;
    m.popFrame();
    if (m.frames_.empty()) {
      m.result_.returnValue = ir::asI64(retVal);
      m.halted_ = true;
      OB_FLUSH();
      return;  // main returned
    }
    {
      const auto& caller = m.frames_.back();
      fn = &code.fns[static_cast<std::size_t>(caller.fn -
                                              m.mod_.functions.data())];
      fnOps = code.ops.data() + fn->opBase;
      regs = m.regs_.data() + caller.regBase;
      frameBase = caller.frameBase;
      pc = fn->blockStart[caller.block] + caller.ip;
    }
    if (call != nullptr && call->dest != ir::kNoReg) {
      ++writes;
      regs[call->dest] = retVal;
    }
    OB_NEXT();
  }
  OB_CASE(Const) {
    OB_WRITE(op->imm);
    OB_NEXT();
  }
  OB_CASE(Move) {
    const ThreadedCode::Arg* a = argPool + op->argBase;
    OB_WRITE(OB_VAL(a[0]));
    OB_NEXT();
  }
  OB_CASE(Intrinsic) {
    const ThreadedCode::Arg* a = argPool + op->argBase;
    const unsigned n = op->nops;
    for (unsigned i = 0; i < n; ++i) scratch[i] = OB_VAL(a[i]);
    OB_WRITE(m.applyIntrinsic(op->intrinsic, std::span(scratch, n)));
    OB_NEXT();
  }
  OB_CASE(Print) {
    const ThreadedCode::Arg* a = argPool + op->argBase;
    m.printValue(op->printKind, OB_VAL(a[0]));
    OB_NEXT();
  }
  OB_CASE(Alloc) {
    const ThreadedCode::Arg* a = argPool + op->argBase;
    t = TrapKind::None;
    const std::uint64_t v = m.mem_.alloc(ir::asI64(OB_VAL(a[0])), t);
    if (t != TrapKind::None) OB_TRAP(t);
    OB_WRITE(v);
    OB_NEXT();
  }
  OB_CASE(Abort) {
    m.trap(TrapKind::Abort);
    goto sync_exit;
  }

fuel_exhausted:
  m.result_.status = ExecStatus::FuelExhausted;
  // fall through to sync_exit
sync_exit : {
  // Leave the top frame's coordinates exactly where the reference loop
  // would: the fetched instruction's slot, ip already advanced past it.
  auto& frame = m.frames_.back();
  frame.block = op->block;
  frame.ip = op->ip + 1;
  OB_FLUSH();
}
}

#undef OB_CASE
#undef OB_NEXT
#undef OB_VAL
#undef OB_WRITE
#undef OB_FLUSH
#undef OB_TRAP

}  // namespace onebit::vm::detail
