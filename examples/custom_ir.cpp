// Build a workload directly with the IRBuilder (no MiniC front end) and
// subject it to fault injection — the route for users embedding the library
// around their own code generators.
#include <cstdio>

#include "fi/suite.hpp"
#include "ir/builder.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"

int main() {
  using namespace onebit;
  using ir::Opcode;
  using ir::Operand;

  // sum = sum of i*i for i in [0, 100); print sum
  ir::Module mod;
  ir::IRBuilder b(mod);
  b.createFunction("main", ir::Type::I64, 0);
  const ir::Reg i = b.newReg();
  const ir::Reg sum = b.newReg();

  const auto entry = b.createBlock("entry");
  const auto cond = b.createBlock("cond");
  const auto body = b.createBlock("body");
  const auto done = b.createBlock("done");

  b.setInsertBlock(entry);
  b.emitMoveInto(i, Operand::makeImm(0), ir::Type::I64);
  b.emitMoveInto(sum, Operand::makeImm(0), ir::Type::I64);
  b.emitBr(cond);

  b.setInsertBlock(cond);
  const ir::Reg lt = b.emitBin(Opcode::ICmpLt, Operand::makeReg(i),
                               Operand::makeImm(100), ir::Type::I64);
  b.emitCondBr(Operand::makeReg(lt), body, done);

  b.setInsertBlock(body);
  const ir::Reg sq = b.emitBin(Opcode::Mul, Operand::makeReg(i),
                               Operand::makeReg(i), ir::Type::I64);
  const ir::Reg acc = b.emitBin(Opcode::Add, Operand::makeReg(sum),
                                Operand::makeReg(sq), ir::Type::I64);
  b.emitMoveInto(sum, Operand::makeReg(acc), ir::Type::I64);
  const ir::Reg next = b.emitBin(Opcode::Add, Operand::makeReg(i),
                                 Operand::makeImm(1), ir::Type::I64);
  b.emitMoveInto(i, Operand::makeReg(next), ir::Type::I64);
  b.emitBr(cond);

  b.setInsertBlock(done);
  b.emitPrint(Operand::makeReg(sum), ir::PrintKind::I64);
  b.emitPrint(Operand::makeImm('\n'), ir::PrintKind::Char);
  b.emitRet(Operand::makeImm(0));

  ir::verifyOrThrow(mod);
  std::printf("%s\n", ir::printModule(mod).c_str());

  const fi::Workload workload(mod);
  std::printf("golden output: %s", workload.golden().output.c_str());

  fi::CampaignConfig config;
  config.model = fi::FaultModel::singleBit(fi::FaultDomain::RegisterRead);
  config.experiments = 300;
  const fi::CampaignResult r = fi::runCampaign(workload, config);
  for (unsigned i2 = 0; i2 < stats::kOutcomeCount; ++i2) {
    const auto o = static_cast<stats::Outcome>(i2);
    std::printf("%-9s %zu\n",
                std::string(stats::outcomeName(o)).c_str(),
                r.counts.count(o));
  }
  return 0;
}
