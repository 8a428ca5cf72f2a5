// Sweep the max-MBF parameter on one benchmark program (a one-program
// version of the paper's Fig. 2 / Fig. 4 analysis).
//
//   ./multibit_sweep [program] [win-size]
//   ONEBIT_EXPERIMENTS=1000 ./multibit_sweep crc32 1
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "fi/suite.hpp"
#include "progs/registry.hpp"
#include "util/env.hpp"

int main(int argc, char** argv) {
  using namespace onebit;
  const char* progName = argc > 1 ? argv[1] : "crc32";
  const std::uint64_t win =
      argc > 2 ? static_cast<std::uint64_t>(std::atoll(argv[2])) : 1;

  const progs::ProgramInfo* info = progs::findProgram(progName);
  if (info == nullptr) {
    std::fprintf(stderr, "unknown program '%s'\n", progName);
    return 1;
  }
  const ir::Module mod = progs::compileProgram(*info);
  const fi::Workload workload(mod);
  const auto n =
      static_cast<std::size_t>(util::envInt("ONEBIT_EXPERIMENTS", 400));

  // All 18 campaigns run as one suite: their shards share one thread pool.
  constexpr unsigned kMaxMbf[] = {1, 2, 3, 4, 5, 6, 8, 10, 30};
  constexpr fi::FaultDomain kDomains[] = {fi::FaultDomain::RegisterRead,
                                          fi::FaultDomain::RegisterWrite};
  fi::CampaignSuite suite({.shardSize = util::envSize("ONEBIT_SHARD_SIZE")});
  for (const fi::FaultDomain domain : kDomains) {
    for (const unsigned m : kMaxMbf) {
      const fi::FaultModel model =
          m == 1 ? fi::FaultModel::singleBit(domain)
                 : fi::FaultModel::multiBitTemporal(domain, m,
                                                    fi::WinSize::fixed(win));
      suite.addCell(model.label(), workload, model, n, 0xace0fba5eULL + m);
    }
  }
  const std::vector<fi::CampaignResult> results = suite.run();

  std::printf("%s: SDC%% vs max-MBF at win-size=%llu (%zu experiments "
              "per campaign)\n\n",
              progName, static_cast<unsigned long long>(win), n);
  std::printf("%-16s %-8s %10s %10s\n", "technique", "max-MBF", "SDC%", "+/-");
  std::size_t cell = 0;
  for (const fi::FaultDomain domain : kDomains) {
    for (const unsigned m : kMaxMbf) {
      const auto sdc = results[cell++].sdc();
      std::printf("%-16s %-8u %9.2f%% %9.2f%%\n",
                  fi::domainName(domain).data(), m, sdc.fraction * 100.0,
                  sdc.ciHalfWidth * 100.0);
    }
    std::printf("\n");
  }
  return 0;
}
