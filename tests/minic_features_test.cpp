// Second wave of MiniC end-to-end tests: language corners the benchmark
// programs rely on, plus flip-width fault-model behaviour.
#include <string>

#include <gtest/gtest.h>

#include "fi/suite.hpp"
#include "lang/compile.hpp"
#include "vm/interpreter.hpp"

namespace onebit {
namespace {

std::string runOut(const std::string& src) {
  const ir::Module mod = lang::compileMiniC(src);
  vm::ExecLimits limits;
  limits.maxInstructions = 2'000'000;
  const vm::ExecResult r = vm::execute(mod, limits);
  EXPECT_EQ(r.status, vm::ExecStatus::Ok);
  return r.output;
}

struct Case {
  const char* name;
  const char* source;
  const char* expected;
};

class MiniCFeatures : public ::testing::TestWithParam<Case> {};

TEST_P(MiniCFeatures, OutputMatches) {
  const Case& c = GetParam();
  EXPECT_EQ(runOut(c.source), c.expected) << c.name;
}

const Case kCases[] = {
    // -- globals of every flavor --
    {"global_char_scalar",
     "char c = 'Q'; int main() { print_c(c); c = 'R'; print_c(c); return 0; }",
     "QR"},
    {"global_double_scalar_mutation",
     "double d = 1.5; int main() { d = d * 2.0; print_f(d); return 0; }",
     "3.000000"},
    {"global_hex_init",
     "int mask = 0xFF00; int main() { print_i(mask >> 8); return 0; }",
     "255"},
    {"global_char_array_explicit_size",
     "char buf[8] = \"ab\"; int main() { print_i(buf[1]); print_i(buf[5]); "
     "return 0; }",
     "980"},
    {"global_array_inferred_size",
     "int v[] = {3, 1, 4, 1, 5}; "
     "int main() { int s = 0; for (int i = 0; i < 5; i++) s += v[i]; "
     "print_i(s); return 0; }",
     "14"},
    // -- operators / conversions --
    {"char_comparisons",
     "int main() { char a = 'a'; if (a >= 'a' && a <= 'z') { print_s(\"lower\"); }"
     " return 0; }",
     "lower"},
    {"double_condition",
     "int main() { double d = 0.1; if (d) { print_i(1); } "
     "while (d > 0.05) { d = d - 0.1; } print_f(d); return 0; }",
     "10.000000"},
    {"not_on_double",
     "int main() { double z = 0.0; print_i(!z); print_i(!1.5); return 0; }",
     "10"},
    {"negative_double_literal_fold",
     "double g = -2.5 * 2.0; int main() { print_f(g); return 0; }",
     "-5.000000"},
    {"shift_precedence_vs_add",
     "int main() { print_i(1 << 2 + 1); return 0; }", "8"},  // 1 << 3
    {"bitand_precedence_vs_eq",
     "int main() { print_i(3 & 1 == 1); return 0; }", "1"},  // 3 & (1==1)
    {"ternary_in_arg",
     "int main() { print_i(1 ? 2 : 3); print_i((0 ? 2 : 3) + 1); return 0; }",
     "24"},
    {"chained_compound",
     "int main() { int x = 1; int y = 2; x += y += 3; print_i(x); print_i(y);"
     " return 0; }",
     "65"},
    {"modulo_in_loop_guard",
     "int main() { int hits = 0; for (int i = 1; i <= 30; i++) "
     "{ if (i % 3 == 0 && i % 5 == 0) hits++; } print_i(hits); return 0; }",
     "2"},
    // -- functions --
    {"eight_params",
     "int sum8(int a, int b, int c, int d, int e, int f, int g, int h) "
     "{ return a + b + c + d + e + f + g + h; } "
     "int main() { print_i(sum8(1, 2, 3, 4, 5, 6, 7, 8)); return 0; }",
     "36"},
    {"double_params_and_return",
     "double mix(double a, int b) { return a * (double)b; } "
     "int main() { print_f(mix(1.5, 4)); return 0; }",
     "6.000000"},
    {"char_param_promotion",
     "int code(char c) { return c + 1; } "
     "int main() { print_i(code('A')); return 0; }",
     "66"},
    {"pointer_roundtrip_through_calls",
     "void put(int a[], int i, int v) { a[i] = v; } "
     "int get(int a[], int i) { return a[i]; } "
     "int t[4]; int main() { put(t, 2, 99); print_i(get(t, 2)); return 0; }",
     "99"},
    {"early_return_in_loop",
     "int find(int a[], int n, int key) { for (int i = 0; i < n; i++) "
     "{ if (a[i] == key) { return i; } } return -1; } "
     "int xs[4] = {9, 8, 7, 6}; "
     "int main() { print_i(find(xs, 4, 7)); print_i(find(xs, 4, 5)); "
     "return 0; }",
     "2-1"},
    {"recursion_with_array_state",
     "int memo[16]; "
     "int fib(int n) { if (n < 2) { return n; } if (memo[n] != 0) "
     "{ return memo[n]; } memo[n] = fib(n - 1) + fib(n - 2); return memo[n]; }"
     " int main() { print_i(fib(15)); return 0; }",
     "610"},
    // -- allocation --
    {"alloc_double_elements",
     "int main() { double* p = alloc_double(3); p[0] = 0.5; p[2] = p[0] * 4.0;"
     " print_f(p[2]); print_f(p[1]); return 0; }",
     "2.0000000.000000"},
    {"alloc_is_zeroed",
     "int main() { int* p = alloc_int(8); int s = 0; "
     "for (int i = 0; i < 8; i++) s += p[i]; print_i(s); return 0; }",
     "0"},
    {"two_allocs_disjoint",
     "int main() { int* a = alloc_int(2); int* b = alloc_int(2); a[1] = 5; "
     "b[0] = 7; print_i(a[1] + b[0]); return 0; }",
     "12"},
    // -- control-flow shapes from the benchmarks --
    {"do_style_loop_via_while",
     "int main() { int i = 0; while (1) { i++; if (i >= 5) { break; } } "
     "print_i(i); return 0; }",
     "5"},
    {"nested_break_only_inner",
     "int main() { int c = 0; for (int i = 0; i < 3; i++) { "
     "for (int j = 0; j < 10; j++) { if (j == 2) { break; } c++; } } "
     "print_i(c); return 0; }",
     "6"},
    {"continue_in_while",
     "int main() { int i = 0; int s = 0; while (i < 6) { i++; "
     "if (i % 2) { continue; } s += i; } print_i(s); return 0; }",
     "12"},
    {"dead_code_after_break",
     "int main() { for (;;) { break; print_i(9); } print_i(1); return 0; }",
     "1"},
};

INSTANTIATE_TEST_SUITE_P(
    Table, MiniCFeatures, ::testing::ValuesIn(kCases),
    [](const ::testing::TestParamInfo<Case>& info) {
      return std::string(info.param.name);
    });

// --- flip-width fault model -------------------------------------------------

TEST(FlipWidth, ConfinedFlipsStayInLowBits) {
  const char* src =
      "int main() { int s = 0; for (int i = 0; i < 200; i++) { s = s + 1; } "
      "print_i(s); return 0; }";
  fi::Workload w(lang::compileMiniC(src));
  fi::FaultModel spec = fi::FaultModel::singleBit(fi::FaultDomain::RegisterWrite);
  spec.flipWidth = 8;
  // With flips confined to the low 8 bits of small loop counters/sums, any
  // SDC output must differ from golden by less than 2^8 + carry effects —
  // verify via the plan records instead: every mask fits in the low 8 bits.
  const std::uint64_t candidates = w.candidates(spec.domain);
  for (std::uint64_t i = 0; i < 50; ++i) {
    const fi::FaultPlan plan =
        fi::FaultPlan::forExperiment(spec, candidates, 3, i);
    EXPECT_EQ(plan.flipWidth, 8u);
    fi::InjectorHook hook(plan);
    vm::execute(w.module(), w.faultyLimits(), &hook);
    for (const auto& rec : hook.records()) {
      EXPECT_EQ(rec.flipMask & ~0xffULL, 0u);
    }
  }
}

TEST(FlipWidth, NarrowWidthChangesCampaignResults) {
  const char* src =
      "int seed = 3; int rnd() { seed = (seed * 1103515245 + 12345) & "
      "2147483647; return seed; } "
      "int main() { int s = 0; for (int i = 0; i < 50; i++) s ^= rnd(); "
      "print_i(s & 65535); return 0; }";
  fi::Workload w(lang::compileMiniC(src));
  auto sdcAt = [&](unsigned width) {
    fi::CampaignConfig config;
    config.model = fi::FaultModel::singleBit(fi::FaultDomain::RegisterWrite);
    config.model.flipWidth = width;
    config.experiments = 300;
    config.seed = 17;
    return fi::runCampaign(w, config).counts.count(stats::Outcome::Benign);
  };
  // The program masks its output to 16 bits: flips above bit 31 (the LCG
  // state is masked to 31 bits anyway) are much more likely to be benign.
  EXPECT_GT(sdcAt(64), sdcAt(16));
}

TEST(FlipWidth, DefaultIsSixtyFour) {
  EXPECT_EQ(fi::FaultModel::singleBit(fi::FaultDomain::RegisterRead).flipWidth, 64u);
  EXPECT_EQ(fi::FaultPlan{}.flipWidth, 64u);
}

}  // namespace
}  // namespace onebit
