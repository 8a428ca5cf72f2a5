// Fig. 4 / Fig. 5 / Table III from one grid computation:
//   * Fig. 4: SDC% for multi-register injections, inject-on-read
//   * Fig. 5: same for inject-on-write
//   * Table III: the (max-MBF, win-size) pair with the highest SDC% per
//     program and technique, compared against the single bit-flip model.
//
// The figures are defined in src/analytics/figures.cpp; bench::runFigure
// runs the cells they ask for in two sweeps: every grid campaign of every
// program × technique, then the re-validation of each grid's argmax.
#include "bench_common.hpp"

int main() { return onebit::bench::runFigure("fig4"); }
