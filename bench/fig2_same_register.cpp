// Fig. 2 (a, b): SDC percentage when injecting 1..30 errors into the SAME
// instruction/register (win-size = 0), per program and technique.
// ONEBIT_SPECS drops columns the same way ONEBIT_PROGRAMS drops rows. The
// figure is defined in src/analytics/figures.cpp; bench::runFigure runs the
// cells it asks for.
#include "bench_common.hpp"

int main() { return onebit::bench::runFigure("fig2"); }
