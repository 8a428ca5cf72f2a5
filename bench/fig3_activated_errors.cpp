// Fig. 3 (a, b): distribution of the number of ACTIVATED errors before a
// crash, when intending to inject 30 (max-MBF = 30), aggregated over all
// win-size values — the RQ1 analysis. The figure is defined in
// src/analytics/figures.cpp; bench::runFigure runs the cells it asks for.
#include "bench_common.hpp"

int main() { return onebit::bench::runFigure("fig3"); }
