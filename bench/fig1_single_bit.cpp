// Fig. 1 (a, b): outcome classification of single bit-flip campaigns for
// both injection techniques, per program. The figure is defined in
// src/analytics/figures.cpp; bench::runFigure runs the cells it asks for.
#include "bench_common.hpp"

int main() { return onebit::bench::runFigure("fig1"); }
