// Shared plumbing for the figure benches: the paper's band start and result
// formatting.
#pragma once

#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "net/scenario.hpp"
#include "net/topology.hpp"
#include "phy/channel_plan.hpp"
#include "stats/table.hpp"

namespace nomc::bench {

/// The paper's evaluation band starts here (§VI: "from 2458MHz").
inline constexpr phy::Mhz kBandStart{2458.0};

inline void print_header(const char* figure, const char* description) {
  std::printf("== %s ==\n%s\n\n", figure, description);
}

inline std::string pps(double value) { return stats::TablePrinter::num(value, 1); }
inline std::string pct(double ratio) { return stats::TablePrinter::num(100.0 * ratio, 1) + "%"; }

}  // namespace nomc::bench
