#pragma once

#include <string>
#include <vector>

namespace perfbench {

/// One metric the result prints, by the name and unit BENCHMARK.json lists
/// it under; its direction and bound live only in BENCHMARK.json.
struct MetricDecl {
  std::string name;
  std::string unit;
};

/// Printed by untraced runs, on every workload.
std::vector<MetricDecl> end_to_end_metrics();

/// Printed by traced runs, on every workload; a layer the workload does not
/// exercise reads 0. Names follow the src/ module they measure.
std::vector<MetricDecl> layer_metrics();

}  // namespace perfbench
