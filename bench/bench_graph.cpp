// Fig. 11f (graph initialisation) and Fig. 11g (edge insertion focused on a
// source-vertex range) over the five DIMACS10-like graphs.
#include "bench_common.h"
#include "workloads/graph_workload.h"

int main(int argc, char** argv) {
  using namespace gms;
  auto args = bench::parse_args(argc, argv);
  if (args.threads == 0) args.threads = 100'000;  // paper: 100 K edge updates

  std::vector<std::string> columns{"Graph", "V", "E"};
  for (const auto& name : args.allocators) columns.push_back(name);

  const bool do_init = args.phase == "init" || args.phase == "all";
  const bool do_update = args.phase == "update" || args.phase == "all";

  for (int phase = 0; phase < 2; ++phase) {
    if (phase == 0 && !do_init) continue;
    if (phase == 1 && !do_update) continue;
    core::ResultTable table(columns);
    for (const auto& gname : work::dimacs_like_names()) {
      const auto graph = work::make_dimacs_like(gname, args.scale);
      std::vector<std::string> row{gname,
                                   std::to_string(graph.num_vertices),
                                   std::to_string(graph.num_edges())};
      for (const auto& name : args.allocators) {
        bench::ManagedDevice md(args, name);
        if (phase == 0) {
          const auto r = work::run_graph_init(md.dev(), md.mgr(), graph,
                                              /*verify=*/false);
          row.push_back(r.failed == 0 ? core::ResultTable::fmt_ms(r.init_ms)
                                      : "oom");
        } else {
          const auto r = work::run_graph_update(md.dev(), md.mgr(), graph,
                                                args.threads, 0.01, 0xED6E);
          row.push_back(r.failed == 0 ? core::ResultTable::fmt_ms(r.update_ms)
                                      : "oom");
        }
        if (md.stack().validator != nullptr ||
            md.stack().injector != nullptr) {
          std::cout << (phase == 0 ? "init " : "update ") << gname << ": ";
          md.print_report(std::cout);
        }
        md.write_trace_outputs(gname + "-" + name +
                               (phase == 0 ? "-init" : "-update"));
      }
      table.add_row(std::move(row));
    }
    bench::emit(table, args,
                phase == 0
                    ? std::string("Fig. 11f — graph initialisation (scale 1/") +
                          std::to_string(args.scale) + ")"
                    : "Fig. 11g — " + std::to_string(args.threads) +
                          " edge insertions, sources focused on 1% range");
  }
  return 0;
}
