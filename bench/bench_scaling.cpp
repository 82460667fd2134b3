// Fig. 10 — performance scaling: allocation (10a-10d) and deallocation
// (10e-10h) time for 16 B / 64 B / 512 B / 8 KiB while the thread count
// sweeps 2^0 ... 2^max_exp.
#include "bench_common.h"
#include "core/json_writer.h"
#include "workloads/alloc_perf.h"

int main(int argc, char** argv) {
  using namespace gms;
  auto args = bench::parse_args(argc, argv);
  if (args.iters == 0) args.iters = 2;
  const std::size_t kSizes[] = {16, 64, 512, 8192};

  // --json: one flat record per (size, threads, manager) cell, carrying the
  // placement column so the results tooling can draw the host-based vs
  // device-side comparison straight from the file.
  core::BenchJson json("scaling");
  json.meta()
      .num("sms", args.num_sms)
      .num("iters", args.iters)
      .num("max_exp", args.max_exp);

  for (const std::size_t size : kSizes) {
    std::vector<std::string> columns{"Threads"};
    for (const auto& name : args.allocators) {
      columns.push_back(name + " alloc");
      columns.push_back(name + " free");
    }
    core::ResultTable table(columns);

    std::vector<std::unique_ptr<bench::ManagedDevice>> devices;
    for (const auto& name : args.allocators) {
      devices.push_back(std::make_unique<bench::ManagedDevice>(args, name));
    }
    for (unsigned exp = 0; exp <= args.max_exp; exp += 2) {
      const std::size_t threads = std::size_t{1} << exp;
      std::vector<std::string> row{std::to_string(threads)};
      for (std::size_t a = 0; a < args.allocators.size(); ++a) {
        auto& record = json.add_case()
                           .str("name", args.allocators[a])
                           .str("placement",
                                devices[a]->mgr().traits().host_based
                                    ? "host-based"
                                    : "device-side")
                           .num("size", size)
                           .num("threads", threads);
        work::AllocPerfParams params;
        params.num_allocs = threads;
        params.size = size;
        params.iterations = args.iters;
        work::AllocPerfSeries series;
        try {
          series =
              work::run_alloc_perf(devices[a]->dev(), devices[a]->mgr(),
                                   params);
        } catch (const std::exception& e) {
          std::cerr << args.allocators[a] << ": " << e.what() << "\n";
          row.push_back("err");
          row.push_back("err");
          record.str("outcome", "err");
          continue;
        }
        row.push_back(series.failed_allocs == 0
                          ? core::ResultTable::fmt_ms(
                                series.alloc_summary().mean_ms)
                          : "oom");
        row.push_back(series.free_ms.empty()
                          ? "n/a"
                          : core::ResultTable::fmt_ms(
                                series.free_summary().mean_ms));
        record.str("outcome", series.failed_allocs == 0 ? "ok" : "oom")
            .num("alloc_ms", series.alloc_summary().mean_ms, 4);
        if (!series.free_ms.empty()) {
          record.num("free_ms", series.free_summary().mean_ms, 4);
        }
      }
      table.add_row(std::move(row));
    }
    bench::emit(table, args,
                "Fig. 10 — scaling at " + std::to_string(size) + " B");
  }
  if (!args.json.empty()) json.write(args.json);
  return 0;
}
