// Replay-driven allocator auto-tuning (DESIGN.md §15): for each selected
// (manager, workload-trace) pair, search the manager's runtime Config space
// — grid seeds plus evolutionary mutation/crossover over the schema's
// fields — scoring every candidate by the median replayed wall time of the
// recorded workload in a fork-contained SurveyRunner cell. Crashing,
// timing-out, exhausting or audit-failing candidates are disqualified, so
// the tuner can roam hostile corners of the config space without taking
// the sweep down.
//
//   bench_tune -t XMalloc,ScatterAlloc --generations 4 --population 12
//              --json BENCH_tune.json
//
// Workloads default to the committed tuning corpus
// (results/tuning/tune.<Name>.gmtrace): recordings whose request sizes
// straddle each manager's default ladder/page/relay boundaries, so the
// knobs have real work to win back. --traces also accepts the
// results/prerefactor oracle directory (pre.<Name>.gmtrace naming is the
// fallback). Winning configs land in results/tuned/<Name>.config as a
// "Name{k=v,...}" line directly usable as a -t argument or --stack base.
//
// Flags: -t NAMES  --traces DIR  --tuned-dir DIR  --generations N
// --population N  --tune-seed S  --reps N (replays per cell, median
// scored)  --deadline-s S  --rlimit-mb N  --sms N (0 = trace header)
// --json FILE  --min-speedup X (gate: >= min(2, pairs) pairs must reach X)
// --smoke (CI budget: first pair only, 1 generation, population 4).
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "bench_common.h"
#include "core/json_writer.h"
#include "trace/trace_recorder.h"
#include "tuning/replay_eval.h"
#include "tuning/tuner.h"

namespace {

using namespace gms;

std::string fmt2(double v) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(2) << v;
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  auto args = bench::parse_args(argc, argv,
                                "XMalloc,Ouro-P-VA,Halloc,ScatterAlloc");

  tuning::TunerOptions topts;
  topts.generations = args.generations;
  topts.population = args.population;
  topts.seed = args.tune_seed;

  tuning::ReplayEvalOptions eopts;
  eopts.num_sms = args.num_sms == 8 ? 0 : args.num_sms;  // default: header
  eopts.reps = args.reps != 0 ? args.reps : 3;
  eopts.deadline_s = args.deadline_s;
  eopts.rlimit_mb = args.rlimit_mb;

  auto targets = args.allocators;
  if (args.smoke) {
    // CI budget: one pair, one evolutionary round, a small brood.
    targets.resize(1);
    topts.generations = 1;
    topts.population = 4;
    topts.grid_limit = 8;
    if (args.reps == 0) eopts.reps = 1;
  }

  core::ResultTable table({"Manager", "Workload", "base ms", "tuned ms",
                           "speedup", "evals", "disq", "tuned config"});
  core::BenchJson json("tune");
  json.meta()
      .str("traces", args.traces)
      .num("generations", topts.generations)
      .num("population", topts.population)
      .num("reps", eopts.reps)
      .num("seed", topts.seed);

  std::filesystem::create_directories(args.tuned_dir);

  std::vector<double> speedups;
  unsigned pairs = 0;
  for (const auto& target : targets) {
    const auto* entry = core::Registry::instance().find(target);
    if (entry == nullptr || entry->config == nullptr) {
      std::cout << target << ": not configurable, skipped\n";
      continue;
    }
    std::string trace_path = args.traces + "/tune." + target + ".gmtrace";
    if (!std::filesystem::exists(trace_path)) {
      trace_path = args.traces + "/pre." + target + ".gmtrace";
    }
    trace::Trace trace;
    try {
      trace = trace::read_trace(trace_path);
    } catch (const std::exception& e) {
      std::cout << target << ": no workload trace (" << e.what()
                << "), skipped\n";
      continue;
    }

    std::cout << "tuning " << target << " against " << trace_path << " ("
              << trace.events.size() << " events, seed " << topts.seed
              << ")...\n";
    tuning::ReplayEvaluator evaluator(target, trace, eopts);
    tuning::Tuner tuner(*entry->config, topts);
    const auto report = tuner.run(
        [&](const core::ConfigKV& overrides) { return evaluator(overrides); });

    ++pairs;
    speedups.push_back(report.speedup);
    const std::string overrides_str =
        core::format_config(report.best.overrides);
    const std::string tuned_name =
        overrides_str.empty() ? target : target + overrides_str;
    table.add_row(
        {target, std::filesystem::path(trace_path).filename().string(),
         core::ResultTable::fmt_ms(report.baseline.eval.ms),
         core::ResultTable::fmt_ms(report.best.eval.ms),
         fmt2(report.speedup) + "x", std::to_string(report.evaluated),
         std::to_string(report.disqualified),
         overrides_str.empty() ? "(defaults)" : overrides_str});
    json.add_case()
        .str("name", target)
        .str("trace", trace_path)
        .num("baseline_ms", report.baseline.eval.ms)
        .num("tuned_ms", report.best.eval.ms)
        .num("speedup", report.speedup)
        .num("evaluated", report.evaluated)
        .num("deduped", report.deduped)
        .num("rejected", report.rejected)
        .num("disqualified", report.disqualified)
        .num("grid_dropped", report.grid_dropped)
        .str("overrides", overrides_str)
        .str("config", report.best.canonical)
        .str("baseline_config", report.baseline.canonical)
        .str("baseline_verdict", core::to_string(report.baseline.eval.verdict))
        .str("baseline_detail", report.baseline.eval.detail);
    if (report.baseline.disqualified) {
      std::cout << "  WARNING: baseline (default config) disqualified: "
                << core::to_string(report.baseline.eval.verdict) << " — "
                << report.baseline.eval.detail << "\n";
    }

    // The artifact CI uploads: one line, directly consumable as -t / --stack.
    std::ofstream out(args.tuned_dir + "/" + target + ".config",
                      std::ios::trunc);
    out << tuned_name << "\n";
  }

  bench::emit(table, args,
              "Replay-driven config tuning — " + std::to_string(pairs) +
                  " (manager, workload) pair(s), seed " +
                  std::to_string(topts.seed));
  if (!args.json.empty()) json.write(args.json);

  if (pairs == 0) {
    std::cerr << "no tunable (manager, workload) pairs — check -t and "
              << "--traces\n";
    return 2;
  }
  if (args.min_speedup > 0) {
    const unsigned want = std::min<unsigned>(2, pairs);
    unsigned got = 0;
    for (double s : speedups) {
      if (s >= args.min_speedup) ++got;
    }
    if (got < want) {
      std::cerr << "FAIL: only " << got << "/" << pairs << " pairs reached "
                << args.min_speedup << "x (need " << want << ")\n";
      return 1;
    }
    std::cout << "\ngate: " << got << "/" << pairs << " pairs >= "
              << args.min_speedup << "x\n";
  }
  return 0;
}
