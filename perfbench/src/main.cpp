// perfbench: the repository benchmark. See perfbench/README.md.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//       One run. The last stdout line is the result object; with --trace 0
//       its metrics are the end-to-end ones, with --trace 1 the per-layer
//       ones (plus a Chrome trace of the spans under .bench_build/traces/).
//       A failed output check exits 1 and prints no result.
//   perfbench --steady N [--seed N] [--seconds S]
//       N untraced runs of each of the four workloads, interleaved, one seed
//       each; prints each end-to-end metric's median, quartiles and
//       IQR / median.
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench.h"
#include "metrics.h"

namespace {

using namespace perfbench;

Report dispatch(Run& run) {
  const auto& w = run.opt.workload;
  if (w == "churn") return run_churn(run);
  if (w == "stacked") return run_stacked(run);
  if (w == "apps") return run_apps(run);
  if (w == "service") return run_service(run);
  throw std::invalid_argument("unknown workload '" + w + "'");
}

/// The traced run: an untraced run first, for trace_overhead_pct, then the
/// same workload and seed with spans, call counts and the extra
/// measurements on.
Report traced(const Options& opt) {
  Options plain = opt;
  plain.trace = false;
  Run base_run(plain);
  const Report base = dispatch(base_run);

  Run run(opt);
  Report rep = dispatch(run);
  rep.add("trace_overhead_pct", tax_pct(base.ops_per_s, rep.ops_per_s), "%");
  for (const auto& [layer, s] : run.spans.self_seconds()) {
    rep.add(layer + ".self_s", s, "s");
  }
  for (const auto& [call, n] : run.spans.calls()) {
    const auto dot = call.find('.');
    const auto layer = call.substr(0, dot);
    if (layer == "bench") continue;  // the benchmark's own structure
    rep.add(layer + ".calls." + call.substr(dot + 1),
            static_cast<double>(n), "count");
  }
  run.spans.write_chrome(".bench_build/traces/" + opt.workload + "-seed" +
                         std::to_string(opt.seed) + ".json");
  return rep;
}

/// Prints the result object: the declared metrics of the mode, in table
/// order; a declared per-layer metric the workload does not exercise reads
/// 0. A metric the table does not declare is a benchmark bug.
int print_result(const Report& rep, bool trace) {
  std::map<std::string, double> got;
  for (const auto& m : rep.metrics) got[m.name] = m.value;
  const auto table = trace ? layer_metrics() : end_to_end_metrics();
  std::set<std::string> declared;
  for (const auto& d : table) declared.insert(d.name);
  for (const auto& d : trace ? end_to_end_metrics() : layer_metrics()) {
    declared.insert(d.name);  // measured, but printed in the other mode
  }
  for (const auto& m : rep.metrics) {
    if (declared.count(m.name) == 0 || !std::isfinite(m.value)) {
      std::cerr << "perfbench: undeclared or non-finite metric " << m.name
                << "\n";
      return 2;
    }
  }
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": true, \"attempted\": " << rep.attempted
     << ", \"failed\": " << rep.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < table.size(); ++i) {
    const auto it = got.find(table[i].name);
    os << (i == 0 ? "" : ", ") << '"' << table[i].name
       << "\": {\"value\": " << (it == got.end() ? 0.0 : it->second)
       << ", \"unit\": \"" << table[i].unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
  return 0;
}

/// Runs one untraced workload in a forked child and reads its end-to-end
/// metrics back through a pipe. Returns false if the child failed.
bool run_child(const Options& opt, std::map<std::string, double>& out) {
  int fds[2];
  if (pipe(fds) != 0) return false;
  std::cout.flush();
  const pid_t pid = fork();
  if (pid < 0) return false;
  if (pid == 0) {
    close(fds[0]);
    int code = 0;
    try {
      Run run(opt);
      const Report rep = dispatch(run);
      std::ostringstream os;
      os.precision(17);
      for (const auto& m : rep.metrics) os << m.name << ' ' << m.value << '\n';
      const std::string text = os.str();
      if (write(fds[1], text.data(), text.size()) !=
          static_cast<ssize_t>(text.size())) {
        code = 3;
      }
    } catch (const std::exception& e) {
      std::cerr << "perfbench: " << opt.workload << " seed " << opt.seed
                << ": " << e.what() << "\n";
      code = 1;
    }
    _exit(code);
  }
  close(fds[1]);
  std::string text;
  char buf[4096];
  for (ssize_t n; (n = read(fds[0], buf, sizeof buf)) > 0;) text.append(buf, n);
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  std::istringstream is(text);
  std::string name;
  double value = 0;
  while (is >> name >> value) out[name] = value;
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

int steady(const Options& base, unsigned reps) {
  static const char* const workloads[] = {"churn", "stacked", "apps",
                                          "service"};
  std::map<std::string, std::map<std::string, std::vector<double>>> values;
  bool ok = true;
  for (unsigned r = 0; r < reps; ++r) {
    for (const auto& w : workloads) {
      Options opt = base;
      opt.workload = w;
      opt.seed = base.seed + r;
      std::map<std::string, double> got;
      if (!run_child(opt, got)) {
        ok = false;
        continue;
      }
      for (const auto& d : end_to_end_metrics()) {
        values[w][d.name].push_back(got[d.name]);
      }
      std::cerr << "steady: " << w << " seed " << opt.seed;
      for (const auto& d : end_to_end_metrics()) {
        std::cerr << ' ' << d.name << '=' << got[d.name];
      }
      std::cerr << '\n';
    }
  }
  unsigned flagged = 0;
  std::printf("%-8s %-12s %4s %14s %14s %14s %8s %14s %14s\n", "workload",
              "metric", "n", "median", "q1", "q3", "iqr/med", "min", "max");
  for (const std::string w : workloads) {
    for (const auto& d : end_to_end_metrics()) {
      const auto s = spread(values[w][d.name]);
      const bool flag = s.rel_iqr() > 0.1;
      flagged += flag;
      std::printf("%-8s %-12s %4zu %14.6g %14.6g %14.6g %8.4f %14.6g %14.6g%s\n",
                  w.c_str(), d.name.c_str(), s.n, s.median, s.q1, s.q3,
                  s.rel_iqr(), s.min, s.max, flag ? "  FLAG iqr > median/10" : "");
    }
  }
  std::printf("%u metric(s) flagged; %s\n", flagged,
              ok ? "all runs passed their checks" : "SOME RUNS FAILED");
  return ok ? 0 : 1;
}

int usage() {
  std::cerr << "usage: perfbench --workload churn|stacked|apps|service "
               "--seed N --seconds S --trace 0|1\n"
               "       perfbench --steady N [--seed N] [--seconds S]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  unsigned steady_reps = 0;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (i + 1 >= argc) return usage();
      const std::string v = argv[++i];
      if (a == "--workload") {
        opt.workload = v;
      } else if (a == "--seed") {
        opt.seed = std::stoull(v);
      } else if (a == "--seconds") {
        opt.seconds = std::stod(v);
      } else if (a == "--trace") {
        if (v != "0" && v != "1") return usage();
        opt.trace = v == "1";
      } else if (a == "--steady") {
        steady_reps = static_cast<unsigned>(std::stoul(v));
      } else {
        return usage();
      }
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (steady_reps > 0) return steady(opt, steady_reps);
  if (opt.workload.empty() || opt.seconds <= 0) return usage();
  try {
    if (opt.trace) return print_result(traced(opt), true);
    Run run(opt);
    return print_result(dispatch(run), false);
  } catch (const CheckFailed& e) {
    std::cerr << "perfbench: check failed: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
