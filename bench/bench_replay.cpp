// Trace replay: re-drives a .gmtrace recording (bench --trace FILE) against
// any registered manager, preserving per-lane ordering and kernel
// boundaries (DESIGN.md §9). Each target is replayed twice on fresh devices
// and both replays are re-recorded; byte-identical canonical streams across
// the pair is the determinism check, and a stream identical to the source
// recording's shows the replay reproduced the original request sequence.
//
//   bench_replay --trace results/churn.gmtrace -t Ouroboros,ScatterAlloc
//
// Corpus mode (--corpus DIR) sweeps the adversarial regression corpus
// instead: every manifest entry is replayed fork-contained under its
// recorded stack and the measured verdict is compared against the expected
// one; any drift fails the sweep (the CI regression gate over
// results/corpus/). The same mode then runs the config-refactor baseline
// gate: every pre.<Name>.gmtrace oracle under results/prerefactor/ (or
// --traces DIR when it holds pre.* recordings) is replayed against
// <Name>'s *default* runtime Config, and the canonical request digest
// must be deterministic and byte-identical to the pre-refactor capture —
// proving the compile-time-constants -> Config refactor left every
// default layout decision untouched.
//
// Flags: --trace FILE (input, required)  -t TARGETS (default: the trace's
// source allocator)  --sms N  --mem-mb N (0/default = the trace header's
// heap)  --chrome FILE / --occupancy FILE (export the *input* trace)
// --json FILE  --corpus DIR  --deadline-s S  --rlimit-mb N.
#include <algorithm>
#include <filesystem>
#include <iomanip>
#include <sstream>

#include "bench_common.h"
#include "core/json_writer.h"
#include "core/stub_allocators.h"
#include "core/survey_runner.h"
#include "trace/corpus.h"
#include "trace/trace_replay.h"

namespace {

using namespace gms;

std::string hex64(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0') << v;
  return os.str();
}

struct TargetRun {
  trace::ReplayResult result;
  std::uint64_t digest = 0;       ///< canonical digest of the re-capture
  std::uint64_t recaptured = 0;   ///< events the re-recording collected
};

/// One replay on a fresh cell, re-recorded through a trace stage on top of
/// the target, so the canonical streams are comparable.
TargetRun recapture(trace::TraceReplayer& replayer, const std::string& target,
                    unsigned num_sms, std::size_t heap_bytes) {
  core::StackCell cell(core::StackSpec::parse("trace>" + target), heap_bytes,
                       num_sms, /*watchdog_ms=*/0);
  trace::TraceRecorder& recorder = *cell.stack().recorder;
  recorder.set_enabled(true);
  TargetRun run;
  run.result = replayer.replay(cell.dev(), cell.mgr());
  recorder.set_enabled(false);
  const auto events = recorder.drain();
  run.recaptured = events.size();
  run.digest = trace::canonical_digest(events);
  return run;
}

/// --corpus DIR: verdict-drift sweep over the committed adversarial corpus.
/// Each entry replays in a SurveyRunner fork (crashes and hangs become
/// verdicts, not sweep deaths); exit is non-zero on any expected/measured
/// mismatch or an unreadable trace.
int run_corpus_sweep(const bench::BenchArgs& args) {
  // Soak campaigns run with --hostile commit stub-sourced entries; the
  // sweep must be able to rebuild those stacks.
  core::register_stub_allocators();
  std::vector<trace::CorpusEntry> entries;
  try {
    entries = trace::load_corpus(args.corpus);
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
  if (entries.empty()) {
    std::cerr << "corpus at " << args.corpus
              << " is empty or missing (seed it with corpus_gen)\n";
    return 2;
  }

  core::SurveyRunner runner({.deadline_s = args.deadline_s,
                             .rlimit_mb = args.rlimit_mb,
                             .persist_quarantine = false});
  core::ResultTable table(
      {"Trace", "Stack", "Source", "Expected", "Measured", "Drift"});
  core::BenchJson json("corpus");
  json.meta().str("corpus", args.corpus).num("entries", entries.size());

  unsigned drifted = 0;
  for (const auto& e : entries) {
    trace::Trace src;
    std::string measured;
    bool drift;
    try {
      src = trace::read_trace(args.corpus + "/" + e.file);
      const auto verdict = runner.probe_cell([&]() -> core::CellOutcome {
        return trace::replay_verdict_cell(
                   src, core::StackSpec::parse(e.stack), args.num_sms)
            .outcome;
      });
      measured = core::to_string(verdict);
      drift = verdict != e.expected;
    } catch (const std::exception& ex) {
      measured = std::string("unreadable: ") + ex.what();
      drift = true;
    }
    if (drift) ++drifted;
    table.add_row({e.file, e.stack, e.source, core::to_string(e.expected),
                   measured, drift ? "DRIFT" : "-"});
    json.add_case()
        .str("file", e.file)
        .str("stack", e.stack)
        .str("source", e.source)
        .str("note", e.note)
        .str("expected", core::to_string(e.expected))
        .str("measured", measured)
        .boolean("drift", drift);
  }

  bench::emit(table, args,
              "Corpus sweep — " + std::to_string(entries.size()) +
                  " adversarial traces from " + args.corpus);
  if (!args.json.empty()) json.write(args.json);
  if (drifted != 0) {
    std::cerr << "FAIL: " << drifted << " corpus entr"
              << (drifted == 1 ? "y" : "ies") << " drifted from the pinned "
              << "verdict\n";
    return 1;
  }
  std::cout << "\nno verdict drift across the corpus\n";
  return 0;
}

/// The config-refactor baseline gate (ISSUE 10): every pre.<Name>.gmtrace
/// oracle must replay byte-identically against today's <Name> under its
/// default Config. Returns the number of managers that drifted.
int run_baseline_gate(const bench::BenchArgs& args) {
  std::string dir = "results/prerefactor";
  // --traces can redirect the gate at an alternate oracle set.
  if (std::filesystem::is_directory(args.traces)) {
    for (const auto& e : std::filesystem::directory_iterator(args.traces)) {
      const std::string f = e.path().filename().string();
      if (f.rfind("pre.", 0) == 0 && e.path().extension() == ".gmtrace") {
        dir = args.traces;
        break;
      }
    }
  }
  if (!std::filesystem::is_directory(dir)) {
    std::cout << "\n(no pre-refactor oracle directory at " << dir
              << "; baseline gate skipped)\n";
    return 0;
  }
  std::vector<std::string> paths;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    const std::string f = e.path().filename().string();
    if (f.rfind("pre.", 0) == 0 && e.path().extension() == ".gmtrace") {
      paths.push_back(e.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());

  core::ResultTable table(
      {"Oracle", "Manager", "events", "deterministic", "matches pre", "Gate"});
  unsigned drifted = 0;
  for (const auto& path : paths) {
    trace::Trace src;
    try {
      src = trace::read_trace(path);
    } catch (const std::exception& e) {
      table.add_row({path, "?", "-", "-", "-", "UNREADABLE"});
      ++drifted;
      continue;
    }
    const std::string name = src.header.allocator_name();
    if (core::Registry::instance().find(name) == nullptr) {
      table.add_row({std::filesystem::path(path).filename().string(), name,
                     std::to_string(src.events.size()), "-", "-",
                     "unregistered"});
      continue;
    }
    trace::TraceReplayer replayer(src);
    const std::size_t heap =
        src.header.heap_bytes != 0 ? src.header.heap_bytes : args.heap_bytes();
    bool deterministic = false, matches = false;
    try {
      const auto a = recapture(replayer, name, args.num_sms, heap);
      const auto b = recapture(replayer, name, args.num_sms, heap);
      deterministic = a.digest == b.digest;
      matches = a.digest == replayer.request_digest();
    } catch (const std::exception& e) {
      table.add_row({std::filesystem::path(path).filename().string(), name,
                     std::to_string(src.events.size()), "-", "-",
                     std::string("error: ") + e.what()});
      ++drifted;
      continue;
    }
    const bool ok = deterministic && matches;
    if (!ok) ++drifted;
    table.add_row({std::filesystem::path(path).filename().string(), name,
                   std::to_string(src.events.size()),
                   deterministic ? "yes" : "NO", matches ? "yes" : "NO",
                   ok ? "-" : "DRIFT"});
  }
  std::cout << "\n## Config-refactor baseline gate — " << paths.size()
            << " pre-refactor oracle(s) from " << dir << "\n\n";
  table.print_markdown(std::cout);
  if (drifted != 0) {
    std::cerr << "FAIL: " << drifted << " manager(s) no longer replay their "
              << "pre-refactor oracle byte-identically under the default "
              << "Config\n";
  } else if (!paths.empty()) {
    std::cout << "\nall default configs replay byte-identical to their "
              << "pre-refactor oracles\n";
  }
  return static_cast<int>(drifted);
}

}  // namespace

int main(int argc, char** argv) {
  auto args = bench::parse_args(argc, argv);
  if (!args.corpus.empty()) {
    const int corpus_rc = run_corpus_sweep(args);
    if (corpus_rc == 2) return corpus_rc;  // unreadable/missing corpus
    const int baseline_drift = run_baseline_gate(args);
    return corpus_rc != 0 || baseline_drift != 0 ? 1 : 0;
  }
  if (args.trace.empty()) {
    std::cerr << "bench_replay needs --trace FILE (a .gmtrace recording; "
                 "record one with any bench's --trace flag)\n";
    return 2;
  }

  trace::Trace src;
  try {
    src = trace::read_trace(args.trace);
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
  trace::TraceReplayer replayer(src);

  std::cout << "trace " << args.trace << ": allocator "
            << src.header.allocator_name() << ", " << src.events.size()
            << " events (" << src.header.dropped << " dropped), "
            << replayer.kernels() << " allocation-bearing kernels, "
            << replayer.hazards() << " cross-lane hazards, "
            << replayer.unmatched_frees() << " unmatched frees, digest "
            << hex64(replayer.request_digest()) << "\n";

  if (!args.chrome.empty()) {
    trace::write_chrome_trace(args.chrome, src);
    std::cout << "(chrome trace written to " << args.chrome << ")\n";
  }
  if (!args.occupancy.empty()) {
    trace::write_occupancy_csv(args.occupancy, src);
    std::cout << "(occupancy csv written to " << args.occupancy << ")\n";
  }

  // Default population: the stack the trace came from, rebuilt from the
  // header's identity ("ScatterAlloc+R+V") whenever it parses to a
  // registered base. An explicit -t replays against anything registered.
  std::vector<std::string> targets = args.allocators;
  bool explicit_targets = false;
  for (int i = 1; i < argc; ++i) {
    const std::string f = argv[i];
    if (f == "-t" || f == "--allocators" ||
        f.rfind("--allocators=", 0) == 0) {
      explicit_targets = true;
    }
  }
  if (!explicit_targets) {
    const std::string source = src.header.allocator_name();
    try {
      if (core::Registry::instance().find(
              core::StackSpec::parse(source).base) != nullptr) {
        targets = {source};
      }
    } catch (const std::invalid_argument&) {
      // Not a spec ("service:..." marker logs): keep the default population.
    }
  }

  // Heap: the trace header's capture-time heap unless --mem-mb overrides.
  const std::size_t heap_bytes =
      args.mem_mb != 256 || src.header.heap_bytes == 0 ? args.heap_bytes()
                                                       : src.header.heap_bytes;

  core::ResultTable table({"Target", "mallocs", "failed", "frees", "skipped",
                           "ms", "atomics", "deterministic", "matches src"});
  core::BenchJson json("replay");
  json.meta()
      .str("trace", args.trace)
      .str("source_allocator", src.header.allocator_name())
      .num("source_events", src.events.size())
      .num("source_dropped", src.header.dropped)
      .num("kernels", replayer.kernels())
      .num("hazards", replayer.hazards())
      .num("unmatched_frees", replayer.unmatched_frees())
      .num("num_sms", args.num_sms)
      .num("heap_bytes", heap_bytes)
      .str("request_digest", hex64(replayer.request_digest()));

  bool all_deterministic = true;
  for (const auto& target : targets) {
    TargetRun a, b;
    try {
      a = recapture(replayer, target, args.num_sms, heap_bytes);
      b = recapture(replayer, target, args.num_sms, heap_bytes);
    } catch (const std::exception& e) {
      std::cout << target << ": replay failed — " << e.what() << "\n";
      table.add_row({target, "-", "-", "-", "-", "-", "-", "error", "-"});
      json.add_case().str("name", target).str("error", e.what());
      all_deterministic = false;
      continue;
    }
    const bool deterministic = a.digest == b.digest;
    const bool matches = a.digest == replayer.request_digest();
    all_deterministic &= deterministic;
    const auto& r = a.result;
    table.add_row({target, std::to_string(r.mallocs),
                   std::to_string(r.failed_mallocs), std::to_string(r.frees),
                   std::to_string(r.skipped_frees),
                   core::ResultTable::fmt_ms(r.elapsed_ms),
                   std::to_string(r.counters.atomic_total()),
                   deterministic ? "yes" : "NO", matches ? "yes" : "no"});
    json.add_case()
        .str("name", target)
        .num("mallocs", r.mallocs)
        .num("failed_mallocs", r.failed_mallocs)
        .num("frees", r.frees)
        .num("skipped_frees", r.skipped_frees)
        .num("warp_free_alls", r.warp_free_alls)
        .num("elapsed_ms", r.elapsed_ms)
        .num("atomics", r.counters.atomic_total())
        .num("recaptured_events", a.recaptured)
        .str("digest", hex64(a.digest))
        .boolean("deterministic", deterministic)
        .boolean("matches_source", matches);
  }

  bench::emit(table, args,
              "Trace replay — " + args.trace + " (" +
                  src.header.allocator_name() + ") against " +
                  std::to_string(targets.size()) + " target(s)");
  if (!args.json.empty()) json.write(args.json);
  // Determinism is the replayer's contract; a NO is a real failure.
  return all_deterministic ? 0 : 1;
}
