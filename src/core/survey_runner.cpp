#include "core/survey_runner.h"

#include <fcntl.h>
#include <signal.h>
#include <string.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <new>
#include <sstream>
#include <thread>

#include "core/json_writer.h"
#include "core/utils.h"
#include "gpu/watchdog.h"

namespace gms::core {
namespace {

/// FNV-1a — std::hash<std::string> is implementation-defined, and the
/// backoff schedule must be reproducible for the tests that assert on it.
std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ull;
  }
  return h;
}

/// Quarantine entries and survey.json are written one record per line with a
/// minimal parser on the read side, so string fields must stay quote-free.
std::string sanitize(std::string_view s, std::size_t max_len = 512) {
  std::string out;
  out.reserve(std::min(s.size(), max_len));
  for (char c : s) {
    if (out.size() >= max_len) {
      out += "...";
      break;
    }
    if (c == '"' || c == '\\') {
      out += '\'';
    } else if (c == '\n' || c == '\r' || c == '\t') {
      out += ' ';
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += '?';
    } else {
      out += c;
    }
  }
  return out;
}

/// Extracts the value of `"field": "..."` from a single JSON line emitted by
/// save_quarantine(). Returns empty when the field is absent.
std::string extract_string(const std::string& line, std::string_view field) {
  const std::string needle = "\"" + std::string(field) + "\": \"";
  auto pos = line.find(needle);
  if (pos == std::string::npos) return {};
  pos += needle.size();
  auto end = line.find('"', pos);
  if (end == std::string::npos) return {};
  return line.substr(pos, end - pos);
}

long extract_long(const std::string& line, std::string_view field) {
  const std::string needle = "\"" + std::string(field) + "\": ";
  auto pos = line.find(needle);
  if (pos == std::string::npos) return 0;
  return std::strtol(line.c_str() + pos + needle.size(), nullptr, 10);
}

void ensure_parent_dir(const std::string& path) {
  auto parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(parent, ec);
  }
}

}  // namespace

Verdict verdict_from_string(std::string_view s) {
  if (s == "ok") return Verdict::kOk;
  if (s == "timeout") return Verdict::kTimeout;
  if (s == "oom") return Verdict::kOom;
  if (s == "validation-error") return Verdict::kValidationError;
  return Verdict::kCrash;
}

std::string CellResult::to_string() const {
  std::ostringstream os;
  os << key << ": " << gms::core::to_string(verdict);
  if (verdict == Verdict::kCrash && term_signal != 0)
    os << " (" << strsignal(term_signal) << ")";
  if (skipped_quarantined) os << " [quarantined, skipped]";
  if (attempts > 1) os << " [attempts=" << attempts << "]";
  if (!detail.empty()) os << " — " << detail;
  return os.str();
}

SurveyRunner::SurveyRunner(Options opts) : opts_(std::move(opts)) {
  load_quarantine();
}

double SurveyRunner::backoff_ms(const std::string& key,
                                unsigned attempt) const {
  double ms = opts_.backoff_base_ms;
  for (unsigned i = 1; i < attempt; ++i) ms *= opts_.backoff_factor;
  // Seeded jitter: hash (seed, key, attempt) into [0, 1) — deterministic for
  // a given configuration, decorrelated across cells and sweeps.
  SplitMix64 rng(opts_.jitter_seed ^ fnv1a(key) ^
                 (0x9E37u + std::uint64_t{attempt} * 0x85EBCA6Bull));
  const double u =
      static_cast<double>(rng.next() >> 11) * 0x1.0p-53;  // [0, 1)
  return ms * (1.0 + opts_.backoff_jitter * u);
}

SurveyRunner::Attempt SurveyRunner::run_attempt(
    const std::function<CellOutcome()>& body) const {
  Attempt att;

  int fds[2] = {-1, -1};
  if (pipe(fds) != 0) {
    att.verdict = Verdict::kCrash;
    att.detail = std::string("pipe() failed: ") + strerror(errno);
    return att;
  }

  // Any buffered stdio the child inherits would be flushed twice (once per
  // process) on exit; flush everything before the address space splits.
  std::fflush(nullptr);

  Stopwatch clock;
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    att.verdict = Verdict::kCrash;
    att.detail = std::string("fork() failed: ") + strerror(errno);
    return att;
  }

  if (pid == 0) {
    // ---- child -----------------------------------------------------------
    // Only this thread survived the fork: the parent's Device worker threads
    // are gone, so the body must build everything it touches from scratch.
    close(fds[0]);
    // A crash must reach waitpid as a signal: an inherited handler (ASan's
    // SEGV handler, say) would turn it into an exit code.
    for (const int sig : {SIGSEGV, SIGBUS, SIGFPE, SIGILL, SIGABRT}) {
      ::signal(sig, SIG_DFL);
    }
    if (opts_.rlimit_mb > 0) {
      rlimit rl{};
      rl.rlim_cur = rl.rlim_max =
          static_cast<rlim_t>(opts_.rlimit_mb) * 1024 * 1024;
      setrlimit(RLIMIT_AS, &rl);  // arena mmap/new past this -> bad_alloc
    }
    int code = kExitOk;
    std::string detail;
    try {
      CellOutcome out = body();
      code = out.exit_code;
      detail = out.detail;
    } catch (const gpu::LaunchTimeout& lt) {
      code = kExitTimeout;
      detail = std::string("watchdog: ") + lt.what();
    } catch (const std::bad_alloc&) {
      code = kExitOom;
      detail = "std::bad_alloc under RLIMIT_AS";
    } catch (const std::exception& e) {
      code = kExitValidation;
      detail = e.what();
    } catch (...) {
      code = kExitValidation;
      detail = "unknown exception";
    }
    detail = sanitize(detail);
    if (!detail.empty()) {
      // Best-effort: a full pipe (impossible at 512 B) or dead parent just
      // loses the message, never the verdict.
      [[maybe_unused]] ssize_t n = write(fds[1], detail.data(), detail.size());
    }
    close(fds[1]);
    _exit(code);  // never run static destructors in the forked child
  }

  // ---- parent ------------------------------------------------------------
  close(fds[1]);

  const double deadline_ms = opts_.deadline_s * 1000.0;
  int status = 0;
  bool reaped = false;
  bool killed = false;
  while (true) {
    const pid_t r = waitpid(pid, &status, WNOHANG);
    if (r == pid) {
      reaped = true;
      break;
    }
    if (r < 0 && errno != EINTR) break;  // should not happen; classify crash
    if (!killed && clock.elapsed_ms() > deadline_ms) {
      kill(pid, SIGKILL);
      killed = true;  // keep polling; the zombie is reaped next iteration(s)
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(killed ? 1 : 2));
  }
  att.ms = clock.elapsed_ms();

  std::string piped;
  char buf[1024];
  ssize_t n;
  while ((n = read(fds[0], buf, sizeof buf)) > 0) piped.append(buf, n);
  close(fds[0]);

  if (!reaped) {
    att.verdict = Verdict::kCrash;
    att.detail = "waitpid() failed";
    return att;
  }
  if (killed) {
    // The child may have raced the SIGKILL with a clean exit; the deadline
    // already expired either way, so the verdict stays timeout.
    att.verdict = Verdict::kTimeout;
    std::ostringstream os;
    os << "deadline " << opts_.deadline_s << "s expired; child killed";
    if (!piped.empty()) os << " — " << piped;
    att.detail = os.str();
    return att;
  }
  if (WIFSIGNALED(status)) {
    att.verdict = Verdict::kCrash;
    att.term_signal = WTERMSIG(status);
    std::ostringstream os;
    os << "signal " << att.term_signal << " (" << strsignal(att.term_signal)
       << ")";
    if (!piped.empty()) os << " — " << piped;
    att.detail = os.str();
    return att;
  }
  const int code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  switch (code) {
    case kExitOk:
      att.verdict = Verdict::kOk;
      break;
    case kExitValidation:
      att.verdict = Verdict::kValidationError;
      break;
    case kExitOom:
      att.verdict = Verdict::kOom;
      break;
    case kExitTimeout:
      att.verdict = Verdict::kTimeout;
      break;
    default:
      // Sanitizer aborts, uncaught std::terminate via exit(1), anything
      // unrecognised: the cell did not follow the protocol -> crash.
      att.verdict = Verdict::kCrash;
      att.detail = "unexpected exit code " + std::to_string(code);
      break;
  }
  if (!piped.empty()) {
    att.detail = att.detail.empty() ? piped : att.detail + " — " + piped;
  }
  return att;
}

CellResult SurveyRunner::run_cell(const std::string& key,
                                  const std::function<CellOutcome()>& body) {
  CellResult res;
  res.key = key;

  if (!opts_.retry_quarantined) {
    if (auto it = quarantine_.find(key); it != quarantine_.end()) {
      res.verdict = it->second.verdict;
      res.term_signal = it->second.term_signal;
      res.skipped_quarantined = true;
      res.detail = "quarantined: " + it->second.detail;
      results_.push_back(res);
      return res;
    }
  }

  Attempt att;
  while (true) {
    att = run_attempt(body);
    ++res.attempts;
    const bool transient =
        att.verdict == Verdict::kCrash || att.verdict == Verdict::kTimeout;
    if (!transient || res.attempts > opts_.max_retries) break;
    const double wait = backoff_ms(key, res.attempts);
    res.total_backoff_ms += wait;
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(wait));
  }
  res.verdict = att.verdict;
  res.term_signal = att.term_signal;
  res.last_attempt_ms = att.ms;
  res.detail = att.detail;

  // OOM is legitimate survey data (the paper's capacity rows), not a broken
  // cell: only crash / timeout / validation-error earn quarantine.
  const bool bad = res.verdict == Verdict::kCrash ||
                   res.verdict == Verdict::kTimeout ||
                   res.verdict == Verdict::kValidationError;
  bool dirty = false;
  if (bad) {
    quarantine_[key] = QuarantineEntry{res.verdict, res.term_signal,
                                       res.attempts, sanitize(res.detail)};
    dirty = true;
  } else if (quarantine_.erase(key) > 0) {
    dirty = true;  // a retried quarantined cell healed
  }
  if (dirty && opts_.persist_quarantine) save_quarantine();

  results_.push_back(res);
  return res;
}

Verdict SurveyRunner::probe_cell(
    const std::function<CellOutcome()>& body) const {
  return run_attempt(body).verdict;
}

SurveyRunner::ProbeResult SurveyRunner::probe_cell_detail(
    const std::function<CellOutcome()>& body) const {
  const Attempt att = run_attempt(body);
  return ProbeResult{att.verdict, att.ms, att.detail};
}

std::size_t SurveyRunner::load_quarantine() {
  quarantine_.clear();
  std::ifstream in(opts_.quarantine_path);
  if (!in) return 0;
  std::string line;
  while (std::getline(in, line)) {
    const std::string key = extract_string(line, "key");
    if (key.empty()) continue;
    QuarantineEntry e;
    e.verdict = verdict_from_string(extract_string(line, "verdict"));
    e.term_signal = static_cast<int>(extract_long(line, "signal"));
    e.attempts = static_cast<unsigned>(extract_long(line, "attempts"));
    e.detail = extract_string(line, "detail");
    quarantine_[key] = std::move(e);
  }
  return quarantine_.size();
}

void SurveyRunner::save_quarantine() const {
  ensure_parent_dir(opts_.quarantine_path);
  std::ofstream out(opts_.quarantine_path, std::ios::trunc);
  if (!out) return;
  out << "{\"quarantined\": [\n";
  bool first = true;
  for (const auto& [key, e] : quarantine_) {
    if (!first) out << ",\n";
    first = false;
    out << "  {\"key\": \"" << sanitize(key) << "\", \"verdict\": \""
        << gms::core::to_string(e.verdict) << "\", \"signal\": "
        << e.term_signal << ", \"attempts\": " << e.attempts
        << ", \"detail\": \"" << e.detail << "\"}";
  }
  out << "\n]}\n";
}

std::map<std::string, std::size_t> SurveyRunner::summary() const {
  std::map<std::string, std::size_t> counts;
  for (const auto& r : results_) ++counts[gms::core::to_string(r.verdict)];
  return counts;
}

void SurveyRunner::write_survey_json(const std::string& path) const {
  // Shared results shape (core/json_writer.h) — the same one the bench
  // binaries emit, so the results tooling ingests the survey identically.
  BenchJson json("survey");
  JsonFields verdicts;
  for (const auto& [name, count] : summary()) verdicts.num(name, count);
  json.meta()
      .num("deadline_s", opts_.deadline_s)
      .num("max_retries", opts_.max_retries)
      .num("rlimit_mb", opts_.rlimit_mb)
      .boolean("retry_quarantined", opts_.retry_quarantined)
      .raw("summary", verdicts.render())
      .num("quarantined", quarantine_.size());
  for (const auto& r : results_) {
    json.add_case()
        .str("name", sanitize(r.key))
        .str("verdict", gms::core::to_string(r.verdict))
        .num("signal", r.term_signal)
        .num("attempts", r.attempts)
        .num("last_attempt_ms", r.last_attempt_ms)
        .num("total_backoff_ms", r.total_backoff_ms)
        .boolean("skipped_quarantined", r.skipped_quarantined)
        .str("detail", sanitize(r.detail));
  }
  json.write(path);
}

}  // namespace gms::core
