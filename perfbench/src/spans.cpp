#include "spans.h"

#include <filesystem>
#include <fstream>
#include <stdexcept>

namespace perfbench {

Spans::Scope Spans::open(std::string_view layer, std::string_view name) {
  if (!enabled_) return Scope(nullptr, -1);
  const int index = static_cast<int>(spans_.size());
  spans_.push_back({std::string(layer), std::string(name), now_ns(), 0,
                    open_.empty() ? -1 : open_.back()});
  open_.push_back(index);
  return Scope(this, index);
}

void Spans::close(int index) {
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  open_.pop_back();
}

std::int64_t Spans::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

std::map<std::string, double> Spans::self_seconds() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].end_ns - spans_[i].start_ns;
    if (spans_[i].parent >= 0) {
      self[static_cast<std::size_t>(spans_[i].parent)] -=
          spans_[i].end_ns - spans_[i].start_ns;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].layer] += 1e-9 * static_cast<double>(self[i]);
  }
  return out;
}

std::map<std::string, std::uint64_t> Spans::calls() const {
  std::map<std::string, std::uint64_t> out;
  for (const auto& s : spans_) ++out[s.layer + "." + s.name];
  return out;
}

void Spans::write_chrome(const std::string& path) const {
  const auto parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent);
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write span trace " + path);
  os << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    os << (i == 0 ? "" : ",") << "\n{\"name\":\"" << s.layer << '.' << s.name
       << "\",\"cat\":\"" << s.layer << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1"
       << ",\"ts\":" << static_cast<double>(s.start_ns) / 1e3
       << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
       << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << "}}";
  }
  os << "\n]}\n";
  if (!os) throw std::runtime_error("short write to " + path);
}

}  // namespace perfbench
