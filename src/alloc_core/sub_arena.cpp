#include "alloc_core/sub_arena.h"

#include <stdexcept>

namespace gms::alloc_core {

namespace {

std::string human_bytes(std::size_t bytes) {
  if (bytes >= (std::size_t{1} << 20)) {
    const double mib = static_cast<double>(bytes) / (1u << 20);
    std::string s = std::to_string(mib);
    return s.substr(0, s.find('.') + 2) + "MiB";
  }
  if (bytes >= 1024) {
    const double kib = static_cast<double>(bytes) / 1024;
    std::string s = std::to_string(kib);
    return s.substr(0, s.find('.') + 2) + "KiB";
  }
  return std::to_string(bytes) + "B";
}

}  // namespace

void SubArena::overflow(std::string_view label) const {
  throw std::invalid_argument{
      "allocator metadata exceeds heap: carve '" +
      std::string(label.empty() ? "unlabelled" : label) + "' ends at byte " +
      std::to_string(off_) + " of " + std::to_string(end_)};
}

std::string SubArena::describe() const {
  std::string out;
  for (const auto& e : extents_) {
    if (!out.empty()) out += " | ";
    out += std::string(e.label) + " " + human_bytes(e.bytes);
  }
  if (out.empty()) out = "unlabelled carve, " + human_bytes(used());
  return out;
}

}  // namespace gms::alloc_core
