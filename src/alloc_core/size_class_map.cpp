#include "alloc_core/size_class_map.h"

#include <cassert>

#include "core/alloc_config.h"

namespace gms::alloc_core {

SizeClassMap SizeClassMap::geometric(std::size_t base, unsigned num_classes) {
  assert(num_classes > 0 && num_classes <= kMaxClasses);
  SizeClassMap map;
  map.num_ = num_classes;
  for (unsigned c = 0; c < num_classes; ++c) {
    map.bytes_[c] = base << c;
  }
  return map;
}

SizeClassMap SizeClassMap::ladder(std::initializer_list<std::size_t> sizes) {
  assert(sizes.size() > 0 && sizes.size() <= kMaxClasses);
  SizeClassMap map;
  map.num_ = 0;
  [[maybe_unused]] std::size_t prev = 0;  // only read by the NDEBUG-gated assert
  for (std::size_t s : sizes) {
    assert(s > prev && "ladder must be strictly ascending");
    prev = s;
    map.bytes_[map.num_++] = s;
  }
  return map;
}

SizeClassMap SizeClassMap::parse(std::string_view text) {
  const auto rungs = core::parse_ladder_string(text);  // throws kBadLadder
  SizeClassMap map;
  map.num_ = 0;
  for (auto r : rungs) {
    map.bytes_[map.num_++] = static_cast<std::size_t>(r);
  }
  return map;
}

}  // namespace gms::alloc_core
