#include "src/pmem/interleave.h"

#include <cassert>

namespace nearpm {

InterleaveMap::InterleaveMap(int num_devices, std::uint64_t stripe)
    : num_devices_(num_devices), stripe_(stripe) {
  assert(num_devices_ >= 1);
  assert(stripe_ > 0 && (stripe_ & (stripe_ - 1)) == 0);
}

DeviceId InterleaveMap::DeviceOf(PmAddr addr) const {
  return static_cast<DeviceId>((addr / stripe_) %
                               static_cast<std::uint64_t>(num_devices_));
}

PmAddr InterleaveMap::LocalOffsetOf(PmAddr addr) const {
  const std::uint64_t stripe_index = addr / stripe_;
  const std::uint64_t local_stripe =
      stripe_index / static_cast<std::uint64_t>(num_devices_);
  return local_stripe * stripe_ + (addr % stripe_);
}

std::vector<DeviceSlice> InterleaveMap::Split(const AddrRange& range) const {
  std::vector<DeviceSlice> out;
  ForEachSlice(range, [&out](const DeviceSlice& s) { out.push_back(s); });
  return out;
}

bool InterleaveMap::Spans(const AddrRange& range) const {
  if (range.empty() || num_devices_ == 1) {
    return false;
  }
  const DeviceId first = DeviceOf(range.begin);
  for (PmAddr a = AlignDown(range.begin, stripe_) + stripe_; a < range.end;
       a += stripe_) {
    if (DeviceOf(a) != first) {
      return true;
    }
  }
  return false;
}

}  // namespace nearpm
