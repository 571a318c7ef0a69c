#include "src/core/log_layout.h"

#include <cstring>

namespace nearpm {

namespace {

constexpr std::uint64_t kMul = 0x9fb21c651e98df25ULL;  // odd
constexpr std::uint64_t kSeed[4] = {0x243f6a8885a308d3ULL,
                                    0x13198a2e03707344ULL,
                                    0xa4093822299f31d0ULL,
                                    0x082efa98ec4e6c89ULL};

// One word into one lane. xor, multiply by an odd constant and xorshift are
// each invertible, so for a fixed lane state distinct words give distinct
// results, and for a fixed word distinct states stay distinct.
inline std::uint64_t Step(std::uint64_t h, std::uint64_t w) {
  h ^= w;
  h *= kMul;
  return h ^ (h >> 32);
}

// The first `n` (< 8) bytes of `p` as the low bytes of a zeroed word.
inline std::uint64_t LoadPartial(const std::uint8_t* p, std::size_t n) {
  std::uint64_t w = 0;
  if (n != 0) {
    std::memcpy(&w, p, n);
  }
  return w;
}

inline std::uint64_t Load(const std::uint8_t* p) {
  std::uint64_t w;
  std::memcpy(&w, p, sizeof(w));
  return w;
}

// Bijective avalanche (murmur3 fmix64) so every input bit reaches every
// output bit.
inline std::uint64_t Finish(std::uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  // Never 0, so "checksum present" is distinguishable from a zeroed slot
  // even for an empty payload.
  return h == 0 ? 1 : h;
}

}  // namespace

std::uint64_t Checksum64(std::span<const std::uint8_t> data) {
  const std::uint8_t* p = data.data();
  const std::size_t n = data.size();
  if (n <= 8) {
    // One step: the common 8-byte undo log costs a single multiply chain.
    const std::uint64_t w = n == 8 ? Load(p) : LoadPartial(p, n);
    return Finish(Step(kSeed[0] ^ n, w));
  }
  std::uint64_t lane[4] = {kSeed[0], kSeed[1], kSeed[2], kSeed[3]};
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    lane[0] = Step(lane[0], Load(p + i));
    lane[1] = Step(lane[1], Load(p + i + 8));
    lane[2] = Step(lane[2], Load(p + i + 16));
    lane[3] = Step(lane[3], Load(p + i + 24));
  }
  std::size_t k = 0;
  for (; i + 8 <= n; i += 8, ++k) {
    lane[k] = Step(lane[k], Load(p + i));
  }
  if (i < n) {
    lane[k] = Step(lane[k], LoadPartial(p + i, n - i));
  }
  // Each fold is invertible in the lane it takes in, so a change confined to
  // one lane survives to the result; the length goes in last.
  std::uint64_t h = Step(lane[0], lane[1]);
  h = Step(h, lane[2]);
  h = Step(h, lane[3]);
  return Finish(Step(h, n));
}

}  // namespace nearpm
