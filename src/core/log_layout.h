// On-PM layout of the crash-consistency metadata NearPM manipulates.
//
// Every pool reserves one *CC area* per application thread, holding the
// transaction state record, undo/redo log slots, checkpoint page slots and
// the shadow-paging switch record. These areas are NDP-managed memory in PPO
// terms: the CPU only touches them during recovery, so NDP writes to them
// follow relaxed persist ordering (Section 4.1, Invariant 2).
//
// Validity discipline: a slot's data payload is always written *before* its
// header (the header literal is the last work item of the request), and the
// header carries a checksum of the payload. A crash that truncates a slot
// write therefore leaves either no header (magic mismatch) or a checksum
// mismatch -- never a silently half-applied log record.
#ifndef SRC_CORE_LOG_LAYOUT_H_
#define SRC_CORE_LOG_LAYOUT_H_

#include <cstdint>
#include <span>

#include "src/common/types.h"

namespace nearpm {

inline constexpr std::uint64_t kUndoMagic = 0x4e50554c4f473101ULL;
inline constexpr std::uint64_t kRedoMagic = 0x4e5052444f473102ULL;
inline constexpr std::uint64_t kCkptMagic = 0x4e50434b50543103ULL;
inline constexpr std::uint64_t kSwitchMagic = 0x4e50535754433104ULL;

inline constexpr std::size_t kLogSlots = 64;      // per thread, undo and redo
inline constexpr std::size_t kCkptSlots = 64;     // per thread
inline constexpr std::size_t kMaxLogData = kPmPageSize;  // payload cap (4 kB)
inline constexpr std::size_t kSlotHeaderSize = 64;
inline constexpr std::size_t kSlotSize = kSlotHeaderSize + kMaxLogData;
inline constexpr std::size_t kMaxSwitchEntries = 30;

// Header of an undo/redo log slot or a checkpoint page slot (one cacheline,
// written atomically as the final work item of the producing request).
struct alignas(64) SlotHeader {
  std::uint64_t magic = 0;     // kUndoMagic / kRedoMagic / kCkptMagic, 0=free
  std::uint64_t tag = 0;       // transaction id or checkpoint epoch
  std::uint64_t target = 0;    // address the payload restores to / applies to
  std::uint64_t size = 0;      // payload bytes
  std::uint64_t checksum = 0;  // Checksum64 of the payload
  std::uint8_t pad[24] = {};
};
static_assert(sizeof(SlotHeader) == 64);

// Per-(pool, thread) transaction state record (one cacheline, atomic).
enum class TxState : std::uint64_t { kIdle = 0, kActive = 1, kCommitted = 2 };

struct alignas(64) TxRecord {
  std::uint64_t state = 0;  // TxState
  std::uint64_t tx_id = 0;
  std::uint64_t committed_epoch = 0;  // checkpointing: last durable epoch
  std::uint8_t pad[40] = {};
};
static_assert(sizeof(TxRecord) == 64);

// Shadow paging switch record: the atomic multi-page commit. Lists the page
// table entries to flip; recovery rolls the switch forward if the record is
// valid (redo on page-table entries).
struct alignas(64) SwitchRecord {
  std::uint64_t magic = 0;  // kSwitchMagic when armed
  std::uint64_t count = 0;
  std::uint64_t checksum = 0;  // over the entry array
  std::uint8_t pad[40] = {};
  struct Entry {
    std::uint64_t vpage = 0;
    std::uint64_t new_ppage = 0;
  };
  Entry entries[kMaxSwitchEntries] = {};
};
static_assert(sizeof(SwitchRecord) == AlignUp(64 + kMaxSwitchEntries * 16, 64));

// Address calculator for one thread's CC area.
class CcArea {
 public:
  CcArea() = default;
  explicit CcArea(PmAddr base) : base_(base) {}

  PmAddr base() const { return base_; }
  PmAddr TxRecordAddr() const { return base_; }
  PmAddr SwitchRecordAddr() const { return base_ + 64; }
  PmAddr UndoSlotAddr(std::size_t i) const {
    return base_ + kFixedHeader + i * kSlotSize;
  }
  PmAddr RedoSlotAddr(std::size_t i) const {
    return UndoSlotAddr(kLogSlots) + i * kSlotSize;
  }
  PmAddr CkptSlotAddr(std::size_t i) const {
    return RedoSlotAddr(kLogSlots) + i * kSlotSize;
  }

  // Payload address of a slot (header is at the slot address itself).
  static PmAddr SlotData(PmAddr slot) { return slot + kSlotHeaderSize; }

  static constexpr std::uint64_t kFixedHeader =
      AlignUp(64 + sizeof(SwitchRecord), 64);
  static constexpr std::uint64_t kSize =
      kFixedHeader + (2 * kLogSlots + kCkptSlots) * kSlotSize;

 private:
  PmAddr base_ = 0;
};

// The payload checksum the metadata generator computes near memory. It reads
// 64-bit words (host byte order, the tail zero-padded) into four lanes, each
// step an invertible xor-multiply-xorshift, then folds the lanes and the
// length. A change confined to one 8-byte word of the payload therefore
// always changes the mixed value. The result is that value, or 1 where it
// would be 0, so it is never 0. Host work only: the cost model charges the
// metadata generator, not this function, for it.
std::uint64_t Checksum64(std::span<const std::uint8_t> data);

// Serializes a SlotHeader / TxRecord / SwitchRecord into raw bytes (they are
// trivially copyable; helpers keep call sites tidy).
template <typename T>
std::span<const std::uint8_t> AsBytes(const T& value) {
  return {reinterpret_cast<const std::uint8_t*>(&value), sizeof(T)};
}

}  // namespace nearpm

#endif  // SRC_CORE_LOG_LAYOUT_H_
