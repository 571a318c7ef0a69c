// Bounded lock-free request ring with non-blocking admission and parked
// consumers: the serve layer's hot path.
//
// This replaces the mutex/condvar BoundedQueue that used to guard every
// shard's request stream. The design is the classic bounded ring with
// per-slot sequence numbers (Vyukov's bounded queue, and the same idiom as
// decaf-emu's ring-buffer + semaphore parking):
//
//   * power-of-two slot count, so `pos & mask` replaces a modulo;
//   * monotonically increasing 64-bit head (dequeue) and tail (enqueue)
//     positions that are never reduced -- a slot's lap is encoded in its
//     sequence number, so wraparound is safe without ABA;
//   * each slot carries an atomic sequence: `seq == pos` means free for the
//     producer claiming `pos`, `seq == pos + 1` means published for the
//     consumer expecting `pos`, and popping republishes `seq = pos +
//     capacity` (free for the next lap). The sequence is both the
//     full/empty test and the happens-before edge: the producer's release
//     store of `pos + 1` publishes the payload the consumer's acquire load
//     observes;
//   * head and tail live on separate cache lines, and producers keep a
//     cached copy of the consumer index so a saturated ring rejects
//     admissions without ever touching the slot or head cache lines
//     (backpressure storms stay out of the consumers' way);
//   * consumers spin briefly, then park on a counting semaphore. Producers
//     only touch the semaphore when a consumer has registered as a waiter,
//     so the uncontended push is a claim-CAS plus one release store.
//
// Naming: the serve layer's shape is many producers (client threads in
// Submit) and one drainer (the shard's thread in src/serve/batch_driver.h),
// but the pop side runs the same sequence-CAS protocol, so several consumers
// are safe too -- the ring is MPMC-correct, MPSC-tuned.
//
// Admission control semantics match the old queue exactly: TryPush never
// blocks and returns false on a full or closed ring (the item is not
// consumed), TryPop never blocks (deterministic Pump mode), Pop parks, and
// Close() wakes every parked consumer for shutdown. "Closed" is a bit CAS'd
// into the tail word itself, so an admission and a close serialize on one
// atomic: every claim that won its CAS is ordered before the close in the
// tail's modification order, and the post-close drain can never strand an
// accepted request.
//
// T must be default-constructible and move-assignable (slots hold T by
// value; a popped slot keeps the moved-from husk until its next lap).
#ifndef SRC_SERVE_MPSC_RING_H_
#define SRC_SERVE_MPSC_RING_H_

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <semaphore>
#include <thread>
#include <utility>
#include <vector>

namespace nearpm {
namespace serve {

template <typename T>
class MpscRing {
 public:
  // Capacity rounds up to the next power of two (minimum 2) so slot lookup
  // is a mask, matching the power-of-two queue sizes the service uses.
  explicit MpscRing(std::size_t min_capacity)
      : capacity_(std::bit_ceil(min_capacity < 2 ? std::size_t{2}
                                                 : min_capacity)),
        mask_(capacity_ - 1),
        slots_(capacity_) {
    for (std::size_t i = 0; i < capacity_; ++i) {
      slots_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  MpscRing(const MpscRing&) = delete;
  MpscRing& operator=(const MpscRing&) = delete;

  std::size_t capacity() const { return capacity_; }

  // Approximate occupancy (exact once producers and consumers quiesce).
  std::size_t size() const {
    const std::uint64_t tail =
        enqueue_pos_.load(std::memory_order_relaxed) & ~kClosedBit;
    const std::uint64_t head = dequeue_pos_.load(std::memory_order_relaxed);
    return tail > head ? static_cast<std::size_t>(tail - head) : 0;
  }

  // Admission: false when the ring is full or closed (the item is not
  // consumed, so the caller can retry or report backpressure).
  bool TryPush(T& item) {
    std::uint64_t pos = enqueue_pos_.load(std::memory_order_relaxed);
    while (true) {
      if (pos & kClosedBit) {
        return false;
      }
      // Fast full test against the cached consumer index: a saturated ring
      // rejects here without dirtying the slot or head cache lines. Only on
      // apparent fullness is the real head re-read (one cross-core load).
      std::uint64_t cached =
          cached_dequeue_pos_.load(std::memory_order_relaxed);
      if (pos - cached >= capacity_) {
        cached = dequeue_pos_.load(std::memory_order_acquire);
        cached_dequeue_pos_.store(cached, std::memory_order_relaxed);
        if (pos - cached >= capacity_) {
          return false;
        }
      }
      Slot& slot = slots_[pos & mask_];
      const std::uint64_t seq = slot.seq.load(std::memory_order_acquire);
      const std::int64_t dif =
          static_cast<std::int64_t>(seq) - static_cast<std::int64_t>(pos);
      if (dif == 0) {
        // The slot is free for exactly this position: claim it by advancing
        // the tail. Failure means another producer (or Close) moved the
        // tail; the CAS reloads `pos` and we retry.
        if (enqueue_pos_.compare_exchange_weak(pos, pos + 1,
                                               std::memory_order_relaxed)) {
          slot.value = std::move(item);
          slot.seq.store(pos + 1, std::memory_order_release);
          NotifyWaiter();
          return true;
        }
      } else if (dif < 0) {
        // The slot still carries last lap's value: the ring is full.
        return false;
      } else {
        // Another producer claimed this position; chase the tail.
        pos = enqueue_pos_.load(std::memory_order_relaxed);
      }
    }
  }

  // Non-blocking consume (deterministic Pump mode).
  std::optional<T> TryPop() {
    std::uint64_t pos = dequeue_pos_.load(std::memory_order_relaxed);
    while (true) {
      Slot& slot = slots_[pos & mask_];
      const std::uint64_t seq = slot.seq.load(std::memory_order_acquire);
      const std::int64_t dif = static_cast<std::int64_t>(seq) -
                               static_cast<std::int64_t>(pos + 1);
      if (dif == 0) {
        if (dequeue_pos_.compare_exchange_weak(pos, pos + 1,
                                               std::memory_order_relaxed)) {
          std::optional<T> item(std::move(slot.value));
          // Republish the slot for the producer `capacity_` positions ahead
          // (the next lap); the release pairs with that producer's acquire.
          slot.seq.store(pos + capacity_, std::memory_order_release);
          return item;
        }
      } else if (dif < 0) {
        // Empty, or a producer claimed the slot but has not published yet;
        // either way there is nothing consumable at the head.
        return std::nullopt;
      } else {
        // Another consumer emptied this position; chase the head.
        pos = dequeue_pos_.load(std::memory_order_relaxed);
      }
    }
  }

  // Blocking consume; empty optional means the ring closed and drained.
  // Spins a few rounds first (requests usually arrive in bursts), then
  // parks on the semaphore until a producer or Close() releases it.
  std::optional<T> Pop() {
    while (true) {
      for (int spin = 0; spin < kSpinPops; ++spin) {
        if (auto item = TryPop()) {
          return item;
        }
        if (closed()) {
          return DrainClosed();
        }
        std::this_thread::yield();
      }
      // Parking protocol (the eventcount handshake): register as a waiter,
      // then re-check for work. The seq_cst fences on both sides order
      // "publish item; read waiters" against "add waiter; read item", so
      // either this consumer sees the item or the producer sees the waiter
      // -- a wakeup is never lost. Spurious semaphore permits only cost one
      // trip around the loop.
      waiters_.fetch_add(1, std::memory_order_seq_cst);
      std::atomic_thread_fence(std::memory_order_seq_cst);
      if (auto item = TryPop()) {
        waiters_.fetch_sub(1, std::memory_order_relaxed);
        return item;
      }
      if (closed()) {
        waiters_.fetch_sub(1, std::memory_order_relaxed);
        return DrainClosed();
      }
      sem_.acquire();
      waiters_.fetch_sub(1, std::memory_order_relaxed);
    }
  }

  // Terminal: rejects every future admission and wakes every parked
  // consumer. Items already claimed keep draining through Pop()/TryPop().
  void Close() {
    enqueue_pos_.fetch_or(kClosedBit, std::memory_order_seq_cst);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    const std::uint64_t waiters = waiters_.load(std::memory_order_relaxed);
    sem_.release(static_cast<std::ptrdiff_t>(waiters) + 1);
  }

 private:
  struct Slot {
    std::atomic<std::uint64_t> seq{0};
    T value{};
  };

  // Bit 63 of the tail word: positions are claim counts and can never reach
  // it, so the bit doubles as the closed flag without a second atomic.
  static constexpr std::uint64_t kClosedBit = 1ull << 63;
  static constexpr int kSpinPops = 4;

  bool closed() const {
    return (enqueue_pos_.load(std::memory_order_seq_cst) & kClosedBit) != 0;
  }

  void NotifyWaiter() {
    // Fence-then-load pairs with the waiter registration in Pop(); the
    // semaphore is untouched unless someone is actually parked.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (waiters_.load(std::memory_order_relaxed) > 0) {
      sem_.release();
    }
  }

  // Post-close drain: every claim CAS'd into the tail before the closed bit
  // is visible here, so spin through any producer that claimed a slot but
  // has not published its sequence yet -- an accepted request is never
  // stranded by shutdown.
  std::optional<T> DrainClosed() {
    while (true) {
      if (auto item = TryPop()) {
        return item;
      }
      const std::uint64_t tail =
          enqueue_pos_.load(std::memory_order_acquire) & ~kClosedBit;
      if (dequeue_pos_.load(std::memory_order_acquire) >= tail) {
        return std::nullopt;
      }
      std::this_thread::yield();
    }
  }

  const std::size_t capacity_;
  const std::uint64_t mask_;
  std::vector<Slot> slots_;
  // Head, tail, the producers' cached head and the waiter count each get
  // their own cache line: producers ping-pong only the tail, consumers only
  // the head.
  alignas(64) std::atomic<std::uint64_t> enqueue_pos_{0};
  alignas(64) std::atomic<std::uint64_t> cached_dequeue_pos_{0};
  alignas(64) std::atomic<std::uint64_t> dequeue_pos_{0};
  alignas(64) std::atomic<std::uint64_t> waiters_{0};
  std::counting_semaphore<> sem_{0};
};

}  // namespace serve
}  // namespace nearpm

#endif  // SRC_SERVE_MPSC_RING_H_
