// Per-thread seqlock event rings.
//
// The adaptation trace (trace.hpp) and the flight recorder
// (flight/flight.hpp) both log small fixed-size records from many threads
// and read them back from any thread at any time.  `SeqlockRings` is that
// one mechanism: a fixed-size ring per counter shard (counters.hpp), so a
// write touches only the calling thread's ring and costs a few plain
// stores, never a read-modify-write.  When the ring is full the oldest
// record is overwritten.
//
// Every slot carries a sequence number: odd while the slot is being
// written, even when it is complete.  A reader keeps a slot only if the
// number was the expected even value both before and after it copied the
// payload, so a slot overwritten mid-read (wraparound) is dropped instead of
// returned torn.  The payload is stored as atomic words, so a racing read
// is well defined, merely discarded.
//
// `Record` is any trivially copyable struct with a `std::uint32_t thread`
// member; dump() sets it to the ring index, so writers need not store it.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/padded.hpp"
#include "obs/counters.hpp"  // kShards / shard_index()

namespace cats::obs {

template <class Record, std::size_t kSize>
class SeqlockRings {
  static_assert(std::is_trivially_copyable_v<Record>);

 public:
  /// Records retained per thread ring; older records are overwritten.
  static constexpr std::size_t kRingSize = kSize;

  /// Appends `record` to the calling thread's ring.
  void write(const Record& record) {
    Ring& ring = *rings_[shard_index()];
    const std::uint64_t seq = ring.next.load(std::memory_order_relaxed);
    Slot& slot = ring.slots[seq % kSize];
    std::uint64_t words[kWords] = {};
    std::memcpy(words, &record, sizeof(Record));
    // Odd sequence = slot being written.  The release payload stores keep
    // this store ahead of them, so a reader that sees new payload also sees
    // the slot's number move.
    slot.seq.store(2 * seq + 1, std::memory_order_relaxed);
    // One store per payload word, unrolled.
    [&]<std::size_t... I>(std::index_sequence<I...>) {
      (slot.words[I].store(words[I], std::memory_order_release), ...);
    }(std::make_index_sequence<kWords>{});
    slot.seq.store(2 * (seq + 1), std::memory_order_release);
    ring.next.store(seq + 1, std::memory_order_release);
  }

  /// Merged timeline of every ring, sorted by `Record::*time`.  Each
  /// record's `thread` is its ring index.
  std::vector<Record> dump(std::uint64_t Record::*time) const {
    std::vector<Record> out;
    for (std::size_t t = 0; t < kShards; ++t) {
      const Ring& ring = *rings_[t];
      const std::uint64_t next = ring.next.load(std::memory_order_acquire);
      const std::uint64_t first = next > kSize ? next - kSize : 0;
      for (std::uint64_t seq = first; seq < next; ++seq) {
        const Slot& slot = ring.slots[seq % kSize];
        const std::uint64_t tag = slot.seq.load(std::memory_order_acquire);
        std::uint64_t words[kWords];
        for (std::size_t i = 0; i < kWords; ++i) {
          words[i] = slot.words[i].load(std::memory_order_acquire);
        }
        // Keep only slots that were complete for this seq when we started
        // and still are: drops torn entries under concurrent wraparound.
        if (tag != 2 * (seq + 1) ||
            slot.seq.load(std::memory_order_relaxed) != tag) {
          continue;
        }
        Record& record = out.emplace_back();
        std::memcpy(&record, words, sizeof(Record));
        record.thread = static_cast<std::uint32_t>(t);
      }
    }
    std::sort(out.begin(), out.end(),
              [time](const Record& a, const Record& b) {
                return a.*time < b.*time;
              });
    return out;
  }

  /// Total records ever written (including overwritten ones).
  std::uint64_t recorded() const {
    std::uint64_t total = 0;
    for (const auto& ring : rings_) {
      total += ring->next.load(std::memory_order_relaxed);
    }
    return total;
  }

  /// Records lost to wraparound (written minus still resident).
  std::uint64_t dropped() const {
    std::uint64_t lost = 0;
    for (const auto& ring : rings_) {
      const std::uint64_t next = ring->next.load(std::memory_order_relaxed);
      if (next > kSize) lost += next - kSize;
    }
    return lost;
  }

  /// Empties every ring.  Not safe against concurrent writers.
  void reset() {
    for (auto& ring : rings_) {
      for (auto& slot : ring->slots) {
        slot.seq.store(0, std::memory_order_relaxed);
      }
      ring->next.store(0, std::memory_order_relaxed);
    }
  }

 private:
  static constexpr std::size_t kWords =
      (sizeof(Record) + sizeof(std::uint64_t) - 1) / sizeof(std::uint64_t);

  struct Slot {
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uint64_t> words[kWords] = {};
  };
  struct Ring {
    Slot slots[kSize];
    std::atomic<std::uint64_t> next{0};
  };
  Padded<Ring> rings_[kShards];
};

}  // namespace cats::obs
