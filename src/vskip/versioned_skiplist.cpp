#include "vskip/versioned_skiplist.hpp"

#include <algorithm>
#include <cstdint>

#include "common/backoff.hpp"
#include "common/rng.hpp"

namespace cats::vskip {

/// One version of a key's state.  `next` points to the previous (older)
/// record; it is atomic only so that pruning can detach dead suffixes.
struct VersionedSkipList::Record {
  /// 0 = pending (not yet ordered); assigned once, by writer or helper.
  std::atomic<std::uint64_t> version{0};
  const Value value;
  const bool deleted;
  std::atomic<Record*> next;

  Record(Value v, bool d, Record* n) : value(v), deleted(d), next(n) {}
};

/// Per-key index node.  Never physically removed: logical removal is a
/// tombstone record, so the index needs no deletion marks.
///
/// Head/tail sentinels carry an out-of-band rank rather than stealing the
/// extreme key values, so kKeyMin and kKeyMax are ordinary insertable keys
/// in every build type (the key-domain contract of common/types.hpp).
struct VersionedSkipList::Node {
  enum Rank : std::int8_t { kHead = -1, kItem = 0, kTail = 1 };

  const Key key;
  const std::int8_t rank;
  const int top_level;
  std::atomic<Record*> records{nullptr};
  std::atomic<Node*> next[kMaxLevel + 1];

  Node(Key k, Rank r, int levels) : key(k), rank(r), top_level(levels) {
    for (auto& n : next) n.store(nullptr, std::memory_order_relaxed);
  }
};

namespace {

int random_level() {
  thread_local Xoshiro256 rng(
      mix64(reinterpret_cast<std::uintptr_t>(&rng) ^ 0x9e3779b9u));
  const std::uint64_t word = rng.next();
  int level = 0;
  while (level < VersionedSkipList::kMaxLevel && ((word >> level) & 1) != 0) {
    ++level;
  }
  return level;
}

void record_deleter(void* p) {
  // catslint: direct-delete(EBR deleter; runs after the grace period)
  delete static_cast<VersionedSkipList::Record*>(p);
}

using Node = VersionedSkipList::Node;

/// Node position strictly before `key` (head before everything, tail after).
bool node_before(const Node* n, Key key) {
  return n->rank == Node::kHead || (n->rank == Node::kItem && n->key < key);
}

/// Node holds exactly `key` (sentinels hold no key at all).
bool node_is(const Node* n, Key key) {
  return n->rank == Node::kItem && n->key == key;
}

}  // namespace

VersionedSkipList::VersionedSkipList(reclaim::Domain& domain)
    : domain_(domain) {
  tail_ = new Node(Key{}, Node::kTail, kMaxLevel);
  head_ = new Node(Key{}, Node::kHead, kMaxLevel);
  for (int i = 0; i <= kMaxLevel; ++i) {
    head_->next[i].store(tail_, std::memory_order_relaxed);
  }
  for (auto& slot : scan_slots_) slot->store(0, std::memory_order_relaxed);
}

// catslint: quiescent(destructor; caller guarantees no concurrent access)
VersionedSkipList::~VersionedSkipList() {
  Node* cur = head_;
  while (cur != nullptr) {
    Node* next = cur->next[0].load(std::memory_order_relaxed);
    Record* rec = cur->records.load(std::memory_order_relaxed);
    while (rec != nullptr) {
      Record* older = rec->next.load(std::memory_order_relaxed);
      delete rec;  // catslint: direct-delete(quiescent teardown)
      rec = older;
    }
    delete cur;  // catslint: direct-delete(quiescent teardown)
    cur = next;
  }
}

VersionedSkipList::Node* VersionedSkipList::find_node(Key key) const {
  Node* pred = head_;
  Node* curr = nullptr;
  for (int level = kMaxLevel; level >= 0; --level) {
    curr = pred->next[level].load(std::memory_order_acquire);
    while (node_before(curr, key)) {
      pred = curr;
      curr = curr->next[level].load(std::memory_order_acquire);
    }
  }
  return node_is(curr, key) ? curr : nullptr;
}

VersionedSkipList::Node* VersionedSkipList::get_or_insert_node(Key key) {
  Node* preds[kMaxLevel + 1];
  Node* succs[kMaxLevel + 1];
  while (true) {
    // Locate the window on every level.
    Node* pred = head_;
    for (int level = kMaxLevel; level >= 0; --level) {
      Node* curr = pred->next[level].load(std::memory_order_acquire);
      while (node_before(curr, key)) {
        pred = curr;
        curr = curr->next[level].load(std::memory_order_acquire);
      }
      preds[level] = pred;
      succs[level] = curr;
    }
    if (node_is(succs[0], key)) return succs[0];

    const int top = random_level();
    auto* node = new Node(key, Node::kItem, top);
    for (int level = 0; level <= top; ++level) {
      node->next[level].store(succs[level], std::memory_order_relaxed);
    }
    Node* expected = succs[0];
    if (!preds[0]->next[0].compare_exchange_strong(
            expected, node, std::memory_order_acq_rel)) {
      delete node;  // catslint: direct-delete(never published; CAS lost)
      continue;  // somebody changed the bottom window; retry
    }
    // Upper levels: nodes are immortal, so linking is simple best-effort
    // with window refresh on failure.
    for (int level = 1; level <= top; ++level) {
      while (true) {
        Node* succ = succs[level];
        node->next[level].store(succ, std::memory_order_release);
        Node* exp = succ;
        if (preds[level]->next[level].compare_exchange_strong(
                exp, node, std::memory_order_acq_rel)) {
          break;
        }
        // Recompute the window at this level only.
        Node* p = head_;
        for (int l = kMaxLevel; l >= level; --l) {
          Node* c = p->next[l].load(std::memory_order_acquire);
          while (node_before(c, key)) {
            p = c;
            c = c->next[l].load(std::memory_order_acquire);
          }
          if (l == level) {
            if (c == node) goto next_level;  // someone linked us already
            preds[level] = p;
            succs[level] = c;
          }
        }
      }
    next_level:;
    }
    return node;
  }
}

std::uint64_t VersionedSkipList::finalize(Record* record) const {
  std::uint64_t w = record->version.load(std::memory_order_acquire);
  if (w != 0) return w;
  std::uint64_t fresh = version_.load(std::memory_order_acquire);
  std::uint64_t expected = 0;
  record->version.compare_exchange_strong(expected, fresh,
                                          std::memory_order_acq_rel);
  return record->version.load(std::memory_order_acquire);
}

std::uint64_t VersionedSkipList::min_active_scan() const {
  std::uint64_t m = version_.load(std::memory_order_acquire);
  for (const auto& slot : scan_slots_) {
    const std::uint64_t announced = slot->load(std::memory_order_acquire);
    if (announced != 0) m = std::min(m, announced);
  }
  return m;
}

// Detaches and retires every record strictly older than the newest record
// with version <= min_needed: no active or future scan can select them.
void VersionedSkipList::prune(Node* node, std::uint64_t min_needed) {
  Record* rec = node->records.load(std::memory_order_acquire);
  while (rec != nullptr) {
    const std::uint64_t w = rec->version.load(std::memory_order_acquire);
    if (w != 0 && w <= min_needed) break;  // newest scannable record
    rec = rec->next.load(std::memory_order_acquire);
  }
  if (rec == nullptr) return;
  Record* suffix = rec->next.load(std::memory_order_acquire);
  if (suffix == nullptr) return;
  if (rec->next.compare_exchange_strong(suffix, nullptr,
                                        std::memory_order_acq_rel)) {
    // We won the detach: retire the whole suffix.  A pruner that chose an
    // older cut may be detaching the same tail, so take each older link
    // with an exchange: whoever takes a link owns the record behind it, and
    // no record is retired twice.
    while (suffix != nullptr) {
      Record* older = suffix->next.exchange(nullptr, std::memory_order_acq_rel);
      domain_.retire(suffix, &record_deleter);
      suffix = older;
    }
  }
}

bool VersionedSkipList::write(Key key, Value value, bool deleted) {
  reclaim::Domain::Guard guard(domain_);
  Node* node = get_or_insert_node(key);
  auto* rec = new Record(value, deleted, nullptr);
  Record* head = node->records.load(std::memory_order_acquire);
  do {
    rec->next.store(head, std::memory_order_relaxed);
  } while (!node->records.compare_exchange_weak(head, rec,
                                                std::memory_order_acq_rel));
  finalize(rec);
  // Logical state before this write = the previous newest record.
  Record* prev = rec->next.load(std::memory_order_acquire);
  const bool was_present = prev != nullptr && !prev->deleted;

  // Opportunistic chain maintenance.
  int length = 0;
  for (Record* r = rec; r != nullptr && length < 5;
       r = r->next.load(std::memory_order_acquire)) {
    ++length;
  }
  if (length >= 4) prune(node, min_active_scan());
  return was_present;
}

bool VersionedSkipList::insert(Key key, Value value) {
  return !write(key, value, /*deleted=*/false);
}

bool VersionedSkipList::remove(Key key) {
  // Avoid creating index nodes for keys that were never inserted.
  {
    reclaim::Domain::Guard guard(domain_);
    Node* node = find_node(key);
    if (node == nullptr) return false;
    Record* head = node->records.load(std::memory_order_acquire);
    if (head == nullptr || head->deleted) return false;
  }
  return write(key, Value{}, /*deleted=*/true);
}

bool VersionedSkipList::lookup(Key key, Value* value_out) const {
  reclaim::Domain::Guard guard(domain_);
  Node* node = find_node(key);
  if (node == nullptr) return false;
  Record* head = node->records.load(std::memory_order_acquire);
  if (head == nullptr) return false;
  finalize(head);  // the newest committed state
  if (head->deleted) return false;
  if (value_out != nullptr) *value_out = head->value;
  return true;
}

void VersionedSkipList::range_query(Key lo, Key hi, ItemVisitor visit) const {
  reclaim::Domain::Guard guard(domain_);

  // Announce before incrementing so pruners always see a version no newer
  // than the one this scan will use.
  const std::uint64_t announced = version_.load(std::memory_order_acquire);
  std::size_t slot = 0;
  {
    thread_local std::size_t preferred =
        static_cast<std::size_t>(mix64(
            reinterpret_cast<std::uintptr_t>(&slot))) % kScanSlots;
    Backoff backoff;
    while (true) {
      bool claimed = false;
      for (std::size_t probe = 0; probe < kScanSlots; ++probe) {
        const std::size_t index = (preferred + probe) % kScanSlots;
        std::uint64_t expected = 0;
        if (scan_slots_[index]->compare_exchange_strong(
                expected, announced, std::memory_order_acq_rel)) {
          slot = index;
          claimed = true;
          break;
        }
      }
      if (claimed) break;
      backoff.spin();
    }
  }

  // KiWi's linearization: the scan owns version v; records finalized later
  // get versions > v and are invisible.
  const std::uint64_t v =
      version_.fetch_add(1, std::memory_order_acq_rel);

  // Walk the bottom level across the range.
  Node* pred = head_;
  for (int level = kMaxLevel; level >= 0; --level) {
    Node* curr = pred->next[level].load(std::memory_order_acquire);
    while (node_before(curr, lo)) {
      pred = curr;
      curr = curr->next[level].load(std::memory_order_acquire);
    }
  }
  Node* curr = pred->next[0].load(std::memory_order_acquire);
  // The tail sentinel's rank terminates the walk regardless of hi.
  while (curr->rank == Node::kItem && curr->key <= hi) {
    Record* rec = curr->records.load(std::memory_order_acquire);
    while (rec != nullptr) {
      if (finalize(rec) <= v) break;  // newest record visible at v
      rec = rec->next.load(std::memory_order_acquire);
    }
    if (rec != nullptr && !rec->deleted) visit(curr->key, rec->value);
    curr = curr->next[0].load(std::memory_order_acquire);
  }

  scan_slots_[slot]->store(0, std::memory_order_release);
}

std::size_t VersionedSkipList::size() const {
  reclaim::Domain::Guard guard(domain_);
  std::size_t count = 0;
  Node* curr = head_->next[0].load(std::memory_order_acquire);
  while (curr != tail_) {
    Record* head = curr->records.load(std::memory_order_acquire);
    if (head != nullptr && !head->deleted) ++count;
    curr = curr->next[0].load(std::memory_order_acquire);
  }
  return count;
}

}  // namespace cats::vskip
