// Per-node message store with a byte-capacity limit (paper: 1 MB per node,
// 25 KB packets).
//
// Storage is a recycled slab: every StoredMessage lives in a slot of one
// contiguous vector, threaded by intrusive prev/next links that preserve
// insertion (reception) order, with a flat open-addressing id->slot index
// (FlatIdTable, sim/flat_id_table.hpp) on top. Consequences:
//   - insert / erase / find / oldest are O(1) with no per-entry heap node;
//   - iteration walks the slab in insertion order through contiguous
//     memory instead of pointer-chasing a std::list — this is the hot loop
//     of every epidemic-style router, which scans the buffer per contact;
//   - erased slots go on a free list and are recycled, so a capacity-bound
//     buffer stops heap-allocating once it has reached its high-water
//     message count (steady-state churn is allocation-free);
//   - a Handle names a slot and stays valid until *that* message is
//     erased; inserting or erasing other messages never invalidates it.
//     Raw StoredMessage pointers/references also survive unrelated erases
//     but are invalidated when an insert grows the slab — re-find() after
//     inserting, or hold a Handle.
//
// Insertion order is preserved so the default drop policy ("oldest
// received first", the ONE simulator's default) is O(1) via oldest();
// protocols with custom policies (MaxProp) pick victims through the
// Router::choose_drop_victim hook instead.
#pragma once

#include <cassert>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "sim/flat_id_table.hpp"
#include "sim/message.hpp"

namespace dtn::sim {

class Buffer {
 public:
  /// Stable name of a stored copy: an index into the slot slab. Valid from
  /// the insert that created it until the erase that removes it.
  using Handle = std::int32_t;
  static constexpr Handle kNoHandle = -1;
  static constexpr MsgId kInvalidMsg = -1;

  explicit Buffer(std::int64_t capacity_bytes);

  /// Empties the store and applies a (possibly new) capacity, while
  /// RETAINING the slab and index storage: every existing slot goes back on
  /// the free list, so a buffer reused across simulation runs re-reaches
  /// its high-water message count without a single heap allocation. All
  /// handles and iterators are invalidated. Observable behavior afterwards
  /// is identical to a freshly constructed Buffer.
  void reset(std::int64_t capacity_bytes);

  [[nodiscard]] std::int64_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::int64_t used() const noexcept { return used_; }
  [[nodiscard]] std::int64_t free_bytes() const noexcept { return capacity_ - used_; }
  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }

  [[nodiscard]] bool contains(MsgId id) const noexcept;
  /// Compat alias for contains().
  [[nodiscard]] bool has(MsgId id) const noexcept { return contains(id); }

  /// nullptr when absent. The pointer survives erases of other messages
  /// but not an insert that grows the slab (see header comment).
  [[nodiscard]] StoredMessage* find(MsgId id);
  [[nodiscard]] const StoredMessage* find(MsgId id) const;

  /// True iff the message fits the total capacity at all.
  [[nodiscard]] bool admissible(const Message& m) const noexcept {
    return m.size_bytes <= capacity_;
  }
  /// True iff it fits right now without eviction.
  [[nodiscard]] bool fits(const Message& m) const noexcept {
    return m.size_bytes <= free_bytes();
  }

  /// Inserts a copy. Precondition: !contains(id) and fits(). Callers evict
  /// first (World::make_room).
  void insert(StoredMessage sm);

  /// Removes a copy; returns true if it was present.
  bool erase(MsgId id);

  /// Received oldest / newest (ends of insertion order); kInvalidMsg if empty.
  [[nodiscard]] MsgId oldest() const noexcept;
  [[nodiscard]] MsgId newest() const noexcept;

  // ---- handle API ----
  /// Handle of a stored copy; kNoHandle when absent.
  [[nodiscard]] Handle handle_of(MsgId id) const noexcept;
  /// Handle of the oldest copy; kNoHandle when empty.
  [[nodiscard]] Handle front_handle() const noexcept;
  /// Next handle in insertion order; kNoHandle after the newest.
  [[nodiscard]] Handle next_handle(Handle h) const noexcept;
  [[nodiscard]] const StoredMessage& get(Handle h) const noexcept;
  [[nodiscard]] StoredMessage& get(Handle h) noexcept;

  // ---- iteration (insertion order, oldest first) ----
  template <bool Const>
  class BasicIterator {
    using BufPtr = std::conditional_t<Const, const Buffer*, Buffer*>;

   public:
    using value_type = StoredMessage;
    using reference = std::conditional_t<Const, const StoredMessage&, StoredMessage&>;
    using pointer = std::conditional_t<Const, const StoredMessage*, StoredMessage*>;
    using difference_type = std::ptrdiff_t;
    using iterator_category = std::forward_iterator_tag;

    BasicIterator() = default;

    reference operator*() const noexcept {
      return buf_->slots_[static_cast<std::size_t>(h_)].sm;
    }
    pointer operator->() const noexcept { return &**this; }

    BasicIterator& operator++() noexcept {
      h_ = buf_->slots_[static_cast<std::size_t>(h_)].next;
      return *this;
    }
    BasicIterator operator++(int) noexcept {
      BasicIterator copy = *this;
      ++*this;
      return copy;
    }

    [[nodiscard]] bool operator==(const BasicIterator& o) const noexcept {
      return h_ == o.h_;
    }
    [[nodiscard]] bool operator!=(const BasicIterator& o) const noexcept {
      return !(*this == o);
    }

    /// The slot handle this iterator is at (kNoHandle at end()). Lets
    /// callers remember a position cheaply.
    [[nodiscard]] Handle handle() const noexcept { return h_; }

   private:
    friend class Buffer;
    BasicIterator(BufPtr buf, Handle h) : buf_(buf), h_(h) {}

    BufPtr buf_ = nullptr;
    Handle h_ = kNoHandle;
  };

  using iterator = BasicIterator<false>;
  using const_iterator = BasicIterator<true>;

  [[nodiscard]] iterator begin() noexcept { return {this, head_}; }
  [[nodiscard]] iterator end() noexcept { return {this, kNoHandle}; }
  [[nodiscard]] const_iterator begin() const noexcept { return {this, head_}; }
  [[nodiscard]] const_iterator end() const noexcept { return {this, kNoHandle}; }
  [[nodiscard]] const_iterator cbegin() const noexcept { return begin(); }
  [[nodiscard]] const_iterator cend() const noexcept { return end(); }

  /// Collects ids of all copies expired at time t into `out` (cleared
  /// first). Reusing one scratch vector across sweeps keeps the TTL sweep
  /// allocation-free in steady state.
  void expired_into(double t, std::vector<MsgId>& out) const;

  // ---- introspection for tests / diagnostics ----
  /// Slab high-water mark: slots ever created (live + recyclable).
  [[nodiscard]] std::size_t slot_capacity() const noexcept { return slots_.size(); }

 private:
  struct Slot {
    StoredMessage sm;
    Handle prev = kNoHandle;
    Handle next = kNoHandle;  ///< doubles as the free-list link when vacant
  };

  [[nodiscard]] Handle index_find(MsgId id) const noexcept {
    const Handle* h = index_.find(id);
    return h == nullptr ? kNoHandle : *h;
  }

  std::int64_t capacity_;
  std::int64_t used_ = 0;
  std::size_t count_ = 0;

  std::vector<Slot> slots_;
  Handle head_ = kNoHandle;       ///< oldest (front of insertion order)
  Handle tail_ = kNoHandle;       ///< newest
  Handle free_head_ = kNoHandle;  ///< free-list of vacant slots
  FlatIdTable<Handle> index_;     ///< id -> slot
};

}  // namespace dtn::sim
