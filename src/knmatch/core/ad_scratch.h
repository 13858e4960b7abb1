#ifndef KNMATCH_CORE_AD_SCRATCH_H_
#define KNMATCH_CORE_AD_SCRATCH_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "knmatch/common/types.h"
#include "knmatch/core/sorted_columns.h"

namespace knmatch::internal {

/// Entries the block-ascending kernel buffers ahead per direction
/// cursor. Bounded so a disk accessor's run read never spans more than
/// it can serve from one page, and small enough that 2d buffers stay
/// cache-resident (64 entries = 512 B of values per cursor).
inline constexpr size_t kAdRunBlock = 64;

/// One attribute sitting in the AD cursor front: its (weighted)
/// difference to the query, the direction cursor it came from, and the
/// column entry itself. Factored out of AdEngine so the scratch arena
/// can own the storage without depending on the accessor type.
struct AdHeapItem {
  Value dif = 0;
  uint32_t slot = 0;
  ColumnEntry entry;
};

/// Fixed-capacity flat binary min-heap over (difference, slot) — the
/// g[] cursor front of the AD algorithm, as used by the reference
/// AdEngine. Each of the 2d direction cursors has at most one
/// outstanding item in the front, so capacity 2d is exact: storage is
/// reserved once per query shape and the pop loop never allocates.
/// Keyed identically to the previous std::priority_queue (difference,
/// then slot), so pop order — and therefore every answer — is
/// unchanged.
class AdCursorHeap {
 public:
  /// Empties the heap and guarantees room for `capacity` items.
  void Reset(size_t capacity) {
    size_ = 0;
    if (items_.size() < capacity) items_.resize(capacity);
  }

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  const AdHeapItem& top() const {
    assert(size_ > 0);
    return items_[0];
  }

  void Push(const AdHeapItem& item) {
    assert(size_ < items_.size() && "heap capacity is one item per cursor");
    size_t i = size_++;
    while (i > 0) {
      const size_t parent = (i - 1) / 2;
      if (!Before(item, items_[parent])) break;
      items_[i] = items_[parent];
      i = parent;
    }
    items_[i] = item;
  }

  void Pop() {
    assert(size_ > 0);
    const AdHeapItem moved = items_[--size_];
    if (size_ == 0) return;
    size_t i = 0;
    for (;;) {
      size_t child = 2 * i + 1;
      if (child >= size_) break;
      if (child + 1 < size_ && Before(items_[child + 1], items_[child])) {
        ++child;
      }
      if (!Before(items_[child], moved)) break;
      items_[i] = items_[child];
      i = child;
    }
    items_[i] = moved;
  }

 private:
  static bool Before(const AdHeapItem& a, const AdHeapItem& b) {
    if (a.dif != b.dif) return a.dif < b.dif;
    return a.slot < b.slot;
  }

  std::vector<AdHeapItem> items_;
  size_t size_ = 0;
};

/// Tournament (loser) tree over the 2d direction cursors, keyed on
/// (difference, slot) exactly like AdCursorHeap — the slot tie-break
/// keeps selection a total order, so the sequence of winners is
/// identical to the heap's pop sequence. The difference is the cost of
/// advancing: where a binary heap pays a pop (sift-down) plus a push
/// (sift-up), the loser tree replays one leaf-to-root path — about half
/// the comparisons, no item moves, and the path is the same every time
/// a cursor wins, so it stays hot in cache.
///
/// Keys live outside the tree (the kernel's cur_difs array); the tree
/// stores only cursor indices. Exhausted cursors carry key kInfValue
/// and simply lose every match against live cursors; the kernel stops
/// once the overall winner is exhausted. (Attribute values are finite —
/// the paper normalizes data to [0, 1] — so an infinite key can only
/// mean exhaustion.)
class AdLoserTree {
 public:
  /// Re-shapes for `m` >= 2 cursors and rebuilds from `difs[0..m)`.
  void Build(size_t m, const Value* difs) {
    assert(m >= 2);
    m_ = static_cast<uint32_t>(m);
    if (tree_.size() < m) tree_.resize(m);
    std::fill(tree_.begin(), tree_.begin() + m, kNone);
    for (uint32_t s = 0; s < m_; ++s) Seed(s, difs);
  }

  /// The cursor with the smallest (difference, slot) key.
  uint32_t winner() const { return tree_[0]; }

  /// Re-runs the matches on `slot`'s leaf-to-root path after its key
  /// changed (it was the winner and advanced). One pass, O(log 2d).
  void Replay(uint32_t slot, const Value* difs) {
    uint32_t w = slot;
    for (uint32_t node = (slot + m_) >> 1; node >= 1; node >>= 1) {
      if (Before(tree_[node], w, difs)) std::swap(w, tree_[node]);
    }
    tree_[0] = w;
  }

  /// The runner-up: the smallest key among all cursors other than the
  /// current winner `w`. The second-best cursor must have lost its
  /// match against the champion directly (anything that lost elsewhere
  /// lost to a cursor smaller than itself), so it is the minimum over
  /// the losers stored on the champion's leaf-to-root path.
  uint32_t RunnerUp(uint32_t w, const Value* difs) const {
    uint32_t ru = kNone;
    for (uint32_t node = (w + m_) >> 1; node >= 1; node >>= 1) {
      const uint32_t loser = tree_[node];
      if (ru == kNone || Before(loser, ru, difs)) ru = loser;
    }
    return ru;
  }

  static constexpr uint32_t kNone = 0xFFFFFFFFu;

 private:
  /// (difs[a], a) < (difs[b], b); kNone loses to everything.
  bool Before(uint32_t a, uint32_t b, const Value* difs) const {
    if (a == kNone) return false;
    if (b == kNone) return true;
    if (difs[a] != difs[b]) return difs[a] < difs[b];
    return a < b;
  }

  /// Initial insertion of leaf `s`: walk up; park at the first empty
  /// node, play at occupied ones (winner continues, loser stays). Every
  /// internal node meets exactly two contenders — one per child subtree
  /// — so after all m seeds the tree is a complete tournament.
  void Seed(uint32_t s, const Value* difs) {
    uint32_t w = s;
    for (uint32_t node = (s + m_) >> 1; node >= 1; node >>= 1) {
      if (tree_[node] == kNone) {
        tree_[node] = w;
        return;
      }
      if (Before(tree_[node], w, difs)) std::swap(w, tree_[node]);
    }
    tree_[0] = w;
  }

  uint32_t m_ = 0;
  /// tree_[0] = overall winner; tree_[1..m) = loser parked at that
  /// internal node (heap-shaped: leaf s sits under node (s + m) / 2).
  std::vector<uint32_t> tree_;
};

/// Reusable per-query working state for the AD engines: the appearance
/// counters, the 2d cursor positions, the cursor-front heap (reference
/// engine), and the loser tree + SoA cursor state + run read-ahead
/// buffers (block-ascending kernel).
///
/// A fresh AdEngine used to zero-initialize an O(cardinality) `appear_`
/// vector per query — per-query setup cost that dwarfs the attribute
/// retrievals the paper optimizes once queries are cheap and frequent.
/// The scratch replaces it with an epoch-stamped visit table: each
/// Prepare() bumps a 16-bit epoch, and a counter is treated as zero
/// until its stamp matches the current epoch. Reset is O(1); the O(c)
/// fill happens only on first use, growth, or epoch wrap (every 2^16
/// queries).
///
/// A scratch is single-threaded state: share one per worker thread,
/// never across concurrent queries. Any cardinality/dimensionality is
/// accepted per Prepare(), so one scratch serves heterogeneous
/// datasets back to back.
class AdScratch {
 public:
  /// What Prepare(cardinality, dims) would make this scratch hold, in
  /// bytes — the governance layer's scratch-memory admission check
  /// (QueryContext::AdmitScratch) compares this against the budget
  /// BEFORE any allocation happens. Mirrors Prepare's sizing: the
  /// appearance table dominates (4 bytes per point); everything else
  /// is O(d).
  static size_t EstimateFootprintBytes(size_t cardinality, size_t dims) {
    const size_t slots = 2 * dims;
    size_t bytes = cardinality * sizeof(uint32_t);  // appearance table
    // Per-slot cursor state: next_idx, cur_dif, cur_pid, buf_pos,
    // buf_len, col_values, col_pids, col_len.
    bytes += slots * (2 * sizeof(size_t) + sizeof(Value) + sizeof(PointId) +
                      2 * sizeof(uint32_t) + sizeof(const Value*) +
                      sizeof(const PointId*));
    // Read-ahead buffers (SoA), heap items, loser-tree nodes, pair
    // minima.
    bytes += slots * kAdRunBlock * (sizeof(Value) + sizeof(PointId));
    bytes += slots * (sizeof(AdHeapItem) + sizeof(uint32_t));
    bytes += dims * sizeof(Value);
    return bytes;
  }

  /// Readies the scratch for a query over `cardinality` points and
  /// `dims` dimensions. O(1) amortized.
  void Prepare(size_t cardinality, size_t dims) {
    // A point appears once per dimension across the two direction
    // cursors, so 16 bits of count never saturate for any practical d.
    assert(dims < (size_t{1} << 16));
    epoch_ = (epoch_ + 1) & kStampMask;
    if (cardinality > appear_.size() || epoch_ == 0) {
      appear_.assign(std::max(cardinality, appear_.size()), 0);
      epoch_ = 1;
    }
    // cur_dif_ and pair_min_ are over-allocated to a multiple of four
    // so the kernel's SIMD winner scan can read whole vectors; the
    // kernel parks kInfValue in the pad lanes, which lose every
    // comparison.
    const size_t slots = 2 * dims;
    const size_t padded = (slots + 3) & ~size_t{3};
    const size_t padded_pairs = (dims + 3) & ~size_t{3};
    if (next_idx_.size() < slots) {
      next_idx_.resize(slots);
      cur_dif_.resize(padded);
      cur_pid_.resize(slots);
      buf_pos_.resize(slots);
      buf_len_.resize(slots);
      buf_values_.resize(slots * kAdRunBlock);
      buf_pids_.resize(slots * kAdRunBlock);
      col_values_.resize(slots);
      col_pids_.resize(slots);
      col_len_.resize(slots);
      pair_min_.resize(padded_pairs);
    }
    heap_.Reset(slots);
  }

  /// Increments and returns the appearance count of `pid` for the
  /// current query (1 on first sighting).
  ///
  /// Stamp and count share one packed 4-byte slot on purpose: every pop
  /// of the ascend loop lands here with an effectively random pid, so
  /// the table is the loop's dominant source of cache misses. Splitting
  /// the fields across two arrays would touch two random lines per pop;
  /// packed (stamp in the high 16 bits, count in the low 16), it is one
  /// line, and the table is half the size an 8-byte slot would make it
  /// — 16 cache lines' worth of counters per line fetched.
  /// Forced inline: this runs once per heap pop in every ascend sink,
  /// and with three accessor families instantiating the kernel in one
  /// TU the inliner's unit-growth budget otherwise demotes it to an
  /// out-of-line call — whose caller-saved spills cost the governed
  /// A/B lane its <2% budget (bench_governance_overhead). The cold
  /// grow branch lives in GrowAppearances so the hot body stays small.
  [[gnu::always_inline]] inline uint16_t BumpAppearances(PointId pid) {
    if (pid >= appear_.size()) [[unlikely]] GrowAppearances(pid);
    uint32_t v = appear_[pid];
    if ((v >> 16) != epoch_) v = epoch_ << 16;
    ++v;
    appear_[pid] = v;
    return static_cast<uint16_t>(v);
  }

  /// Sparse pid spaces (live ingest after erases) can carry ids past
  /// the cardinality Prepare() sized for; grow geometrically so the
  /// caller's branch stays predictable. Fresh cells are zero-stamped,
  /// which never matches the current epoch, so they read as count zero.
  [[gnu::noinline]] void GrowAppearances(PointId pid) {
    appear_.resize(std::max<size_t>(pid + 1, appear_.size() * 2), 0);
  }

  /// Hints the cache that `pid`'s appearance slot will be bumped soon.
  /// The block kernel calls this for every pid it buffers at refill
  /// time, so the miss is (mostly) resolved by the time the entry pops.
  void PrefetchAppearances(PointId pid) const {
#if defined(__GNUC__) || defined(__clang__)
    if (pid < appear_.size()) __builtin_prefetch(&appear_[pid], 1, 2);
#else
    (void)pid;
#endif
  }

  /// The cursor-front heap (valid until the next Prepare).
  AdCursorHeap& heap() { return heap_; }
  /// The loser tree (valid until the next Prepare).
  AdLoserTree& loser_tree() { return tree_; }

  // Kernel cursor state, all sized 2d by Prepare() and valid until the
  // next Prepare(). SoA: the ascend loop compares cur_difs alone.
  size_t* next_idx() { return next_idx_.data(); }
  Value* cur_difs() { return cur_dif_.data(); }
  PointId* cur_pids() { return cur_pid_.data(); }
  uint32_t* buf_pos() { return buf_pos_.data(); }
  uint32_t* buf_len() { return buf_len_.data(); }
  /// Read-ahead buffers, kAdRunBlock entries per slot.
  Value* buf_values(uint32_t slot) {
    return buf_values_.data() + size_t{slot} * kAdRunBlock;
  }
  PointId* buf_pids(uint32_t slot) {
    return buf_pids_.data() + size_t{slot} * kAdRunBlock;
  }
  /// Per-slot column base pointers and lengths, cached once per query
  /// by the kernel's direct (zero-copy) path so an advance is two
  /// indexed loads rather than a walk of the accessor's containers.
  const Value** col_values() { return col_values_.data(); }
  const PointId** col_pids() { return col_pids_.data(); }
  size_t* col_len() { return col_len_.data(); }
  /// Per-dimension min(down cursor dif, up cursor dif), maintained by
  /// the kernel's scan path so winner selection scans d doubles, not
  /// 2d. kInfValue-padded to a multiple of four like cur_difs.
  Value* pair_mins() { return pair_min_.data(); }

 private:
  /// The epoch stamp is 16 bits wide (the high half of a packed
  /// appearance slot), so it cycles every 2^16 Prepare() calls; the
  /// wrap re-zeroes the table, which keeps "stamp != epoch_" meaning
  /// "not seen this query" exact across the cycle.
  static constexpr uint32_t kStampMask = 0xFFFFu;

  uint32_t epoch_ = 0;
  std::vector<uint32_t> appear_;
  std::vector<size_t> next_idx_;
  std::vector<Value> cur_dif_;
  std::vector<PointId> cur_pid_;
  std::vector<uint32_t> buf_pos_;
  std::vector<uint32_t> buf_len_;
  std::vector<Value> buf_values_;
  std::vector<PointId> buf_pids_;
  std::vector<const Value*> col_values_;
  std::vector<const PointId*> col_pids_;
  std::vector<size_t> col_len_;
  std::vector<Value> pair_min_;
  AdCursorHeap heap_;
  AdLoserTree tree_;
};

}  // namespace knmatch::internal

#endif  // KNMATCH_CORE_AD_SCRATCH_H_
