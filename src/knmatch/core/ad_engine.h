#ifndef KNMATCH_CORE_AD_ENGINE_H_
#define KNMATCH_CORE_AD_ENGINE_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "knmatch/common/status.h"
#include "knmatch/common/types.h"
#include "knmatch/core/ad_kernel.h"
#include "knmatch/core/ad_scratch.h"
#include "knmatch/core/match_types.h"
#include "knmatch/core/query_context.h"
#include "knmatch/core/sorted_columns.h"
#include "knmatch/obs/catalog.h"
#include "knmatch/obs/trace.h"

namespace knmatch::internal {

/// Detected on accessors that can fail (disk-backed ones): a non-OK
/// status() after any ReadEntry/LocateLowerBound marks every value the
/// accessor returned since as garbage, and the engine stops stepping.
/// In-memory accessors omit status() and pay nothing for the checks.
template <typename A>
concept StatusReportingAccessor = KernelStatusReportingAccessor<A>;

/// Output of one AD search: the k-n-match answer sets for every n in
/// [n0, n1] (each capped at k entries, in ascending order of n-match
/// difference — the order in which points completed n appearances), and
/// the number of individual attributes retrieved.
struct AdOutput {
  std::vector<std::vector<Neighbor>> per_n_sets;
  uint64_t attributes_retrieved = 0;
  /// Attributes consumed in ascending difference order (one per
  /// delivered pop; the name predates the loser-tree kernel).
  uint64_t heap_pops = 0;
  /// Loser-tree leaf-to-root replays (== winner runs); 0 for the
  /// reference heap driver.
  uint64_t tree_replays = 0;
};

/// The REFERENCE stepping engine of the AD (Ascending Difference)
/// algorithm: the paper's g[] cursor array (Figures 4/6) as a flat
/// binary min-heap over (difference, slot), advanced one pop-plus-push
/// at a time. The production hot path is AdKernel (core/ad_kernel.h),
/// which must pop in exactly this engine's order; this implementation
/// is kept deliberately simple and is what the differential tests and
/// the naive-comparison property tests trust.
///
/// `Accessor` must provide:
///   size_t dims() const;                 // dimensionality d
///   size_t column_size() const;          // cardinality c
///   // idx-th smallest entry of `dim`; `slot` identifies the reading
///   // cursor (2*dim for the downward direction, 2*dim+1 for upward)
///   // so disk accessors can charge the right I/O stream.
///   ColumnEntry ReadEntry(size_t dim, size_t idx, uint32_t slot);
///   size_t LocateLowerBound(size_t dim, Value v);   // first idx >= v
///
/// An accessor may additionally provide
///   size_t column_length(size_t dim) const;
/// when its columns are ragged — shorter than the cardinality because
/// some points lack a value in some dimension (missing attributes,
/// heterogeneous sources). Without it every column is assumed to hold
/// exactly `column_size()` entries. Accessors whose pid space is
/// sparse (ids are not 0..c-1, e.g. live-ingest snapshots after
/// erases) may provide
///   size_t pid_bound() const;   // exclusive upper bound on any pid
/// so the per-point appearance table is sized for the id range rather
/// than the cardinality; without it the two are assumed equal.
///
/// `ReadEntry` calls are the retrieved attributes (the paper's cost
/// metric); the engine counts them. Locating the query's position
/// (binary search / index traversal) is charged by the accessor, not
/// counted as an attribute retrieval, matching the paper's model where
/// each sorted system supports positioned sorted access.
///
/// The heap and the per-point appearance counters live in an AdScratch
/// arena: pass one in to reuse its allocations (and O(1)-reset visit
/// table) across queries on the same thread, or pass none and the
/// engine owns a private arena.
///
/// Optional positive per-dimension weights scale each difference before
/// it enters the heap; scaling by a per-dimension constant preserves
/// each cursor's ascending order, so correctness is unaffected.
template <typename Accessor>
class AdEngine {
 public:
  /// One popped attribute: the point it belongs to, its (weighted)
  /// difference to the query in the popped dimension, and how many
  /// times the point has now been seen.
  struct Pop {
    PointId pid;
    Value dif;
    uint16_t appearances;
  };

  AdEngine(Accessor& accessor, std::span<const Value> query,
           std::span<const Value> weights = {}, AdScratch* scratch = nullptr)
      : acc_(accessor),
        query_(query),
        weights_(weights),
        c_(accessor.column_size()),
        scratch_(scratch != nullptr ? scratch : &owned_scratch_) {
    const size_t d = acc_.dims();
    assert(query.size() == d);
    assert(weights.empty() || weights.size() == d);
    // Accessors over sparse pid spaces (live-ingest snapshots) expose a
    // pid_bound() above the cardinality; size the appearance table for
    // it up front so BumpAppearances never grows mid-search.
    size_t table = c_;
    if constexpr (requires { acc_.pid_bound(); }) {
      table = std::max<size_t>(table, acc_.pid_bound());
    }
    scratch_->Prepare(table, d);
    g_ = &scratch_->heap();
    next_idx_ = scratch_->next_idx();
    for (size_t dim = 0; dim < d; ++dim) {
      const size_t len = ColumnLength(dim);
      size_t pos = acc_.LocateLowerBound(dim, query_[dim]);
      if (AccessorFailed()) return;
      if (pos > len) pos = len;
      const auto down = static_cast<uint32_t>(2 * dim);
      const uint32_t up = down + 1;
      next_idx_[down] = pos == 0 ? kExhausted : pos - 1;
      next_idx_[up] = pos == len ? kExhausted : pos;
      ReadAndPush(down);
      ReadAndPush(up);
      if (AccessorFailed()) return;
    }
  }

  /// Pops the next attribute in ascending difference order; nullopt
  /// once every attribute of every column has been consumed — or once
  /// the accessor reports a failure (check its status()).
  std::optional<Pop> Step() {
    if (AccessorFailed()) return std::nullopt;
    if (g_->empty()) return std::nullopt;
    const AdHeapItem item = g_->top();
    g_->Pop();
    const PointId pid = item.entry.pid;
    const uint16_t a = scratch_->BumpAppearances(pid);
    ReadAndPush(item.slot);
    if (AccessorFailed()) return std::nullopt;
    return Pop{pid, item.dif, a};
  }

  /// Attributes retrieved so far (including cursor read-ahead).
  uint64_t attributes_retrieved() const { return attributes_retrieved_; }

 private:
  static constexpr size_t kExhausted = static_cast<size_t>(-1);

  size_t ColumnLength(size_t dim) const {
    if constexpr (requires(const Accessor& a, size_t i) {
                    { a.column_length(i) } -> std::convertible_to<size_t>;
                  }) {
      return acc_.column_length(dim);
    } else {
      (void)dim;
      return c_;
    }
  }

  bool AccessorFailed() const {
    if constexpr (StatusReportingAccessor<Accessor>) {
      return !acc_.status().ok();
    } else {
      return false;
    }
  }

  void ReadAndPush(uint32_t slot) {
    const size_t idx = next_idx_[slot];
    if (idx == kExhausted) return;
    const size_t dim = slot / 2;
    const ColumnEntry e = acc_.ReadEntry(dim, idx, slot);
    if (AccessorFailed()) return;  // e is garbage; stop consuming
    ++attributes_retrieved_;
    Value dif =
        slot % 2 == 0 ? query_[dim] - e.value : e.value - query_[dim];
    if (!weights_.empty()) dif *= weights_[dim];
    g_->Push(AdHeapItem{dif, slot, e});
    if (slot % 2 == 0) {
      next_idx_[slot] = idx == 0 ? kExhausted : idx - 1;
    } else {
      next_idx_[slot] = idx + 1 == ColumnLength(dim) ? kExhausted : idx + 1;
    }
  }

  Accessor& acc_;
  std::span<const Value> query_;
  std::span<const Value> weights_;
  size_t c_;
  uint64_t attributes_retrieved_ = 0;
  AdScratch owned_scratch_;  // used when the caller supplies no arena
  AdScratch* scratch_;
  AdCursorHeap* g_ = nullptr;
  size_t* next_idx_ = nullptr;
};

/// Shared answer-set bookkeeping for the AD drivers: routes one pop
/// into the per-n sets and reports whether the search must continue.
class AdAnswerBuilder {
 public:
  AdAnswerBuilder(AdOutput* out, size_t n0, size_t n1, size_t k)
      : out_(out), n0_(n0), n1_(n1), k_(k), terminal_left_(k) {}

  // The pop counter and the terminal set's remaining capacity live in
  // members rather than behind out_: Consume runs once per pop and the
  // escaped AdOutput pointer would force a store + vector-size reload
  // on every call. The caller must Flush once, after the drive loop.
  void Flush() { out_->heap_pops += pops_; }

  /// Pops consumed so far (read at governance stride boundaries; the
  /// caller still owes a Flush).
  uint64_t pops() const { return pops_; }

  /// Accounts one pop; false once the terminal set is complete.
  /// Forced inline: it runs once per heap pop inside every ascend
  /// sink, and the governed A/B lane (bench_governance_overhead) is
  /// sensitive to whether the sinks get the call folded.
  [[gnu::always_inline]] inline bool Consume(PointId pid, Value dif,
                                             uint16_t appearances) {
    ++pops_;
    if (appearances >= n0_ && appearances <= n1_) {
      auto& set = out_->per_n_sets[appearances - n0_];
      // Definition 4 counts appearances in the *k*-n-match answer
      // sets, so each per-n set is capped at the first k completions.
      if (set.size() < k_) {
        set.push_back(Neighbor{pid, dif});
        // Only n1-appearance completions fill the terminal set.
        if (appearances == n1_) --terminal_left_;
      }
    }
    return terminal_left_ != 0;
  }

 private:
  AdOutput* out_;
  size_t n0_, n1_, k_;
  size_t terminal_left_;
  uint64_t pops_ = 0;
};

/// Each ascend variant lives out-of-line in its own function so every
/// pop loop gets its own inlining budget and code alignment, whatever
/// RunAdSearch's setup and trip-unwind code around it grows to: the
/// governed loop is sensitive to both (bench_governance_overhead).
template <typename Accessor>
[[gnu::noinline, gnu::aligned(64)]] void DriveExactAscend(AdKernel<Accessor>& kernel,
                                        AdAnswerBuilder& answers) {
  kernel.Drive([&answers](PointId pid, Value dif, uint16_t a) {
    return answers.Consume(pid, dif, a);
  });
}

template <typename Accessor>
[[gnu::noinline, gnu::aligned(64)]] void DriveGovernedAscend(AdKernel<Accessor>& kernel,
                                           AdAnswerBuilder& answers,
                                           QueryContext* ctx) {
  // The stride countdown lives in the sink; only every 256th pop pays
  // the clock read and counter refresh, which keeps the governed lane
  // within the <2% A/B budget (bench_governance_overhead).
  uint32_t countdown = kGovernanceStride;
  kernel.Drive([&](PointId pid, Value dif, uint16_t a) {
    if (!answers.Consume(pid, dif, a)) return false;
    if (--countdown == 0) {
      countdown = kGovernanceStride;
      return ctx->Recheck(kernel.attributes_retrieved(), answers.pops());
    }
    return true;
  });
}

/// Batch driver: algorithms KNMatchAD (n0 == n1) and FKNMatchAD of the
/// paper, on top of the block-ascending kernel. Runs until the
/// k-n1-match answer set is complete; by then every k-n-match set for n
/// in [n0, n1] is complete as well (Sec. 3.2).
///
/// If the columns exhaust before k points complete n1 appearances —
/// possible only with ragged column sources, where some points lack a
/// value in some dimensions — the partial answer sets accumulated so
/// far are returned: they are exactly the matches supported by the
/// attributes that exist.
///
/// A governed run (`ctx` non-null with any limit armed) rechecks the
/// context once per kGovernanceStride pops — the ungoverned path keeps
/// the exact sink it always had, so governance costs it nothing. On a
/// trip the ascend stops, the best-so-far answer sets move into the
/// context's GovernanceTrip, and the returned AdOutput's sets are
/// empty; callers surface ctx->trip_status().
template <typename Accessor>
AdOutput RunAdSearch(Accessor& acc, std::span<const Value> query, size_t n0,
                     size_t n1, size_t k,
                     std::span<const Value> weights = {},
                     AdScratch* scratch = nullptr,
                     QueryContext* ctx = nullptr) {
  assert(n0 >= 1 && n0 <= n1 && n1 <= acc.dims());
  assert(k >= 1 && k <= acc.column_size());

  AdOutput out;
  const bool governed = ctx != nullptr && ctx->governed();
  size_t table_points = acc.column_size();
  if constexpr (requires { acc.pid_bound(); }) {
    table_points = std::max<size_t>(table_points, acc.pid_bound());
  }
  if (governed && !ctx->AdmitScratch(AdScratch::EstimateFootprintBytes(
                      table_points, acc.dims()))) {
    out.per_n_sets.resize(n1 - n0 + 1);
    return out;  // refused at admission; ctx latched the trip status
  }
  out.per_n_sets.resize(n1 - n0 + 1);
  for (auto& set : out.per_n_sets) set.reserve(k);
  if (scratch == nullptr) {
    // Callers without an arena (the sequential engine entry points) get
    // a per-thread one: a fresh scratch per query would re-fault an
    // O(cardinality) appearance table every time, which costs more than
    // a small per-n query's entire ascend. Thread-local keeps the const
    // query methods safely concurrent; the retained footprint is one
    // table sized to the largest dataset the thread has queried.
    static thread_local AdScratch tls_scratch;
    scratch = &tls_scratch;
  }
  std::optional<AdKernel<Accessor>> kernel;
  {
    obs::TraceSpan span(obs::Phase::kLocate);
    kernel.emplace(acc, query, weights, scratch);
  }

  {
    obs::TraceSpan span(obs::Phase::kAscend);
    AdAnswerBuilder answers(&out, n0, n1, k);
    if (governed) {
      DriveGovernedAscend(*kernel, answers, ctx);
    } else {
      DriveExactAscend(*kernel, answers);
    }
    answers.Flush();
  }
  out.attributes_retrieved = kernel->attributes_retrieved();
  out.tree_replays = kernel->tree_replays();
  if (governed && ctx->tripped()) {
    // Unwind cleanly with the partial result: final progress totals
    // plus the best-so-far sets (exact prefixes of the untripped
    // answer). The returned output keeps its shape but goes empty —
    // the caller returns the trip status, not a value.
    ctx->trip().pops = out.heap_pops;
    ctx->trip().attributes_retrieved = out.attributes_retrieved;
    ctx->StorePartialSets(&out.per_n_sets);
    out.per_n_sets.assign(n1 - n0 + 1, {});
  }
  if (obs::Enabled()) {
    obs::Cat().ad_tree_replays->Add(out.tree_replays);
    obs::Cat().ad_run_length->MergeBuckets(kernel->run_length_buckets(),
                                           kernel->run_entries());
  }
  if (obs::QueryTrace* trace = obs::CurrentTrace()) {
    trace->counters().attributes_retrieved += out.attributes_retrieved;
    trace->counters().heap_pops += out.heap_pops;
  }
  return out;
}

/// The same driver on the reference heap engine, pop by pop. Exists so
/// differential tests can hold the kernel to the reference's answers
/// (and so a suspected kernel bug can be cross-checked quickly);
/// production entry points all use RunAdSearch.
template <typename Accessor>
AdOutput RunAdSearchReference(Accessor& acc, std::span<const Value> query,
                              size_t n0, size_t n1, size_t k,
                              std::span<const Value> weights = {},
                              AdScratch* scratch = nullptr) {
  assert(n0 >= 1 && n0 <= n1 && n1 <= acc.dims());
  assert(k >= 1 && k <= acc.column_size());

  AdOutput out;
  out.per_n_sets.resize(n1 - n0 + 1);
  for (auto& set : out.per_n_sets) set.reserve(k);
  AdEngine<Accessor> engine(acc, query, weights, scratch);
  AdAnswerBuilder answers(&out, n0, n1, k);
  for (;;) {
    std::optional<typename AdEngine<Accessor>::Pop> pop = engine.Step();
    if (!pop.has_value()) break;  // exhausted: return the partial sets
    if (!answers.Consume(pop->pid, pop->dif, pop->appearances)) break;
  }
  answers.Flush();
  out.attributes_retrieved = engine.attributes_retrieved();
  return out;
}

/// Accessor over in-memory SortedColumns (SoA: parallel values/pids
/// arrays per dimension). ReadRun serves the kernel's buffer refills
/// straight out of the column arrays.
class MemoryColumnAccessor {
 public:
  explicit MemoryColumnAccessor(const SortedColumns& columns)
      : columns_(columns) {}

  size_t dims() const { return columns_.dims(); }
  size_t column_size() const { return columns_.size(); }
  ColumnEntry ReadEntry(size_t dim, size_t idx, uint32_t /*slot*/) const {
    return columns_.entry(dim, idx);
  }
  /// Direct column access (DirectColumnAccessor): the kernel walks
  /// these spans in place instead of buffering block reads.
  std::span<const Value> values(size_t dim) const {
    return columns_.values(dim);
  }
  std::span<const PointId> pids(size_t dim) const {
    return columns_.pids(dim);
  }
  /// Kernel block read: copies `len` entries walking away from the
  /// query (descending indices for even slots, ascending for odd) into
  /// the caller's SoA buffers. Always serves the full request — memory
  /// has no page boundaries.
  size_t ReadRun(size_t dim, size_t idx, size_t len, uint32_t slot,
                 Value* values, PointId* pids) const {
    const Value* v = columns_.values(dim).data();
    const PointId* p = columns_.pids(dim).data();
    if (slot % 2 == 0) {
      for (size_t i = 0; i < len; ++i) {
        values[i] = v[idx - i];
        pids[i] = p[idx - i];
      }
    } else {
      std::copy_n(v + idx, len, values);
      std::copy_n(p + idx, len, pids);
    }
    return len;
  }
  size_t LocateLowerBound(size_t dim, Value v) const {
    return columns_.LowerBound(dim, v);
  }

 private:
  const SortedColumns& columns_;
};

}  // namespace knmatch::internal

#endif  // KNMATCH_CORE_AD_ENGINE_H_
