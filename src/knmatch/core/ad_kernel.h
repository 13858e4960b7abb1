#ifndef KNMATCH_CORE_AD_KERNEL_H_
#define KNMATCH_CORE_AD_KERNEL_H_

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <span>

#if defined(__AVX2__)
#include <immintrin.h>
#elif defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "knmatch/common/status.h"
#include "knmatch/common/types.h"
#include "knmatch/core/ad_scratch.h"
#include "knmatch/core/sorted_columns.h"

namespace knmatch::internal {

/// Detected on accessors that can fail (disk-backed ones): a non-OK
/// status() after any read marks every value the accessor returned
/// since as garbage, and the kernel stops stepping. In-memory accessors
/// omit status() and pay nothing for the checks.
template <typename A>
concept KernelStatusReportingAccessor = requires(const A& a) {
  { a.status() } -> std::convertible_to<const Status&>;
};

/// Detected on accessors that can serve a cursor a block of consecutive
/// entries in one call (see AdKernel's accessor contract below).
/// Accessors without ReadRun fall back to per-entry ReadEntry calls —
/// the kernel's stepping order is identical either way.
template <typename A>
concept RunReadingAccessor =
    requires(A a, size_t dim, size_t idx, size_t len, uint32_t slot,
             Value* values, PointId* pids) {
      { a.ReadRun(dim, idx, len, slot, values, pids) }
          -> std::convertible_to<size_t>;
    };

/// Detected on accessors whose columns are directly addressable memory
/// (SoA spans). The kernel then walks the columns in place — no
/// read-ahead buffer, no copy; the run block degenerates to a moving
/// pointer. Takes precedence over RunReadingAccessor.
template <typename A>
concept DirectColumnAccessor =
    requires(const A& a, size_t dim) {
      { a.values(dim) } -> std::convertible_to<std::span<const Value>>;
      { a.pids(dim) } -> std::convertible_to<std::span<const PointId>>;
    };

/// The block-ascending kernel: the stepping core of the AD (Ascending
/// Difference) algorithm, rewritten around three ideas from the
/// external-merge literature —
///
///   1. a loser (tournament) tree over the 2d direction cursors instead
///      of a binary heap: advancing the winning cursor is one
///      leaf-to-root replay instead of a pop followed by a push;
///   2. run-batched stepping: after winning, a cursor keeps consuming
///      consecutive entries while each (weighted) difference stays
///      strictly ahead of the runner-up's key — zero tree updates per
///      entry, and columns are sorted, so runs near the query are long;
///   3. block reads: a RunReadingAccessor refills a cursor's
///      read-ahead buffer many entries at a time (SoA: values and pids
///      in separate arrays), which a disk accessor serves with
///      page-granular sequential I/O.
///
/// Pop order, answer sets, and attributes_retrieved are bit-for-bit
/// identical to the reference heap engine (AdEngine): the loser tree
/// selects by the same total order (difference, slot); a run consumes
/// exactly the entries the heap would have popped consecutively from
/// that cursor; and every entry is charged when it enters the cursor
/// front (the moment the heap engine would have read it), never at
/// buffer-refill time. Differential tests enforce the equivalence.
///
/// `Accessor` must provide dims(), column_size(), ReadEntry(dim, idx,
/// slot) and LocateLowerBound(dim, v) as documented on AdEngine, and
/// may additionally provide:
///
///   // Reads up to `len` consecutive entries of `dim` walking away
///   // from the query: slot 2*dim covers idx, idx-1, ... (descending);
///   // slot 2*dim+1 covers idx, idx+1, ... (ascending). Fills
///   // values[i]/pids[i] in walk order and returns how many entries
///   // were produced (>= 1 unless the accessor failed, in which case 0
///   // with a latched status()). An accessor may return fewer than
///   // `len` when serving more would cost extra I/O (a page boundary):
///   // the kernel charges attributes as entries are consumed, so a
///   // short read must only ever stop at a boundary the per-entry path
///   // would also have charged for crossing.
///   size_t ReadRun(size_t dim, size_t idx, size_t len, uint32_t slot,
///                  Value* values, PointId* pids);
///
/// and/or `column_length(dim)` for ragged columns, as on AdEngine.
template <typename Accessor>
class AdKernel {
 public:
  AdKernel(Accessor& accessor, std::span<const Value> query,
           std::span<const Value> weights = {}, AdScratch* scratch = nullptr)
      : acc_(accessor),
        query_(query),
        weights_(weights),
        c_(accessor.column_size()),
        scratch_(scratch != nullptr ? scratch : &owned_scratch_) {
    const size_t d = acc_.dims();
    assert(d >= 1);
    assert(query.size() == d);
    assert(weights.empty() || weights.size() == d);
    // As in AdEngine: sparse pid spaces advertise pid_bound() so the
    // appearance table is sized before the hot loop starts.
    size_t table = c_;
    if constexpr (requires { acc_.pid_bound(); }) {
      table = std::max<size_t>(table, acc_.pid_bound());
    }
    scratch_->Prepare(table, d);
    slots_ = 2 * d;
    next_idx_ = scratch_->next_idx();
    cur_dif_ = scratch_->cur_difs();
    cur_pid_ = scratch_->cur_pids();
    buf_pos_ = scratch_->buf_pos();
    buf_len_ = scratch_->buf_len();
    tree_ = &scratch_->loser_tree();
    if constexpr (DirectColumnAccessor<Accessor>) {
      col_vals_ = scratch_->col_values();
      col_pids_ = scratch_->col_pids();
      col_len_ = scratch_->col_len();
      for (size_t dim = 0; dim < d; ++dim) {
        const std::span<const Value> vals = acc_.values(dim);
        const std::span<const PointId> pids = acc_.pids(dim);
        for (uint32_t slot : {static_cast<uint32_t>(2 * dim),
                              static_cast<uint32_t>(2 * dim + 1)}) {
          col_vals_[slot] = vals.data();
          col_pids_[slot] = pids.data();
          col_len_[slot] = vals.size();
        }
      }
    }
    for (size_t dim = 0; dim < d; ++dim) {
      const size_t len = ColumnLength(dim);
      size_t pos = acc_.LocateLowerBound(dim, query_[dim]);
      if (AccessorFailed()) return;
      if (pos > len) pos = len;
      const auto down = static_cast<uint32_t>(2 * dim);
      const uint32_t up = down + 1;
      next_idx_[down] = pos == 0 ? kExhausted : pos - 1;
      next_idx_[up] = pos == len ? kExhausted : pos;
      buf_pos_[down] = buf_len_[down] = 0;
      buf_pos_[up] = buf_len_[up] = 0;
      Advance(down);
      Advance(up);
      if (AccessorFailed()) return;
    }
    // Selection strategy: up to kScanSlots cursors the difs span a few
    // cache lines, and a branchless (SIMD where available) rescan per
    // run beats the loser tree's pointer walk, whose data-dependent
    // branches mispredict on effectively random keys. Past that the
    // O(log m) tree wins and the scan path is skipped.
    use_scan_ = slots_ <= kScanSlots;
    // Pad lanes up to the vector width hold +inf: they lose every
    // comparison, so whole-vector loads in ScanWinner are safe.
    for (size_t s = slots_; s < ((slots_ + 3) & ~size_t{3}); ++s) {
      cur_dif_[s] = kInfValue;
    }
    if (use_scan_) {
      pair_min_ = scratch_->pair_mins();
      for (size_t dim = 0; dim < d; ++dim) {
        pair_min_[dim] = std::min(cur_dif_[2 * dim], cur_dif_[2 * dim + 1]);
      }
      for (size_t dim = d; dim < ((d + 3) & ~size_t{3}); ++dim) {
        pair_min_[dim] = kInfValue;
      }
    } else {
      tree_->Build(slots_, cur_dif_);
    }
  }

  /// Runs the ascend loop, delivering pops in ascending (difference,
  /// slot) order to `sink(pid, dif, appearances)` until the sink
  /// returns false, the columns exhaust, or the accessor fails (check
  /// its status()). This is the run-batched hot path: inside a run the
  /// per-entry work is one buffered read, one difference, one
  /// appearance bump, and one comparison against the runner-up's key.
  template <typename Sink>
  void Drive(Sink&& sink) {
    if (AccessorFailed()) return;
    if (use_scan_) {
      DriveScan(sink);
      return;
    }
    uint32_t w = tree_->winner();
    while (cur_dif_[w] != kInfValue) {
      const uint32_t ru = tree_->RunnerUp(w, cur_dif_);
      assert(ru != AdLoserTree::kNone && "2d >= 2 cursors always "
             "leave a (possibly exhausted) runner-up");
      const Value ru_dif = cur_dif_[ru];
      bool stop = false;
      uint64_t run_length = 0;
      for (;;) {
        const PointId pid = cur_pid_[w];
        const Value dif = cur_dif_[w];
        const uint16_t a = scratch_->BumpAppearances(pid);
        Advance(w);  // replacement read — charged exactly like the
                     // heap engine's post-pop ReadAndPush
        if (AccessorFailed()) {
          // Mirror AdEngine::Step: the pop whose replacement read
          // failed is not delivered.
          RecordRun(run_length);
          return;
        }
        ++run_length;
        if (!sink(pid, dif, a)) {
          stop = true;
          break;
        }
        // The run continues while this cursor still precedes the
        // runner-up in (difference, slot) order — exactly the
        // condition under which the heap would pop it again next.
        const Value nd = cur_dif_[w];
        if (nd < ru_dif || (nd == ru_dif && nd != kInfValue && w < ru)) {
          continue;
        }
        break;
      }
      RecordRun(run_length);
      tree_->Replay(w, cur_dif_);
      ++tree_replays_;
      if (stop) return;
      w = tree_->winner();
      // The refill-time prefetch warmed this slot into the outer
      // levels ~2d*kAdRunBlock pops ago; one more touch now, a full
      // run before the bump, covers the last hop into L1.
      scratch_->PrefetchAppearances(cur_pid_[w]);
    }
  }

  /// Attributes retrieved so far (including cursor read-ahead, not
  /// including buffered entries no cursor has reached yet).
  uint64_t attributes_retrieved() const { return attributes_retrieved_; }
  /// Winner-selection rounds (== runs) so far: loser-tree replays on
  /// the tree path, rescans on the flat-scan path.
  uint64_t tree_replays() const { return tree_replays_; }
  /// Entries delivered across all runs (Drive only).
  uint64_t run_entries() const { return run_entries_; }
  /// Run lengths, log-bucketed with obs::Histogram's layout (bucket i
  /// >= 1 holds lengths in [2^(i-1), 2^i)); accumulated locally so the
  /// hot loop never touches an atomic.
  const std::array<uint64_t, 65>& run_length_buckets() const {
    return run_length_buckets_;
  }

 private:
  static constexpr size_t kExhausted = static_cast<size_t>(-1);
  /// Cursor count up to which flat rescan beats the loser tree (the
  /// difs array fits in two cache lines and the scan is branchless,
  /// where every tree-walk branch is a coin flip to the predictor).
  static constexpr size_t kScanSlots = 64;

  /// The scan-path ascend loop. Selection is ScanWinner's branchless
  /// min/max arithmetic; the run bound is the strict `dif < runner-up
  /// key` test. On a (difference, slot) tie with the runner-up the run
  /// ends one entry early and the rescan re-selects this cursor by the
  /// same total order the tree applies — pop order is identical, the
  /// tie just costs one extra rescan.
  ///
  /// Full rescans only happen every THIRD round. Each full scan yields
  /// the winner's key m1 plus the second and third smallest pair-min
  /// values x2 and x3 (multiset order), and two "free" rounds follow:
  ///
  /// Round B: when round A's run ends, every cursor sits at or above
  /// the old runner-up key `b` = min(x2, partner-of-A), the advanced
  /// cursor included (that is why the run ended), and some cursor still
  /// holds exactly `b` (all others are untouched since the scan). So
  /// the next winner's difference is `b` itself and SelectAt recovers
  /// its slot with the cheap equality pass alone. `b` also remains a
  /// valid (conservative) bound for this round: the true runner-up is
  /// >= `b`, so the round serves exactly one entry and order is
  /// preserved — same argument as the tie-with-runner-up case above.
  ///
  /// Round C: only the pairs of the round-A and round-B winners have
  /// moved since the scan, so the smallest pair-min over the UNTOUCHED
  /// pairs is still known from the scan's triple: it is x2 when B won
  /// inside A's pair (only one pair touched), else x3 (B's pair held
  /// exactly x2 when it was a different pair — any other pair's min is
  /// >= x2, and B's key `b` was <= x2 — so one instance each of x1 and
  /// x2 leave the multiset). The global minimum is that value folded
  /// with the two touched pairs' current mins, and SelectAt on it
  /// recovers the winning slot — again an exact (difference, slot)
  /// selection with a conservative one-entry bound. After round C the
  /// books are spent and the cycle restarts with a full scan.
  template <typename Sink>
  void DriveScan(Sink&& sink) {
    Value bound, x2, x3;
    uint32_t w = ScanWinner(&bound, &x2, &x3);
    if (cur_dif_[w] == kInfValue) return;
    uint32_t winner_a = w;
    uint32_t phase = 0;  // 0: round A (fresh scan), 1: round B, 2: round C
    for (;;) {
      uint64_t run_length = 0;
      bool stop = false;
      for (;;) {
        const PointId pid = cur_pid_[w];
        const Value dif = cur_dif_[w];
        const uint16_t a = scratch_->BumpAppearances(pid);
        Advance(w);  // replacement read — charged exactly like the
                     // heap engine's post-pop ReadAndPush
        if (AccessorFailed()) {
          // Mirror AdEngine::Step: the pop whose replacement read
          // failed is not delivered.
          RecordRun(run_length);
          return;
        }
        ++run_length;
        if (!sink(pid, dif, a)) {
          stop = true;
          break;
        }
        if (cur_dif_[w] >= bound) break;
      }
      RecordRun(run_length);
      ++tree_replays_;
      // Only w's pair changed during the run; fold its new front back
      // into the pair-min array the next selection reads.
      UpdatePairMin(w);
      if (stop) return;
      if (phase == 0) {
        // All cursors >= bound; bound == kInfValue means all exhausted.
        if (bound == kInfValue) return;
        winner_a = w;
        w = SelectAt(bound);
        phase = 1;  // keep `bound`; serves exactly one entry
      } else if (phase == 1) {
        const Value rest =
            (w >> 1) == (winner_a >> 1) ? x2 : x3;
        const Value vc = std::min(
            rest, std::min(pair_min_[winner_a >> 1], pair_min_[w >> 1]));
        if (vc == kInfValue) return;
        w = SelectAt(vc);
        bound = vc;
        phase = 2;
      } else {
        w = ScanWinner(&bound, &x2, &x3);
        if (cur_dif_[w] == kInfValue) return;
        phase = 0;
      }
    }
  }

  /// Returns the winning cursor given that the winning *difference* is
  /// already known to be `key` (see DriveScan's free round): the
  /// equality pass of ScanWinner without its min/max accumulation.
  /// Same (difference, slot) tie-break — first matching pair is the
  /// lowest, even lane preferred inside it.
  uint32_t SelectAt(Value key) const {
    const Value* pm = pair_min_;
    uint32_t pair;
#if defined(__SSE2__)
    const uint32_t npp = (static_cast<uint32_t>(slots_ / 2) + 3) & ~3u;
    const __m128d k = _mm_set1_pd(key);
    uint64_t mask = 0;
    for (uint32_t i = 0; i < npp; i += 4) {
      const auto lo = static_cast<uint64_t>(
          _mm_movemask_pd(_mm_cmpeq_pd(_mm_loadu_pd(pm + i), k)));
      const auto hi = static_cast<uint64_t>(
          _mm_movemask_pd(_mm_cmpeq_pd(_mm_loadu_pd(pm + i + 2), k)));
      mask |= (lo | (hi << 2)) << i;
    }
    assert(mask != 0 && "some cursor holds the known winning key");
    pair = static_cast<uint32_t>(std::countr_zero(mask));
#else
    pair = 0;
    while (pm[pair] != key) ++pair;
#endif
    const uint32_t base = 2 * pair;
    return base | static_cast<uint32_t>(cur_dif_[base] != key);
  }

  /// Refreshes the pair-min entry of `slot`'s dimension after its
  /// cursor front moved.
  void UpdatePairMin(uint32_t slot) {
    const uint32_t base = slot & ~1u;
    pair_min_[base >> 1] = std::min(cur_dif_[base], cur_dif_[base + 1]);
  }

  /// Returns the winning cursor — smallest (difference, slot) — and
  /// writes the runner-up's difference (the smallest among the other
  /// cursors) to `ru_dif`. Scans the d-wide pair-min array rather than
  /// the 2d difs; the winner inside the winning pair is whichever lane
  /// equals the pair min (even lane on a tie — the lower slot, exactly
  /// the (difference, slot) tie-break), and the runner-up is the better
  /// of the second-best pair min and the winner's partner lane.
  ///
  /// Also writes the second- and third-smallest pair-min *values*
  /// (multiset order — duplicates count) to `x2`/`x3`; DriveScan's
  /// second free round is derived from them.
  ///
  /// Branchless: the three smallest are tracked with pure min/max
  /// arithmetic — with mv = max(v, first), the exact (non-NaN) update
  /// is third' = min(third, max(second, mv)); second' = min(second,
  /// mv); first' = min(first, v) — and the winning pair's index rides
  /// alongside in double lanes, blended on the strict `v < first` mask,
  /// which keeps the FIRST minimum seen, i.e. the lowest pair index,
  /// exactly the (difference, slot) tie-break. Differences are never
  /// NaN (values, queries, and weights are finite; only exhaustion
  /// writes kInfValue), so the min/max identities are exact. Two
  /// sorted triples (fa, sa, ta), (fb, sb, tb) merge with the same
  /// algebra: with G = max(fa, fb) and ms = min(sa, sb), the union's
  /// three smallest are (min(fa, fb), min(G, ms), min(max(G, ms),
  /// min(ta, tb))).
  uint32_t ScanWinner(Value* ru_dif, Value* x2, Value* x3) const {
    const Value* pm = pair_min_;
    const uint32_t np = static_cast<uint32_t>(slots_ / 2);
    Value m1, m2, m3;
    uint32_t pair;
#if defined(__SSE2__)
    const uint32_t npp = (np + 3) & ~3u;
    __m128d f0 = _mm_set1_pd(kInfValue), f1 = f0;
    __m128d s0 = f0, s1 = f0, t0 = f0, t1 = f0;
    __m128d i0 = _mm_setzero_pd(), i1 = i0;
#if defined(__AVX2__)
    // 4 pair-mins per iteration in one 256-bit lane set — the same
    // min/max algebra and first-minimum index blend as the two-vector
    // SSE2 loop below, with identical lane->index assignment: the low
    // 128 bits carry pairs {i, i+1} and the high 128 pairs {i+2, i+3},
    // so splitting the accumulators reproduces (f0, f1, ...) exactly
    // and the chain merge below is shared. See the tuning log in
    // docs/perf.md; built only under KNMATCH_NATIVE_ARCH.
    {
      __m256d fw = _mm256_set1_pd(kInfValue), sw = fw, tw = fw;
      __m256d iw = _mm256_setzero_pd();
      __m256d cw = _mm256_set_pd(3.0, 2.0, 1.0, 0.0);
      const __m256d stepw = _mm256_set1_pd(4.0);
      for (uint32_t i = 0; i < npp; i += 4) {
        const __m256d v = _mm256_loadu_pd(pm + i);
        const __m256d lt = _mm256_cmp_pd(v, fw, _CMP_LT_OQ);
        const __m256d mv = _mm256_max_pd(v, fw);
        tw = _mm256_min_pd(tw, _mm256_max_pd(sw, mv));
        sw = _mm256_min_pd(sw, mv);
        fw = _mm256_min_pd(fw, v);
        iw = _mm256_blendv_pd(iw, cw, lt);
        cw = _mm256_add_pd(cw, stepw);
      }
      f0 = _mm256_castpd256_pd128(fw);
      f1 = _mm256_extractf128_pd(fw, 1);
      s0 = _mm256_castpd256_pd128(sw);
      s1 = _mm256_extractf128_pd(sw, 1);
      t0 = _mm256_castpd256_pd128(tw);
      t1 = _mm256_extractf128_pd(tw, 1);
      i0 = _mm256_castpd256_pd128(iw);
      i1 = _mm256_extractf128_pd(iw, 1);
    }
#else
    __m128d c0 = _mm_set_pd(1.0, 0.0);
    __m128d c1 = _mm_set_pd(3.0, 2.0);
    const __m128d step = _mm_set1_pd(4.0);
    for (uint32_t i = 0; i < npp; i += 4) {
      const __m128d v0 = _mm_loadu_pd(pm + i);
      const __m128d v1 = _mm_loadu_pd(pm + i + 2);
      const __m128d lt0 = _mm_cmplt_pd(v0, f0);
      const __m128d lt1 = _mm_cmplt_pd(v1, f1);
      const __m128d mv0 = _mm_max_pd(v0, f0);
      const __m128d mv1 = _mm_max_pd(v1, f1);
      t0 = _mm_min_pd(t0, _mm_max_pd(s0, mv0));
      t1 = _mm_min_pd(t1, _mm_max_pd(s1, mv1));
      s0 = _mm_min_pd(s0, mv0);
      s1 = _mm_min_pd(s1, mv1);
      f0 = _mm_min_pd(f0, v0);
      f1 = _mm_min_pd(f1, v1);
      i0 = _mm_or_pd(_mm_and_pd(lt0, c0), _mm_andnot_pd(lt0, i0));
      i1 = _mm_or_pd(_mm_and_pd(lt1, c1), _mm_andnot_pd(lt1, i1));
      c0 = _mm_add_pd(c0, step);
      c1 = _mm_add_pd(c1, step);
    }
#endif
    // Chain merge; a value tie sends the lower pair index forward.
    const __m128d teq = _mm_cmpeq_pd(f0, f1);
    const __m128d tlt = _mm_cmplt_pd(f0, f1);
    const __m128d ilt = _mm_cmplt_pd(i0, i1);
    const __m128d take0 = _mm_or_pd(tlt, _mm_and_pd(teq, ilt));
    const __m128d ia =
        _mm_or_pd(_mm_and_pd(take0, i0), _mm_andnot_pd(take0, i1));
    const __m128d gv = _mm_max_pd(f0, f1);
    const __m128d msv = _mm_min_pd(s0, s1);
    const __m128d fa = _mm_min_pd(f0, f1);
    const __m128d sa = _mm_min_pd(gv, msv);
    const __m128d ta =
        _mm_min_pd(_mm_max_pd(gv, msv), _mm_min_pd(t0, t1));
    const __m128d fh = _mm_unpackhi_pd(fa, fa);
    const double flo = _mm_cvtsd_f64(fa);
    const double fhi = _mm_cvtsd_f64(fh);
    const double ilo = _mm_cvtsd_f64(ia);
    const double ihi = _mm_cvtsd_f64(_mm_unpackhi_pd(ia, ia));
    const double slo = _mm_cvtsd_f64(sa);
    const double shi = _mm_cvtsd_f64(_mm_unpackhi_pd(sa, sa));
    const double tlo2 = _mm_cvtsd_f64(ta);
    const double thi2 = _mm_cvtsd_f64(_mm_unpackhi_pd(ta, ta));
    m1 = std::min(flo, fhi);
    const double g = std::max(flo, fhi);
    const double ms = std::min(slo, shi);
    m2 = std::min(g, ms);
    m3 = std::min(std::max(g, ms), std::min(tlo2, thi2));
    const bool low_lane = flo < fhi || (flo == fhi && ilo < ihi);
    pair = static_cast<uint32_t>(low_lane ? ilo : ihi);
#else
    Value f0 = kInfValue, f1 = kInfValue;
    Value s0 = kInfValue, s1 = kInfValue;
    Value t0 = kInfValue, t1 = kInfValue;
    uint32_t i = 0;
    for (; i + 2 <= np; i += 2) {
      const Value v0 = pm[i], v1 = pm[i + 1];
      const Value mv0 = std::max(v0, f0);
      const Value mv1 = std::max(v1, f1);
      t0 = std::min(t0, std::max(s0, mv0));
      t1 = std::min(t1, std::max(s1, mv1));
      s0 = std::min(s0, mv0);
      s1 = std::min(s1, mv1);
      f0 = std::min(f0, v0);
      f1 = std::min(f1, v1);
    }
    for (; i < np; ++i) {
      const Value v = pm[i];
      const Value mv = std::max(v, f0);
      t0 = std::min(t0, std::max(s0, mv));
      s0 = std::min(s0, mv);
      f0 = std::min(f0, v);
    }
    m1 = std::min(f0, f1);
    const Value g = std::max(f0, f1);
    const Value ms = std::min(s0, s1);
    m2 = std::min(g, ms);
    m3 = std::min(std::max(g, ms), std::min(t0, t1));
    pair = 0;
    while (pm[pair] != m1) ++pair;
#endif
    *x2 = m2;
    *x3 = m3;
    const uint32_t base = 2 * pair;
    // Even lane first on a tie: the lower slot wins equal differences.
    // Branchless — which lane holds the pair min is a coin flip.
    const uint32_t w = base | static_cast<uint32_t>(cur_dif_[base] != m1);
    *ru_dif = std::min(m2, cur_dif_[w ^ 1]);
    return w;
  }

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
    if constexpr (KernelStatusReportingAccessor<Accessor>) {
      return !acc_.status().ok();
    } else {
      return false;
    }
  }

  void RecordRun(uint64_t length) {
    if (length == 0) return;
    run_entries_ += length;
    ++run_length_buckets_[std::bit_width(length)];
  }

  /// Refills `slot`'s read-ahead buffer from the accessor. Returns
  /// false when the column direction is exhausted or the accessor
  /// failed (nothing buffered).
  bool Refill(uint32_t slot) {
    const size_t idx = next_idx_[slot];
    if (idx == kExhausted) return false;
    const size_t dim = slot / 2;
    size_t got;
    if constexpr (RunReadingAccessor<Accessor>) {
      // Entries available walking away from the query from idx.
      const size_t avail =
          slot % 2 == 0 ? idx + 1 : ColumnLength(dim) - idx;
      const size_t want = std::min(avail, kAdRunBlock);
      got = acc_.ReadRun(dim, idx, want, slot, scratch_->buf_values(slot),
                         scratch_->buf_pids(slot));
      if (AccessorFailed()) return false;
      assert(got >= 1 && got <= want);
    } else {
      const ColumnEntry e = acc_.ReadEntry(dim, idx, slot);
      if (AccessorFailed()) return false;
      scratch_->buf_values(slot)[0] = e.value;
      scratch_->buf_pids(slot)[0] = e.pid;
      got = 1;
    }
    buf_pos_[slot] = 0;
    buf_len_[slot] = static_cast<uint32_t>(got);
    // Every buffered pid gets its appearance slot bumped when it pops;
    // touching those (random) lines now overlaps the misses with the
    // pops of other cursors instead of stalling each pop in turn.
    const PointId* pids = scratch_->buf_pids(slot);
    for (size_t i = 0; i < got; ++i) scratch_->PrefetchAppearances(pids[i]);
    if (slot % 2 == 0) {
      next_idx_[slot] = idx + 1 == got ? kExhausted : idx - got;
    } else {
      next_idx_[slot] =
          idx + got == ColumnLength(dim) ? kExhausted : idx + got;
    }
    return true;
  }

  /// How many entries ahead of the cursor front the direct path
  /// prefetches the appearance slot: far enough (8 entries = ~16d pops
  /// of other-cursor work) to cover the table's cache miss.
  static constexpr size_t kAppearPrefetchDist = 8;

  /// Moves `slot`'s cursor front one entry outward: pulls the next
  /// buffered entry (refilling if needed), charges it as retrieved, and
  /// computes its weighted difference. Marks the cursor exhausted
  /// (kInfValue) when its column direction runs dry. Directly
  /// addressable columns skip the buffer and walk the arrays in place.
  void Advance(uint32_t slot) {
    if constexpr (DirectColumnAccessor<Accessor>) {
      const size_t idx = next_idx_[slot];
      if (idx == kExhausted) {
        cur_dif_[slot] = kInfValue;
        cur_pid_[slot] = kInvalidPointId;
        return;
      }
      const Value* vals = col_vals_[slot];
      const PointId* pids = col_pids_[slot];
      // Charged here — when the entry enters the cursor front, which
      // is the moment the per-entry reference engine reads it.
      ++attributes_retrieved_;
      const Value v = vals[idx];
      cur_pid_[slot] = pids[idx];
      const size_t dim = slot / 2;
      Value dif = slot % 2 == 0 ? query_[dim] - v : v - query_[dim];
      if (!weights_.empty()) dif *= weights_[dim];
      cur_dif_[slot] = dif;
      if (slot % 2 == 0) {
        next_idx_[slot] = idx == 0 ? kExhausted : idx - 1;
        if (idx >= kAppearPrefetchDist) {
          scratch_->PrefetchAppearances(pids[idx - kAppearPrefetchDist]);
        }
      } else {
        next_idx_[slot] = idx + 1 == col_len_[slot] ? kExhausted : idx + 1;
        if (idx + kAppearPrefetchDist < col_len_[slot]) {
          scratch_->PrefetchAppearances(pids[idx + kAppearPrefetchDist]);
        }
      }
      return;
    }
    if (buf_pos_[slot] == buf_len_[slot] && !Refill(slot)) {
      cur_dif_[slot] = kInfValue;
      cur_pid_[slot] = kInvalidPointId;
      return;
    }
    const uint32_t p = buf_pos_[slot]++;
    const Value v = scratch_->buf_values(slot)[p];
    // Charged here — when the entry enters the cursor front, which is
    // the moment the per-entry reference engine reads it — so buffered
    // read-ahead never inflates the paper's cost metric.
    ++attributes_retrieved_;
    const size_t dim = slot / 2;
    Value dif = slot % 2 == 0 ? query_[dim] - v : v - query_[dim];
    if (!weights_.empty()) dif *= weights_[dim];
    cur_dif_[slot] = dif;
    cur_pid_[slot] = scratch_->buf_pids(slot)[p];
  }

  Accessor& acc_;
  std::span<const Value> query_;
  std::span<const Value> weights_;
  size_t c_;
  size_t slots_ = 0;
  bool use_scan_ = false;
  uint64_t attributes_retrieved_ = 0;
  uint64_t tree_replays_ = 0;
  uint64_t run_entries_ = 0;
  std::array<uint64_t, 65> run_length_buckets_{};
  AdScratch owned_scratch_;  // used when the caller supplies no arena
  AdScratch* scratch_;
  AdLoserTree* tree_ = nullptr;
  size_t* next_idx_ = nullptr;
  Value* cur_dif_ = nullptr;
  PointId* cur_pid_ = nullptr;
  uint32_t* buf_pos_ = nullptr;
  uint32_t* buf_len_ = nullptr;
  const Value** col_vals_ = nullptr;    // direct path only
  const PointId** col_pids_ = nullptr;  // direct path only
  size_t* col_len_ = nullptr;           // direct path only
  Value* pair_min_ = nullptr;           // scan path only
};

}  // namespace knmatch::internal

#endif  // KNMATCH_CORE_AD_KERNEL_H_
