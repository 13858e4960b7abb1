// The dimensionality curse of spatial access methods — the related-work
// motivation (Section 6) for why the paper does not build k-n-match on
// R-tree-like structures: "their performance deteriorates dramatically
// as dimensionality becomes high" [Weber et al., VLDB'98].
//
// For kNN across dimensionalities, this bench reports the fraction of
// R-tree nodes a best-first search visits (pruning power), the VA-file
// kNN refinement fraction, and modelled response times against the
// sequential scan. Expected shape: the R-tree wins in low dimensions
// and collapses to worse-than-scan by d ~ 16; the VA-file degrades far
// more slowly.

#include <cstdio>

#include "bench_common.h"

int main() {
  using namespace knmatch;
  bench::PrintHeader("R-tree dimensionality curse (kNN, uniform 20k)",
                     "Section 6 related-work claims; [21]'s motivation");

  eval::TablePrinter table({"d", "R-tree nodes visited %", "VA refined %",
                            "iDist examined %", "R-tree io (s)",
                            "VA io (s)", "iDist io (s)", "scan io (s)"});
  for (const size_t d : {size_t{2}, size_t{4}, size_t{8}, size_t{16},
                         size_t{32}}) {
    Dataset db = datagen::MakeUniform(20000, d, 400 + d);
    DiskSimulator disk;
    RowStore rows(db, &disk);
    RTree rtree = RTree::Build(db, &disk);
    VaFile va(db, &disk, 8);
    VaKnnSearcher va_knn(va, rows);
    IDistanceIndex idist(db, &disk);
    DiskScan scan(rows);

    auto queries = bench::SampleQueries(db, bench::kQueriesPerConfig,
                                        80 + d);
    double rtree_io = 0, va_io = 0, idist_io = 0, scan_io = 0;
    double visited = 0, refined = 0, examined = 0;
    for (const auto& q : queries) {
      // Each search's work count is recovered from its answer's
      // attributes_retrieved (see the searchers' Knn comments).
      KnMatchResult r;
      rtree_io += eval::MeasureQuery(&disk, [&] {
                    r = rtree.Knn(q, 10).value();
                  }).io_seconds;
      visited += static_cast<double>(r.attributes_retrieved /
                                     (rtree.node_capacity() * d)) /
                 static_cast<double>(rtree.num_nodes());
      va_io += eval::MeasureQuery(&disk, [&] {
                 r = va_knn.Knn(q, 10).value();
               }).io_seconds;
      refined += static_cast<double>(r.attributes_retrieved / d -
                                     db.size()) /
                 static_cast<double>(db.size());
      idist_io += eval::MeasureQuery(&disk, [&] {
                    r = idist.Knn(q, 10).value();
                  }).io_seconds;
      examined += static_cast<double>(r.attributes_retrieved / d) /
                  static_cast<double>(db.size());
      scan_io += eval::MeasureQuery(&disk, [&] {
                   scan.KnnEuclidean(q, 10).value();
                 }).io_seconds;
    }
    const double nq = static_cast<double>(queries.size());
    table.AddRow({std::to_string(d), eval::Fmt(100 * visited / nq, 1),
                  eval::Fmt(100 * refined / nq, 2),
                  eval::Fmt(100 * examined / nq, 1),
                  eval::Fmt(rtree_io / nq), eval::Fmt(va_io / nq),
                  eval::Fmt(idist_io / nq), eval::Fmt(scan_io / nq)});
  }
  table.Print(std::cout);
  std::printf("\nexpected shape: R-tree pruning collapses with d (visited "
              "fraction -> 100%%, random node I/O makes it far worse than "
              "a scan), while the VA-file degrades gracefully — exactly "
              "why the paper's disk competitors are scan and VA-file, "
              "not R-trees.\n");
  return 0;
}
