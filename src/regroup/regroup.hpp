// Multi-level inter-array data regrouping (Section 3, Figures 7/8).
//
// After aggressive fusion a loop touches many arrays; regrouping makes that
// access contiguous by interleaving arrays that are *always accessed
// together*, dimension by dimension from the outermost inward:
//
//   1. arrays are classified into *compatible* groups (same rank, extents
//      equal up to additive constants — "sizes differ by at most a constant
//      factor ... always accessed in the same order");
//   2. a dimension is marked un-groupable for an array when some access
//      iterates an outer data dimension with an inner loop (Figure 8 step 1);
//   3. for each dimension, the compatible group is partition-refined by the
//      array sets co-accessed by each loop that iterates that dimension —
//      two arrays stay grouped iff they are always accessed together
//      (conservative, so regrouping never puts useless data into a cache
//      block: guaranteed profitability, compile-time optimality);
//   4. the final layout interleaves each partition's members at each grouped
//      dimension (Figure 7: A[j,i]→D[1,j,1,i], B→D[2,j,1,i], C→D[j,2,i]).
//
// The result is a DataLayout (affine per-array address maps); the program
// itself is unchanged, so semantic preservation is structural.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "interp/layout.hpp"
#include "ir/diagnostic.hpp"
#include "ir/ir.hpp"

namespace gcr {

struct RegroupOptions {
  std::int64_t minN = 16;
  /// Skip interleaving at the innermost dimension (the paper's workaround
  /// for the SGI code generator: "grouped arrays up to the second innermost
  /// dimension").  Off by default — our backend has no such weakness.
  bool skipInnermostDim = false;
  /// Restrict grouping to the innermost dimension only (the single-level
  /// regrouping of the authors' earlier work) — ablation knob.
  bool innermostOnly = false;
};

struct RegroupReport {
  int compatibleGroups = 0;
  int partitionsFormed = 0;   ///< multi-member partitions at any dimension
  std::vector<std::string> log;
};

/// The analysis result: per-dimension partitions over the program's arrays.
class Regrouping {
 public:
  /// Run Figure 8 on a program.
  static Regrouping analyze(const Program& p, const RegroupOptions& opts = {},
                            RegroupReport* report = nullptr);

  /// Per-dimension partitions; partitions()[d] is partitionAt(d).
  using Partitions = std::vector<std::vector<std::vector<ArrayId>>>;

  /// Rebuild a Regrouping from its partitions(), the deserialization path
  /// of the persistent artifact store (store/codec.hpp).  The caller vouches
  /// that the partitions came from analyze() on the same program.
  static Regrouping fromPartitions(Partitions partitions) {
    Regrouping rg;
    rg.partitions_ = std::move(partitions);
    return rg;
  }
  const Partitions& partitions() const { return partitions_; }

  /// Materialize the layout at problem size n.
  DataLayout layout(const Program& p, std::int64_t n) const;

  /// Partition (list of member array sets, singletons included) at `dim`.
  const std::vector<std::vector<ArrayId>>& partitionAt(int dim) const {
    return partitions_[static_cast<std::size_t>(dim)];
  }
  int maxRank() const { return static_cast<int>(partitions_.size()); }

  /// Ids of arrays sharing a multi-member partition with `a` at `dim`.
  std::vector<ArrayId> groupedWith(ArrayId a, int dim) const;

 private:
  // partitions_[d] = partition of all arrays at dimension d (arrays of rank
  // <= d appear as singletons).  partitions_[d] refines partitions_[d-1].
  Partitions partitions_;
};

/// Regrouping legality as structured diagnostics.  Regrouping only relocates
/// data — the program is untouched — so legality is structural:
///   incompatible-group  a multi-member partition mixes arrays of different
///                       rank or with extents that differ non-constantly
///                       (error; witness = {dim});
///   refinement          partitions at dimension d do not refine dimension
///                       d-1 — the interleaved layout would not nest (error;
///                       witness = {dim});
///   layout-overlap      the materialized layout at n = minN maps two
///                       elements to one address, or an element outside the
///                       allocation (error; witness = {address}).
/// An empty result certifies the layout is a bijection for the checked size.
std::vector<Diagnostic> checkRegroupLegal(const Program& p,
                                          const Regrouping& rg,
                                          std::int64_t minN = 16,
                                          const std::string& programName = "");

}  // namespace gcr
