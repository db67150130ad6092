#include "store/codec.hpp"

#include <utility>
#include <variant>

#include "support/serialize.hpp"

// --- field lists --------------------------------------------------------------
// Each artifact struct's fields, once, in encoding order (the width rule is
// in support/serialize.hpp).  They live in namespace gcr, where Put and Get
// find them.

namespace gcr {

namespace {

// Nesting bound for the recursive Program decoder.  Real pipelines produce
// single-digit depths; the cap only guards the stack against a
// checksum-colliding adversarial payload.
constexpr int kMaxNodeDepth = 256;

}  // namespace

template <typename IO>
void fields(IO& io, Is<AffineN> auto& a) {
  io(a.c, a.s);
}

// --- Program ---------------------------------------------------------------

template <typename IO>
void fields(IO& io, Is<Subscript> auto& s) {
  io(s.depth, s.offset);
}
template <typename IO>
void fields(IO& io, Is<ArrayRef> auto& r) {
  io(r.array, r.subs);
}
template <typename IO>
void fields(IO& io, Is<GuardSpec> auto& g) {
  io(g.depth, g.lo, g.hi);
}
template <typename IO>
void fields(IO& io, Is<Child> auto& c) {
  io(c.guards, c.node);
}
template <typename IO>
void fields(IO& io, Is<Loop> auto& l) {
  io(l.var, l.lo, l.hi, l.reversed, l.body);
}
template <typename IO>
void fields(IO& io, Is<Assign> auto& a) {
  io(a.id, a.lhs, a.rhs, a.seed, a.label);
}
template <typename IO>
void fields(IO& io, Is<ArrayDecl> auto& a) {
  io(a.name, a.elemSize, a.extents);
}
template <typename IO>
void fields(IO& io, Is<Program> auto& p) {
  io(p.name, p.arrays, p.top);
}

// A node is a u8 tag, 0 for a Loop and 1 for an Assign, then that
// alternative's fields.
void fields(Put& io, const NodePtr& n) {
  io.w.u8(static_cast<std::uint8_t>(n->v.index()));
  std::visit(io, n->v);
}
void fields(Get& io, NodePtr& n) {
  GCR_CHECK(io.depth < kMaxNodeDepth, "serialized program nests too deeply");
  const std::uint8_t tag = io.r.u8();
  GCR_CHECK(tag <= 1, "unknown node tag");
  n = tag == 0 ? makeNode(Loop{}) : makeNode(Assign{});
  ++io.depth;
  std::visit(io, n->v);
  --io.depth;
}
void fields(MinSize& io, const NodePtr&) { io.bytes += 1; }

// --- reports, diagnostics, regrouping --------------------------------------

template <typename IO>
void fields(IO& io, Is<FusionReport> auto& f) {
  io(f.fusions, f.embeddings, f.peels, f.log, f.signals,
     f.loopsPerLevelBefore, f.loopsPerLevelAfter);
}
template <typename IO>
void fields(IO& io, Is<RegroupReport> auto& r) {
  io(r.compatibleGroups, r.partitionsFormed, r.log);
}
template <typename IO>
void fields(IO& io, Is<Diagnostic> auto& d) {
  io.bounded(d.severity, Severity::Note, Severity::Error);
  io(d.pass, d.rule, d.program, d.loc, d.ref, d.witness, d.message);
}

void fields(Put& io, const Regrouping& rg) { io(rg.partitions()); }
void fields(Get& io, Regrouping& rg) {
  Regrouping::Partitions partitions;
  io(partitions);
  rg = Regrouping::fromPartitions(std::move(partitions));
}

template <typename IO>
void fields(IO& io, Is<PipelineResult> auto& r) {
  io(r.program, r.regrouped, r.regrouping, r.fusionReport, r.regroupReport,
     r.unrolledLoops, r.arraysAfterSplit, r.distributedLoops, r.diagnostics);
}

// --- measurements and profiles ---------------------------------------------

template <typename IO>
void fields(IO& io, Is<MissCounts> auto& c) {
  io(c.refs, c.l1Misses, c.l2Misses, c.tlbMisses, c.l2Writebacks,
     c.l2Prefetches, c.l2PrefetchHits);
}
template <typename IO>
void fields(IO& io, Is<Measurement> auto& m) {
  io(m.counts, m.cycles, m.memoryTrafficBytes, m.effectiveBandwidth,
     m.wallSeconds, m.accessesPerSecond);
}

// A histogram is its cold count, then a bin count and bins 0 up to the
// highest non-empty one.
void fields(Put& io, const Log2Histogram& h) {
  const int top = h.highestNonEmptyBin();
  io.w.u64(h.coldCount()).u64(static_cast<std::uint64_t>(top + 1));
  for (int bin = 0; bin <= top; ++bin) io.w.u64(h.binCount(bin));
}
void fields(Get& io, Log2Histogram& h) {
  const std::uint64_t cold = io.r.u64();
  if (cold > 0) h.add(Log2Histogram::kCold, cold);
  const std::size_t bins = io.r.seqLen(8);
  GCR_CHECK(bins <= static_cast<std::size_t>(Log2Histogram::kMaxBin) + 1,
            "histogram bin count out of range");
  for (std::size_t bin = 0; bin < bins; ++bin) {
    const std::uint64_t count = io.r.u64();
    if (count > 0) h.add(Log2Histogram::binLow(static_cast<int>(bin)), count);
  }
}

template <typename IO>
void fields(IO& io, Is<ReuseProfile> auto& p) {
  io(p.histogram, p.accesses, p.distinctData);
}

// A symbolic expression is a presence flag, then SymExpr::encode's bytes.
void fields(Put& io, const SymExpr& e) {
  io.w.b(e.valid());
  if (e.valid()) e.encode(io.w);
}
void fields(Get& io, SymExpr& e) {
  if (io.r.b()) e = SymExpr::decode(io.r);
}
void fields(MinSize& io, const SymExpr&) { io.bytes += 1; }

template <typename IO>
void fields(IO& io, Is<SymbolicSiteInfo> auto& s) {
  io(s.stmtId, s.array, s.isWrite, s.operand, s.loc, s.text);
}
template <typename IO>
void fields(IO& io, Is<SymbolicSiteProfile> auto& e) {
  io.bounded(e.cls, ReuseClass::Cold, ReuseClass::CrossUnit);
  io(e.carryLevel);
  io.bounded(e.bailout, SymbolicBailout::None,
             SymbolicBailout::IncomparableGuard);
  io(e.distance, e.count, e.degree, e.evadable, e.imprecise);
}

// The sites and their profiles share one count and travel interleaved: each
// site, then its profile.
void fields(Put& io, const SymbolicReuseProfile& p) {
  GCR_ASSERT(p.sites.size() == p.perSite.size());
  io(p.minN, p.footprint);
  io.w.u64(p.sites.size());
  for (std::size_t i = 0; i < p.sites.size(); ++i)
    io(p.sites[i], p.perSite[i]);
}
void fields(Get& io, SymbolicReuseProfile& p) {
  io(p.minN);
  GCR_CHECK(p.minN >= 1, "symbolic profile minN out of range");
  io(p.footprint);
  const std::size_t n = io.r.seqLen(minSize<SymbolicSiteInfo>() +
                                    minSize<SymbolicSiteProfile>());
  p.sites.resize(n);
  p.perSite.resize(n);
  for (std::size_t i = 0; i < n; ++i) io(p.sites[i], p.perSite[i]);
}

template <typename IO>
void fields(IO& io, Is<CoreCacheStats> auto& c) {
  io(c.refs, c.l1Misses, c.l2Misses, c.l2Writebacks, c.lineAccesses,
     c.coldLines);
}
template <typename IO>
void fields(IO& io, Is<MulticoreProfile> auto& p) {
  io.u32(p.cores);
  io.check(p.cores >= 1, "multicore profile core count out of range");
  io.bounded(p.schedule, ParallelSchedule::Block, ParallelSchedule::Cyclic);
  io(p.llcCapacityLines, p.perCore);
  io.check(p.perCore.size() == static_cast<std::size_t>(p.cores),
           "multicore profile per-core count mismatch");
  io(p.shared, p.sharedAccesses, p.sharedColdLines, p.llcMissFraction,
     p.cycles, p.wallSeconds);
}

}  // namespace gcr

namespace gcr::store {

namespace {

// Per-codec payload versions, bumped independently of the file format when
// an artifact's encoding changes; a mismatch rejects (recompute), never
// mis-parses.
constexpr std::uint32_t kMeasurementCodec = 1;
constexpr std::uint32_t kProfileCodec = 1;
constexpr std::uint32_t kPipelineCodec = 1;
constexpr std::uint32_t kSymbolicProfileCodec = 1;
constexpr std::uint32_t kMulticoreProfileCodec = 1;

}  // namespace

std::vector<std::uint8_t> encodeMeasurement(const Measurement& m) {
  return encodeFields(kMeasurementCodec, m);
}
std::optional<Measurement> decodeMeasurement(
    std::span<const std::uint8_t> bytes) {
  return decodeFields<Measurement>(bytes, kMeasurementCodec);
}

std::vector<std::uint8_t> encodeReuseProfile(const ReuseProfile& p) {
  return encodeFields(kProfileCodec, p);
}
std::optional<ReuseProfile> decodeReuseProfile(
    std::span<const std::uint8_t> bytes) {
  return decodeFields<ReuseProfile>(bytes, kProfileCodec);
}

std::vector<std::uint8_t> encodePipelineResult(const PipelineResult& r) {
  return encodeFields(kPipelineCodec, r);
}
std::optional<PipelineResult> decodePipelineResult(
    std::span<const std::uint8_t> bytes) {
  return decodeFields<PipelineResult>(bytes, kPipelineCodec);
}

std::vector<std::uint8_t> encodeSymbolicProfile(
    const SymbolicReuseProfile& p) {
  return encodeFields(kSymbolicProfileCodec, p);
}
std::optional<SymbolicReuseProfile> decodeSymbolicProfile(
    std::span<const std::uint8_t> bytes) {
  return decodeFields<SymbolicReuseProfile>(bytes, kSymbolicProfileCodec);
}

std::vector<std::uint8_t> encodeMulticoreProfile(const MulticoreProfile& p) {
  return encodeFields(kMulticoreProfileCodec, p);
}
std::optional<MulticoreProfile> decodeMulticoreProfile(
    std::span<const std::uint8_t> bytes) {
  return decodeFields<MulticoreProfile>(bytes, kMulticoreProfileCodec);
}

}  // namespace gcr::store
