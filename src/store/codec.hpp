// Binary codecs for the artifacts the Engine persists: Measurements,
// ReuseProfiles and full PipelineResults (including the transformed Program
// tree and the Regrouping partitions, so a deserialized result can
// materialize layouts and assemble versions exactly like a fresh run).
//
// Each artifact struct is one field list in codec.cpp, written and read
// back by the field-list codec of support/serialize.hpp under its width
// rule; hand-written code remains only where the format is not a field
// list (the program node tag, histograms, regroupings, symbolic
// expressions and the symbolic profile's interleaved sites).
//
// Contracts, enforced by tests/store/store_codec_test.cpp and pinned to
// fixed bytes by tests/store/store_golden_test.cpp:
//   * round trip — decode(encode(x)) reproduces every field of x, doubles
//     bit-for-bit (NaN included);
//   * canonical — encode(decode(encode(x))) == encode(x) byte-for-byte,
//     which is what makes the store's content checksums meaningful;
//   * defensive — decode() of any byte soup returns nullopt, never throws,
//     never reads out of bounds (ByteReader bounds-checks every access);
//     trailing bytes after a well-formed value are rejected too.
//
// Compiled access plans are deliberately NOT serialized: a plan borrows
// pointers into its Program and layout, so persisting it would be a
// use-after-free by construction.  Plans re-compile per process (cheap next
// to simulation).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "analysis/symbolic_reuse.hpp"
#include "driver/measure.hpp"
#include "driver/pipeline.hpp"
#include "locality/multicore.hpp"
#include "locality/reuse_distance.hpp"
#include "store/format.hpp"

namespace gcr::store {

std::vector<std::uint8_t> encodeMeasurement(const Measurement& m);
std::optional<Measurement> decodeMeasurement(
    std::span<const std::uint8_t> bytes);

std::vector<std::uint8_t> encodeReuseProfile(const ReuseProfile& p);
std::optional<ReuseProfile> decodeReuseProfile(
    std::span<const std::uint8_t> bytes);

std::vector<std::uint8_t> encodePipelineResult(const PipelineResult& r);
std::optional<PipelineResult> decodePipelineResult(
    std::span<const std::uint8_t> bytes);

/// Symbolic reuse profiles (ArtifactKind::SymbolicProfile): per-site
/// formulas with their SymExpr trees serialized via SymExpr::encode, which
/// shares this codec's contracts (canonical bytes, defensive decode).
std::vector<std::uint8_t> encodeSymbolicProfile(const SymbolicReuseProfile& p);
std::optional<SymbolicReuseProfile> decodeSymbolicProfile(
    std::span<const std::uint8_t> bytes);

/// Multicore locality profiles (ArtifactKind::MulticoreProfile): per-core
/// private-level counts plus the composed shared-LLC histogram.
std::vector<std::uint8_t> encodeMulticoreProfile(const MulticoreProfile& p);
std::optional<MulticoreProfile> decodeMulticoreProfile(
    std::span<const std::uint8_t> bytes);

// --- the artifact table -----------------------------------------------------
// Artifact<T> is the one place an artifact type is paired with the
// ArtifactKind it persists under and its codec.  The Engine's load-or-compute
// ladder reads it for the disk tier; the server's wire half of the table
// (server::WireArtifact in server/protocol.hpp) adds the message kinds.

template <ArtifactKind K, auto Encode, auto Decode>
struct ArtifactCodec {
  static constexpr ArtifactKind kind = K;
  static constexpr auto encode = Encode;
  static constexpr auto decode = Decode;
};

template <typename T>
struct Artifact;
template <>
struct Artifact<PipelineResult>
    : ArtifactCodec<ArtifactKind::PipelineResult, encodePipelineResult,
                    decodePipelineResult> {};
template <>
struct Artifact<Measurement>
    : ArtifactCodec<ArtifactKind::Measurement, encodeMeasurement,
                    decodeMeasurement> {};
template <>
struct Artifact<ReuseProfile>
    : ArtifactCodec<ArtifactKind::ReuseProfile, encodeReuseProfile,
                    decodeReuseProfile> {};
template <>
struct Artifact<SymbolicReuseProfile>
    : ArtifactCodec<ArtifactKind::SymbolicProfile, encodeSymbolicProfile,
                    decodeSymbolicProfile> {};
template <>
struct Artifact<MulticoreProfile>
    : ArtifactCodec<ArtifactKind::MulticoreProfile, encodeMulticoreProfile,
                    decodeMulticoreProfile> {};

}  // namespace gcr::store
