// Persistent, content-addressed artifact store — the disk tier behind the
// gcr::Engine caches (ROADMAP: "Persistent, shareable cache tier").
//
// Entries are keyed by (ArtifactKind, 128-bit semantic Signature) and live
// one-per-file under <dir>/objects/ in the format of store/format.hpp.
// Publication is crash-safe in the classic write-temp-then-rename shape:
// the entry is fully written and fsynced under <dir>/tmp/, then renamed
// into place (atomic on POSIX), then the objects directory is fsynced.  A
// reader therefore observes either no entry or a complete one — never a
// torn write — and concurrent writers of the same key settle by
// last-writer-wins with byte-identical content for identical inputs.
//
// The read path is zero-copy in the mold mmap style: get() maps the entry
// file read-only, validates header + checksums against the mapping, and
// hands the caller a payload view into the mapping itself; deserialization
// parses straight out of the page cache with no intermediate buffer.
//
// Failure philosophy: the store is a cache of recomputable artifacts, so
// every failure — missing entry, I/O error, version skew, corruption of any
// kind — degrades to a miss (counted, see StoreCounters) and the caller
// recomputes.  No failure mode may surface a wrong or partial artifact;
// tests/store/ enforces this with a fault-injection and corruption corpus.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "engine/signature.hpp"
#include "store/format.hpp"
#include "store/io.hpp"
#include "support/json.hpp"

namespace gcr::store {

/// Monotonic observability counters of one store instance.
struct StoreCounters {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;          ///< failed lookups, absent or rejected
                                     ///< (hits + misses == total gets; a
                                     ///< rejection also bumps corruptRejected)
  std::uint64_t puts = 0;            ///< successful publications
  std::uint64_t putFailures = 0;     ///< abandoned publications (I/O faults)
  std::uint64_t corruptRejected = 0; ///< entries rejected by validation
  std::uint64_t evictions = 0;       ///< entries removed by the size budget
  std::uint64_t bytesLoaded = 0;     ///< payload bytes served by hits
  std::uint64_t bytesStored = 0;     ///< payload bytes published
};

/// Writes the counters as one JSON object, the form gcr-verify --server
/// and the bench result envelope both print.
void writeJson(JsonWriter& j, const StoreCounters& c);

/// Checksum-validated, read-only view of one stored payload, backed by a
/// private mmap of the entry file; the view stays valid for the lifetime of
/// this object.  Move-only (owns the mapping).
class MappedEntry {
 public:
  MappedEntry() = default;
  MappedEntry(MappedEntry&& other) noexcept { *this = std::move(other); }
  MappedEntry& operator=(MappedEntry&& other) noexcept;
  MappedEntry(const MappedEntry&) = delete;
  MappedEntry& operator=(const MappedEntry&) = delete;
  ~MappedEntry();

  std::span<const std::uint8_t> payload() const { return payload_; }

 private:
  friend class ArtifactStore;
  void* map_ = nullptr;
  std::size_t mapBytes_ = 0;
  std::span<const std::uint8_t> payload_;
};

class ArtifactStore {
 public:
  struct Options {
    std::string dir;
    /// fsync entry + directory during publication.  Elide only where
    /// durability does not matter (single-run benchmarks); publication
    /// stays atomic either way.
    bool fsync = true;
    /// Size budget over all object files; 0 = unbounded.  Exceeding it
    /// after a put evicts oldest-modified entries first.
    std::uint64_t maxBytes = 0;
    /// Write-path syscalls; nullptr = plain POSIX (StoreIo::posix()).
    StoreIo* io = nullptr;
  };

  /// Open (creating <dir>, objects/ and tmp/ as needed) and sweep stale
  /// temp debris.  nullptr when the directory cannot be created or is not
  /// writable — callers treat that as "no disk tier", not an error.
  static std::unique_ptr<ArtifactStore> open(Options opts);

  /// Publish `payload` under (kind, sig); atomic, last-writer-wins.
  /// False when any step of the publication failed (nothing is visible).
  bool put(ArtifactKind kind, const Signature& sig,
           std::span<const std::uint8_t> payload);

  /// Validated lookup; nullopt on absence or any validation failure.  The
  /// offending entry is unlinked — after re-checking the path still names
  /// the inode that failed validation — so one corrupt entry costs one
  /// recompute without deleting a fresh entry renamed in concurrently.
  std::optional<MappedEntry> get(ArtifactKind kind, const Signature& sig);

  /// Remove tmp/ files older than `maxAgeSeconds` (crash debris from dead
  /// writers).  Age 0 removes all — only safe when no other process is
  /// publishing.  Returns the number removed.
  int removeStaleTempFiles(long long maxAgeSeconds = 3600);

  /// One object file as seen by a full-validation scan (gcr-verify
  /// --store-stats).
  struct EntryInfo {
    std::string file;          ///< file name under objects/
    std::uint64_t fileBytes = 0;
    bool valid = false;        ///< passed every check of format.hpp
    EntryHeader header;        ///< meaningful only when the header decoded
    bool headerDecoded = false;
  };

  /// Validate every object file; does not touch the counters.
  std::vector<EntryInfo> scan() const;

  StoreCounters counters() const;
  const std::string& dir() const { return dir_; }

 private:
  ArtifactStore(Options opts, std::string dir);

  std::string objectPath(ArtifactKind kind, const Signature& sig) const;
  void enforceSizeBudget();

  Options opts_;
  std::string dir_;
  std::string objectsDir_;
  std::string tmpDir_;
  StoreIo* io_;
  std::uint64_t tmpSeq_ = 0;

  mutable std::mutex mutex_;  // counters + tmpSeq_ only; filesystem work
                              // (puts, gets, eviction sweeps) runs unlocked
  StoreCounters counters_;
};

}  // namespace gcr::store
