#include "store/store.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <system_error>
#include <utility>

namespace gcr::store {

namespace fs = std::filesystem;

namespace {

/// objects/<32-hex>-<kind>.gcra
std::string objectFileName(ArtifactKind kind, const Signature& sig) {
  return sig.str() + "-" + artifactKindName(kind) + ".gcra";
}

struct FileAge {
  fs::path path;
  fs::file_time_type mtime;
  std::uint64_t bytes = 0;
};

/// Advisory cross-process lock on `<dir>/lock`, held around the three
/// operations that mutate objects/: publication rename, the eviction sweep,
/// and the reject-unlink stat/unlink pair.  With every mutator holding it,
/// a sweep can no longer delete an entry mid-publication and a rejection
/// can no longer unlink an entry that a concurrent publisher just renamed
/// into place — races the unlocked store tolerated (they cost a recompute,
/// never a wrong result) but no longer pays for.
///
/// The lock fd is opened per operation, NOT shared: flock ownership follows
/// the open-file-description, so a shared member fd would let one thread's
/// close release a lock another thread still holds.  Best-effort: when the
/// lock file cannot be created or flock fails, the operation proceeds
/// unlocked with exactly the pre-lock semantics.
class ScopedStoreLock {
 public:
  explicit ScopedStoreLock(const std::string& dir) {
    fd_ = ::open((dir + "/lock").c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
    if (fd_ >= 0 && ::flock(fd_, LOCK_EX) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~ScopedStoreLock() {
    if (fd_ >= 0) ::close(fd_);  // close releases the flock
  }
  ScopedStoreLock(const ScopedStoreLock&) = delete;
  ScopedStoreLock& operator=(const ScopedStoreLock&) = delete;

 private:
  int fd_ = -1;
};

}  // namespace

MappedEntry& MappedEntry::operator=(MappedEntry&& other) noexcept {
  if (this != &other) {
    if (map_ != nullptr) ::munmap(map_, mapBytes_);
    map_ = std::exchange(other.map_, nullptr);
    mapBytes_ = std::exchange(other.mapBytes_, 0);
    payload_ = std::exchange(other.payload_, {});
  }
  return *this;
}

MappedEntry::~MappedEntry() {
  if (map_ != nullptr) ::munmap(map_, mapBytes_);
}

ArtifactStore::ArtifactStore(Options opts, std::string dir)
    : opts_(opts),
      dir_(std::move(dir)),
      objectsDir_(dir_ + "/objects"),
      tmpDir_(dir_ + "/tmp"),
      io_(opts.io != nullptr ? opts.io : &StoreIo::posix()) {}

std::unique_ptr<ArtifactStore> ArtifactStore::open(Options opts) {
  if (opts.dir.empty()) return nullptr;
  std::error_code ec;
  fs::create_directories(opts.dir + "/objects", ec);
  if (ec) return nullptr;
  fs::create_directories(opts.dir + "/tmp", ec);
  if (ec) return nullptr;
  std::unique_ptr<ArtifactStore> s(
      new ArtifactStore(opts, fs::path(opts.dir).string()));
  s->removeStaleTempFiles();
  return s;
}

std::string ArtifactStore::objectPath(ArtifactKind kind,
                                      const Signature& sig) const {
  return objectsDir_ + "/" + objectFileName(kind, sig);
}

bool ArtifactStore::put(ArtifactKind kind, const Signature& sig,
                        std::span<const std::uint8_t> payload) {
  EntryHeader h;
  h.formatVersion = kFormatVersion;
  h.kind = kind;
  h.signature = sig;
  h.payloadBytes = payload.size();
  h.payloadChecksum = fnv1a64(payload);
  const std::array<std::uint8_t, kHeaderBytes> header = encodeHeader(h);

  std::string tmpPath;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tmpPath = tmpDir_ + "/" + objectFileName(kind, sig) + "." +
              std::to_string(::getpid()) + "." + std::to_string(tmpSeq_++) +
              ".tmp";
  }

  auto fail = [&](int fd) {
    if (fd >= 0) io_->close(fd);
    io_->unlink(tmpPath);  // best-effort; debris is swept by open()
    std::lock_guard<std::mutex> lock(mutex_);
    ++counters_.putFailures;
    return false;
  };

  const int fd = io_->openForWrite(tmpPath);
  if (fd < 0) return fail(-1);

  auto writeAll = [&](std::span<const std::uint8_t> bytes) {
    std::size_t done = 0;
    while (done < bytes.size()) {
      const long long w =
          io_->write(fd, bytes.data() + done, bytes.size() - done);
      if (w <= 0) return false;
      done += static_cast<std::size_t>(w);
    }
    return true;
  };
  if (!writeAll(header)) return fail(fd);
  if (!writeAll(payload)) return fail(fd);
  if (opts_.fsync && !io_->fsync(fd)) return fail(fd);
  if (!io_->close(fd)) return fail(-1);
  {
    ScopedStoreLock lock(dir_);
    if (!io_->rename(tmpPath, objectPath(kind, sig))) return fail(-1);
    if (opts_.fsync) io_->fsyncDir(objectsDir_);  // durability only; the
                                                  // rename is already visible
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++counters_.puts;
    counters_.bytesStored += payload.size();
  }
  if (opts_.maxBytes > 0) enforceSizeBudget();
  return true;
}

std::optional<MappedEntry> ArtifactStore::get(ArtifactKind kind,
                                              const Signature& sig) {
  const std::string path = objectPath(kind, sig);
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++counters_.misses;
    return std::nullopt;
  }

  struct stat st {};
  const bool haveStat = ::fstat(fd, &st) == 0;

  auto reject = [&] {
    if (fd >= 0) {  // fd may already be closed (and its number reused by
      ::close(fd);  // another thread) once the mapping holds the inode
      fd = -1;
    }
    // Self-healing: drop the bad entry so it costs one recompute — but only
    // if the path still names the inode that failed validation; a concurrent
    // writer may have renamed a fresh, valid entry into place since our
    // open(), and that entry must survive.  The advisory store lock makes
    // the stat/unlink pair atomic against every locking mutator
    // (publication renames, eviction sweeps); only an unlocked foreign
    // writer can still race it, degrading to one extra recompute, never a
    // wrong result.
    {
      ScopedStoreLock lock(dir_);
      struct stat cur;
      if (haveStat && ::stat(path.c_str(), &cur) == 0 &&
          cur.st_ino == st.st_ino && cur.st_dev == st.st_dev) {
        ::unlink(path.c_str());
      }
    }
    std::lock_guard<std::mutex> lock(mutex_);
    ++counters_.corruptRejected;
    ++counters_.misses;
    return std::nullopt;
  };

  if (!haveStat) return reject();
  const std::size_t fileBytes = static_cast<std::size_t>(st.st_size);
  if (fileBytes < kHeaderBytes) return reject();

  void* map = ::mmap(nullptr, fileBytes, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps the inode alive
  fd = -1;
  if (map == MAP_FAILED) return reject();

  MappedEntry entry;
  entry.map_ = map;
  entry.mapBytes_ = fileBytes;
  const std::span<const std::uint8_t> bytes(
      static_cast<const std::uint8_t*>(map), fileBytes);

  EntryHeader h;
  if (!decodeHeader(bytes, &h)) return reject();
  if (h.formatVersion != kFormatVersion) return reject();
  if (h.kind != kind) return reject();
  if (h.signature != sig) return reject();
  if (h.payloadBytes != fileBytes - kHeaderBytes) return reject();
  const std::span<const std::uint8_t> payload = bytes.subspan(kHeaderBytes);
  if (fnv1a64(payload) != h.payloadChecksum) return reject();

  entry.payload_ = payload;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++counters_.hits;
    counters_.bytesLoaded += payload.size();
  }
  return entry;
}

int ArtifactStore::removeStaleTempFiles(long long maxAgeSeconds) {
  int removed = 0;
  std::error_code ec;
  const auto now = fs::file_time_type::clock::now();
  for (const fs::directory_entry& e : fs::directory_iterator(tmpDir_, ec)) {
    std::error_code fec;
    const auto mtime = fs::last_write_time(e.path(), fec);
    if (fec) continue;
    const auto age =
        std::chrono::duration_cast<std::chrono::seconds>(now - mtime).count();
    if (age >= maxAgeSeconds) {
      if (fs::remove(e.path(), fec) && !fec) ++removed;
    }
  }
  return removed;
}

void ArtifactStore::enforceSizeBudget() {
  // Runs without mutex_ (holding it across a full directory walk would
  // serialize the tail of every put() and stall counters() readers), but
  // under the advisory store lock: the walk + removals become atomic
  // against publication renames and other sweeps, in this process and in
  // every other process sharing the directory.
  ScopedStoreLock storeLock(dir_);
  std::error_code ec;
  std::vector<FileAge> files;
  std::uint64_t total = 0;
  for (const fs::directory_entry& e : fs::directory_iterator(objectsDir_, ec)) {
    std::error_code fec;
    FileAge f;
    f.path = e.path();
    f.bytes = static_cast<std::uint64_t>(fs::file_size(e.path(), fec));
    if (fec) continue;
    f.mtime = fs::last_write_time(e.path(), fec);
    if (fec) continue;
    total += f.bytes;
    files.push_back(std::move(f));
  }
  if (total <= opts_.maxBytes) return;
  std::sort(files.begin(), files.end(),
            [](const FileAge& a, const FileAge& b) { return a.mtime < b.mtime; });
  std::uint64_t removed = 0;
  for (const FileAge& f : files) {
    if (total <= opts_.maxBytes) break;
    std::error_code fec;
    if (fs::remove(f.path, fec) && !fec) {
      total -= f.bytes;
      ++removed;
    }
  }
  if (removed > 0) {
    std::lock_guard<std::mutex> lock(mutex_);
    counters_.evictions += removed;
  }
}

std::vector<ArtifactStore::EntryInfo> ArtifactStore::scan() const {
  std::vector<EntryInfo> out;
  std::error_code ec;
  for (const fs::directory_entry& e : fs::directory_iterator(objectsDir_, ec)) {
    EntryInfo info;
    info.file = e.path().filename().string();
    std::error_code fec;
    info.fileBytes = static_cast<std::uint64_t>(fs::file_size(e.path(), fec));
    if (fec) {
      out.push_back(std::move(info));
      continue;
    }
    const int fd = ::open(e.path().c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
      out.push_back(std::move(info));
      continue;
    }
    struct stat st;
    if (::fstat(fd, &st) == 0 &&
        static_cast<std::size_t>(st.st_size) >= kHeaderBytes) {
      const std::size_t fileBytes = static_cast<std::size_t>(st.st_size);
      void* map = ::mmap(nullptr, fileBytes, PROT_READ, MAP_PRIVATE, fd, 0);
      if (map != MAP_FAILED) {
        const std::span<const std::uint8_t> bytes(
            static_cast<const std::uint8_t*>(map), fileBytes);
        if (decodeHeader(bytes, &info.header)) {
          info.headerDecoded = true;
          info.valid =
              info.header.formatVersion == kFormatVersion &&
              info.header.payloadBytes == fileBytes - kHeaderBytes &&
              fnv1a64(bytes.subspan(kHeaderBytes)) ==
                  info.header.payloadChecksum;
        }
        ::munmap(map, fileBytes);
      }
    }
    ::close(fd);
    out.push_back(std::move(info));
  }
  std::sort(out.begin(), out.end(),
            [](const EntryInfo& a, const EntryInfo& b) { return a.file < b.file; });
  return out;
}

StoreCounters ArtifactStore::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

void writeJson(JsonWriter& j, const StoreCounters& c) {
  j.beginObject();
  j.field("hits", c.hits);
  j.field("misses", c.misses);
  j.field("puts", c.puts);
  j.field("put_failures", c.putFailures);
  j.field("corrupt_rejected", c.corruptRejected);
  j.field("evictions", c.evictions);
  j.field("bytes_loaded", c.bytesLoaded);
  j.field("bytes_stored", c.bytesStored);
  j.endObject();
}

}  // namespace gcr::store
