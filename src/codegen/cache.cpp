//===--- codegen/cache.cpp - crash-consistent cache maintenance --------------===//
//
// Part of the Diderot-C++ reproduction (PLDI 2012).
//
// The maintenance half of the native compile cache: the index.tsv inventory
// (read, atomic rewrite), artifact integrity verification on disk hits,
// quarantine of corrupt artifacts, and the LRU size cap. The loader
// (native_load.cpp) calls in here around each compile/load; the serve
// daemon reads the counters through nativeCacheStats().
//
// Crash-consistency model: every index mutation is read-modify-write into a
// process-unique temp file, then rename(2)'d over index.tsv — atomic within
// a directory, so a reader (or a crash) sees either the old or the new
// index, never a torn line. In-process mutations serialize on one mutex;
// across processes the last rename wins, which can lose a *row update* but
// never corrupts the file — acceptable for an inventory whose source of
// truth is the .so files themselves.
//
//===----------------------------------------------------------------------===//

#include "codegen/cache.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <unistd.h>

#include "support/atomic_file.h"
#include "support/hash.h"
#include "support/strings.h"

namespace diderot::codegen {

namespace fs = std::filesystem;

namespace {

std::atomic<uint64_t> NQuarantined{0}, NEvicted{0};

/// Serializes in-process read-modify-write cycles on any index file. One
/// process rarely touches two cache directories, so a single mutex is fine.
std::mutex IndexMu;

int64_t nowUnixMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

fs::path soPath(const fs::path &Dir, const std::string &Key) {
  return Dir / strf("ddr-", Key, ".so");
}

/// Hash a file's bytes. Returns false when the file cannot be read.
bool hashFile(const fs::path &P, support::Hash128 &Out, int64_t &Bytes) {
  std::ifstream In(P, std::ios::binary);
  if (!In)
    return false;
  support::Fnv128 H;
  char Buf[65536];
  Bytes = 0;
  while (In.read(Buf, sizeof(Buf)) || In.gcount() > 0) {
    H.update(Buf, static_cast<size_t>(In.gcount()));
    Bytes += In.gcount();
    if (In.eof())
      break;
  }
  Out = H.digest();
  return true;
}

std::vector<CacheIndexEntry> readEntriesLocked(const fs::path &Dir) {
  std::vector<CacheIndexEntry> Entries;
  std::ifstream In(Dir / cacheIndexFile());
  if (!In)
    return Entries;
  std::string Line;
  while (std::getline(In, Line)) {
    std::vector<std::string> Cols = splitString(Line, '\t');
    if (Cols.size() < 7 || Cols[0].size() != 32)
      continue;
    CacheIndexEntry E;
    E.Key = Cols[0];
    E.Program = Cols[1];
    E.UnixMs = std::atoll(Cols[2].c_str());
    E.CompilerId = Cols[3];
    E.SoBytes = std::atoll(Cols[4].c_str());
    E.SoHash = Cols[5];
    E.LastUsedMs = std::atoll(Cols[6].c_str());
    Entries.push_back(std::move(E));
  }
  return Entries;
}

/// Write the full index atomically (support/atomic_file.h). Failures are
/// swallowed: the index is an inventory, not a source of truth.
void writeEntriesLocked(const fs::path &Dir,
                        const std::vector<CacheIndexEntry> &Entries) {
  std::string Text;
  for (const CacheIndexEntry &E : Entries)
    Text += strf(E.Key, '\t', E.Program, '\t', E.UnixMs, '\t', E.CompilerId,
                 '\t', E.SoBytes, '\t', E.SoHash, '\t', E.LastUsedMs, '\n');
  support::writeFileAtomicBestEffort((Dir / cacheIndexFile()).string(), Text);
}

/// Read-modify-write under the index mutex.
template <typename Fn> void mutateIndex(const fs::path &Dir, Fn &&Mutate) {
  std::lock_guard<std::mutex> G(IndexMu);
  std::vector<CacheIndexEntry> Entries = readEntriesLocked(Dir);
  if (Mutate(Entries))
    writeEntriesLocked(Dir, Entries);
}

} // namespace

std::vector<CacheIndexEntry> readCacheIndexEntries(const std::string &Dir) {
  std::lock_guard<std::mutex> G(IndexMu);
  return readEntriesLocked(Dir);
}

void recordCacheArtifact(const std::string &Dir, const std::string &Key,
                         const std::string &Program) {
  support::Hash128 H;
  int64_t Bytes = 0;
  if (!hashFile(soPath(Dir, Key), H, Bytes))
    return;
  int64_t Now = nowUnixMs();
  mutateIndex(Dir, [&](std::vector<CacheIndexEntry> &Entries) {
    for (CacheIndexEntry &E : Entries)
      if (E.Key == Key) {
        E.Program = Program;
        E.UnixMs = Now;
        E.CompilerId = hostCompilerId();
        E.SoBytes = Bytes;
        E.SoHash = H.hex();
        E.LastUsedMs = Now;
        return true;
      }
    CacheIndexEntry E;
    E.Key = Key;
    E.Program = Program;
    E.UnixMs = Now;
    E.CompilerId = hostCompilerId();
    E.SoBytes = Bytes;
    E.SoHash = H.hex();
    E.LastUsedMs = Now;
    Entries.push_back(std::move(E));
    return true;
  });
}

void touchCacheArtifact(const std::string &Dir, const std::string &Key) {
  int64_t Now = nowUnixMs();
  mutateIndex(Dir, [&](std::vector<CacheIndexEntry> &Entries) {
    for (CacheIndexEntry &E : Entries)
      if (E.Key == Key) {
        E.LastUsedMs = Now;
        return true;
      }
    return false; // no row — nothing to refresh
  });
}

ArtifactVerdict verifyCacheArtifact(const std::string &Dir,
                                    const std::string &Key) {
  CacheIndexEntry Row;
  bool Found = false;
  {
    std::lock_guard<std::mutex> G(IndexMu);
    for (CacheIndexEntry &E : readEntriesLocked(Dir))
      if (E.Key == Key) {
        Row = std::move(E);
        Found = true;
        break;
      }
  }
  if (!Found || Row.SoBytes < 0 || Row.SoHash.size() != 32)
    return ArtifactVerdict::Unverifiable;
  support::Hash128 H;
  int64_t Bytes = 0;
  if (!hashFile(soPath(Dir, Key), H, Bytes))
    return ArtifactVerdict::Corrupt; // indexed but unreadable
  if (Bytes != Row.SoBytes || H.hex() != Row.SoHash)
    return ArtifactVerdict::Corrupt;
  return ArtifactVerdict::Ok;
}

void quarantineCacheArtifact(const std::string &Dir, const std::string &Key,
                             const std::string &Reason) {
  fs::path Q = fs::path(Dir) / cacheQuarantineDir();
  std::error_code EC;
  fs::create_directories(Q, EC);
  fs::path From = soPath(Dir, Key);
  fs::path To = Q / strf("ddr-", Key, ".so.", nowUnixMs(), ".", ::getpid());
  fs::rename(From, To, EC);
  if (EC) {
    // Cross-device or permission trouble: removal still unblocks the
    // recompile, at the cost of the post-mortem copy.
    fs::remove(From, EC);
  } else {
    std::ofstream Note(To.string() + ".reason");
    Note << Reason << '\n';
  }
  NQuarantined.fetch_add(1, std::memory_order_relaxed);
  mutateIndex(Dir, [&](std::vector<CacheIndexEntry> &Entries) {
    size_t Before = Entries.size();
    std::erase_if(Entries,
                  [&](const CacheIndexEntry &E) { return E.Key == Key; });
    return Entries.size() != Before;
  });
}

uint64_t enforceCacheCap(const std::string &Dir, uint64_t MaxBytes,
                         const std::string &ProtectKey) {
  if (MaxBytes == 0)
    return 0;
  struct Victim {
    std::string Key;
    uint64_t Bytes;
    int64_t LastUsedMs;
  };
  std::vector<Victim> OnDisk;
  uint64_t Total = 0;
  std::lock_guard<std::mutex> G(IndexMu);
  std::vector<CacheIndexEntry> Entries = readEntriesLocked(Dir);
  std::error_code EC;
  for (fs::directory_iterator It(Dir, EC), End; !EC && It != End;
       It.increment(EC)) {
    std::string Name = It->path().filename().string();
    // ddr-<32 hex>.so
    if (Name.size() != 4 + 32 + 3 || Name.rfind("ddr-", 0) != 0 ||
        Name.substr(36) != ".so")
      continue;
    Victim V;
    V.Key = Name.substr(4, 32);
    V.Bytes = static_cast<uint64_t>(fs::file_size(It->path(), EC));
    if (EC) {
      EC.clear();
      continue;
    }
    V.LastUsedMs = 0;
    bool Indexed = false;
    for (const CacheIndexEntry &E : Entries)
      if (E.Key == V.Key) {
        V.LastUsedMs = E.LastUsedMs;
        Indexed = true;
        break;
      }
    if (!Indexed) {
      // Orphan (lost or malformed row): fall back to the file clock.
      auto T = fs::last_write_time(It->path(), EC);
      if (!EC)
        V.LastUsedMs = std::chrono::duration_cast<std::chrono::milliseconds>(
                           T.time_since_epoch())
                           .count();
      EC.clear();
    }
    Total += V.Bytes;
    OnDisk.push_back(std::move(V));
  }
  if (Total <= MaxBytes)
    return 0;
  std::sort(OnDisk.begin(), OnDisk.end(), [](const Victim &A, const Victim &B) {
    return A.LastUsedMs < B.LastUsedMs;
  });
  uint64_t Evicted = 0;
  bool Changed = false;
  for (const Victim &V : OnDisk) {
    if (Total <= MaxBytes)
      break;
    if (V.Key == ProtectKey)
      continue;
    fs::remove(soPath(Dir, V.Key), EC);
    fs::remove(fs::path(Dir) / strf("ddr-", V.Key, ".cpp"), EC);
    Total -= V.Bytes < Total ? V.Bytes : Total;
    size_t Before = Entries.size();
    std::erase_if(Entries,
                  [&](const CacheIndexEntry &E) { return E.Key == V.Key; });
    Changed |= Entries.size() != Before;
    ++Evicted;
  }
  if (Changed)
    writeEntriesLocked(Dir, Entries);
  NEvicted.fetch_add(Evicted, std::memory_order_relaxed);
  return Evicted;
}

uint64_t cacheQuarantineCount() {
  return NQuarantined.load(std::memory_order_relaxed);
}
uint64_t cacheEvictionCount() {
  return NEvicted.load(std::memory_order_relaxed);
}

} // namespace diderot::codegen
